#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace lsml::server {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Numeric IPv4 only, plus the "localhost" spelling — the daemon is a
/// loopback/cluster-internal service, not a name-resolving client.
in_addr_t resolve_host(const std::string& host) {
  const std::string spelled = host == "localhost" ? "127.0.0.1" : host;
  in_addr addr{};
  if (inet_pton(AF_INET, spelled.c_str(), &addr) != 1) {
    throw std::runtime_error("cannot parse host '" + host +
                             "' (use a numeric IPv4 address)");
  }
  return addr.s_addr;
}

std::string oversized_error_line(std::size_t max_bytes) {
  Json r = Json::object();
  r.set("ok", false);
  r.set("error", "request exceeds --max-request-bytes (" +
                     std::to_string(max_bytes) + "); closing connection");
  return r.dump() + "\n";
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {
  obs::Registry& reg = obs::Registry::instance();
  const auto alias = [&](const char* name, const obs::Counter& c) {
    metric_regs_.push_back(reg.register_counter(name, &c));
  };
  alias("lsml_server_connections_total", stats_.connections);
  alias("lsml_server_over_connection_cap_total", stats_.over_connection_cap);
  alias("lsml_server_oversized_rejects_total", stats_.oversized_rejects);
  alias("lsml_server_io_errors_total", stats_.io_errors);
  alias("lsml_server_backpressure_pauses_total", stats_.backpressure_pauses);
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) {
    return;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    fail_errno("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = resolve_host(options_.host);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail_errno("bind " + options_.host + ":" + std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 1024) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  pool_ = std::make_unique<core::ThreadPool>(
      options_.num_threads > 0 ? static_cast<std::size_t>(options_.num_threads)
                               : 0);
  loops_.clear();
  for (std::size_t i = 0; i <= pool_->num_threads(); ++i) {
    loops_.push_back(std::make_unique<Loop>());
  }
  open_conns_.store(0);
  next_conn_id_ = 0;
  loops_drained_ = 0;
  running_.store(true);
  for (const auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { loop_main(*l); });
  }
}

void Server::loop_main(Loop& loop) {
  if (&loop == loops_.front().get()) {
    loop.events.add(listen_fd_, core::EventLoop::kRead,
                    [this](std::uint32_t) { on_listen_ready(); });
  }
  loop.events.run();
  // Anything still registered when the loop exits (force-closed drain
  // path) is torn down here, on the loop thread, after run() returned.
  for (auto& [id, conn] : loop.conns) {
    ::close(conn->fd);
  }
  loop.conns.clear();
}

void Server::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Phase 1 — drain: stop accepting, stop reading, let queued and
  // in-flight requests finish and their responses flush. Loop 0 posts the
  // drain to every loop after its own connection hand-offs, so no
  // connection reaches a loop after that loop drained.
  loops_.front()->events.post([this] { begin_drain(); });
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(options_.drain_ms),
                       [this] { return loops_drained_ == loops_.size(); });
  }
  // Phase 2 — whatever outlived the drain window (stalled reader, runaway
  // request) is cut off; its worker's late response is dropped harmlessly.
  // The stop goes through loop 0 for the same ordering reason.
  loops_.front()->events.post([this] {
    for (const auto& loop : loops_) {
      loop->events.post([this, l = loop.get()] {
        while (!l->conns.empty()) {
          close_conn(*l->conns.begin()->second);
        }
        l->events.stop();
      });
    }
  });
  for (const auto& loop : loops_) {
    loop->thread.join();
  }
  pool_.reset();  // drains in-flight work; late posts land in dead loops
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::begin_drain() {
  loops_.front()->events.remove(listen_fd_);
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (const auto& loop : loops_) {
    loop->events.post([this, l = loop.get()] { drain_loop(*l); });
  }
}

void Server::drain_loop(Loop& loop) {
  loop.draining = true;
  std::vector<Conn*> conns;
  for (auto& [id, conn] : loop.conns) {
    conns.push_back(conn.get());
  }
  for (Conn* conn : conns) {
    conn->read_open = false;
    conn->read_buf.clear();  // partial lines are dropped, as before
    update_interest(*conn);
    settle(*conn);  // closes what is already idle
  }
  maybe_finish_drain(loop);
}

void Server::maybe_finish_drain(Loop& loop) {
  if (!loop.draining || loop.drain_reported || !loop.conns.empty()) {
    return;
  }
  loop.drain_reported = true;
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    ++loops_drained_;
  }
  drain_cv_.notify_all();
}

// ---------------------------------------------------------------- accept

void Server::on_listen_ready() {
  while (true) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof options_.send_buffer_bytes);
    }
    // Only this thread admits connections, so the load-then-add below
    // cannot over-admit; other loops only ever lower the count.
    if (options_.max_connections > 0 &&
        open_conns_.load() >= options_.max_connections) {
      stats_.over_connection_cap.fetch_add(1, std::memory_order_relaxed);
      Json r = Json::object();
      r.set("ok", false);
      r.set("error", "connection limit (" +
                         std::to_string(options_.max_connections) +
                         ") reached; closing connection");
      const std::string line = r.dump() + "\n";
      // Best effort: the kernel buffer of a fresh socket always holds one
      // short line, and a peer that vanished first does not matter.
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    open_conns_.fetch_add(1);
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    if (options_.verbosity >= 1) {
      std::fprintf(stderr, "lsml serve: connection from %s:%d\n",
                   inet_ntoa(peer.sin_addr), ntohs(peer.sin_port));
    }
    const std::uint64_t id = next_conn_id_++;
    Loop& owner = *loops_[id % loops_.size()];
    owner.events.post([this, &owner, id, fd] { adopt(owner, id, fd); });
  }
}

void Server::adopt(Loop& loop, std::uint64_t id, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->loop = &loop;
  conn->id = id;
  conn->fd = fd;
  loop.conns.emplace(id, std::move(conn));
  loop.events.add(fd, core::EventLoop::kRead,
                  [this, &loop, id](std::uint32_t ready) {
                    on_conn_event(loop, id, ready);
                  });
}

// ------------------------------------------------------------ connection

void Server::on_conn_event(Loop& loop, std::uint64_t id, std::uint32_t ready) {
  const auto it = loop.conns.find(id);
  if (it == loop.conns.end()) {
    return;
  }
  Conn& conn = *it->second;
  if ((ready & core::EventLoop::kError) != 0) {
    // EPOLLERR/EPOLLHUP: the peer is gone in both directions — nothing we
    // still hold can be delivered. A busy worker's response is dropped
    // when its post() fails to find the id.
    close_conn(conn);
    return;
  }
  if ((ready & core::EventLoop::kWrite) != 0) {
    flush(conn);
  }
  if ((ready & core::EventLoop::kRead) != 0 && conn.read_open &&
      !conn.read_paused) {
    handle_readable(conn);
  }
  run_queued(conn);
  flush(conn);
  settle(conn);
}

void Server::handle_readable(Conn& conn) {
  // One chunk per readiness event: level-triggered epoll re-arms while
  // data remains, which keeps one firehose client from starving the rest.
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      frame_data(conn, chunk, static_cast<std::size_t>(n));
      return;
    }
    if (n == 0) {
      conn.read_open = false;  // orderly EOF; partial line is dropped
      conn.read_buf.clear();
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
    conn.read_open = false;
    conn.read_buf.clear();
    return;
  }
}

bool Server::take_line(Conn& conn, std::string line) {
  if (!line.empty() && line.back() == '\r') {
    line.pop_back();
  }
  if (line.empty()) {
    return true;
  }
  if (options_.max_request_bytes > 0 &&
      line.size() > options_.max_request_bytes) {
    reject_oversized(conn);
    return false;
  }
  conn.pending_bytes += line.size();
  conn.pending.push_back({std::move(line), std::chrono::steady_clock::now()});
  return true;
}

void Server::frame_data(Conn& conn, const char* data, std::size_t len) {
  // Frame straight out of the recv chunk: complete lines are copied once
  // (into pending), and read_buf only ever holds a trailing partial line —
  // the common whole-request-per-chunk case never round-trips through it.
  const std::size_t max_bytes = options_.max_request_bytes;
  std::size_t start = 0;
  if (!conn.read_buf.empty()) {
    // Finish the partial line carried over from earlier chunks.
    const auto* nl = static_cast<const char*>(::memchr(data, '\n', len));
    if (nl == nullptr) {
      conn.read_buf.append(data, len);
      if (max_bytes > 0 && conn.read_buf.size() > max_bytes) {
        // An unterminated line already past the cap mid-frame: same policy
        // as a framed oversized line — answer once, then hang up; reading
        // on would be unbounded memory.
        reject_oversized(conn);
      }
      return;
    }
    const auto idx = static_cast<std::size_t>(nl - data);
    std::string line = std::move(conn.read_buf);
    conn.read_buf.clear();
    line.append(data, idx);
    if (!take_line(conn, std::move(line))) {
      return;
    }
    start = idx + 1;
  }
  while (start < len) {
    const auto* nl =
        static_cast<const char*>(::memchr(data + start, '\n', len - start));
    if (nl == nullptr) {
      conn.read_buf.assign(data + start, len - start);
      if (max_bytes > 0 && conn.read_buf.size() > max_bytes) {
        reject_oversized(conn);
      }
      return;
    }
    const auto idx = static_cast<std::size_t>(nl - data);
    if (!take_line(conn, std::string(data + start, idx - start))) {
      return;
    }
    start = idx + 1;
  }
}

void Server::reject_oversized(Conn& conn) {
  stats_.oversized_rejects.fetch_add(1, std::memory_order_relaxed);
  conn.read_open = false;
  conn.read_buf.clear();  // nothing past the poison line is trusted
  // Requests framed before the poison line still get their responses (the
  // historical serial behavior); run_queued sends the error line after
  // them.
  conn.oversized = true;
}

void Server::maybe_send_reject(Conn& conn) {
  if (!conn.oversized || conn.close_after_flush || conn.busy ||
      !conn.pending.empty()) {
    return;
  }
  conn.close_after_flush = true;
  conn.write_buf += oversized_error_line(options_.max_request_bytes);
}

void Server::run_queued(Conn& conn) {
  conn.yielded = false;
  std::size_t spent = 0;
  while (!conn.busy && !conn.pending.empty() && !conn.broken) {
    if (conn.write_buf.size() - conn.write_off >
        options_.write_high_water_bytes) {
      // A reader this far behind gets no new replies until it catches up;
      // write readiness resumes the queue.
      flush(conn);
      if (conn.write_buf.size() - conn.write_off >
          options_.write_high_water_bytes) {
        break;
      }
    }
    if (spent >= kTurnBytes) {
      conn.yielded = true;  // write readiness brings the next turn
      break;
    }
    Pending next = std::move(conn.pending.front());
    conn.pending.pop_front();
    conn.pending_bytes -= next.line.size();
    spent += next.line.size();
    if (next.line.size() > kInlineLineBytes) {
      to_pool(conn, [this, next = std::move(next)] {
        return service_.handle_line(next.line, next.received_at);
      });
      break;
    }
    Service::Request request = service_.parse(next.line, next.received_at);
    if (!service_.prepare_inline(request)) {
      to_pool(conn, [this, request = std::move(request)] {
        return service_.execute(request);
      });
      break;
    }
    conn.write_buf += service_.execute(request);
    conn.write_buf.push_back('\n');
  }
  maybe_send_reject(conn);
}

template <typename Work>
void Server::to_pool(Conn& conn, Work work) {
  conn.busy = true;
  Loop& loop = *conn.loop;
  const std::uint64_t id = conn.id;
  // Dropping the future is safe: execute never throws.
  (void)pool_->submit([this, &loop, id, work = std::move(work)] {
    loop.events.post([this, &loop, id, response = work()]() mutable {
      finish_pooled(loop, id, std::move(response));
    });
  });
}

void Server::finish_pooled(Loop& loop, std::uint64_t id,
                           std::string response) {
  const auto it = loop.conns.find(id);
  if (it == loop.conns.end()) {
    return;  // connection died while the worker computed
  }
  Conn& conn = *it->second;
  conn.busy = false;
  conn.write_buf += response;
  conn.write_buf.push_back('\n');
  run_queued(conn);
  flush(conn);
  settle(conn);
}

void Server::flush(Conn& conn) {
  // Span only when there are bytes to move (flush is also called to
  // re-evaluate interest with an empty buffer).
  obs::ScopedSpan write_span(
      conn.write_off < conn.write_buf.size() ? "write" : nullptr, "server");
  while (conn.write_off < conn.write_buf.size() && !conn.broken) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_off,
               conn.write_buf.size() - conn.write_off, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.write_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
    conn.broken = true;
  }
  if (conn.write_off >= conn.write_buf.size()) {
    conn.write_buf.clear();
    conn.write_off = 0;
  } else if (conn.write_off > (conn.write_buf.size() >> 1)) {
    // Compact once the sent prefix dominates, keeping the buffer O(unsent).
    conn.write_buf.erase(0, conn.write_off);
    conn.write_off = 0;
  }
  const std::size_t unsent = conn.write_buf.size() - conn.write_off;
  const std::size_t high = options_.write_high_water_bytes;
  if (!conn.read_paused && (unsent > high || conn.pending_bytes > high)) {
    // Backpressure: a reader this far behind, or a writer this far ahead
    // of its queue, stops driving new requests until it catches up.
    conn.read_paused = true;
    stats_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
  } else if (conn.read_paused && unsent <= high / 2 &&
             conn.pending_bytes <= high / 2) {
    conn.read_paused = false;
  }
  update_interest(conn);
}

void Server::update_interest(Conn& conn) {
  std::uint32_t interest = 0;
  if (conn.read_open && !conn.read_paused && !conn.close_after_flush) {
    interest |= core::EventLoop::kRead;
  }
  // A connected socket reports write readiness on the next epoll cycle,
  // which is how a connection that yielded its turn gets the next one.
  if (conn.write_off < conn.write_buf.size() || conn.yielded) {
    interest |= core::EventLoop::kWrite;
  }
  conn.loop->events.set_interest(conn.fd, interest);
}

void Server::settle(Conn& conn) {
  const bool write_done = conn.write_off >= conn.write_buf.size();
  const bool done =
      conn.broken ||
      (conn.close_after_flush
           ? write_done && !conn.busy
           : !conn.read_open && !conn.busy && conn.pending.empty() &&
                 write_done);
  if (done) {
    close_conn(conn);
  }
}

void Server::close_conn(Conn& conn) {
  Loop& loop = *conn.loop;
  loop.events.remove(conn.fd);
  ::close(conn.fd);
  loop.conns.erase(conn.id);  // destroys conn
  open_conns_.fetch_sub(1);
  maybe_finish_drain(loop);
}

}  // namespace lsml::server
