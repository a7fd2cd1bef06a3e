// Closed-loop load generator for `lsml serve`.
//
// Measures request/response throughput and latency percentiles of the
// serving daemon from 1 up to 1024+ concurrent connections. The load side
// reuses core::EventLoop: ONE client thread multiplexes every connection
// over nonblocking sockets, so a 1024-connection point costs 1024 fds, not
// 1024 threads — the same trick the server itself pulls. By default the
// bench starts an in-process server (ephemeral port, hardware-width worker
// pool) and drives it over real TCP; `--connect HOST:PORT` aims it at an
// externally started `lsml serve` instead (the nightly soak does this).
//
// Modes:
//   eval   (default) one learn seeds a model, then every connection
//          replays a fixed eval batch — the paper's deployment story
//          (train offline, answer queries fast) and the acceptance
//          criterion's scaling workload.
//   ping   protocol-only round trips (optionally with a server-side
//          sleep) — isolates transport overhead from synthesis work.
//
// Output: one table row per connection count with req/s and p50/p95/p99
// latency under saturation, a greppable `serve-bench:` summary line per
// row, and the 1->8 connection scaling factor. `--json FILE` snapshots the
// table together with a `host` object (nproc, CPU model, SIMD backend,
// build type, compiler); `--check FILE` compares the run against such a
// snapshot and fails (exit 1) when req/s drops or p99 grows by more than
// `--max-regress` (default 0.25) at any connection count — the nightly
// perf gate against the committed BENCH_serve.json. It refuses (exit 3,
// before measuring) a snapshot whose host differs from this one: numbers
// from other hardware or another build say nothing about a regression.
//
//   bench_serve [--connect H:P] [--threads N] [--duration-s D]
//               [--conns 1,8,64,...] [--rows R] [--mode eval|ping]
//               [--sleep-ms S] [--json FILE] [--check FILE]
//               [--max-regress R]

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/event_loop.hpp"
#include "core/rng.hpp"
#include "obs/registry.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/server.hpp"

namespace {

using namespace lsml;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string connect_host;  ///< empty = start an in-process server
  int connect_port = 0;
  int threads = 0;  ///< in-process server pool width (0 = hardware)
  double duration_s = 3.0;
  std::vector<int> conns = {1, 8, 64, 256, 1024};
  std::size_t rows = 256;  ///< minterms per eval request
  std::string mode = "eval";
  std::int64_t sleep_ms = 0;    ///< ping mode: server-side sleep
  std::string json_path;        ///< write a snapshot here
  std::string check_path;       ///< compare against this snapshot
  double max_regress = 0.25;    ///< allowed relative regression
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "bench_serve: %s\n"
               "usage: bench_serve [--connect H:P] [--threads N]\n"
               "                   [--duration-s D] [--conns 1,8,64,...]\n"
               "                   [--rows R] [--mode eval|ping]\n"
               "                   [--sleep-ms S] [--json FILE]\n"
               "                   [--check FILE] [--max-regress R]\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  options.threads = core::threads_from_env("LSML_THREADS", 0);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage((arg + " needs a value").c_str());
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      const std::string hp = value();
      const std::size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        usage("--connect needs HOST:PORT");
      }
      options.connect_host = hp.substr(0, colon);
      options.connect_port = std::atoi(hp.c_str() + colon + 1);
      if (options.connect_port <= 0) {
        usage("--connect needs a positive port");
      }
    } else if (arg == "--threads") {
      options.threads = std::atoi(value().c_str());
    } else if (arg == "--duration-s") {
      options.duration_s = std::atof(value().c_str());
      if (options.duration_s <= 0) {
        usage("--duration-s must be positive");
      }
    } else if (arg == "--conns") {
      options.conns.clear();
      std::istringstream list(value());
      std::string item;
      while (std::getline(list, item, ',')) {
        const int n = std::atoi(item.c_str());
        if (n <= 0) {
          usage("--conns needs positive integers");
        }
        options.conns.push_back(n);
      }
      if (options.conns.empty()) {
        usage("--conns is empty");
      }
    } else if (arg == "--rows") {
      options.rows = static_cast<std::size_t>(std::atoll(value().c_str()));
      if (options.rows == 0) {
        usage("--rows must be positive");
      }
    } else if (arg == "--mode") {
      options.mode = value();
      if (options.mode != "eval" && options.mode != "ping") {
        usage("--mode must be eval or ping");
      }
    } else if (arg == "--sleep-ms") {
      options.sleep_ms = std::atoll(value().c_str());
    } else if (arg == "--json") {
      options.json_path = value();
    } else if (arg == "--check") {
      options.check_path = value();
    } else if (arg == "--max-regress") {
      options.max_regress = std::atof(value().c_str());
      if (options.max_regress <= 0) {
        usage("--max-regress must be positive");
      }
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  return options;
}

/// Lifts RLIMIT_NOFILE far enough for `conns` sockets plus slack; the
/// 1024-connection point does not fit the common 1024 default soft limit.
void raise_fd_limit(int conns) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) {
    return;
  }
  const rlim_t needed = static_cast<rlim_t>(conns) + 128;
  if (limit.rlim_cur >= needed) {
    return;
  }
  limit.rlim_cur = needed > limit.rlim_max ? limit.rlim_max : needed;
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

/// Random 10-input training PLA (learned once to seed the eval workload).
std::string training_pla(core::Rng& rng) {
  constexpr std::size_t kInputs = 10;
  constexpr std::size_t kRows = 400;
  std::ostringstream os;
  os << ".i " << kInputs << "\n.o 1\n";
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::uint64_t bits = rng.next();
    for (std::size_t c = 0; c < kInputs; ++c) {
      os << (((bits >> c) & 1u) != 0 ? '1' : '0');
    }
    // A learnable but non-trivial target: majority of three columns.
    const int votes = static_cast<int>((bits >> 0) & 1u) +
                      static_cast<int>((bits >> 3) & 1u) +
                      static_cast<int>((bits >> 7) & 1u);
    os << ' ' << (votes >= 2 ? '1' : '0') << '\n';
  }
  os << ".e\n";
  return os.str();
}

struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Percentiles percentiles_ms(std::vector<double>& latencies_ms) {
  Percentiles p;
  if (latencies_ms.empty()) {
    return p;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto at = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

struct RoundResult {
  int conns = 0;
  std::uint64_t requests = 0;
  double reqs_per_s = 0.0;
  Percentiles latency;
};

/// One multiplexed closed-loop connection: exactly one request in flight;
/// the first response is untimed warmup.
struct LoadConn {
  int fd = -1;
  std::string rx;          ///< bytes not yet framed into a response line
  std::size_t tx_off = 0;  ///< progress into the shared request line
  bool sending = false;
  bool warmed = false;
  bool active = true;
  Clock::time_point sent_at{};
  std::vector<double> latencies_ms;
};

/// Drives `conns` connections off one EventLoop thread (this thread).
RoundResult run_round(const std::string& host, int port,
                      const std::string& request_line, int conns,
                      double duration_s) {
  const std::string wire = request_line + "\n";
  in_addr addr{};
  const std::string spelled = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, spelled.c_str(), &addr) != 1) {
    std::fprintf(stderr, "bench_serve: cannot parse host '%s'\n",
                 host.c_str());
    std::exit(1);
  }

  core::EventLoop loop;
  std::vector<std::unique_ptr<LoadConn>> state;
  state.reserve(static_cast<std::size_t>(conns));
  int live = 0;
  std::string failure;
  Clock::time_point end_at{};  // set once every connection is up

  const auto fail = [&](const std::string& what) {
    if (failure.empty()) {
      failure = what + ": " + std::strerror(errno);
    }
    loop.stop();
  };

  const auto update_interest = [&](LoadConn& conn) {
    std::uint32_t interest = core::EventLoop::kRead;
    if (conn.sending) {
      interest |= core::EventLoop::kWrite;
    }
    loop.set_interest(conn.fd, interest);
  };

  const auto finish_conn = [&](LoadConn& conn) {
    conn.active = false;
    loop.remove(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
    if (--live == 0) {
      loop.stop();
    }
  };

  // Forward declaration dance: try_send is used from both the readiness
  // callback and send_next.
  std::function<void(LoadConn&)> try_send = [&](LoadConn& conn) {
    while (conn.tx_off < wire.size()) {
      const ssize_t n = ::send(conn.fd, wire.data() + conn.tx_off,
                               wire.size() - conn.tx_off, MSG_NOSIGNAL);
      if (n >= 0) {
        conn.tx_off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn.sending = true;
        update_interest(conn);
        return;
      }
      fail("send");
      return;
    }
    conn.sending = false;
    update_interest(conn);
  };

  const auto send_next = [&](LoadConn& conn) {
    conn.tx_off = 0;
    conn.sent_at = Clock::now();
    try_send(conn);
  };

  const auto on_response = [&](LoadConn& conn) {
    const auto now = Clock::now();
    if (conn.warmed) {
      conn.latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(now - conn.sent_at)
              .count());
    } else {
      conn.warmed = true;
    }
    if (now < end_at) {
      send_next(conn);
    } else {
      finish_conn(conn);
    }
  };

  const auto on_ready = [&](LoadConn& conn, std::uint32_t ready) {
    if (!conn.active) {
      return;
    }
    if ((ready & core::EventLoop::kError) != 0) {
      errno = ECONNRESET;
      fail("connection");
      return;
    }
    if ((ready & core::EventLoop::kWrite) != 0 && conn.sending) {
      try_send(conn);
      if (!failure.empty()) {
        return;
      }
    }
    if ((ready & core::EventLoop::kRead) == 0) {
      return;
    }
    char chunk[64 * 1024];
    while (conn.active) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        conn.rx.append(chunk, static_cast<std::size_t>(n));
        std::size_t newline;
        while (conn.active &&
               (newline = conn.rx.find('\n')) != std::string::npos) {
          const std::string line = conn.rx.substr(0, newline);
          conn.rx.erase(0, newline + 1);
          if (line.find("\"ok\":true") == std::string::npos) {
            std::fprintf(stderr, "bench_serve: request failed: %s\n",
                         line.c_str());
            std::exit(1);
          }
          on_response(conn);
        }
        continue;
      }
      if (n == 0) {
        errno = ECONNRESET;
        fail("server closed the connection");
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      fail("recv");
      return;
    }
  };

  // Connect everything up front (blocking connects, sequential: loopback
  // SYNs are cheap), then flip to nonblocking for the loop.
  for (int c = 0; c < conns; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      std::fprintf(stderr, "bench_serve: socket: %s\n", std::strerror(errno));
      std::exit(1);
    }
    sockaddr_in peer{};
    peer.sin_family = AF_INET;
    peer.sin_addr = addr;
    peer.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&peer), sizeof peer) != 0) {
      std::fprintf(stderr, "bench_serve: connect (conn %d): %s\n", c,
                   std::strerror(errno));
      std::exit(1);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    auto conn = std::make_unique<LoadConn>();
    conn->fd = fd;
    LoadConn& ref = *conn;
    state.push_back(std::move(conn));
    ++live;
    loop.add(fd, core::EventLoop::kRead,
             [&on_ready, conn = &ref](std::uint32_t ready) {
               on_ready(*conn, ready);
             });
  }

  const auto wall_start = Clock::now();
  end_at = wall_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(duration_s));
  for (auto& conn : state) {
    send_next(*conn);  // the warmup request
  }
  loop.run();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  if (!failure.empty()) {
    std::fprintf(stderr, "bench_serve: %s\n", failure.c_str());
    std::exit(1);
  }

  RoundResult result;
  result.conns = conns;
  std::vector<double> all;
  for (const auto& conn : state) {
    result.requests += conn->latencies_ms.size();
    all.insert(all.end(), conn->latencies_ms.begin(),
               conn->latencies_ms.end());
  }
  result.reqs_per_s =
      wall_s > 0 ? static_cast<double>(result.requests) / wall_s : 0.0;
  result.latency = percentiles_ms(all);
  return result;
}

// ------------------------------------------------------------- snapshots

server::Json read_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_serve: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return server::Json::parse(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: bad snapshot %s: %s\n", path.c_str(),
                 e.what());
    std::exit(1);
  }
}

/// Histogram summary for the snapshot's `obs` block: count plus
/// bucket-interpolated p50/p99 and the exact mean, in nanoseconds like
/// every histogram it summarizes.
server::Json summarize_histogram(const obs::HistogramSnapshot& s) {
  server::Json h = server::Json::object();
  h.set("count", static_cast<std::int64_t>(s.count));
  h.set("p50_ns", s.quantile(0.5));
  h.set("p99_ns", s.quantile(0.99));
  h.set("mean_ns", s.mean());
  return h;
}

void write_snapshot(const std::string& path, const Options& options,
                    const std::vector<RoundResult>& results,
                    bool in_process) {
  server::Json root = server::Json::object();
  root.set("bench", "serve");
  root.set("mode", options.mode);
  root.set("rows", static_cast<std::int64_t>(options.rows));
  root.set("duration_s", options.duration_s);
  root.set("host", bench::host_info());
  if (in_process) {
    // Server-side telemetry is only visible when the server lives in this
    // process; under --connect the registry belongs to the remote daemon.
    obs::Registry& reg = obs::Registry::instance();
    server::Json ob = server::Json::object();
    if (const auto s = reg.histogram_snapshot("lsml_server_queue_wait_ns")) {
      ob.set("queue_wait_ns", summarize_histogram(*s));
    }
    if (const auto s =
            reg.histogram_snapshot("lsml_server_op_ns{op=\"eval\"}")) {
      ob.set("eval_ns", summarize_histogram(*s));
    }
    if (const auto s = reg.histogram_snapshot("lsml_sim_sweep_ns")) {
      ob.set("sweep_ns", summarize_histogram(*s));
    }
    ob.set("backpressure_pauses",
           static_cast<std::int64_t>(reg.counter_value(
               "lsml_server_backpressure_pauses_total")));
    root.set("obs", std::move(ob));
  }
  server::Json rows = server::Json::array();
  for (const RoundResult& r : results) {
    server::Json row = server::Json::object();
    row.set("conns", static_cast<std::int64_t>(r.conns));
    row.set("requests", static_cast<std::int64_t>(r.requests));
    row.set("reqs_per_s", r.reqs_per_s);
    row.set("p50_ms", r.latency.p50);
    row.set("p95_ms", r.latency.p95);
    row.set("p99_ms", r.latency.p99);
    rows.push_back(std::move(row));
  }
  root.set("results", std::move(rows));
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << root.dump() << "\n";
  std::printf("snapshot written to %s\n", path.c_str());
}

/// Gates this run against a committed snapshot: req/s may not drop, and
/// p99 may not grow, by more than `max_regress` at any shared connection
/// count. Returns the number of violations.
int check_snapshot(const std::string& path, const server::Json& baseline,
                   double max_regress,
                   const std::vector<RoundResult>& results) {
  int violations = 0;
  const server::Json& rows = baseline.at("results");
  std::printf("\nchecking against %s (max regression %.0f%%)\n", path.c_str(),
              max_regress * 100.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const server::Json& row = rows.at(i);
    const int conns = static_cast<int>(row.at("conns").as_int());
    const RoundResult* current = nullptr;
    for (const RoundResult& r : results) {
      if (r.conns == conns) {
        current = &r;
      }
    }
    if (current == nullptr) {
      continue;  // this run did not measure that point
    }
    const double base_rps = row.at("reqs_per_s").as_double();
    const double base_p99 = row.at("p99_ms").as_double();
    const double min_rps = base_rps * (1.0 - max_regress);
    // Sub-50us p99 baselines are below timer noise; hold those to the
    // floor instead of a ratio.
    const double max_p99 =
        std::max(base_p99 * (1.0 + max_regress), 0.05);
    const bool rps_ok = current->reqs_per_s >= min_rps;
    const bool p99_ok = current->latency.p99 <= max_p99;
    std::printf(
        "  conns=%d req/s %.0f vs >=%.0f %s | p99 %.3f ms vs <=%.3f %s\n",
        conns, current->reqs_per_s, min_rps, rps_ok ? "ok" : "REGRESSED",
        current->latency.p99, max_p99, p99_ok ? "ok" : "REGRESSED");
    violations += rps_ok ? 0 : 1;
    violations += p99_ok ? 0 : 1;
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  int max_conns = 0;
  for (const int c : options.conns) {
    max_conns = std::max(max_conns, c);
  }
  raise_fd_limit(max_conns);
  server::Json baseline;
  if (!options.check_path.empty()) {
    baseline = read_snapshot(options.check_path);
    bench::require_same_host("bench_serve", options.check_path, baseline);
  }

  // The target server: external (--connect) or in-process.
  std::unique_ptr<server::Server> local;
  std::string host = options.connect_host;
  int port = options.connect_port;
  if (host.empty()) {
    server::ServerOptions server_options;
    server_options.port = 0;
    server_options.num_threads = options.threads;
    server_options.service.cache_dir.clear();  // measure compute, not disk
    local = std::make_unique<server::Server>(server_options);
    local->start();
    host = "127.0.0.1";
    port = local->port();
    std::printf("in-process server on port %d (%s workers)\n", port,
                options.threads == 0
                    ? "hardware"
                    : std::to_string(options.threads).c_str());
  } else {
    std::printf("targeting external server %s:%d\n", host.c_str(), port);
  }

  // Build the one request line every connection replays.
  std::string request_line;
  if (options.mode == "eval") {
    core::Rng rng(2020);
    server::Client setup;
    setup.connect(host, port);
    server::Json learn = server::Json::object();
    learn.set("type", "learn");
    learn.set("learner", "dt");
    learn.set("pla", training_pla(rng));
    const server::Json learned =
        server::Json::parse(setup.roundtrip(learn.dump()));
    if (!learned.at("ok").as_bool()) {
      std::fprintf(stderr, "bench_serve: learn failed: %s\n",
                   learned.dump().c_str());
      return 1;
    }
    const std::string model = learned.at("model").as_string();
    const auto inputs_count =
        static_cast<std::size_t>(learned.at("inputs").as_int());
    server::Json eval = server::Json::object();
    eval.set("type", "eval");
    eval.set("model", model);
    server::Json inputs = server::Json::array();
    for (std::size_t r = 0; r < options.rows; ++r) {
      std::string row(inputs_count, '0');
      const std::uint64_t bits = rng.next();
      for (std::size_t c = 0; c < inputs_count; ++c) {
        row[c] = ((bits >> c) & 1u) != 0 ? '1' : '0';
      }
      inputs.push_back(server::Json(std::move(row)));
    }
    eval.set("inputs", std::move(inputs));
    request_line = eval.dump();
    std::printf("mode eval: model %s (%lld ANDs), %zu rows/request\n",
                model.c_str(),
                static_cast<long long>(learned.at("ands").as_int()),
                options.rows);
  } else {
    server::Json ping = server::Json::object();
    ping.set("type", "ping");
    if (options.sleep_ms > 0) {
      ping.set("sleep_ms", options.sleep_ms);
    }
    request_line = ping.dump();
    std::printf("mode ping%s\n",
                options.sleep_ms > 0
                    ? (" (sleep " + std::to_string(options.sleep_ms) + " ms)")
                          .c_str()
                    : "");
  }

  std::printf("%.1f s per point, closed loop, one multiplexed client\n\n",
              options.duration_s);
  std::printf("%6s %10s %10s %9s %9s %9s\n", "conns", "requests", "req/s",
              "p50 ms", "p95 ms", "p99 ms");
  std::vector<RoundResult> results;
  for (const int conns : options.conns) {
    const RoundResult r =
        run_round(host, port, request_line, conns, options.duration_s);
    results.push_back(r);
    std::printf("%6d %10llu %10.0f %9.3f %9.3f %9.3f\n", r.conns,
                static_cast<unsigned long long>(r.requests), r.reqs_per_s,
                r.latency.p50, r.latency.p95, r.latency.p99);
    std::printf("serve-bench: mode=%s conns=%d reqs=%llu reqs_per_s=%.0f "
                "p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n",
                options.mode.c_str(), r.conns,
                static_cast<unsigned long long>(r.requests), r.reqs_per_s,
                r.latency.p50, r.latency.p95, r.latency.p99);
    std::fflush(stdout);
  }

  // Scaling headline: throughput at 8 connections over 1 connection.
  const auto find = [&](int conns) -> const RoundResult* {
    for (const auto& r : results) {
      if (r.conns == conns) {
        return &r;
      }
    }
    return nullptr;
  };
  const RoundResult* one = find(1);
  const RoundResult* eight = find(8);
  if (one != nullptr && eight != nullptr && one->reqs_per_s > 0) {
    std::printf("\nscaling 1->8 connections: %.2fx req/s\n",
                eight->reqs_per_s / one->reqs_per_s);
  }

  if (!options.json_path.empty()) {
    write_snapshot(options.json_path, options, results, local != nullptr);
  }
  int violations = 0;
  if (!options.check_path.empty()) {
    violations = check_snapshot(options.check_path, baseline,
                                options.max_regress, results);
    if (violations == 0) {
      std::printf("perf check passed\n");
    } else {
      std::printf("perf check FAILED (%d violations)\n", violations);
    }
  }
  if (local != nullptr) {
    local->stop();
  }
  return violations == 0 ? 0 : 1;
}
