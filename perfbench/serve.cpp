// Workload `serve`: the deployment path.
//
// Set-up starts an in-process server::Server on an ephemeral port and
// learns one model (learner "dt" on a seeded 32-input training set). One
// generator thread then drives a closed loop over raw TCP sockets: every
// connection has exactly one request in flight. One repetition is a fixed
// request schedule of three phases:
//   c1    1 connection,  256-row evals (transport + loop->pool handoff)
//   c4    4 connections, 256-row evals (same-model coalescing)
//   wide  4 connections, 4096-row evals (minterm-text parsing)
// Generator, event loop and pool threads together stay within nproc.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aig/sim_engine.hpp"
#include "core/rng.hpp"
#include "learn/factory.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "pla/pla.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/server.hpp"

namespace perfbench {
namespace {

using lsml::server::Json;

constexpr std::size_t kInputs = 32;
constexpr std::size_t kTrainRows = 2000;
constexpr std::size_t kNarrowRows = 256;
constexpr std::size_t kWideRows = 4096;

struct Phase {
  const char* name;
  int conns;
  std::size_t rows;
  std::size_t requests;  ///< per repetition
};
constexpr Phase kPhases[] = {
    {"c1", 1, kNarrowRows, 3000},
    {"c4", 4, kNarrowRows, 6000},
    {"wide", 4, kWideRows, 300},
};

/// Seeded training set: the label is a 3-input majority XOR-ed with an
/// AND of two other inputs, all positions drawn by seed.
lsml::data::Dataset training_set(std::uint64_t seed) {
  lsml::core::Rng rng(lsml::core::hash_combine(seed, 0x5e77eULL));
  std::size_t pos[5];
  for (std::size_t& p : pos) {
    p = rng.below(kInputs);
  }
  lsml::data::Dataset ds(kInputs, kTrainRows);
  for (std::size_t r = 0; r < kTrainRows; ++r) {
    const std::uint64_t bits = rng.next();
    for (std::size_t c = 0; c < kInputs; ++c) {
      ds.set_input(r, c, ((bits >> c) & 1u) != 0);
    }
    const auto bit = [&](std::size_t i) {
      return static_cast<int>((bits >> pos[i]) & 1u);
    };
    const int majority = bit(0) + bit(1) + bit(2) >= 2 ? 1 : 0;
    ds.set_label(r, (majority ^ (bit(3) & bit(4))) != 0);
  }
  return ds;
}

std::string pla_text(const lsml::data::Dataset& ds) {
  std::ostringstream os;
  lsml::pla::write_pla(lsml::pla::Pla::from_dataset(ds), os);
  return os.str();
}

std::string row_text(const lsml::data::Dataset& ds, std::size_t r) {
  std::string row(ds.num_inputs(), '0');
  for (std::size_t c = 0; c < ds.num_inputs(); ++c) {
    row[c] = ds.input(r, c) ? '1' : '0';
  }
  return row;
}

std::string eval_line(const std::string& model,
                      const std::vector<std::string>& rows) {
  Json req = Json::object();
  req.set("type", "eval");
  req.set("model", model);
  Json inputs = Json::array();
  for (const std::string& row : rows) {
    inputs.push_back(Json(row));
  }
  req.set("inputs", std::move(inputs));
  return req.dump();
}

std::vector<std::string> random_rows(lsml::core::Rng& rng, std::size_t n) {
  std::vector<std::string> rows;
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t bits = rng.next();
    std::string row(kInputs, '0');
    for (std::size_t c = 0; c < kInputs; ++c) {
      row[c] = ((bits >> c) & 1u) != 0 ? '1' : '0';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Closed-loop load from the calling thread: `conns` sockets, one request
/// in flight on each, until `requests` responses arrived. Every response
/// must equal `expected` byte for byte.
struct PhaseResult {
  double wall_s = 0.0;
  std::vector<double> latency_us;
  std::uint64_t mismatches = 0;
};

class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

PhaseResult drive(int port, const std::string& line,
                  const std::string& expected, int conns,
                  std::size_t requests) {
  struct Conn {
    std::unique_ptr<FdGuard> fd;
    std::string rx;
    std::size_t tx_off = 0;
    bool sending = false;
    Clock::time_point sent_at{};
  };
  const std::string wire = line + "\n";
  std::vector<Conn> state(static_cast<std::size_t>(conns));
  for (Conn& c : state) {
    c.fd = std::make_unique<FdGuard>(::socket(AF_INET, SOCK_STREAM, 0));
    sockaddr_in peer{};
    peer.sin_family = AF_INET;
    peer.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &peer.sin_addr);
    if (c.fd->fd() < 0 ||
        ::connect(c.fd->fd(), reinterpret_cast<sockaddr*>(&peer),
                  sizeof peer) != 0) {
      throw std::runtime_error(std::string("serve: connect: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(c.fd->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd->fd(), F_SETFL, ::fcntl(c.fd->fd(), F_GETFL) | O_NONBLOCK);
  }

  PhaseResult result;
  result.latency_us.reserve(requests);
  std::size_t issued = 0;
  const auto try_send = [&](Conn& c) {
    while (c.tx_off < wire.size()) {
      const ssize_t n = ::send(c.fd->fd(), wire.data() + c.tx_off,
                               wire.size() - c.tx_off, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        c.sending = true;
        return;
      }
      if (n < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("serve: send: ") +
                                 std::strerror(errno));
      }
      c.tx_off += n > 0 ? static_cast<std::size_t>(n) : 0;
    }
    c.sending = false;
  };
  const auto issue = [&](Conn& c) {
    if (issued == requests) {
      return;
    }
    ++issued;
    c.tx_off = 0;
    c.sent_at = Clock::now();
    try_send(c);
  };

  const Clock::time_point start = Clock::now();
  for (Conn& c : state) {
    issue(c);
  }
  std::vector<pollfd> fds(state.size());
  std::vector<char> chunk(1 << 16);
  while (result.latency_us.size() < requests) {
    for (std::size_t i = 0; i < state.size(); ++i) {
      fds[i] = {state[i].fd->fd(),
                static_cast<short>(POLLIN | (state[i].sending ? POLLOUT : 0)),
                0};
    }
    if (::poll(fds.data(), fds.size(), 10000) <= 0) {
      throw std::runtime_error("serve: no response within 10 s");
    }
    for (std::size_t i = 0; i < state.size(); ++i) {
      Conn& c = state[i];
      if ((fds[i].revents & POLLOUT) != 0 && c.sending) {
        try_send(c);
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const ssize_t n = ::recv(c.fd->fd(), chunk.data(), chunk.size(), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        throw std::runtime_error("serve: server closed a connection");
      }
      if (n < 0) {
        continue;
      }
      c.rx.append(chunk.data(), static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = c.rx.find('\n')) != std::string::npos) {
        const auto now = Clock::now();
        result.latency_us.push_back(
            std::chrono::duration<double, std::micro>(now - c.sent_at)
                .count());
        if (c.rx.compare(0, newline, expected) != 0) {
          ++result.mismatches;
        }
        c.rx.erase(0, newline + 1);
        issue(c);
      }
    }
  }
  result.wall_s = since(start);
  return result;
}

struct Served {
  std::unique_ptr<lsml::server::Server> server;
  std::string model;
  double train_acc = 0.0;
  lsml::data::Dataset train{0, 0};
  std::vector<std::string> lines;     ///< request line per phase
  std::vector<std::string> expected;  ///< reference response per phase
};

Served set_up(const Args& args) {
  Served s;
  lsml::server::ServerOptions options;
  options.port = 0;
  // One generator thread + the event loop + the pool stay within nproc.
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  options.num_threads = std::max(1, nproc - 2);
  options.service.cache_dir.clear();
  s.server = std::make_unique<lsml::server::Server>(options);
  s.server->start();
  s.train = training_set(args.seed);
  lsml::server::Client client;
  client.connect("127.0.0.1", s.server->port());
  Json learn = Json::object();
  learn.set("type", "learn");
  learn.set("learner", "dt");
  learn.set("pla", pla_text(s.train));
  const Json learned = Json::parse(client.roundtrip(learn.dump()));
  if (!learned.at("ok").as_bool()) {
    throw std::runtime_error("serve: learn failed: " + learned.dump());
  }
  s.model = learned.at("model").as_string();
  s.train_acc = learned.at("train_acc").as_double();
  lsml::core::Rng rng(lsml::core::hash_combine(args.seed, 0xe7a1ULL));
  for (const Phase& p : kPhases) {
    s.lines.push_back(eval_line(s.model, random_rows(rng, p.rows)));
    s.expected.push_back(client.roundtrip(s.lines.back()));
    if (s.expected.back().find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("serve: eval failed: " + s.expected.back());
    }
  }
  return s;
}

/// An eval over the whole training set must reproduce train_acc.
void check_train_acc(const Served& s, Report* report) {
  std::vector<std::string> rows;
  for (std::size_t r = 0; r < s.train.num_rows(); ++r) {
    rows.push_back(row_text(s.train, r));
  }
  lsml::server::Client client;
  client.connect("127.0.0.1", s.server->port());
  const Json reply = Json::parse(client.roundtrip(eval_line(s.model, rows)));
  const std::string& out = reply.at("outputs").at(0).as_string();
  report->attempted += 1;
  if (out.size() != s.train.num_rows()) {
    report->fail("full-training-set eval returned " +
                 std::to_string(out.size()) + " outputs");
    return;
  }
  std::size_t agree = 0;
  for (std::size_t r = 0; r < s.train.num_rows(); ++r) {
    if ((out[r] == '1') == s.train.label(r)) {
      ++agree;
    }
  }
  const double acc =
      static_cast<double>(agree) / static_cast<double>(s.train.num_rows());
  if (std::abs(acc - s.train_acc) > 1e-9) {
    report->fail("full-training-set eval scores " + std::to_string(acc) +
                 ", learn reported " + std::to_string(s.train_acc));
  }
}

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::vector<PhaseResult> phases;
  std::vector<std::vector<Span>> spans;  ///< per phase, traced reps only
  std::uint64_t evals = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t loop_iters = 0;
  std::map<std::string, PassTotals> passes;
};

Rep run_schedule(const Served& s, bool traced) {
  Rep rep;
  const std::uint64_t evals0 = counter("lsml_server_evals_total");
  const std::uint64_t coalesced0 = counter("lsml_server_eval_coalesced_total");
  const std::uint64_t iters0 = counter("lsml_event_loop_iterations_total");
  const auto passes0 = pass_totals();
  start_rss_window();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < std::size(kPhases); ++i) {
    if (traced) {
      lsml::obs::Tracer::enable(std::size_t{1} << 17);
    }
    rep.phases.push_back(drive(s.server->port(), s.lines[i], s.expected[i],
                               kPhases[i].conns, kPhases[i].requests));
    if (traced) {
      lsml::obs::Tracer::disable();
      rep.spans.push_back(collect_spans());
      if (lsml::obs::Tracer::dropped() != 0) {
        throw std::runtime_error("serve: the tracer dropped spans");
      }
    }
  }
  rep.wall_s = since(t0);
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.rss_mb = window_peak_rss_mb();
  rep.evals = counter("lsml_server_evals_total") - evals0;
  rep.coalesced = counter("lsml_server_eval_coalesced_total") - coalesced0;
  rep.loop_iters = counter("lsml_event_loop_iterations_total") - iters0;
  rep.passes = pass_delta(passes0, pass_totals());
  return rep;
}

std::vector<double> span_us(const std::vector<Span>& spans, const char* cat,
                            const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.cat == cat && s.name == name) {
      out.push_back(s.dur_us);
    }
  }
  return out;
}

/// SimEngine::run on a local fit of the serve model (same learner, same
/// training set), ns per simulated gate word.
double sim_ns_per_word(const lsml::aig::Aig& circuit, std::size_t rows,
                       lsml::core::Rng& rng) {
  std::vector<lsml::core::BitVec> columns(circuit.num_pis(),
                                          lsml::core::BitVec(rows));
  std::vector<const lsml::core::BitVec*> ptrs;
  for (auto& col : columns) {
    col.randomize(rng);
    ptrs.push_back(&col);
  }
  lsml::aig::SimEngine engine(circuit);
  engine.run(ptrs);  // builds the schedule
  const std::uint64_t words0 = counter("lsml_sim_words_total");
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < 0.2) {
    lsml::obs::ScopedSpan span("sim_run", "perfbench");
    engine.run(ptrs);
  }
  const double words =
      static_cast<double>(counter("lsml_sim_words_total") - words0);
  return words > 0 ? since(t0) * 1e9 / words : 0.0;
}

}  // namespace

void run_serve(const Args& args, Report* report) {
  std::vector<double> setups;
  Served s;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    s = set_up(args);
    setups.push_back(since(t0));
  }
  std::printf("serve: model %s (train_acc %.4f), %d pool threads, phases",
              s.model.c_str(), s.train_acc, s.server->options().num_threads);
  for (const Phase& p : kPhases) {
    std::printf(" %s=%dx%zu rows", p.name, p.conns, p.rows);
  }
  std::printf("\n");
  check_train_acc(s, report);

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const Clock::time_point start = Clock::now();
  while (true) {
    plain.push_back(run_schedule(s, false));
    if (args.trace) {
      traced.push_back(run_schedule(s, true));
    }
    const double per_rep = since(start) / static_cast<double>(plain.size());
    if (since(start) + per_rep > args.seconds) {
      break;
    }
  }
  // The phase figures pool every untraced repetition's requests.
  std::vector<std::vector<double>> latency(std::size(kPhases));
  std::vector<double> phase_wall(std::size(kPhases), 0.0);
  std::vector<double> walls;
  std::vector<double> cpus;
  for (const Rep& r : plain) {
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    for (std::size_t i = 0; i < r.phases.size(); ++i) {
      latency[i].insert(latency[i].end(), r.phases[i].latency_us.begin(),
                        r.phases[i].latency_us.end());
      phase_wall[i] += r.phases[i].wall_s;
    }
  }
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      for (std::size_t i = 0; i < r.phases.size(); ++i) {
        report->attempted += kPhases[i].requests;
        if (r.phases[i].mismatches != 0) {
          report->fail(std::to_string(r.phases[i].mismatches) + " " +
                           kPhases[i].name +
                           " response(s) differ from the reference",
                       r.phases[i].mismatches);
        }
      }
    }
  }
  const auto rate = [&](std::size_t i) {
    return static_cast<double>(kPhases[i].requests * plain.size()) /
           phase_wall[i];
  };
  const double c1_p50 = quantile(latency[0], 0.5);
  const double c1_p99 = quantile(latency[0], 0.99);
  const double c4_rps = rate(1);
  const double c4_p99 = quantile(latency[1], 0.99);
  const double wide_rows = rate(2) * static_cast<double>(kWideRows);
  const double wide_p50 = quantile(latency[2], 0.5);
  std::printf("%zu schedules: wall median %.3f s, cpu median %.3f s\n"
              "  c1 p50 %.1f us, p99 %.1f us | c4 %.0f req/s, p99 %.1f us | "
              "wide %.0f rows/s, p50 %.1f us\n",
              plain.size(), median(walls), median(cpus), c1_p50, c1_p99,
              c4_rps, c4_p99, wide_rows, wide_p50);

  report->add("setup_s", median(setups));
  // The first repetition runs before a traced one allocates span rings.
  report->add("peak_rss_mb", plain.front().rss_mb);
  report->add("wall_s", median(walls));
  report->add("cpu_s", median(cpus));
  if (!args.trace) {
    return;
  }

  std::vector<double> traced_walls;
  for (const Rep& r : traced) {
    traced_walls.push_back(r.wall_s);
  }
  const Rep& last = traced.back();
  const double queue_wait = median(span_us(last.spans[0], "server",
                                           "queue_wait"));
  const double op_c1 = median(span_us(last.spans[0], "server", "eval"));
  const double op_c4 = median(span_us(last.spans[1], "server", "eval"));

  // Json::parse on the recorded wide request line.
  const Clock::time_point p0 = Clock::now();
  int parses = 0;
  while (since(p0) < 0.2) {
    lsml::obs::ScopedSpan span("json_parse", "perfbench");
    const Json parsed = Json::parse(s.lines[2]);
    parses += parsed.is_object() ? 1 : 0;
  }
  const double parse_ns_per_row =
      since(p0) * 1e9 / (parses * static_cast<double>(kWideRows));

  lsml::core::Rng rng(args.seed);
  const auto local = lsml::learn::LearnerFactory::from_registry("dt").make()->fit(
      s.train, s.train, rng);
  const double sim256 = sim_ns_per_word(local.circuit, kNarrowRows, rng);
  const double sim4096 = sim_ns_per_word(local.circuit, kWideRows, rng);

  const Rep& first = plain.front();
  add_pass_metrics(first.passes, report);
  report->add("aig.sim_ns_per_word_256", sim256);
  report->add("aig.sim_ns_per_word_4096", sim4096);
  report->add("server.queue_wait_p50_us", queue_wait);
  report->add("server.transport_p50_us", c1_p50 - queue_wait - op_c1);
  report->add("server.op_eval_p50_us", op_c4);
  report->add("server.coalesced_ratio",
              static_cast<double>(first.coalesced) /
                  static_cast<double>(first.evals));
  report->add("server.json_parse_ns_per_row", parse_ns_per_row);
  std::uint64_t requests = 0;
  for (const Phase& p : kPhases) {
    requests += p.requests;
  }
  report->add("core.loop_iters_per_req",
              static_cast<double>(first.loop_iters) /
                  static_cast<double>(requests));
  report->add("serve.c1_p50_us", c1_p50);
  report->add("serve.c1_p99_us", c1_p99);
  report->add("serve.c4_req_per_s", c4_rps);
  report->add("serve.c4_p99_us", c4_p99);
  report->add("serve.wide_rows_per_s", wide_rows);
  report->add("serve.wide_p50_us", wide_p50);
  report->add("trace.overhead_pct",
              100.0 * (median(traced_walls) - median(walls)) / median(walls));
}

}  // namespace perfbench
