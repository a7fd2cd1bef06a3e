#pragma once
// `lsml serve` — the TCP transport around server::Service.
//
// One daemon, three moving parts:
//
//   event loops   num_threads + 1 core::EventLoop threads, one per core
//                 the daemon may keep busy. Loop 0 also accepts: it hands
//                 each connection to loop `id % loops` with a post(), and
//                 from then on that loop alone owns the connection's
//                 socket, buffers, FIFO request queue and backpressure. A
//                 loop frames newline-delimited request lines, parses each
//                 once, and answers what Service::prepare_inline accepts
//                 (eval on a model in memory, stats, metrics, a ping
//                 without sleep_ms) in place, writing the reply without
//                 any cross-thread hop. No thread is ever parked on one
//                 connection, so thousands of idle or slow clients cost
//                 four kilobytes of buffer each, not a stack.
//   worker pool   a core::ThreadPool of num_threads workers. Heavy
//                 requests (learn, synth, cec, a sleeping ping, an eval
//                 whose model is not in memory) and any line over
//                 kInlineLineBytes go there, the parsed request handed
//                 over as is; the reply is posted back to the owning
//                 loop. While one is out, the connection's later lines
//                 wait, so requests on one connection stay FIFO, and
//                 heavy work is capped at the pool width.
//   service       server::Service — the transport-agnostic request
//                 handler with its LRU model store (see service.hpp).
//
// A loop runs a connection's queued lines iteratively, in order, and
// yields after kTurnBytes of request text so other connections on the
// same loop get their turn during a pipelined burst.
//
// Backpressure: a connection whose write buffer (a slow reader) or queue
// of framed, unrun lines (a writer far ahead of its pooled request) climbs
// past `write_high_water_bytes` stops being read until both are back
// under half the mark; a write buffer past the mark also stops running
// queued lines. Memory per connection stays bounded by high-water +
// max_request_bytes no matter what the peer does.
//
// Every event on a connection (readiness, a pooled reply, the drain) ends
// in one step, advance(): run the queue, flush, then close the connection
// or derive its epoll interest from its state alone —
//   read   while the peer may still send and reads are not paused;
//   write  while reply bytes are unsent, or while lines are queued and no
//          request is out on the pool.
// So a connection whose turn ended with runnable lines (turn budget spent,
// or the write buffer past the mark) always wakes on the next epoll cycle.
//
// Robustness contract (pinned by tests/server_test.cpp): a malformed line
// gets an error response and the connection lives on; a line that grows
// past `max_request_bytes` gets an error response, after the replies to
// every line queued before it, and the connection is closed (the only way
// to bound memory without trusting the client); a client that disconnects
// or half-closes mid-request affects nothing but its own connection (a
// half-closed peer still receives every response it was owed).
// `max_connections` is one count across all loops. stop() drains every
// loop: it stops accepting, lets queued and in-flight requests finish and
// their responses flush for up to five seconds, then force-closes
// whatever is left.
//
// Binding port 0 picks an ephemeral port, readable via port() — how tests
// and the bench run many servers without colliding.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/event_loop.hpp"
#include "core/thread_pool.hpp"
#include "server/service.hpp"

namespace lsml::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (see Server::port())
  /// Worker pool width, ThreadPool convention: 0 = hardware concurrency.
  /// The server runs this many + 1 event loops.
  int num_threads = 0;
  /// Hard cap on one request line; longer requests are rejected and the
  /// connection closed. 0 disables the cap (tests only).
  std::size_t max_request_bytes = 8u << 20;
  /// Concurrent-connection cap; a connection past it is answered with one
  /// error line and closed. 0 = unlimited.
  std::size_t max_connections = 0;
  /// Stop reading a connection whose unsent response bytes, or whose
  /// queued request bytes, exceed this.
  std::size_t write_high_water_bytes = 1u << 20;
  /// Fixed SO_SNDBUF for accepted sockets; 0 keeps kernel autotuning.
  /// Setting it bounds kernel-side memory per connection and makes the
  /// write high-water mark bite at a predictable depth.
  int send_buffer_bytes = 0;
  ServiceOptions service;
  int verbosity = 0;  ///< 1 = connection lifecycle lines on stderr
};

/// Transport-level counters (request-level ones live in ServiceStats).
/// Fields are obs::Counter and aliased into the process obs::Registry as
/// lsml_server_*_total, so the `metrics` op sees the same cells.
struct ServerStats {
  obs::Counter connections;
  obs::Counter over_connection_cap;
  obs::Counter oversized_rejects;
  obs::Counter io_errors;
  /// Times a connection crossed the high-water mark (unsent replies or
  /// queued requests) and had its read side paused (the backpressure path).
  obs::Counter backpressure_pauses;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the pool and the event-loop threads. Throws
  /// std::runtime_error (with errno context) when the address cannot be
  /// bound.
  void start();

  /// Stops accepting, drains in-flight requests (up to five seconds), closes
  /// every connection, joins the loops and the pool. Idempotent; called by
  /// the destructor.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// The bound port (resolves an ephemeral request); 0 before start().
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] Service& service() { return service_; }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  /// Request lines longer than this are parsed and answered on the pool,
  /// never on a loop. Parse, row decode and sweep grow with the line, so
  /// the bound caps the rows one inline eval runs; its time also grows
  /// with the model's size, which nothing here bounds. Measured on a
  /// 4-core host, one worker, a client streaming eval lines of a 12-input
  /// model and a neighbor on the same loop sending 1-row evals: 120 KB
  /// lines (8,000 rows) take about 0.7 ms each inline; for 0.5–6.3 MB
  /// lines, pooling kept the neighbor's p99 at 0.12–0.41 ms against
  /// 1.4–18 ms inline, at the same rows/s. A 4096-row, 32-input eval
  /// (about 140 KB) stays on its loop: in perfbench `serve`, those ran
  /// 25–33M rows/s inline and 16–27M rows/s under a 64 KiB bound that
  /// pooled them.
  static constexpr std::size_t kInlineLineBytes = 256u << 10;
  /// Request bytes a loop runs for one connection before it lets the
  /// loop's other connections have a turn (one recv chunk).
  static constexpr std::size_t kTurnBytes = 64u << 10;

  struct Loop;

  /// A framed request line, stamped at frame time (the documented
  /// "queueing counts against the deadline" semantics). An empty line is
  /// the oversized reject: take_line never queues an empty request.
  struct Pending {
    std::string line;
    std::chrono::steady_clock::time_point received_at;
  };

  /// Everything a loop knows about one connection. Touched only on its
  /// owning loop's thread; pool workers reach it exclusively through
  /// posted tasks that re-look it up by id (it may be gone by then).
  struct Conn {
    Loop* loop = nullptr;  ///< the owning loop
    std::uint64_t id = 0;
    int fd = -1;
    std::string read_buf;   ///< trailing partial line awaiting more bytes
    std::string write_buf;  ///< response bytes not yet accepted by send()
    std::size_t write_off = 0;
    std::deque<Pending> pending;  ///< framed lines not yet run
    std::size_t pending_bytes = 0;  ///< their total size
    bool busy = false;         ///< one request is out on the pool
    bool read_open = true;     ///< no EOF, read error, reject or drain yet
    bool read_paused = false;  ///< backpressure: EPOLLIN disabled
    bool broken = false;       ///< a send failed; close at once
  };

  /// One event-loop thread and the connections it owns.
  struct Loop {
    core::EventLoop events;
    std::thread thread;
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    bool draining = false;
    bool drain_reported = false;
  };

  void loop_main(Loop& loop);
  void on_listen_ready();
  void adopt(Loop& loop, std::uint64_t id, int fd);
  void on_conn_event(Loop& loop, std::uint64_t id, std::uint32_t ready);
  void handle_readable(Conn& conn);
  /// Frames request lines straight out of a recv chunk (read_buf carries
  /// only a trailing partial line between chunks). Stops once a line is
  /// rejected as oversized.
  void frame_data(Conn& conn, const char* data, std::size_t len);
  /// Admits one framed line into conn.pending; false = rejected oversized.
  bool take_line(Conn& conn, std::string line);
  /// Runs queued lines in order until the queue empties, one goes to the
  /// pool, the write buffer passes the high-water mark, or the turn's
  /// byte budget is spent.
  void run_queued(Conn& conn);
  /// The step every connection event ends in: run_queued, flush, then
  /// close the connection if nothing will ever happen on it again, else
  /// update_interest.
  void advance(Conn& conn);
  /// Hands one request to the pool; its reply comes back through
  /// finish_pooled on the owning loop.
  template <typename Work>
  void to_pool(Conn& conn, Work work);
  void finish_pooled(Loop& loop, std::uint64_t id, std::string response);
  void flush(Conn& conn);
  /// Pauses or resumes reading (the backpressure hysteresis), then sets
  /// the epoll interest the header comment states.
  void update_interest(Conn& conn);
  /// Stops reading and queues the error line behind the framed requests.
  void reject_oversized(Conn& conn);
  void close_conn(Conn& conn);
  void begin_drain();
  void drain_loop(Loop& loop);
  void maybe_finish_drain(Loop& loop);

  ServerOptions options_;
  Service service_;
  ServerStats stats_;
  /// Registry aliases for stats_; destroyed before stats_ (declared after).
  std::vector<obs::Registry::Registration> metric_regs_;
  std::unique_ptr<core::ThreadPool> pool_;
  std::vector<std::unique_ptr<Loop>> loops_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  /// Open connections across all loops (the max_connections count).
  std::atomic<std::size_t> open_conns_{0};
  std::uint64_t next_conn_id_ = 0;  ///< loop 0 only

  // stop() rendezvous: each loop reports once its last connection is gone.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::size_t loops_drained_ = 0;
};

}  // namespace lsml::server
