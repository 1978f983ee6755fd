// The TCP front door: accept loop, connection admission, per-connection
// session threads.
//
// Acceptor is the transport half, reusable by anything that answers
// connections (pqs_serve's NetServer below, pqs_router's fleet front):
// it binds, accepts, enforces the max-connections bound — a connection past
// the bound receives one explicit `overloaded` event and is closed, never a
// silently growing backlog — and runs one handler thread per admitted
// connection. stop() shuts the listener down, unblocks every connection's
// reader via Socket::shutdown_both, and joins all threads.
//
// NetServer is the policy half for a search worker: each admitted
// connection runs a net::Session over the shared pqs::Service, so the
// JSONL protocol, admission events, priority lanes, and submission-order
// result streaming are byte-identical to the stdin transport. When a
// connection drops (read EOF or a failed write), its session aborts —
// every job only that connection was attached to is cancelled through its
// RunControl, so a vanished client sheds its load instead of finishing
// work nobody will read. Clients therefore keep the connection open until
// they have read all their results (the loadgen contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "net/session.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace pqs::net {

struct AcceptorOptions {
  Addr listen;  ///< port 0 picks an ephemeral port; see Acceptor::port()
  /// Most concurrent connections admitted (the bounded-accept knob).
  std::size_t max_connections = 64;
  /// When set, the accept loop counts `net.accepted_connections`,
  /// `net.rejected_connections`, and `net.disconnects` here (pqs_serve
  /// passes the global registry; null keeps the transport metrics-free).
  obs::MetricsRegistry* metrics = nullptr;
};

class Acceptor {
 public:
  /// Runs on the connection's own thread; the socket stays valid for the
  /// duration of the call. Return = connection over (socket closes).
  using Handler = std::function<void(Socket&)>;

  Acceptor(AcceptorOptions options, Handler handler);
  ~Acceptor();  // stop()

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Bind + listen + start accepting. Throws CheckFailure if the address
  /// is unusable; after it returns, port() is connectable.
  void start();
  /// Stop accepting, unblock and join every connection. Idempotent.
  void stop();

  /// The bound port (resolves a port-0 request).
  std::uint16_t port() const;
  /// Admitted connections still running (finished ones are reaped lazily).
  std::size_t live_connections() const;

 private:
  struct Conn {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void reap_finished_locked() PQS_REQUIRES(mutex_);

  AcceptorOptions options_;
  Handler handler_;
  std::optional<Listener> listener_;
  std::thread accept_thread_;

  mutable Mutex mutex_;
  std::vector<std::shared_ptr<Conn>> conns_ PQS_GUARDED_BY(mutex_);
  bool stopping_ PQS_GUARDED_BY(mutex_) = false;
};

struct NetServerOptions {
  Addr listen;
  std::size_t max_connections = 64;
  SessionOptions session;
  /// Forwarded to AcceptorOptions::metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// A pqs::Service behind a TCP listener: one net::Session per connection.
class NetServer {
 public:
  NetServer(Service& service, NetServerOptions options);

  void start() { acceptor_.start(); }
  void stop() { acceptor_.stop(); }
  std::uint16_t port() const { return acceptor_.port(); }
  std::size_t live_connections() const { return acceptor_.live_connections(); }

 private:
  Acceptor acceptor_;
};

/// Stop signals for the long-running network binaries (pqs_serve --listen,
/// pqs_router). Call block_stop_signals() in main before the first thread
/// starts: every thread then inherits a mask with SIGINT and SIGTERM
/// blocked, so the only place either is delivered is
/// wait_for_stop_signal(), which unblocks them atomically while it sleeps.
/// Without the mask a worker thread can take the signal and leave the main
/// thread asleep, and a signal that lands before the handler is installed
/// kills the process instead of stopping it.
void block_stop_signals();

/// Sleep until SIGINT or SIGTERM arrives. Requires block_stop_signals().
void wait_for_stop_signal();

}  // namespace pqs::net
