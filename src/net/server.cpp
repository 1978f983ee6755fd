#include "net/server.h"

#include <pthread.h>

#include <csignal>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/json.h"

namespace pqs::net {

Acceptor::Acceptor(AcceptorOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  PQS_CHECK_MSG(options_.max_connections >= 1,
                "Acceptor needs max_connections >= 1");
  PQS_CHECK_MSG(handler_ != nullptr, "Acceptor needs a connection handler");
}

Acceptor::~Acceptor() { stop(); }

void Acceptor::start() {
  PQS_CHECK_MSG(!listener_.has_value(), "Acceptor already started");
  listener_ = Listener::bind_and_listen(options_.listen);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t Acceptor::port() const {
  PQS_CHECK_MSG(listener_.has_value(), "Acceptor not started");
  return listener_->port();
}

std::size_t Acceptor::live_connections() const {
  LockGuard lock(mutex_);
  std::size_t live = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load()) {
      ++live;
    }
  }
  return live;
}

void Acceptor::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      (*it)->thread.join();  // finished: the join returns immediately
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Acceptor::accept_loop() {
  while (true) {
    Socket socket = listener_->accept_conn();
    if (!socket.valid()) {
      return;  // shut_down() — the stop signal
    }
    LockGuard lock(mutex_);
    if (stopping_) {
      return;
    }
    reap_finished_locked();
    if (conns_.size() >= options_.max_connections) {
      // Admission control at the door: the rejected peer learns WHY,
      // immediately, instead of queueing into silent latency.
      Json event = Json::make_object();
      event["event"] = "overloaded";
      event["reason"] = "max connections (" +
                        std::to_string(options_.max_connections) + ") reached";
      socket.write_all(event.dump() + "\n");
      if (options_.metrics != nullptr) {
        options_.metrics->counter("net.rejected_connections").add();
      }
      continue;  // socket closes here (RAII)
    }
    if (options_.metrics != nullptr) {
      options_.metrics->counter("net.accepted_connections").add();
    }
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(socket);
    conns_.push_back(conn);
    conn->thread = std::thread([this, conn] {
      handler_(conn->socket);
      // One disconnect per admitted connection, counted when the handler
      // returns — EOF, error, and server-stop all end here.
      if (options_.metrics != nullptr) {
        options_.metrics->counter("net.disconnects").add();
      }
      conn->done.store(true);
    });
  }
}

void Acceptor::stop() {
  {
    LockGuard lock(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  if (listener_.has_value()) {
    listener_->shut_down();
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::vector<std::shared_ptr<Conn>> conns;
  {
    LockGuard lock(mutex_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    conn->socket.shutdown_both();  // unblocks the connection's reader
  }
  for (const auto& conn : conns) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
}

NetServer::NetServer(Service& service, NetServerOptions options)
    : acceptor_(
          AcceptorOptions{options.listen, options.max_connections,
                          options.metrics},
          [&service, session_options = options.session](Socket& socket) {
            Session session(
                service,
                [&socket](const std::string& line) {
                  return socket.write_all(line + "\n");
                },
                session_options);
            LineReader reader(socket);
            std::string line;
            while (reader.next_line(line)) {
              session.handle_line(line);
            }
            // EOF or error: the peer is gone. Cancel its in-flight jobs —
            // a dropped connection sheds load (clients keep the connection
            // open until they have read every result they want).
            session.abort();
          }) {}

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;

sigset_t stop_signal_set() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  return set;
}

}  // namespace

void block_stop_signals() {
  const sigset_t set = stop_signal_set();
  PQS_CHECK(::pthread_sigmask(SIG_BLOCK, &set, nullptr) == 0);
}

void wait_for_stop_signal() {
  std::signal(SIGINT, [](int) { g_stop_signal = 1; });
  std::signal(SIGTERM, [](int) { g_stop_signal = 1; });
  sigset_t mask;
  PQS_CHECK(::pthread_sigmask(SIG_SETMASK, nullptr, &mask) == 0);
  sigdelset(&mask, SIGINT);
  sigdelset(&mask, SIGTERM);
  while (g_stop_signal == 0) {
    sigsuspend(&mask);  // a pending stop signal is delivered right here
  }
}

}  // namespace pqs::net
