#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "session/session.h"

namespace mural {

namespace {

struct ServerMetrics {
  Gauge* active;
  Counter* total;
  Counter* rejected;
  Counter* statements;
};

ServerMetrics& Metrics() {
  static ServerMetrics m = {
      MetricsRegistry::Global().GetGauge("server.connections.active"),
      MetricsRegistry::Global().GetCounter("server.connections.total"),
      MetricsRegistry::Global().GetCounter("server.connections.rejected"),
      MetricsRegistry::Global().GetCounter("server.statements"),
  };
  return m;
}

// The server's blocking socket I/O, named here so mural_lint's latch-scope
// rule rejects any mutex guard held across a call into them.
// lint: blocking(AcceptConnFd, RecvSome, SendAll)

/// Blocks until a client connects; returns -1 on error/shutdown.
int AcceptConnFd(int listen_fd) {
  return ::accept(listen_fd, nullptr, nullptr);
}

/// Blocks until some bytes arrive; 0 = orderly EOF, -1 = error/shutdown.
ssize_t RecvSome(int fd, char* buf, size_t n) {
  ssize_t r;
  do {
    r = ::recv(fd, buf, n, 0);
  } while (r < 0 && errno == EINTR);
  return r;
}

/// Blocks until all of `data` is written (or the peer goes away).
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

/// Buffered '\n'-delimited reads over RecvSome.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF / connection error with no complete line left.
  bool GetLine(std::string* line) {
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t r = RecvSome(fd_, chunk, sizeof(chunk));
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(r));
    }
  }

 private:
  const int fd_;
  std::string buf_;
};

std::string Terminator(size_t rows, double runtime_ms, double queue_wait_ms,
                       uint64_t session_id) {
  return StringFormat(
      "-- ok rows=%zu runtime_ms=%.2f queue_wait_ms=%.2f session=%llu\n",
      rows, runtime_ms, queue_wait_ms,
      static_cast<unsigned long long>(session_id));
}

std::string RenderResponse(const StatusOr<QueryResult>& result) {
  if (!result.ok()) {
    return std::string("-- error ") +
           StatusCodeToString(result.status().code()) + ": " +
           result.status().message() + "\n";
  }
  const QueryResult& r = *result;
  std::string out;
  for (const Row& row : r.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += " | ";
      out += row[c].ToString();
    }
    out += "\n";
  }
  out += Terminator(r.rows.size(), r.runtime_ms, r.queue_wait_ms,
                    r.session_id);
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<Server>> Server::Start(Database* db,
                                                ServerOptions options) {
  if (db == nullptr) {
    return Status::InvalidArgument("Server::Start: null database");
  }
  if (options.max_connections < 1) {
    return Status::InvalidArgument(
        "Server::Start: max_connections must be >= 1");
  }
  std::unique_ptr<Server> server(new Server(db, std::move(options)));
  MURAL_RETURN_IF_ERROR(server->Listen());
  // One slot per servable connection plus the accept loop itself.
  server->pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(server->options_.max_connections) + 1);
  Server* raw = server.get();
  std::future<Status> accept_task =
      server->pool_->Submit([raw] { return raw->AcceptLoop(); });
  {
    MutexLock lock(server->mu_);
    server->tasks_.push_back(std::move(accept_task));
  }
  return server;
}

Server::Server(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Listen() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket(AF_UNIX): ") +
                              std::strerror(errno));
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Internal("bind(" + options_.unix_path +
                              "): " + std::strerror(errno));
    }
    endpoint_ = options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket(AF_INET): ") +
                              std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Internal(
          "bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
          "): " + std::strerror(errno));
    }
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return Status::Internal(std::string("getsockname: ") +
                              std::strerror(errno));
    }
    port_ = static_cast<int>(ntohs(bound.sin_port));
    endpoint_ = "127.0.0.1:" + std::to_string(port_);
  }
  if (::listen(listen_fd_, options_.max_connections) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = AcceptConnFd(listen_fd_);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;  // transient accept failure (e.g. aborted handshake)
    }
    Metrics().total->Increment();
    if (!TryRegisterConnection(fd)) {
      Metrics().rejected->Increment();
      // Turned away politely: tell the client before hanging up, without
      // occupying a connection slot.
      (void)SendAll(fd,
                    "-- error Overloaded: server connection limit "
                    "reached\n");
      ::close(fd);
      continue;
    }
    Server* self = this;
    std::future<Status> task =
        pool_->Submit([self, fd] { return self->ServeConnection(fd); });
    MutexLock lock(mu_);
    tasks_.push_back(std::move(task));
  }
  return Status::OK();
}

Status Server::ServeConnection(int fd) {
  Metrics().active->Add(1);
  {
    auto connected = db_->Connect(options_.session_defaults);
    if (!connected.ok()) {
      (void)SendAll(fd, RenderResponse(connected.status()));
    } else {
      std::unique_ptr<Session> session = std::move(*connected);
      LineReader reader(fd);
      std::string line;
      while (!stopping_.load(std::memory_order_acquire) &&
             reader.GetLine(&line)) {
        const std::string trimmed(Trim(line));
        if (trimmed.empty()) continue;
        if (trimmed == "\\q") {
          (void)SendAll(fd, "-- bye\n");
          break;
        }
        if (trimmed == "\\metrics") {
          std::string dump = MetricsRegistry::Global().TextExposition();
          const size_t lines =
              static_cast<size_t>(
                  std::count(dump.begin(), dump.end(), '\n'));
          dump += Terminator(lines, 0, 0, session->id());
          if (!SendAll(fd, dump)) break;
          continue;
        }
        Metrics().statements->Increment();
        if (!SendAll(fd, RenderResponse(session->Sql(trimmed)))) break;
      }
    }
  }
  // Unregister before closing: once closed, accept() may hand the same fd
  // number to a new connection, which this erase would then drop from
  // conns_ (and Stop() would never shut it down).
  UnregisterConnection(fd);
  ::close(fd);
  Metrics().active->Add(-1);
  return Status::OK();
}

bool Server::TryRegisterConnection(int fd) {
  MutexLock lock(mu_);
  // The accept loop occupies one of the tasks_ slots conceptually but a
  // dedicated pool thread permanently, hence max_connections + 1 workers.
  if (stopping_.load(std::memory_order_acquire) ||
      static_cast<int>(conns_.size()) >= options_.max_connections) {
    return false;
  }
  conns_.insert(fd);
  return true;
}

void Server::UnregisterConnection(int fd) {
  MutexLock lock(mu_);
  conns_.erase(fd);
}

void Server::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the accept loop and every connection blocked in RecvSome; fds
  // stay open (shutdown, not close) so no task can race a recycled fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    MutexLock lock(mu_);
    for (const int fd : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  pool_.reset();  // drains + joins accept loop and connection tasks
  std::vector<std::future<Status>> tasks;
  {
    MutexLock lock(mu_);
    tasks.swap(tasks_);
  }
  for (std::future<Status>& task : tasks) {
    const Status status = task.get();
    if (!status.ok()) {
      MURAL_LOG(Warn) << "server task: " << status.ToString();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

}  // namespace mural
