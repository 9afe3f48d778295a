// A socket front end running N concurrent sessions against one Database.
//
// Each accepted connection gets its own Session (so per-connection SET,
// prepared statements, and effort counters are isolated) while storage,
// catalog, statistics, the plan cache, and the admission gate are shared —
// the concurrent-engine split this PR's API redesign exists to serve.
//
// Transport: an AF_UNIX socket (preferred; sandbox- and test-friendly) or
// loopback TCP (port 0 = kernel-assigned, see port()).  At most
// max_connections clients are served at once; later connects are turned
// away with a protocol error line.
//
// Line protocol (everything is '\n'-terminated text):
//
//   client:  one SQL statement per line, e.g.
//              CREATE TABLE Book (Author UNITEXT MATERIALIZE PHONEMES);
//              SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru';
//            special commands: \q (quit), \metrics (Prometheus dump)
//   server:  zero or more data lines (row values joined with " | ";
//            engine values never embed newlines), then one terminator:
//              -- ok rows=<n> runtime_ms=<t> queue_wait_ms=<w> session=<id>
//            or, on failure (including kOverloaded from admission):
//              -- error <Code>: <message>
//
// Threading: one ThreadPool task per live connection plus one for the
// accept loop; no bare threads.  Stop() (also run by the destructor)
// shuts down the listener and every live connection, then joins the pool.
//
// Exported metrics: server.connections.active (gauge),
// server.connections.total / server.connections.rejected and
// server.statements (counters).

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/database.h"

namespace mural {

struct ServerOptions {
  /// AF_UNIX listening path; takes precedence when non-empty.  The path
  /// is unlinked before bind and after shutdown.
  std::string unix_path;
  /// Loopback TCP port when unix_path is empty; 0 = kernel-assigned.
  int tcp_port = 0;
  /// Max simultaneously served connections; later connects are refused
  /// with a protocol error line.
  int max_connections = 32;
  /// Session knobs every new connection starts from.
  SessionOptions session_defaults;
};

class Server {
 public:
  /// Binds, listens, and starts the accept loop.  `db` must outlive the
  /// returned Server.
  [[nodiscard]] static StatusOr<std::unique_ptr<Server>> Start(
      Database* db, ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, disconnects every client, joins all connection
  /// tasks.  Idempotent.
  void Stop();

  /// "path" for AF_UNIX, "127.0.0.1:<port>" for TCP.
  const std::string& endpoint() const { return endpoint_; }
  /// The bound TCP port (resolved when tcp_port was 0); -1 for AF_UNIX.
  int port() const { return port_; }

 private:
  Server(Database* db, ServerOptions options);

  [[nodiscard]] Status Listen();
  /// Accept-loop pool task; exits when Stop() shuts the listener down.
  [[nodiscard]] Status AcceptLoop();
  /// Per-connection pool task: mints a Session and speaks the protocol.
  [[nodiscard]] Status ServeConnection(int fd);

  /// Registers fd as live unless at capacity or stopping.
  bool TryRegisterConnection(int fd);
  void UnregisterConnection(int fd);

  Database* const db_;  // lint: unguarded(set once in the ctor; Database is internally synchronized)
  const ServerOptions options_;
  std::string endpoint_;  // lint: unguarded(written only during single-threaded Start)
  int port_ = -1;  // lint: unguarded(written only during single-threaded Start)
  int listen_fd_ = -1;  // lint: unguarded(set in Start before threads exist; Stop only shutdowns it until the pool is joined)
  std::atomic<bool> stopping_{false};
  std::unique_ptr<ThreadPool> pool_;  // lint: unguarded(set in Start before threads exist; reset only in Stop after the listener wakes)

  Mutex mu_;
  std::set<int> conns_ GUARDED_BY(mu_);
  std::vector<std::future<Status>> tasks_ GUARDED_BY(mu_);
};

}  // namespace mural
