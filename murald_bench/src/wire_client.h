// A blocking line-protocol client for the in-process murald server
// (protocol in src/server/server.h).  One statement per Roundtrip: the
// caller sends the next statement only after the terminator of the
// previous one has arrived, which is what makes the benchmark a closed
// loop.

#pragma once

#include <sys/types.h>

#include <chrono>
#include <string>
#include <vector>

namespace murald_bench {

/// One server response: the data lines and the parsed terminator.
struct Response {
  bool ok = false;
  std::vector<std::string> lines;  // data lines, in arrival order
  long rows = -1;                  // terminator rows=
  double runtime_ms = 0;           // terminator runtime_ms=
  double queue_wait_ms = 0;        // terminator queue_wait_ms=
  std::string error;               // "-- error ..." line when !ok
};

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to an AF_UNIX listener; false (with `*error` set) on failure.
  bool Connect(const std::string& unix_path, std::string* error);

  /// Sends one statement and reads its whole response.  False only on a
  /// transport failure; an engine error is a response with ok == false.
  bool Roundtrip(const std::string& statement, Response* out);

  /// Sends \q and closes the socket.  Idempotent.
  void Close();

 private:
  /// How long a read polls before it blocks.  A response that arrives
  /// within it does not pay a client thread wake-up, the largest and
  /// noisiest part of a tens-of-microseconds statement; a long statement
  /// spends a negligible share of a CPU on it.
  static constexpr std::chrono::microseconds kSpin{300};

  /// recv() that polls for up to kSpin before blocking.
  ssize_t Receive(char* buf, size_t len);
  bool ReadLine(std::string* line);

  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

}  // namespace murald_bench
