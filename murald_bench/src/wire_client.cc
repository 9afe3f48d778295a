#include "wire_client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace murald_bench {

namespace {

/// Value of `key=` inside a terminator line, or "" when absent.
std::string Field(const std::string& line, const char* key) {
  const std::string needle = std::string(" ") + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = line.find(' ', begin);
  return line.substr(begin, end == std::string::npos ? std::string::npos
                                                     : end - begin);
}

}  // namespace

WireClient::~WireClient() { Close(); }

bool WireClient::Connect(const std::string& unix_path, std::string* error) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (unix_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + unix_path;
    return false;
  }
  std::memcpy(addr.sun_path, unix_path.data(), unix_path.size());
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = "connect(" + unix_path + "): " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

ssize_t WireClient::Receive(char* buf, size_t len) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point spin_until = Clock::now() + kSpin;
  while (true) {
    const ssize_t n = ::recv(fd_, buf, len, MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return n;
    if (Clock::now() >= spin_until) break;
  }
  while (true) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0 || errno != EINTR) return n;
  }
}

bool WireClient::ReadLine(std::string* line) {
  while (true) {
    const size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
      }
      return true;
    }
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[16384];
    const ssize_t n = Receive(chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool WireClient::Roundtrip(const std::string& statement, Response* out) {
  if (fd_ < 0) return false;
  const std::string wire = statement + "\n";
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  out->ok = false;
  out->lines.clear();
  out->rows = -1;
  out->runtime_ms = 0;
  out->queue_wait_ms = 0;
  out->error.clear();
  std::string line;
  while (ReadLine(&line)) {
    if (line.rfind("-- ok", 0) == 0) {
      out->ok = true;
      out->rows = std::atol(Field(line, "rows").c_str());
      out->runtime_ms = std::atof(Field(line, "runtime_ms").c_str());
      out->queue_wait_ms = std::atof(Field(line, "queue_wait_ms").c_str());
      return true;
    }
    if (line.rfind("-- error", 0) == 0) {
      out->error = line;
      return true;
    }
    out->lines.push_back(std::move(line));
  }
  return false;
}

void WireClient::Close() {
  if (fd_ < 0) return;
  (void)::send(fd_, "\\q\n", 3, MSG_NOSIGNAL);
  std::string line;
  (void)ReadLine(&line);  // "-- bye", or EOF if the server went first
  ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  pos_ = 0;
}

}  // namespace murald_bench
