// In-process tests for the line-protocol SQL server: protocol round
// trips, per-connection session isolation, the connection-capacity
// rejection path, \metrics, and clean Stop().
//
// The client side here is deliberately primitive — a blocking AF_UNIX
// socket plus a line splitter — so the tests exercise the server's real
// wire behavior, not a shared helper library.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "server/server.h"

namespace mural {
namespace {

std::string SocketPath(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir();
  if (path.empty() || path.back() != '/') path += '/';
  path += "mural_";
  path += info->name();
  path += '_';
  path += tag;
  path += ".sock";
  // AF_UNIX paths are tiny (~100 bytes); keep CI tmpdirs honest.
  EXPECT_LT(path.size(), sizeof(sockaddr_un{}.sun_path));
  return path;
}

/// A blocking line-protocol client.  Each Roundtrip() sends one line and
/// reads until the "-- " terminator line, returning all response lines.
class TestClient {
 public:
  // lint: blocking(TestClientConnect, TestClientSend, TestClientRecv)
  static std::unique_ptr<TestClient> Connect(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    return std::unique_ptr<TestClient>(new TestClient(fd));
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Send(const std::string& line) {
    std::string wire = line;
    wire += '\n';
    size_t sent = 0;
    while (sent < wire.size()) {
      // MSG_NOSIGNAL: writing after the server hung up must surface as an
      // error return here, not kill the test process with SIGPIPE.
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads lines up to and including the next terminator ("-- ..."); the
  /// terminator is the last element.  Empty on EOF/error.
  std::vector<std::string> ReadResponse() {
    std::vector<std::string> lines;
    std::string line;
    while (GetLine(&line)) {
      lines.push_back(line);
      if (line.rfind("-- ", 0) == 0) return lines;
    }
    return {};
  }

  std::vector<std::string> Roundtrip(const std::string& line) {
    if (!Send(line)) return {};
    return ReadResponse();
  }

 private:
  explicit TestClient(int fd) : fd_(fd) {}

  bool GetLine(std::string* out) {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *out = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (!out->empty() && out->back() == '\r') out->pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

bool IsOk(const std::vector<std::string>& response) {
  return !response.empty() && response.back().rfind("-- ok", 0) == 0;
}

/// Pulls "key=value" out of a terminator line ("" when absent).
std::string TerminatorField(const std::vector<std::string>& response,
                            const std::string& key) {
  if (response.empty()) return "";
  const std::string& line = response.back();
  const std::string needle = key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = line.find(' ', start);
  return line.substr(start, end == std::string::npos ? end : end - start);
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto server = Server::Start(db_.get(), std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ProtocolRoundTrips) {
  ServerOptions options;
  options.unix_path = SocketPath("proto");
  StartServer(std::move(options));
  EXPECT_EQ(server_->endpoint(), SocketPath("proto"));
  EXPECT_EQ(server_->port(), -1);

  auto client = TestClient::Connect(server_->endpoint());
  ASSERT_NE(client, nullptr);

  EXPECT_TRUE(IsOk(client->Roundtrip(
      "CREATE TABLE Book (BookID INT, "
      "Author UNITEXT MATERIALIZE PHONEMES)")));
  EXPECT_TRUE(IsOk(
      client->Roundtrip("INSERT INTO Book VALUES (1, 'nehru'@English)")));
  EXPECT_TRUE(IsOk(
      client->Roundtrip("INSERT INTO Book VALUES (2, 'nehrU'@Hindi)")));
  EXPECT_TRUE(IsOk(
      client->Roundtrip("INSERT INTO Book VALUES (3, 'gandhi'@English)")));

  auto select = client->Roundtrip(
      "SELECT BookID, Author FROM Book WHERE Author LexEQUAL "
      "'nehru'@English");
  ASSERT_TRUE(IsOk(select)) << (select.empty() ? "<eof>" : select.back());
  // Data lines join values with " | ", then the terminator reports the
  // count and the session attribution.
  ASSERT_EQ(select.size(), 3u);
  EXPECT_EQ(select[0], "1 | 'nehru'@English");
  EXPECT_EQ(select[1], "2 | 'nehrU'@Hindi");
  EXPECT_EQ(TerminatorField(select, "rows"), "2");
  EXPECT_NE(TerminatorField(select, "session"), "");
  EXPECT_NE(TerminatorField(select, "runtime_ms"), "");
  EXPECT_NE(TerminatorField(select, "queue_wait_ms"), "");

  // Errors come back typed, connection stays usable.
  auto bad = client->Roundtrip("SELEKT * FROM Book");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rfind("-- error InvalidArgument:", 0), 0u) << bad[0];
  EXPECT_TRUE(IsOk(client->Roundtrip("SELECT BookID FROM Book")));

  // \metrics dumps Prometheus text ending in the ok terminator.
  auto metrics = client->Roundtrip("\\metrics");
  ASSERT_TRUE(IsOk(metrics));
  bool saw_statements = false;
  for (const std::string& line : metrics) {
    if (line.rfind("mural_server_statements", 0) == 0) saw_statements = true;
  }
  EXPECT_TRUE(saw_statements);

  auto bye = client->Roundtrip("\\q");
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0], "-- bye");
}

TEST_F(ServerTest, ConnectionsGetIsolatedSessions) {
  ServerOptions options;
  options.unix_path = SocketPath("iso");
  StartServer(std::move(options));

  auto a = TestClient::Connect(server_->endpoint());
  auto b = TestClient::Connect(server_->endpoint());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  ASSERT_TRUE(IsOk(a->Roundtrip(
      "CREATE TABLE Book (Author UNITEXT MATERIALIZE PHONEMES)")));
  ASSERT_TRUE(
      IsOk(a->Roundtrip("INSERT INTO Book VALUES ('nehru'@English)")));
  ASSERT_TRUE(
      IsOk(a->Roundtrip("INSERT INTO Book VALUES ('neharu'@Tamil)")));

  // Distinct session ids on the two connections.
  auto from_a = a->Roundtrip("SELECT Author FROM Book");
  auto from_b = b->Roundtrip("SELECT Author FROM Book");
  ASSERT_TRUE(IsOk(from_a));
  ASSERT_TRUE(IsOk(from_b));
  const std::string id_a = TerminatorField(from_a, "session");
  const std::string id_b = TerminatorField(from_b, "session");
  EXPECT_NE(id_a, "");
  EXPECT_NE(id_b, "");
  EXPECT_NE(id_a, id_b);

  // SET on one connection does not leak to the other: at threshold 0 the
  // LexEQUAL probe matches only the exact spelling; b still runs at the
  // default threshold and sees the near-homophone too.
  ASSERT_TRUE(IsOk(a->Roundtrip("SET lexequal_threshold = 0")));
  auto strict = a->Roundtrip(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'nehru'@English");
  auto loose = b->Roundtrip(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'nehru'@English");
  ASSERT_TRUE(IsOk(strict));
  ASSERT_TRUE(IsOk(loose));
  EXPECT_EQ(TerminatorField(strict, "rows"), "1");
  EXPECT_EQ(TerminatorField(loose, "rows"), "2");
}

TEST_F(ServerTest, RefusesConnectionsBeyondCapacity) {
  ServerOptions options;
  options.unix_path = SocketPath("cap");
  options.max_connections = 1;
  StartServer(std::move(options));

  auto first = TestClient::Connect(server_->endpoint());
  ASSERT_NE(first, nullptr);
  // Prove the slot is actually serving before the second connect.
  ASSERT_TRUE(IsOk(first->Roundtrip("CREATE TABLE T (X INT)")));

  auto second = TestClient::Connect(server_->endpoint());
  ASSERT_NE(second, nullptr);  // TCP-level accept still happens
  auto refusal = second->ReadResponse();
  ASSERT_EQ(refusal.size(), 1u);
  EXPECT_EQ(refusal[0].rfind("-- error Overloaded:", 0), 0u) << refusal[0];

  // Once the first client leaves, the slot frees up for a newcomer.  The
  // server releases it asynchronously; the active-connections gauge is
  // decremented last, so 0 means the slot is free.
  EXPECT_TRUE(IsOk(first->Roundtrip("SELECT X FROM T")));
  first.reset();
  const Gauge* active =
      MetricsRegistry::Global().GetGauge("server.connections.active");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (active->value() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(active->value(), 0) << "slot never freed after client disconnect";
  auto retry = TestClient::Connect(server_->endpoint());
  ASSERT_NE(retry, nullptr);
  EXPECT_TRUE(IsOk(retry->Roundtrip("SELECT X FROM T")));
}

TEST_F(ServerTest, StopDisconnectsClientsAndIsIdempotent) {
  ServerOptions options;
  options.unix_path = SocketPath("stop");
  StartServer(std::move(options));

  auto client = TestClient::Connect(server_->endpoint());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(IsOk(client->Roundtrip("CREATE TABLE T (X INT)")));

  server_->Stop();
  // The live connection is torn down: the next read sees EOF.
  EXPECT_TRUE(client->Roundtrip("SELECT X FROM T").empty());
  // The socket path is gone, so new connects fail outright.
  EXPECT_EQ(TestClient::Connect(SocketPath("stop")), nullptr);
  server_->Stop();  // idempotent
}

}  // namespace
}  // namespace mural
