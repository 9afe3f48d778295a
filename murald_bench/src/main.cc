// murald_bench: the repository's end-to-end benchmark.
//
//   murald_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out <dir>] [--git-sha <sha>]
//
// One run: generate the seeded datasets and the oracle (untimed); set up
// (Database::Open, loads through the public API, index builds, ANALYZE,
// taxonomy load, in-process Server start on an AF_UNIX socket, a
// fixed-count warm-up); EXPLAIN every statement template (the plan
// record); then drive the workload as a closed loop from one client
// thread over one connection, checking every response against the
// oracle.  An untraced run repeats set-up and loop for each of the
// workload's segments and pools the samples.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 prints the
// per-layer metrics: an untraced and a traced half of the closed loop
// (their throughput ratio is the tracing overhead), an in-process
// layer-by-layer replay and single-layer probes.
//
// The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The run record (machine, build, server settings, per-class quartiles,
// plans, host-speed probe) goes to <out>/<workload>-seed<n>-trace<t>.json
// and, prefixed with "RECORD ", to stdout.  The exit code is 0 only for a
// correct run.

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/database.h"
#include "layers.h"
#include "report.h"
#include "server/server.h"
#include "session/session.h"
#include "wire_client.h"
#include "workloads.h"

namespace murald_bench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--out") {
      args->out = v;
    } else if (flag == "--git-sha") {
      args->git_sha = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Host-speed probe: a fixed dependent integer loop, timed.  Metadata
/// only; nothing is normalized by it.
double HostProbeMs(uint64_t seed) {
  const int64_t start = NowNanos();
  uint64_t x = seed | 1;
  for (int i = 0; i < (1 << 25); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  static volatile uint64_t sink;
  sink = sink + x;
  return static_cast<double>(NowNanos() - start) / 1e6;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// Host wake-up probe: median round trip, in microseconds, of a one-byte
/// ping-pong between two threads over pipes.  It sees scheduler wake-up
/// delays, which slow the short statements and which the integer loop
/// does not see.  Metadata only, like HostProbeMs.
double HostWakeupUs() {
  int ping[2], pong[2];
  if (::pipe(ping) != 0) return -1;
  if (::pipe(pong) != 0) {
    ::close(ping[0]);
    ::close(ping[1]);
    return -1;
  }
  std::thread echo([&] {
    char c = 0;
    while (::read(ping[0], &c, 1) == 1 && c != 0) {
      if (::write(pong[1], &c, 1) != 1) break;
    }
  });
  std::vector<double> rtt_us;
  for (int i = 0; i < 2000; ++i) {
    char c = 1;
    const int64_t t0 = NowNanos();
    if (::write(ping[1], &c, 1) != 1 || ::read(pong[0], &c, 1) != 1) break;
    rtt_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
  }
  const char stop = 0;
  (void)!::write(ping[1], &stop, 1);
  echo.join();
  for (int fd : {ping[0], ping[1], pong[0], pong[1]}) ::close(fd);
  return Median(rtt_us);
}

long ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  long n = 0;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

double PeakRssMb() {
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// murald's defaults (tools/server/murald.cc): admission gate 8 wide,
/// queue 16, 1000 ms timeout; 128-entry plan cache; session DOP 0
/// (= nproc) and batch 1024.
mural::DatabaseOptions MuraldOptions() {
  mural::DatabaseOptions options;
  options.admission.max_concurrent = 8;
  options.admission.max_queue = 16;
  options.admission.queue_timeout_ms = 1000;
  options.plan_cache_capacity = 128;
  options.degree_of_parallelism = 0;
  options.batch_size = 1024;
  return options;
}

/// The engine, its server and the one client connection.
struct Stack {
  std::unique_ptr<mural::Database> db;
  std::unique_ptr<mural::Server> server;
  WireClient client;

  void Teardown() {
    client.Close();
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
  }
};

/// Compares a response with the oracle; describes the first difference.
bool Matches(const Op& op, Response* resp, std::string* why) {
  if (!resp->ok) {
    *why = resp->error;
    return false;
  }
  std::sort(resp->lines.begin(), resp->lines.end());
  if (resp->lines != *op.expected ||
      resp->rows != static_cast<long>(op.expected->size())) {
    *why = "expected " + std::to_string(op.expected->size()) +
           " rows, got " + std::to_string(resp->lines.size()) +
           (resp->lines.empty() ? "" : " (first: " + resp->lines[0] + ")");
    return false;
  }
  return true;
}

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> mismatches;  // the first few, for the record

  void Fail(const std::string& sql, const std::string& why) {
    ++failed;
    if (mismatches.size() < 5) mismatches.push_back(sql + " -> " + why);
  }
};

/// Runs one statement and checks it; false on a transport failure.
bool Step(WireClient* client, const Op& op, Response* resp, Tally* tally) {
  ++tally->attempted;
  if (!client->Roundtrip(op.sql, resp)) {
    tally->Fail(op.sql, "connection lost");
    return false;
  }
  std::string why;
  if (!Matches(op, resp, &why)) tally->Fail(op.sql, why);
  return true;
}

/// One set-up: open, load, start the server, connect, session
/// statements, warm-up.  Returns its wall time in seconds, or -1.
double SetUp(Workload* wl, const std::string& socket_path, Stack* stack,
             Tally* tally) {
  wl->PrepareLoad();
  const int64_t start = NowNanos();
  auto db = mural::Database::Open(MuraldOptions());
  if (!db.ok()) {
    tally->Fail("Database::Open", db.status().ToString());
    return -1;
  }
  stack->db = std::move(*db);
  const mural::Status loaded = wl->Load(stack->db.get());
  if (!loaded.ok()) {
    tally->Fail("load", loaded.ToString());
    return -1;
  }
  mural::ServerOptions server_options;
  server_options.unix_path = socket_path;
  // One client connection; the limit makes the server refuse a second.
  server_options.max_connections = 1;
  server_options.session_defaults = stack->db->session_defaults();
  auto server = mural::Server::Start(stack->db.get(), server_options);
  if (!server.ok()) {
    tally->Fail("Server::Start", server.status().ToString());
    return -1;
  }
  stack->server = std::move(*server);
  std::string error;
  if (!stack->client.Connect(socket_path, &error)) {
    tally->Fail("connect", error);
    return -1;
  }
  Response resp;
  for (const std::string& sql : wl->SessionStatements()) {
    if (!stack->client.Roundtrip(sql, &resp) || !resp.ok) {
      tally->Fail(sql, resp.error);
      return -1;
    }
  }
  wl->NewSetUp();
  Tally warmup;
  for (size_t i = 0; i < wl->WarmupCount(); ++i) {
    if (!Step(&stack->client, wl->Next(), &resp, &warmup)) break;
  }
  const double seconds = static_cast<double>(NowNanos() - start) / 1e9;
  if (warmup.failed > 0) {
    for (const std::string& m : warmup.mismatches) tally->Fail("warm-up", m);
    return -1;
  }
  return seconds;
}

struct LoopStats {
  double elapsed_s = 0;
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> class_ms;
  std::vector<double> overhead_us;  // traced: RTT - runtime - queue wait
  /// Statements per second of each window of at least kWindowNanos of
  /// closed loop (windows never span a set-up).
  std::vector<double> window_qps;
  long peak_threads = 0;
  bool budget_spent = false;
};

/// The closed loop: the next statement goes out only after the previous
/// terminator arrived.  Runs for `seconds` or until the stream ends, and
/// adds its samples to `*s`.
void ClosedLoop(Workload* wl, WireClient* client, double seconds,
                Tracer* tracer, Tally* tally, LoopStats* s) {
  s->class_ms.resize(wl->classes().size());
  s->peak_threads = std::max(s->peak_threads, ThreadCount());
  constexpr int64_t kWindowNanos = 500000000;
  Response resp;
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  int64_t window_start = start;
  size_t in_window = 0;
  size_t closed = 0;         // statements of the last closed window
  int64_t closed_start = 0;  // and its start
  while (now < deadline) {
    const Op op = wl->Next();
    if (op.sql.empty()) {
      s->budget_spent = true;
      break;
    }
    const int64_t t0 = NowNanos();
    const bool alive = Step(client, op, &resp, tally);
    now = NowNanos();
    const double ms = static_cast<double>(now - t0) / 1e6;
    s->latency_ms.push_back(ms);
    s->class_ms[op.cls].push_back(ms);
    if (tracer != nullptr) {
      tracer->Add("wire.statement", 0, t0, now);
      s->overhead_us.push_back(
          (ms - resp.runtime_ms - resp.queue_wait_ms) * 1e3);
    }
    if (!alive) break;
    ++in_window;
    if (now - window_start >= kWindowNanos) {
      s->window_qps.push_back(static_cast<double>(in_window) * 1e9 /
                              static_cast<double>(now - window_start));
      closed = in_window;
      closed_start = window_start;
      window_start = now;
      in_window = 0;
    }
    if ((tally->attempted & 1023) == 0) {
      s->peak_threads = std::max(s->peak_threads, ThreadCount());
    }
  }
  if (in_window > 0) {
    // The short tail joins this loop's last window, or is its only one.
    if (closed > 0) {
      in_window += closed;
      window_start = closed_start;
      s->window_qps.pop_back();
    }
    s->window_qps.push_back(static_cast<double>(in_window) * 1e9 /
                            static_cast<double>(now - window_start));
  }
  s->elapsed_s += static_cast<double>(now - start) / 1e9;
  s->peak_threads = std::max(s->peak_threads, ThreadCount());
}

/// Median over the half-second windows: a stall of a few milliseconds
/// (a host hiccup) moves one window, not the figure.
double Throughput(const LoopStats& s) { return Median(s.window_qps); }

std::string ClassRecord(const std::vector<std::string>& names,
                        std::vector<std::vector<double>> class_ms) {
  JsonObject obj;
  for (size_t c = 0; c < names.size(); ++c) {
    std::vector<double>& v = class_ms[c];
    obj.Raw(names[c], JsonObject()
                          .Int("samples", static_cast<long long>(v.size()))
                          .Num("q1_ms", Quantile(&v, 0.25))
                          .Num("median_ms", Quantile(&v, 0.5))
                          .Num("q3_ms", Quantile(&v, 0.75))
                          .Num("p95_ms", Quantile(&v, 0.95))
                          .Str());
  }
  return obj.Str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.Raw(m.name,
            JsonObject().Num("value", m.value).Text("unit", m.unit).Str());
  }
  return obj.Str();
}

int Run(const Args& args) {
  const std::string build_type = MURALD_BENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "murald_bench: refusing to report from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "murald_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string socket_path =
      args.out + "/murald-" + std::to_string(::getpid()) + ".sock";

  const double probe_before_ms = HostProbeMs(args.seed);
  const double wakeup_before_us = HostWakeupUs();
  wl->Generate(args.seed);  // datasets + oracle: the benchmark's own work

  Tally tally;
  Stack stack;
  std::vector<double> setup_s;
  JsonObject plans;
  size_t psi_batch_plans = 0;
  const std::vector<std::string> psi_templates = wl->PsiTemplates();
  std::vector<Metric> metrics;
  LoopStats loop;
  std::vector<std::string> segment_json;
  Tracer tracer;
  // The untraced run measures in segments, each behind its own set-up
  // (a fresh Database, server and connection), and pools their samples:
  // the set-up time is the median over the segments, and a process state
  // that makes one segment fast or slow is averaged out.
  const int segments = args.trace ? 1 : wl->Segments();
  for (int i = 0; i < segments && tally.failed == 0; ++i) {
    stack.Teardown();
    const double s = SetUp(wl.get(), socket_path, &stack, &tally);
    if (s < 0) break;
    setup_s.push_back(s);
    if (i == 0) {
      // Plan record: every template's physical plan as the server plans
      // it, outside every timer.
      Response resp;
      for (const auto& [label, sql] : wl->Templates()) {
        std::string plan;
        if (stack.client.Roundtrip("EXPLAIN " + sql, &resp) && resp.ok) {
          for (const std::string& line : resp.lines) plan += line + "\n";
        } else {
          tally.Fail("EXPLAIN " + sql, resp.error);
        }
        plans.Text(label, plan);
        if (std::find(psi_templates.begin(), psi_templates.end(), label) !=
                psi_templates.end() &&
            plan.find("LexSelect") != std::string::npos) {
          ++psi_batch_plans;
        }
      }
    }
    if (!args.trace && tally.failed == 0) {
      const size_t first = loop.latency_ms.size();
      const double elapsed = loop.elapsed_s;
      ClosedLoop(wl.get(), &stack.client, args.seconds / segments, nullptr,
                 &tally, &loop);
      std::vector<double> part(loop.latency_ms.begin() + first,
                               loop.latency_ms.end());
      segment_json.push_back(
          JsonObject()
              .Num("setup_s", s)
              .Int("statements", static_cast<long long>(part.size()))
              .Num("qps", static_cast<double>(part.size()) /
                              (loop.elapsed_s - elapsed))
              .Num("p50_ms", Quantile(&part, 0.5))
              .Num("p95_ms", Quantile(&part, 0.95))
              .Str());
    }
  }

  if (tally.failed == 0 && !args.trace) {
    std::vector<double> lat = loop.latency_ms;
    metrics.push_back({"throughput_qps", Throughput(loop), "stmt/s"});
    metrics.push_back({"p50_ms", Quantile(&lat, 0.5), "ms"});
    metrics.push_back({"p95_ms", Quantile(&lat, 0.95), "ms"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
  } else if (tally.failed == 0) {
    // Untraced half, then traced half of the same stream.
    Tally untraced_tally;
    LoopStats untraced;
    ClosedLoop(wl.get(), &stack.client, args.seconds / 2, nullptr,
               &untraced_tally, &untraced);
    const CounterSnapshot before = SnapshotCounters();
    ClosedLoop(wl.get(), &stack.client, args.seconds / 2, &tracer, &tally,
               &loop);
    const CounterSnapshot after = SnapshotCounters();
    const double traced_qps = Throughput(loop);
    tally.attempted += untraced_tally.attempted;
    tally.failed += untraced_tally.failed;
    for (const std::string& m : untraced_tally.mismatches) {
      if (tally.mismatches.size() < 5) tally.mismatches.push_back(m);
    }
    metrics.push_back({"server.overhead_us", Median(loop.overhead_us), "us"});
    CounterMetrics(before, after, loop.latency_ms.size(), &metrics);
    metrics.push_back({"trace.overhead_ratio",
                       traced_qps / std::max(1e-9, Throughput(untraced)),
                       "ratio"});
    metrics.push_back(
        {"optimizer.psi_batch_plan_share",
         psi_templates.empty()
             ? 0
             : static_cast<double>(psi_batch_plans) /
                   static_cast<double>(psi_templates.size()),
         "ratio"});
    ReplayLayers(wl.get(), stack.db.get(), args.seconds / 4, &tracer,
                 &metrics, &tally.attempted, &tally.failed);
    ProbeLayers(wl->Layers(), stack.db.get(), &tracer, &metrics);
  }

  // Server settings as resolved by a session minted exactly as the
  // server mints its connection's (Connect with the server defaults).
  long resolved_dop = -1, resolved_batch = -1;
  if (stack.db != nullptr) {
    auto probe = stack.db->Connect(stack.db->session_defaults());
    if (probe.ok()) {
      resolved_dop = (*probe)->options().degree_of_parallelism;
      resolved_batch = static_cast<long>((*probe)->options().batch_size);
    }
  }
  stack.Teardown();
  if (!args.trace) metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  const double probe_after_ms = HostProbeMs(args.seed);
  const double wakeup_after_us = HostWakeupUs();

  const bool correct = tally.failed == 0 && !metrics.empty();
  const mural::DatabaseOptions server_options = MuraldOptions();
  std::vector<std::string> mismatches_json;
  for (const std::string& m : tally.mismatches) {
    mismatches_json.push_back(JsonObject::Quote(m));
  }
  const std::string record =
      JsonObject()
          .Text("workload", args.workload)
          .Int("seed", static_cast<long long>(args.seed))
          .Num("run_seconds", args.seconds)
          .Bool("trace", args.trace)
          .Int("nproc", static_cast<long long>(
                            mural::ThreadPool::HardwareConcurrency()))
          .Text("compiler", kCompiler)
          .Text("build_type", build_type)
          .Text("git_sha", args.git_sha)
          .Raw("server",
               JsonObject()
                   .Int("connections", 1)
                   .Int("client_threads", 1)
                   .Int("resolved_dop", resolved_dop)
                   .Int("resolved_batch_size", resolved_batch)
                   .Int("admission_max_concurrent",
                        server_options.admission.max_concurrent)
                   .Int("admission_max_queue",
                        server_options.admission.max_queue)
                   .Int("admission_queue_timeout_ms",
                        server_options.admission.queue_timeout_ms)
                   .Int("plan_cache_capacity", static_cast<long long>(
                            server_options.plan_cache_capacity))
                   .Str())
          .Int("peak_threads", loop.peak_threads)
          .Raw("segments", JsonArray(segment_json))
          .Raw("classes", ClassRecord(wl->classes(), loop.class_ms))
          .Text("stop_reason", loop.budget_spent ? "insert_budget" : "time")
          .Num("measured_s", loop.elapsed_s)
          .Num("overall_qps", loop.elapsed_s > 0
                                  ? static_cast<double>(
                                        loop.latency_ms.size()) /
                                        loop.elapsed_s
                                  : 0)
          .Raw("plans", plans.Str())
          .Raw("host_probe_ms", JsonObject()
                                    .Num("before", probe_before_ms)
                                    .Num("after", probe_after_ms)
                                    .Str())
          .Raw("host_wakeup_us", JsonObject()
                                     .Num("before", wakeup_before_us)
                                     .Num("after", wakeup_after_us)
                                     .Str())
          .Raw("mismatches", JsonArray(mismatches_json))
          .Raw("metrics", MetricsJson(metrics))
          .Str();
  const std::string stem = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", record.c_str());
    std::fclose(f);
  }
  if (args.trace) {
    if (std::FILE* f = std::fopen((stem + ".trace.json").c_str(), "w")) {
      std::fprintf(f, "%s\n", tracer.Json().c_str());
      std::fclose(f);
    }
  }
  for (const std::string& m : tally.mismatches) {
    std::fprintf(stderr, "murald_bench: FAILED %s\n", m.c_str());
  }
  std::printf("RECORD %s\n", record.c_str());
  std::printf("%s\n",
              JsonObject()
                  .Bool("correct", correct)
                  .Int("attempted", static_cast<long long>(tally.attempted))
                  .Int("failed", static_cast<long long>(tally.failed))
                  .Raw("metrics", MetricsJson(metrics))
                  .Str()
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace murald_bench

int main(int argc, char** argv) {
  murald_bench::Args args;
  if (!murald_bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: murald_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>] "
                 "[--git-sha <sha>]\n");
    return 2;
  }
  return murald_bench::Run(args);
}
