// The admission-control gate: admit under the limit, queue while the
// queue has room (granted when a slot frees), reject with typed
// kOverloaded both when the queue is full and when the queue wait times
// out — plus the end-to-end proof that every query execution path goes
// through the gate.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/admission.h"
#include "engine/database.h"
#include "session/session.h"

namespace mural {
namespace {

TEST(AdmissionTest, DisabledGateAdmitsEverything) {
  AdmissionController gate(AdmissionOptions{});  // max_concurrent = 0
  for (int i = 0; i < 100; ++i) {
    double wait = -1;
    auto ticket = gate.Admit(&wait);
    ASSERT_TRUE(ticket.ok());
    EXPECT_EQ(wait, 0.0);
  }
  EXPECT_EQ(gate.active(), 0);  // disabled gate does no accounting
}

TEST(AdmissionTest, AdmitsUpToLimitAndReleasesOnTicketDrop) {
  AdmissionOptions options;
  options.max_concurrent = 2;
  AdmissionController gate(options);
  {
    auto a = gate.Admit(nullptr);
    auto b = gate.Admit(nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(gate.active(), 2);
  }
  EXPECT_EQ(gate.active(), 0);  // RAII released both slots
  auto again = gate.Admit(nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(gate.active(), 1);
}

TEST(AdmissionTest, FullQueueRejectsImmediately) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  options.queue_timeout_ms = 60000;  // would block a minute if queued
  AdmissionController gate(options);
  Counter* rejected =
      MetricsRegistry::Global().GetCounter("engine.admission.rejected");
  const uint64_t rejected0 = rejected->value();

  auto holder = gate.Admit(nullptr);
  ASSERT_TRUE(holder.ok());
  Timer timer;
  auto refused = gate.Admit(nullptr);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsOverloaded()) << refused.status().ToString();
  // Immediate: no queue slot, so the timeout budget was never consulted.
  EXPECT_LT(timer.ElapsedMillis(), 1000.0);
  EXPECT_EQ(rejected->value(), rejected0 + 1);
}

TEST(AdmissionTest, QueueWaitTimesOutWithOverloaded) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 4;
  options.queue_timeout_ms = 50;
  AdmissionController gate(options);
  Counter* timeouts =
      MetricsRegistry::Global().GetCounter("engine.admission.timeouts");
  const uint64_t timeouts0 = timeouts->value();

  auto holder = gate.Admit(nullptr);
  ASSERT_TRUE(holder.ok());
  Timer timer;
  auto timed_out = gate.Admit(nullptr);
  const double waited = timer.ElapsedMillis();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsOverloaded());
  EXPECT_GE(waited, 50.0);
  EXPECT_EQ(timeouts->value(), timeouts0 + 1);
  EXPECT_EQ(gate.queued(), 0);  // the waiter cleaned up after itself
}

TEST(AdmissionTest, QueuedRequestIsGrantedWhenSlotFrees) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 4;
  options.queue_timeout_ms = 60000;
  AdmissionController gate(options);

  std::optional<StatusOr<AdmissionTicket>> holder = gate.Admit(nullptr);
  ASSERT_TRUE(holder->ok());

  ThreadPool pool(1);
  double queue_wait_ms = -1;
  std::future<Status> waiter = pool.Submit([&gate, &queue_wait_ms] {
    MURAL_ASSIGN_OR_RETURN(AdmissionTicket ticket,
                           gate.Admit(&queue_wait_ms));
    return Status::OK();
  });

  // Wait (bounded) for the task to reach the queue, then free the slot.
  Timer timer;
  while (gate.queued() == 0 && timer.ElapsedMillis() < 10000) {
    std::this_thread::yield();
  }
  ASSERT_EQ(gate.queued(), 1);
  holder.reset();  // releases the slot, waking the waiter

  const Status granted = waiter.get();
  EXPECT_TRUE(granted.ok()) << granted.ToString();
  EXPECT_GE(queue_wait_ms, 0.0);
  EXPECT_EQ(gate.active(), 0);
  EXPECT_EQ(gate.queued(), 0);
}

// End-to-end: Session::Query is the single admission funnel, so a saturated
// gate turns Session::Sql into kOverloaded.
TEST(AdmissionTest, SaturatedGateShedsQueries) {
  DatabaseOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Sql("CREATE TABLE T (X INT)").ok());
  ASSERT_TRUE((*session)->Sql("INSERT INTO T VALUES (1)").ok());

  // With the only slot free, queries run...
  auto fine = (*session)->Sql("SELECT X FROM T");
  ASSERT_TRUE(fine.ok());

  // ...and with it held, they shed.
  auto slot = (*db)->admission()->Admit(nullptr);
  ASSERT_TRUE(slot.ok());
  auto shed = (*session)->Sql("SELECT X FROM T");
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsOverloaded()) << shed.status().ToString();

  // EXPLAIN ANALYZE funnels through the same gate exactly once.
  auto shed_explain = (*session)->Sql("EXPLAIN ANALYZE SELECT X FROM T");
  ASSERT_FALSE(shed_explain.ok());
  EXPECT_TRUE(shed_explain.status().IsOverloaded());
}

}  // namespace
}  // namespace mural
