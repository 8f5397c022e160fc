#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rcsim {
namespace {

using namespace rcsim::literals;

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(3_sec, [&] { order.push_back(3); });
  s.scheduleAt(1_sec, [&] { order.push_back(1); });
  s.scheduleAt(2_sec, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_sec);
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.scheduleAt(1_sec, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesDuringCallbacks) {
  Scheduler s;
  Time seen;
  s.scheduleAt(5_sec, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 5_sec);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  Time seen;
  s.scheduleAt(2_sec, [&] { s.scheduleAfter(3_sec, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 5_sec);
}

TEST(Scheduler, ZeroDelayFiresSameTimestampAfterCurrent) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(1_sec, [&] {
    order.push_back(1);
    s.scheduleAfter(Time::zero(), [&] { order.push_back(3); });
  });
  s.scheduleAt(1_sec, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 1_sec);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.scheduleAt(1_sec, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeOnStaleIds) {
  Scheduler s;
  int fired = 0;
  const EventId id = s.scheduleAt(1_sec, [&] { ++fired; });
  s.run();
  s.cancel(id);     // already fired: no-op
  s.cancel(id);     // twice: still fine
  s.cancel(EventId{});  // invalid id: no-op
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunUntilHorizonStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.scheduleAt(1_sec, [&] { ++fired; });
  s.scheduleAt(10_sec, [&] { ++fired; });
  s.run(5_sec);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_sec);
  s.run(20_sec);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20_sec);
}

TEST(Scheduler, EventExactlyAtHorizonFires) {
  Scheduler s;
  bool fired = false;
  s.scheduleAt(5_sec, [&] { fired = true; });
  s.run(5_sec);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, StopHaltsProcessing) {
  Scheduler s;
  int fired = 0;
  s.scheduleAt(1_sec, [&] {
    ++fired;
    s.stop();
  });
  s.scheduleAt(2_sec, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  Time seen = Time::infinity();
  s.scheduleAt(4_sec, [&] {
    s.scheduleAt(1_sec, [&] { seen = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(seen, 4_sec);
}

TEST(Scheduler, ExecutedEventsCounts) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.scheduleAt(Time::seconds(i), [] {});
  s.run();
  EXPECT_EQ(s.executedEvents(), 5u);
}

TEST(Scheduler, CancelChurnKeepsBookkeepingBounded) {
  // Regression: the pre-pool scheduler accumulated one tombstone per
  // cancel() forever. A million schedule/fire/cancel cycles must leave no
  // pending state and a pool bounded by peak concurrency (two events here),
  // not by total churn.
  Scheduler s;
  constexpr int kCycles = 1'000'000;
  std::uint64_t fired = 0;
  for (int i = 0; i < kCycles; ++i) {
    const EventId keep = s.scheduleAfter(Time::microseconds(1), [&fired] { ++fired; });
    const EventId victim = s.scheduleAfter(Time::microseconds(2), [] { FAIL(); });
    s.cancel(victim);
    s.cancel(victim);  // double-cancel: must stay a no-op
    s.run();
    s.cancel(keep);  // stale handle of a fired event: must stay a no-op
    EXPECT_EQ(s.pendingEvents(), 0u);
  }
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(s.executedEvents(), static_cast<std::uint64_t>(kCycles));
  // Peak concurrency was 2 events; the pool allocates whole chunks, so the
  // capacity must be a single chunk — far below the 2M handles churned.
  EXPECT_LE(s.poolCapacity(), 1024u);
}

TEST(Scheduler, CancelDuringCallbackAndSelfCancel) {
  Scheduler s;
  int fired = 0;
  EventId later{};
  const EventId self = s.scheduleAt(1_sec, [&] {
    ++fired;
    s.cancel(self);   // self-cancel while executing: no-op, no corruption
    s.cancel(later);  // cancel a pending sibling from inside a callback
  });
  later = s.scheduleAt(2_sec, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  Time last = Time::zero();
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    s.scheduleAt(Time::microseconds((i * 7919) % 10007), [&] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.executedEvents(), 20000u);
}

/// Events at times shared with a chain of five, the chain either scheduled
/// all at once or one link at a time on reserved sequence numbers. Other
/// events are scheduled before the chain, after it, and from inside a
/// chain callback. Returns the firing order.
std::vector<std::string> chainWithNeighbours(bool lazy) {
  Scheduler s;
  std::vector<std::string> order;
  auto log = [&order](std::string name) { return [&order, name] { order.push_back(name); }; };
  const std::vector<Time> chainAt{1_sec, 1_sec, 2_sec, 3_sec, 3_sec};
  static constexpr const char* kChainNames[] = {"c0", "c1", "c2", "c3", "c4"};

  s.scheduleAt(1_sec, log("a0"));
  s.scheduleAt(2_sec, log("a1"));
  // c1 schedules d at the chain's last timestamp.
  auto chainEvent = [&](std::size_t i) {
    return [&order, &s, i, &log] {
      order.push_back(kChainNames[i]);
      if (i == 1) s.scheduleAt(3_sec, log("d"));
    };
  };
  std::uint64_t first = 0;
  std::function<void(std::size_t)> scheduleLink = [&](std::size_t i) {
    s.scheduleAt(chainAt[i], EventKind::Traffic, first + i, [&, i] {
      if (i + 1 < chainAt.size()) scheduleLink(i + 1);
      chainEvent(i)();
    });
  };
  if (lazy) {
    first = s.reserveSequence(chainAt.size());
    scheduleLink(0);
  } else {
    for (std::size_t i = 0; i < chainAt.size(); ++i) {
      s.scheduleAt(chainAt[i], EventKind::Traffic, chainEvent(i));
    }
  }
  s.scheduleAt(1_sec, log("b0"));
  s.scheduleAt(3_sec, log("b1"));
  s.scheduleAt(2_sec, log("b2"));
  EXPECT_EQ(s.scheduledEvents(), 10u);
  EXPECT_EQ(s.pendingEvents(), lazy ? 6u : 10u);
  s.run();
  EXPECT_EQ(s.executedEvents(), 11u);
  EXPECT_EQ(s.kindStats(EventKind::Traffic).executed, 5u);
  return order;
}

TEST(Scheduler, ReservedSequenceFiresLikeAnEagerSchedule) {
  const std::vector<std::string> eager = chainWithNeighbours(false);
  EXPECT_EQ(eager, (std::vector<std::string>{"a0", "c0", "c1", "b0", "a1", "c2", "b2", "c3",
                                             "c4", "b1", "d"}));
  EXPECT_EQ(chainWithNeighbours(true), eager);
}

TEST(Scheduler, ReservedSequenceOrdersByNumberNotByCall) {
  // Among equal times the reserved number decides, not the scheduling call.
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t first = s.reserveSequence(3);
  s.scheduleAt(1_sec, [&] { order.push_back(0); });  // takes first + 3
  s.scheduleAt(1_sec, EventKind::Generic, first + 2, [&] { order.push_back(3); });
  s.scheduleAt(1_sec, EventKind::Generic, first, [&] { order.push_back(1); });
  s.scheduleAt(1_sec, EventKind::Generic, first + 1, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
  EXPECT_EQ(s.scheduledEvents(), 4u);
}

// Every callable lives inside its event slot: one over kInlineBytes is
// rejected at compile time instead of falling back to the heap.
struct Oversized {
  std::array<unsigned char, EventCallback::kInlineBytes + 1> bytes{};
  void operator()() const {}
};
struct ExactlyInline {
  std::array<unsigned char, EventCallback::kInlineBytes> bytes{};
  void operator()() const {}
};
template <typename F>
concept AcceptedEverywhere = requires(Scheduler& s, F f) {
  s.scheduleAt(Time::zero(), f);
  s.scheduleAt(Time::zero(), EventKind::Generic, f);
  s.scheduleAt(Time::zero(), EventKind::Generic, std::uint64_t{1}, f);
  s.scheduleAfter(Time::zero(), f);
  s.scheduleAfter(Time::zero(), EventKind::Generic, f);
};
template <typename F>
concept AcceptedAnywhere = requires(Scheduler& s, F f) { s.scheduleAt(Time::zero(), f); } ||
                           requires(Scheduler& s, F f) {
                             s.scheduleAt(Time::zero(), EventKind::Generic, f);
                           } ||
                           requires(Scheduler& s, F f) {
                             s.scheduleAt(Time::zero(), EventKind::Generic, std::uint64_t{1}, f);
                           } ||
                           requires(Scheduler& s, F f) { s.scheduleAfter(Time::zero(), f); } ||
                           requires(Scheduler& s, F f) {
                             s.scheduleAfter(Time::zero(), EventKind::Generic, f);
                           };
static_assert(sizeof(Oversized) == EventCallback::kInlineBytes + 1);
static_assert(!AcceptedAnywhere<Oversized>);
static_assert(AcceptedEverywhere<ExactlyInline>);

}  // namespace
}  // namespace rcsim
