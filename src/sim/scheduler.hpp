#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace rcsim {

/// Coarse classification of scheduled events, for per-kind scheduler
/// profiling (the PDES groundwork: lookahead and partitioning decisions
/// need to know what the event mix *is*). Call sites tag their schedule*
/// calls; untagged calls default to Generic. Purely observational — the
/// kind never affects ordering or execution.
enum class EventKind : std::uint8_t {
  Generic = 0,   ///< untagged
  LinkDelivery,  ///< packet serialization / propagation on a link
  Protocol,      ///< routing-protocol timers and deferred work
  Transport,     ///< reliable-session / TCP retransmission timers
  Traffic,       ///< workload sources (CBR ticks, flow start)
  Fault,         ///< fault injection, path-targeted failures, repair
  Detector,      ///< failure detection (hello timers, oracle detect delay)
};
inline constexpr int kEventKindCount = 7;

[[nodiscard]] constexpr const char* toString(EventKind kind) {
  switch (kind) {
    case EventKind::Generic: return "generic";
    case EventKind::LinkDelivery: return "link";
    case EventKind::Protocol: return "protocol";
    case EventKind::Transport: return "transport";
    case EventKind::Traffic: return "traffic";
    case EventKind::Fault: return "fault";
    case EventKind::Detector: return "detector";
  }
  return "?";
}

/// Type-erased callable with inline storage, sized for the simulator's event
/// lambdas. Every callable is constructed directly inside the scheduler's
/// pooled event slot, so scheduling never allocates. A callable larger than
/// kInlineBytes does not compile: capture an index or a pointer to state
/// that outlives the event instead of the state itself.
///
/// Slots never relocate (the pool is chunked, see Scheduler), so the
/// callable is pinned: constructed once via emplace(), invoked in place,
/// destroyed via reset(). No move machinery is needed or provided.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  /// Whether a callable of type F fits the inline storage.
  template <typename F>
  static constexpr bool fitsInline = sizeof(std::remove_cvref_t<F>) <= kInlineBytes &&
                                     alignof(std::remove_cvref_t<F>) <= alignof(std::max_align_t);

  EventCallback() = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  /// Construct a callable in place. Must be empty (fresh or reset).
  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(fitsInline<Fn>,
                  "event callable exceeds EventCallback::kInlineBytes (or max_align_t "
                  "alignment); capture an index or pointer instead of the object");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
    destroy_ = [](void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); };
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(storage_); }

  void reset() {
    if (destroy_ != nullptr) {
      destroy_(storage_);
      invoke_ = nullptr;
      destroy_ = nullptr;
    }
  }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) noexcept = nullptr;
};

/// What Scheduler::schedule* accepts: a void() callable that fits an event
/// slot's inline storage. A constraint rather than only the static_assert
/// in emplace(), so an oversized callable is rejected at the call site.
template <typename F>
concept EventCallable = std::is_invocable_r_v<void, std::remove_cvref_t<F>&> &&
                        EventCallback::fitsInline<F>;

/// Opaque handle returned by Scheduler::schedule*, usable for cancellation.
/// Encodes (sequence number, pool slot); zero is the invalid handle.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
};

/// Single-threaded discrete-event scheduler.
///
/// Events scheduled for the same timestamp fire in FIFO order (stable by
/// insertion sequence, or by reserved sequence number, see
/// reserveSequence), which keeps protocol runs deterministic.
///
/// Storage is a chunked slab of pooled slots (callback + liveness key)
/// indexed by a min-heap of plain 16-byte (time, key) records, where key
/// packs the event's unique sequence number with the slot index.
/// Chunks give slots stable addresses, so callbacks are constructed,
/// invoked, and destroyed in place — never moved. Cancellation clears the
/// slot's key and recycles it immediately — O(1), no tombstone set, no
/// growth on stale cancels; the orphaned heap record is skipped when popped
/// because its key no longer matches the slot's.
class Scheduler {
 public:
  using Callback = EventCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `f` at absolute time `at` (times before now() clamp to now).
  template <typename F>
    requires EventCallable<F>
  EventId scheduleAt(Time at, F&& f) {
    return scheduleAt(at, EventKind::Generic, std::forward<F>(f));
  }

  /// Tagged variant: identical semantics, plus per-kind accounting (count
  /// and a power-of-two histogram of the scheduling delay in sim time).
  template <typename F>
    requires EventCallable<F>
  EventId scheduleAt(Time at, EventKind kind, F&& f) {
    return scheduleAt(at, kind, nextSeq_++, std::forward<F>(f));
  }

  /// Reserve `n` consecutive sequence numbers and return the first. Each
  /// is later passed to the `seq` variant of scheduleAt, exactly once, so a
  /// chain of events scheduled one at a time keeps the FIFO position it
  /// would have had if all of them were scheduled now.
  std::uint64_t reserveSequence(std::uint64_t n) {
    const std::uint64_t first = nextSeq_;
    nextSeq_ += n;
    return first;
  }

  /// Schedule `f` at `at` under a sequence number from reserveSequence.
  /// Among events at the same time it fires in `seq` order, not in the
  /// order of scheduleAt calls.
  template <typename F>
    requires EventCallable<F>
  EventId scheduleAt(Time at, EventKind kind, std::uint64_t seq, F&& f) {
    assert(seq != 0 && seq < nextSeq_ && "sequence number was not reserved");
    if (at < now_) at = now_;
    const std::uint32_t slot = acquireSlot();
    Slot& s = slotRef(slot);
    s.cb.emplace(std::forward<F>(f));
    s.kind = static_cast<std::uint8_t>(kind);
    KindStats& ks = kindStats_[static_cast<std::size_t>(kind)];
    ++ks.scheduled;
    ++ks.delayHisto[delayBucket(at - now_)];
    // The key is unique for the scheduler's lifetime (sequence in the high
    // bits), so a recycled slot can never satisfy a stale handle or an
    // orphaned heap record.
    const std::uint64_t key = (seq << kSlotBits) | slot;
    s.key = key;
    queue_.push(HeapItem{static_cast<std::uint64_t>(at.ns()), key});
    ++live_;
    return EventId{key};
  }

  /// Schedule `f` after `delay` from now (negative delays clamp to now).
  template <typename F>
    requires EventCallable<F>
  EventId scheduleAfter(Time delay, F&& f) {
    return scheduleAfter(delay, EventKind::Generic, std::forward<F>(f));
  }

  template <typename F>
    requires EventCallable<F>
  EventId scheduleAfter(Time delay, EventKind kind, F&& f) {
    if (delay < Time::zero()) delay = Time::zero();
    return scheduleAt(now_ + delay, kind, std::forward<F>(f));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or invalid id is an O(1) no-op with no bookkeeping growth, so callers
  /// can keep stale handles safely.
  void cancel(EventId id);

  /// Run until the queue drains, stop() is called, or the horizon is reached.
  /// Events exactly at the horizon still fire.
  void run(Time horizon = Time::infinity());

  /// Request run() to return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pendingEvents() const { return live_; }

  /// Slots allocated in the event pool — bounded by the peak number of
  /// simultaneously pending events (rounded up to a chunk), never by total
  /// churn.
  [[nodiscard]] std::size_t poolCapacity() const { return chunks_.size() * kChunkSlots; }

  /// Total events executed so far (for perf accounting).
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }

  /// Total events ever scheduled, counting reserved sequence numbers as
  /// scheduled (sequence numbers start at 1).
  [[nodiscard]] std::uint64_t scheduledEvents() const { return nextSeq_ - 1; }

  /// Total events cancelled while still pending.
  [[nodiscard]] std::uint64_t cancelledEvents() const { return cancelled_; }

  /// Scheduling-delay buckets: bucket 0 is a zero delay, bucket i >= 1
  /// covers [2^(i-1), 2^i) nanoseconds of sim time between schedule and
  /// fire time. Deterministic — sim time only, no wall clock.
  static constexpr int kDelayBuckets = 64;

  /// Per-kind accounting. `scheduled` and the delay histogram are recorded
  /// at schedule time, `executed` when the event fires (cancelled events
  /// are scheduled-but-never-executed).
  struct KindStats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::array<std::uint64_t, kDelayBuckets> delayHisto{};
  };
  [[nodiscard]] const KindStats& kindStats(EventKind kind) const {
    return kindStats_[static_cast<std::size_t>(kind)];
  }

  [[nodiscard]] static int delayBucket(Time delay) {
    const auto ns = static_cast<std::uint64_t>(delay.ns());
    if (ns == 0) return 0;
    const int b = std::bit_width(ns);
    return b < kDelayBuckets ? b : kDelayBuckets - 1;
  }

 private:
  /// Slot index occupies the low bits of a key; the rest is the sequence
  /// number. 16M concurrent events, ~1.1e12 total events per scheduler.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  /// Slots are allocated in fixed-size chunks so they keep stable addresses
  /// as the pool grows — growth never move-constructs live callbacks.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  struct Slot {
    EventCallback cb;
    std::uint64_t key = 0;  ///< Key of the live occupant; 0 when free.
    std::uint8_t kind = 0;  ///< EventKind of the occupant (profiling only).
  };

  struct HeapItem {
    std::uint64_t atNs = 0;  ///< Event time; never negative, stored unsigned.
    std::uint64_t key = 0;

    // Min-heap: earlier time first; FIFO among equal times (keys carry the
    // unique sequence number in their high bits).
    bool operator<(const HeapItem& rhs) const {
#if defined(__SIZEOF_INT128__)
      // One branchless 128-bit compare instead of compare-then-compare.
      return ((static_cast<unsigned __int128>(atNs) << 64) | key) <
             ((static_cast<unsigned __int128>(rhs.atNs) << 64) | rhs.key);
#else
      if (atNs != rhs.atNs) return atNs < rhs.atNs;
      return key < rhs.key;
#endif
    }
  };

  /// 4-ary min-heap of plain 16-byte records. Shallower than a binary heap
  /// and cache-friendlier (four children share a line), which is where the
  /// scheduler hot loop spends its time.
  class EventHeap {
   public:
    [[nodiscard]] bool empty() const { return v_.empty(); }
    [[nodiscard]] std::size_t size() const { return v_.size(); }
    [[nodiscard]] const HeapItem& top() const { return v_.front(); }

    void push(const HeapItem& item) {
      // Sift up by moving parents into the hole; the item lands once.
      std::size_t i = v_.size();
      v_.push_back(item);
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!(item < v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      v_[i] = item;
    }

    void pop() {
      const HeapItem displaced = v_.back();
      v_.pop_back();
      if (v_.empty()) return;
      const std::size_t n = v_.size();
      std::size_t i = 0;
      while (true) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
          if (v_[c] < v_[best]) best = c;
        }
        if (!(v_[best] < displaced)) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = displaced;
    }

   private:
    std::vector<HeapItem> v_;
  };

  Slot& slotRef(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }

  std::uint32_t acquireSlot();

  EventHeap queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint32_t usedSlots_ = 0;  ///< High-water mark of freshly carved slots.
  std::size_t live_ = 0;
  Time now_ = Time::zero();
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  bool stopped_ = false;
  std::array<KindStats, kEventKindCount> kindStats_{};
};

}  // namespace rcsim
