// Discrete-event simulation kernel.
//
// The EventLoop owns the simulated clock and a time-ordered queue of ready
// coroutine handles. `run()` repeatedly pops the earliest event, advances the
// clock to its timestamp and resumes the coroutine. Events with equal
// timestamps resume in FIFO order (a monotone sequence number breaks ties),
// which makes every experiment bit-for-bit reproducible.
//
// Two queue implementations share that contract (DESIGN.md §5h):
//
//   * kTimerWheel (default) — a 4-level × 256-slot hierarchical timing wheel
//     (Varghese & Lauck) of intrusive doubly-linked EventNode lists with
//     per-level occupancy bitmaps, arena-allocated nodes (event_arena.h) and
//     an unsorted far-future overflow list for events ≥ 2^32 ns ahead.
//     schedule/pop are O(1) amortized and allocation-free at steady state.
//   * kLegacyHeap — the original std::priority_queue, kept as the perf
//     baseline (`bench/sim_core_bench --legacy-queue`) and as the
//     determinism oracle: both impls must produce identical (time, seq)
//     resume traces, pinned by tests/sim_wheel_test.cc and the fault-matrix
//     --legacy-queue diff.
//
// The queue and the schedule-shake seed are constructor arguments, fixed
// for the loop's lifetime; testbeds take them from their config.
#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event_arena.h"
#include "sim/task.h"

namespace imca::sim {

// Kernel counters surfaced next to events_processed(): queue pressure
// (events_scheduled), wheel work (cascades = nodes re-filed when a window
// rolls over), and allocation discipline (arena_bytes should plateau,
// arena_reuse should dominate on any steady workload). past_clamps counts
// release-mode clamps of schedule_at(at < now) — always 0 in a correct
// program (debug builds assert instead).
struct EventLoopStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t cascades = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t arena_reuse = 0;
  std::uint64_t past_clamps = 0;
  // Pops where schedule-shake picked a different event than FIFO would
  // have (timer wheel only): the anti-vacuity signal that a shaken run
  // actually explored a new interleaving. Always 0 with tie_shake == 0.
  std::uint64_t tie_shaken = 0;
};

enum class QueueImpl { kTimerWheel, kLegacyHeap };

namespace detail {

// Deterministic per-event shake key (splitmix64 over seed ^ seq). Under
// schedule-shake, equal-timestamp events resume in ascending (key, seq)
// order instead of plain seq order: a seeded, reproducible permutation of
// every FIFO tie the kernel would otherwise pin. Both queue implementations
// derive the key from the same (seed, seq) pair, so wheel and legacy heap
// produce identical shaken traces.
inline std::uint64_t shake_key(std::uint64_t seed, std::uint64_t seq) noexcept {
  std::uint64_t x = seed ^ (seq + 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace detail

namespace detail {

// Warm a parked coroutine frame ahead of its resume. Frames span more than
// one cache line (header + promise + locals), and a resume touches the
// front of the frame immediately, so fetch the first two lines.
inline void prefetch_frame(void* frame) noexcept {
  __builtin_prefetch(frame);
  __builtin_prefetch(static_cast<const char*>(frame) + 64);
}

// Hierarchical timing wheel over absolute nanosecond timestamps.
//
// Level l covers the 256^(l+1) ns around the cursor in 256 slots of
// 256^l ns each; windows are ALIGNED to the cursor (an event files into
// level l iff it shares the cursor's level-(l+1) window prefix but not the
// level-l one). Alignment is what preserves the FIFO-per-timestamp
// contract: a level-0 slot can only receive direct inserts after the
// cascade that drains the covering higher-level slot has already run, so
// list append order equals global seq order at every timestamp (the full
// argument is in DESIGN.md §5h). Events ≥ 2^32 ns ahead wait on an
// unsorted overflow list (insertion order = seq order) with a cached exact
// minimum, refiled wholesale when the cursor enters their epoch.
//
// The cursor tracks wheel progress and only ever advances to window bases
// ≤ the next event's timestamp, never past it — run_until() peeks without
// cascading, so a deadline parked before a far-future event cannot strand
// the cursor ahead of the clock.
class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 256
  static constexpr SimTime kSpan = SimTime{1} << (kSlotBits * kLevels);

  // Schedule-shake (DESIGN.md §5k): non-zero seed makes pop_min pick the
  // minimum (shake_key, seq) node from the slot instead of the list head.
  // Timestamp order is untouched — only FIFO ties are permuted — so every
  // shaken run is still a legal schedule of the same simulation.
  explicit TimerWheel(std::uint64_t shake_seed) noexcept
      : shake_seed_(shake_seed) {}

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::uint64_t cascades() const noexcept { return cascades_; }
  std::uint64_t tie_shaken() const noexcept { return tie_shaken_; }

  // Pre: n->at >= the last popped timestamp (enforced by EventLoop's clamp).
  void insert(EventNode* n) noexcept {
    assert(n->at >= cursor_ && "event filed behind the wheel cursor");
    place(n);
    ++size_;
  }

  // Exact timestamp of the earliest queued event. Pre: !empty(). Does not
  // advance the cursor (see class comment).
  SimTime peek_min_time() const noexcept {
    int s = find_from(0, static_cast<unsigned>(cursor_ & (kSlots - 1)));
    if (s >= 0) {
      return (cursor_ & ~static_cast<SimTime>(kSlots - 1)) |
             static_cast<SimTime>(s);
    }
    for (int l = 1; l < kLevels; ++l) {
      s = find_from(l, level_index(l));
      if (s >= 0) {
        // First occupied slot of the nearest level: scan its list for the
        // earliest timestamp (slots at level ≥ 1 hold a 256^l ns range).
        SimTime min = ~SimTime{0};
        for (const EventNode* n = slots_[l][static_cast<std::size_t>(s)].head;
             n != nullptr; n = n->next) {
          if (n->at < min) min = n->at;
        }
        return min;
      }
    }
    return overflow_min_;
  }

  // Unlink and return the earliest event (FIFO among equal timestamps),
  // cascading windows as needed. Pre: !empty().
  EventNode* pop_min() noexcept {
    for (;;) {
      const int s = find_from(0, static_cast<unsigned>(cursor_ & (kSlots - 1)));
      if (s >= 0) {
        List& slot = slots_[0][static_cast<std::size_t>(s)];
        if (shake_seed_ != 0 && slot.head->next != nullptr) [[unlikely]] {
          return pop_shaken(slot, static_cast<unsigned>(s));
        }
        EventNode* n = slot.head;
        slot.head = n->next;
        if (slot.head != nullptr) {
          slot.head->prev = nullptr;
          // Warm the likely-next resume (same-timestamp FIFO): the frame is
          // read by h.resume() right after the next pop.
          prefetch_frame(slot.head->handle.address());
        } else {
          slot.tail = nullptr;
          clear_bit(0, static_cast<unsigned>(s));
          // This slot drained: the next pop comes from the next occupied
          // level-0 slot (if the window has one) — start its head's line
          // fill now so it lands during the upcoming resume.
          const int ns = find_from(0, static_cast<unsigned>(s) + 1);
          if (ns >= 0) {
            __builtin_prefetch(slots_[0][static_cast<std::size_t>(ns)].head);
          }
        }
        n->next = nullptr;
        cursor_ = n->at;
        --size_;
        return n;
      }
      advance();  // pre-condition (!empty()) guarantees a source exists
    }
  }

 private:
  struct List {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  // Shaken pop: all nodes in a level-0 slot share one exact timestamp (the
  // slot spans 1 ns of the cursor's 256 ns window), so picking the minimum
  // (shake_key, seq) node permutes exactly the FIFO tie and nothing else.
  // Pre: slot has >= 2 nodes and shake_seed_ != 0. O(slot length) — shake
  // mode is a validator, not the perf path.
  EventNode* pop_shaken(List& slot, unsigned s) noexcept {
    EventNode* best = slot.head;
    std::uint64_t best_key = shake_key(shake_seed_, best->seq);
    for (EventNode* n = best->next; n != nullptr; n = n->next) {
      assert(n->at == best->at && "level-0 slot mixes timestamps");
      const std::uint64_t k = shake_key(shake_seed_, n->seq);
      if (k < best_key || (k == best_key && n->seq < best->seq)) {
        best = n;
        best_key = k;
      }
    }
    if (best != slot.head) ++tie_shaken_;
    if (best->prev != nullptr) best->prev->next = best->next;
    else slot.head = best->next;
    if (best->next != nullptr) best->next->prev = best->prev;
    else slot.tail = best->prev;
    if (slot.head == nullptr) {
      clear_bit(0, s);
    } else {
      slot.head->prev = nullptr;
      prefetch_frame(slot.head->handle.address());
    }
    best->next = nullptr;
    best->prev = nullptr;
    cursor_ = best->at;
    --size_;
    return best;
  }

  static void append(List& l, EventNode* n) noexcept {
    n->prev = l.tail;
    n->next = nullptr;
    if (l.tail != nullptr) {
      l.tail->next = n;
    } else {
      l.head = n;
    }
    l.tail = n;
  }

  unsigned level_index(int level) const noexcept {
    return static_cast<unsigned>((cursor_ >> (kSlotBits * level)) &
                                 (kSlots - 1));
  }

  void set_bit(int level, unsigned slot) noexcept {
    bitmap_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void clear_bit(int level, unsigned slot) noexcept {
    bitmap_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }

  // First occupied slot index >= `from` at `level`, or -1.
  int find_from(int level, unsigned from) const noexcept {
    if (from >= kSlots) return -1;
    unsigned w = from >> 6;
    std::uint64_t word =
        bitmap_[level][w] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) {
        return static_cast<int>((w << 6) +
                                static_cast<unsigned>(std::countr_zero(word)));
      }
      if (++w == kSlots / 64) return -1;
      word = bitmap_[level][w];
    }
  }

  // File `n` into the level/slot its timestamp selects relative to the
  // current cursor (or the overflow list). Does not touch size_. The level
  // is the highest byte in which `at` and the cursor differ — one XOR+clz
  // instead of a per-level window comparison loop.
  void place(EventNode* n) noexcept {
    const SimTime at = n->at;
    const SimTime diff = at ^ cursor_;
    const int level =
        diff == 0 ? 0 : (63 - std::countl_zero(diff)) >> 3;  // kSlotBits==8
    if (level < kLevels) [[likely]] {
      const unsigned slot = static_cast<unsigned>(
          (at >> (kSlotBits * level)) & (kSlots - 1));
      append(slots_[level][slot], n);
      set_bit(level, slot);
      return;
    }
    append(overflow_, n);
    ++overflow_size_;
    if (at < overflow_min_) overflow_min_ = at;
  }

  // Level 0 is exhausted up to its window edge: jump the cursor to the next
  // occupied window base and refile that source one level down. Pre: the
  // wheel holds at least one event somewhere above level 0.
  void advance() noexcept {
    for (int l = 1; l < kLevels; ++l) {
      // The cursor's own slot at every level is empty by construction (it
      // was cascaded when the cursor entered this window), so scanning from
      // it is equivalent to scanning from the next slot.
      const int s = find_from(l, level_index(l));
      if (s >= 0) {
        const int shift = kSlotBits * l;
        cursor_ = ((cursor_ >> (shift + kSlotBits)) << (shift + kSlotBits)) |
                  (static_cast<SimTime>(s) << shift);
        cascade_slot(l, static_cast<unsigned>(s));
        return;
      }
    }
    assert(overflow_size_ > 0 && "advance() on an empty wheel");
    cursor_ = (overflow_min_ >> (kSlotBits * kLevels)) << (kSlotBits * kLevels);
    refill_from_overflow();
  }

  // Detach a slot's whole list and refile each node (in list order, which is
  // seq order — this is what keeps equal-timestamp FIFO across cascades).
  //
  // The refile runs in two phases. The collect phase walks the chain from
  // BOTH ends at once — the list is doubly linked, so head->next and
  // tail->prev are independent dependent-load chains and the memory system
  // overlaps their line fills, halving the cold-walk latency that dominates
  // wheel cost at 100k+ clients. The place phase then refiles from the
  // scratch arrays (now cache-hot) in original list order: fronts forward,
  // backs backward.
  void cascade_slot(int level, unsigned slot) noexcept {
    List moved = slots_[level][slot];
    slots_[level][slot] = List{};
    clear_bit(level, slot);
    casc_front_.clear();
    casc_back_.clear();
    EventNode* f = moved.head;
    EventNode* b = moved.tail;
    if (f != nullptr) {
      for (;;) {
        if (f == b) {  // odd count: the middle node belongs to one side only
          casc_front_.push_back(f);
          break;
        }
        casc_front_.push_back(f);
        casc_back_.push_back(b);
        EventNode* fn = f->next;
        EventNode* bp = b->prev;
        if (fn == b) break;  // even count: the walks met between f and b
        f = fn;
        b = bp;
      }
    }
    // A level-1 slot cascades into level 0: every node here resumes within
    // the next 256 ns of simulated time, so this is the widest useful lead
    // to warm the coroutine frames that went cold while the timers slept.
    const bool imminent = level == 1;
    for (EventNode* n : casc_front_) {
      if (imminent) prefetch_frame(n->handle.address());
      place(n);
      ++cascades_;
    }
    for (std::size_t i = casc_back_.size(); i > 0; --i) {
      EventNode* n = casc_back_[i - 1];
      if (imminent) prefetch_frame(n->handle.address());
      place(n);
      ++cascades_;
    }
  }

  // The cursor just entered a new top-level epoch: pull every overflow event
  // belonging to it into the wheel, keeping the rest (still in seq order).
  void refill_from_overflow() noexcept {
    List keep;
    SimTime keep_min = ~SimTime{0};
    std::size_t kept = 0;
    const int epoch_shift = kSlotBits * kLevels;
    EventNode* n = overflow_.head;
    while (n != nullptr) {
      EventNode* next = n->next;
      if (next != nullptr) __builtin_prefetch(next);
      if ((n->at >> epoch_shift) == (cursor_ >> epoch_shift)) {
        place(n);
        ++cascades_;
      } else {
        append(keep, n);
        if (n->at < keep_min) keep_min = n->at;
        ++kept;
      }
      n = next;
    }
    overflow_ = keep;
    overflow_min_ = keep_min;
    overflow_size_ = kept;
  }

  List slots_[kLevels][kSlots];
  // Reused collect-phase scratch (capacity stabilizes after the first big
  // cascade, so steady state stays allocation-free).
  std::vector<EventNode*> casc_front_;
  std::vector<EventNode*> casc_back_;
  std::uint64_t bitmap_[kLevels][kSlots / 64] = {};
  List overflow_;
  SimTime overflow_min_ = ~SimTime{0};
  std::size_t overflow_size_ = 0;
  SimTime cursor_ = 0;
  std::size_t size_ = 0;
  std::uint64_t cascades_ = 0;
  const std::uint64_t shake_seed_;
  std::uint64_t tie_shaken_ = 0;
};

}  // namespace detail

class EventLoop {
 public:
  // Schedule-shake (DESIGN.md §5k): a non-zero `tie_shake` seed
  // deterministically permutes the resume order of equal-timestamp events —
  // every FIFO tie becomes a seeded draw — so code whose correctness
  // silently leans on the kernel's FIFO tie-break fails loudly under an
  // executable interleaving search. 0 is plain FIFO. Both arguments are
  // fixed for the loop's lifetime: the legacy heap keys entries at push
  // time and the wheel at pop time, so a mid-run change would let the two
  // implementations diverge.
  explicit EventLoop(QueueImpl impl = QueueImpl::kTimerWheel,
                     std::uint64_t tie_shake = 0) noexcept
      : impl_(impl), wheel_(tie_shake), shake_seed_(tie_shake) {}
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time (nanoseconds since simulation start).
  SimTime now() const noexcept { return now_; }

  // Resume `h` once the clock reaches `at`. Scheduling into the simulated
  // past is a bug: debug builds assert, release builds clamp to now() and
  // count it in stats().past_clamps.
  void schedule_at(SimTime at, std::coroutine_handle<> h);

  // Resume `h` at the current simulated time, after already-queued events
  // with the same timestamp.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  // Launch `task` as an independent simulated process. The loop owns the
  // coroutine; its frame is freed when it completes. An exception escaping a
  // spawned task terminates the simulation (they model top-level processes
  // and must handle their own errors).
  void spawn(Task<void> task);

  // Begin running a task the CALLER keeps owning. Scheduled like spawn(),
  // but the frame is not adopted: the caller must keep the Task alive until
  // it completes, and destroying the Task cancels the worker at its current
  // suspension point, freeing the frame. This is how long-lived service
  // workers (SMCache's update thread) shut down without leaking.
  void start(Task<void>& task) { schedule_now(task.handle()); }

  // Awaitable: suspend the current coroutine for `d` simulated time.
  // `co_await loop.sleep(0)` yields to other ready coroutines.
  auto sleep(SimDuration d) noexcept { return SleepAwaiter{*this, now_ + d}; }
  auto sleep_until(SimTime at) noexcept {
    return SleepAwaiter{*this, at < now_ ? now_ : at};
  }

  // Run until the event queue drains. Returns the number of events processed.
  std::uint64_t run();

  // Run until the queue drains or the clock would pass `deadline`; events at
  // exactly `deadline` are processed. Returns events processed.
  std::uint64_t run_until(SimTime deadline);

  bool idle() const noexcept {
    return impl_ == QueueImpl::kTimerWheel ? wheel_.empty() : heap_.empty();
  }
  std::uint64_t events_processed() const noexcept { return processed_; }
  std::size_t live_tasks() const noexcept { return live_tasks_; }
  QueueImpl queue_impl() const noexcept { return impl_; }

  EventLoopStats stats() const noexcept {
    return EventLoopStats{scheduled_, wheel_.cascades(), arena_.bytes(),
                          arena_.reuse(), past_clamps_, wheel_.tie_shaken()};
  }

  std::uint64_t tie_shake() const noexcept { return shake_seed_; }

  // Test hook: record every resume as a (time, seq) pair — the determinism
  // pin compares these traces across queue implementations. Null disables.
  void set_trace(
      std::vector<std::pair<SimTime, std::uint64_t>>* sink) noexcept {
    trace_ = sink;
  }

 private:
  struct SleepAwaiter {
    EventLoop& loop;
    SimTime at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      loop.schedule_at(at, h);
    }
    void await_resume() const noexcept {}
  };

  struct HeapEntry {
    SimTime at;
    // Tie-break among equal timestamps: (key, seq). Unshaken runs push
    // key == seq so the pair degenerates to plain FIFO; shaken runs push
    // detail::shake_key(seed, seq), matching the wheel's pop-time draw.
    std::uint64_t key;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const HeapEntry& other) const noexcept {
      if (at != other.at) return at > other.at;
      if (key != other.key) return key > other.key;
      return seq > other.seq;
    }
  };

  // Pop the earliest event, advance the clock, record the trace, and hand
  // back the coroutine to resume. Pre: !idle().
  std::coroutine_handle<> take_next();

  QueueImpl impl_;
  detail::TimerWheel wheel_;
  EventArena arena_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      heap_;
  std::vector<std::pair<SimTime, std::uint64_t>>* trace_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  const std::uint64_t shake_seed_;
  std::uint64_t processed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t past_clamps_ = 0;
  std::size_t live_tasks_ = 0;
};

}  // namespace imca::sim
