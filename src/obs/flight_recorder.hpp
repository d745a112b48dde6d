#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace qulrb::obs {

/// What one flight-ring record describes.
enum class FlightKind : std::uint8_t {
  kSpan = 0,     ///< closed phase: [t_us - dur_us, t_us]
  kInstant = 1,  ///< point event at t_us (value is free-form payload)
  kCounter = 2,  ///< counter sample at t_us (value is the counter reading)
};

/// One decoded flight record (the reader-side plain copy of a ring slot).
struct FlightRecord {
  std::uint64_t ticket = 0;  ///< global write sequence (monotone)
  double t_us = 0.0;         ///< end/occurrence time on the recorder epoch
  double dur_us = 0.0;       ///< span length (0 for instants/counters)
  double value = 0.0;        ///< payload (counter reading, event detail)
  std::uint64_t rid = 0;     ///< owning request id (0 = none)
  std::uint32_t track = 0;   ///< same track identities as obs::Recorder
  std::uint16_t name = 0;    ///< interned name code (FlightRecorder::name_of)
  FlightKind kind = FlightKind::kInstant;
};

/// Always-on flight recorder: a fixed-size ring of compact records written
/// with a seqlock per slot, so the hot path is one relaxed ticket
/// fetch_add, a handful of relaxed stores and one release store — no mutex,
/// no allocation, ever. Readers (snapshot/dump, triggered rarely) scan the
/// ring and discard torn slots instead of blocking writers.
///
/// Memory ordering (the classic seqlock recipe, all fields atomic so the
/// race is on atomics and TSan-clean):
///   writer: begin.store(ticket+1, relaxed); fence(release);
///           payload stores (relaxed); end.store(ticket+1, release);
///   reader: e = end.load(acquire); payload loads (relaxed);
///           fence(acquire); b = begin.load(relaxed); valid iff b == e.
/// If a payload load observed a later writer's store, the release fence
/// before that store and the acquire fence before the begin load force the
/// later writer's begin stamp to be visible too, so the mismatch is caught.
/// Torn records require a writer to lap the ring while another writer still
/// holds the same slot — impossible while concurrent writers < capacity.
///
/// Null-object discipline matches obs::Recorder: hot paths carry a
/// `FlightRecorder*` that is nullptr when disabled, every site guards with
/// one predicted branch, no RNG is consumed, and sampler output stays
/// bitwise identical either way (the same zero-cost-OFF contract
/// tests/test_obs.cpp asserts for the Recorder).
class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two (minimum 64 slots).
  explicit FlightRecorder(std::size_t capacity = 4096) {
    std::size_t cap = 64;
    while (cap < capacity && cap < (std::size_t{1} << 24)) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    names_.reserve(32);
    names_.emplace_back("?");  // code 0 = unknown
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Total records ever written (>= capacity once the ring has wrapped).
  std::uint64_t total_records() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  /// Microseconds on the process-wide obs timebase, strictly monotonic
  /// across threads — the same obs::clock::strict_us() stamp the Recorder
  /// issues, so flight records, spans and profiler samples line up without
  /// per-component epoch bookkeeping.
  double now_us() const noexcept { return clock::strict_us(); }

  /// Intern a record name (cold path — call once at setup and keep the
  /// code). The table is append-only and capped; over-capacity names fold
  /// into code 0 ("?") rather than failing.
  std::uint16_t intern(const std::string& name) {
    std::lock_guard<std::mutex> lock(names_mutex_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    if (names_.size() >= 1024) return 0;
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  std::string name_of(std::uint16_t code) const {
    std::lock_guard<std::mutex> lock(names_mutex_);
    return code < names_.size() ? names_[code] : std::string("?");
  }

  /// Write one record. Safe from any thread, never blocks, never allocates.
  void record(std::uint16_t name, FlightKind kind, std::uint32_t track,
              std::uint64_t rid, double t_us, double dur_us,
              double value) noexcept {
    const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & mask_];
    s.begin.store(ticket + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.t_us.store(t_us, std::memory_order_relaxed);
    s.dur_us.store(dur_us, std::memory_order_relaxed);
    s.value.store(value, std::memory_order_relaxed);
    s.rid.store(rid, std::memory_order_relaxed);
    s.meta.store(pack_meta(name, kind, track), std::memory_order_relaxed);
    s.end.store(ticket + 1, std::memory_order_release);
  }

  /// Closed span [start_us, end_us] (timestamps from this->now_us()) with
  /// an optional payload.
  void span(std::uint16_t name, std::uint32_t track, std::uint64_t rid,
            double start_us, double end_us, double value = 0.0) noexcept {
    record(name, FlightKind::kSpan, track, rid, end_us,
           end_us > start_us ? end_us - start_us : 0.0, value);
  }

  /// Point event stamped now.
  void instant(std::uint16_t name, std::uint32_t track, std::uint64_t rid,
               double value = 0.0) noexcept {
    record(name, FlightKind::kInstant, track, rid, now_us(), 0.0, value);
  }

  /// Counter sample stamped now.
  void counter(std::uint16_t name, std::uint32_t track, std::uint64_t rid,
               double value) noexcept {
    record(name, FlightKind::kCounter, track, rid, now_us(), 0.0, value);
  }

  /// Consistent copies of every intact record with t_us >= cutoff_us,
  /// sorted by timestamp then ticket. window_us <= 0 means "everything
  /// still in the ring". Torn slots (overwritten mid-read) are skipped.
  std::vector<FlightRecord> snapshot(double window_us) const {
    const double cutoff = window_us > 0.0
                              ? now_us() - window_us
                              : -std::numeric_limits<double>::infinity();
    std::vector<FlightRecord> out;
    const std::size_t cap = mask_ + 1;
    out.reserve(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      const Slot& s = slots_[i];
      const std::uint64_t e = s.end.load(std::memory_order_acquire);
      if (e == 0) continue;  // never written
      FlightRecord r;
      r.t_us = s.t_us.load(std::memory_order_relaxed);
      r.dur_us = s.dur_us.load(std::memory_order_relaxed);
      r.value = s.value.load(std::memory_order_relaxed);
      r.rid = s.rid.load(std::memory_order_relaxed);
      const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.begin.load(std::memory_order_relaxed) != e) continue;  // torn
      r.ticket = e - 1;
      if ((r.ticket & mask_) != i) continue;  // stamp from a lapped writer
      unpack_meta(meta, r);
      if (r.t_us < cutoff) continue;
      out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord& a, const FlightRecord& b) {
                return a.t_us != b.t_us ? a.t_us < b.t_us
                                        : a.ticket < b.ticket;
              });
    return out;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> begin{0};
    std::atomic<std::uint64_t> end{0};
    std::atomic<double> t_us{0.0};
    std::atomic<double> dur_us{0.0};
    std::atomic<double> value{0.0};
    std::atomic<std::uint64_t> rid{0};
    std::atomic<std::uint64_t> meta{0};  ///< name | kind<<16 | track<<32
  };

  static std::uint64_t pack_meta(std::uint16_t name, FlightKind kind,
                                 std::uint32_t track) noexcept {
    return static_cast<std::uint64_t>(name) |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind))
            << 16) |
           (static_cast<std::uint64_t>(track) << 32);
  }

  static void unpack_meta(std::uint64_t meta, FlightRecord& r) noexcept {
    r.name = static_cast<std::uint16_t>(meta & 0xffffu);
    const auto kind = static_cast<std::uint8_t>((meta >> 16) & 0xffu);
    r.kind = kind <= 2 ? static_cast<FlightKind>(kind) : FlightKind::kInstant;
    r.track = static_cast<std::uint32_t>(meta >> 32);
  }

  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  mutable std::mutex names_mutex_;
  std::vector<std::string> names_;
};

/// Where a phase also lands in a flight ring: the ring (nullptr = nowhere),
/// the interned record name and the owning request id. Recorder::Span takes
/// one and writes a single kSpan record when it closes.
struct FlightTag {
  FlightRecorder* ring = nullptr;
  std::uint16_t name = 0;
  std::uint64_t rid = 0;
};

/// Perfetto/Chrome-trace JSON for the last `window_s` seconds of the ring
/// (window_s <= 0 = everything): spans become complete events, instants
/// become instant events, counter records become counter series; every
/// event carries its rid in args so a viewer (or jq) can slice one
/// request's records out of the ring. The document metadata is tagged with
/// the triggering request id and trigger kind. Defined in
/// flight_recorder.cpp so the recording side above stays header-only.
std::string flight_to_perfetto_json(const FlightRecorder& recorder,
                                    double window_s, std::uint64_t trigger_rid,
                                    const std::string& trigger_kind,
                                    const std::string& source);

}  // namespace qulrb::obs
