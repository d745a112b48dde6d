#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qulrb::router {

/// In-flight request coalescer. Identical concurrent solve requests — same
/// canonical body, i.e. same (topology, load vector, k) and solver knobs —
/// share one backend solve: the first arrival becomes the group's leader and
/// is forwarded, later arrivals just register a delivery callback and ride
/// the leader's response. The group id doubles as the wire id toward the
/// backend and as the routed request's trace id ("rid"), so all members of a
/// group correlate to the one Perfetto document their shared solve produced.
///
/// Purely bookkeeping — no sockets, no clocks — so the single-solve
/// semantics are unit-testable under real concurrency.
class Coalescer {
 public:
  /// Delivery callback: receives the finished backend response line; the
  /// waiter substitutes its own client id (rewrite_response_id) and writes it
  /// out. Runs on the backend reader thread; must not block.
  using Deliver = std::function<void(const std::string& line)>;

  struct Waiter {
    std::uint64_t client_id = 0;
    Deliver deliver;
  };

  struct Join {
    std::uint64_t group = 0;  ///< group id == wire id == rid
    bool leader = false;      ///< caller must forward the request
  };

  /// When disabled, every join opens a fresh single-member group (the
  /// delivery bookkeeping is still used; only the sharing is off).
  explicit Coalescer(bool enabled = true) : enabled_(enabled) {}

  /// Join (or open) the group for `key`. Keys are canonical request bodies:
  /// equality is a string compare, so "identical request" means identical
  /// wire-visible solve.
  Join join(const std::string& key, std::uint64_t client_id, Deliver deliver);

  /// Close a group and take its waiters (arrival order, leader first).
  /// Empty when the group is unknown (already completed or cancelled).
  std::vector<Waiter> complete(std::uint64_t group);

  /// Remove one waiter from a group (client cancelled or its connection
  /// died). Returns the number of waiters left, or SIZE_MAX when the group
  /// was unknown. A group left with zero waiters is closed.
  std::size_t detach(std::uint64_t group, std::uint64_t client_id);

  /// Close every group (router shutdown) and hand back the waiters.
  std::vector<Waiter> take_all();

  std::size_t inflight_groups() const;
  /// Current waiters of a group (0 when unknown) — the cancel path uses this
  /// to decide between cancelling the backend solve (sole waiter) and just
  /// detaching (the solve is shared).
  std::size_t waiter_count(std::uint64_t group) const;
  /// Requests that shared an already-in-flight solve instead of spawning
  /// their own (followers).
  std::uint64_t coalesced_total() const;

 private:
  struct Group {
    std::string key;
    std::vector<Waiter> waiters;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_group_ = 1;
  std::uint64_t coalesced_ = 0;
  std::unordered_map<std::uint64_t, Group> groups_;
  std::unordered_map<std::string, std::uint64_t> by_key_;
};

/// Byte span [pos, pos + len) of the value of the top-level key `key` in a
/// one-line JSON object: only depth-1 keys match and quoted text is skipped,
/// so a key-like run inside a string or a nested object never matches. `pos`
/// is npos when the key is absent or its value is cut off. The one scanner
/// behind rewrite_response_id and extract_raw_field.
struct ValueSpan {
  std::size_t pos = std::string_view::npos;
  std::size_t len = 0;
};
ValueSpan find_top_level_value(std::string_view line, std::string_view key);

/// Replace the value of the top-level "id" field of a JSON response line
/// with `id`, returning the rewritten line. String-aware and depth-aware (an
/// "id" inside an error message or a nested object is left alone); appends
/// nothing when the line carries no top-level id. This is how one coalesced
/// backend response fans out to N waiters, each seeing its own correlation
/// id, without reparsing the whole document per waiter.
std::string rewrite_response_id(const std::string& line, std::uint64_t id);

}  // namespace qulrb::router
