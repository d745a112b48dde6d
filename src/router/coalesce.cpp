#include "router/coalesce.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace qulrb::router {

Coalescer::Join Coalescer::join(const std::string& key,
                                std::uint64_t client_id, Deliver deliver) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (enabled_) {
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      Group& group = groups_[it->second];
      group.waiters.push_back(Waiter{client_id, std::move(deliver)});
      ++coalesced_;
      return Join{it->second, /*leader=*/false};
    }
  }
  const std::uint64_t id = next_group_++;
  Group group;
  group.key = key;
  group.waiters.push_back(Waiter{client_id, std::move(deliver)});
  groups_.emplace(id, std::move(group));
  if (enabled_) by_key_.emplace(key, id);
  return Join{id, /*leader=*/true};
}

std::vector<Coalescer::Waiter> Coalescer::complete(std::uint64_t group) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  std::vector<Waiter> waiters = std::move(it->second.waiters);
  by_key_.erase(it->second.key);
  groups_.erase(it);
  return waiters;
}

std::size_t Coalescer::detach(std::uint64_t group, std::uint64_t client_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return std::numeric_limits<std::size_t>::max();
  auto& waiters = it->second.waiters;
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    if (waiters[i].client_id == client_id) {
      waiters.erase(waiters.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  const std::size_t left = waiters.size();
  if (left == 0) {
    by_key_.erase(it->second.key);
    groups_.erase(it);
  }
  return left;
}

std::vector<Coalescer::Waiter> Coalescer::take_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Waiter> all;
  for (auto& [id, group] : groups_) {
    for (auto& w : group.waiters) all.push_back(std::move(w));
  }
  groups_.clear();
  by_key_.clear();
  return all;
}

std::size_t Coalescer::waiter_count(std::uint64_t group) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.waiters.size();
}

std::size_t Coalescer::inflight_groups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return groups_.size();
}

std::uint64_t Coalescer::coalesced_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coalesced_;
}

namespace {

constexpr std::size_t kNpos = std::string_view::npos;
constexpr std::string_view kSpace = " \t\n\r";

/// First byte at or after i that is not JSON whitespace (size() when none).
std::size_t skip_space(std::string_view s, std::size_t i) {
  return std::min(s.find_first_not_of(kSpace, i), s.size());
}

/// One past the string literal that opens at s[i] == '"'; npos when it is
/// unterminated.
std::size_t skip_string(std::string_view s, std::size_t i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;  // the escaped character, quote included
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return kNpos;
}

/// Span of the JSON value starting at s[start]: a balanced container, a
/// string literal, or a bare scalar running up to the next ',', '}' or
/// whitespace.
ValueSpan value_span(std::string_view s, std::size_t start) {
  if (start >= s.size()) return {};
  std::size_t end = kNpos;
  if (s[start] == '"') {
    end = skip_string(s, start);
  } else if (s[start] == '{' || s[start] == '[') {
    int depth = 0;
    for (std::size_t j = start; j < s.size() && end == kNpos;) {
      const char c = s[j];
      if (c == '"') {
        j = skip_string(s, j);
        if (j == kNpos) break;
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if ((c == '}' || c == ']') && --depth == 0) end = j + 1;
      ++j;
    }
  } else {
    end = std::min(s.find_first_of(",} \t\n\r", start), s.size());
  }
  if (end == kNpos) return {};
  return ValueSpan{start, end - start};
}

}  // namespace

ValueSpan find_top_level_value(std::string_view line, std::string_view key) {
  int depth = 0;
  for (std::size_t i = 0; i < line.size();) {
    const char c = line[i];
    if (c != '"') {
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      ++i;
      continue;
    }
    const std::size_t end = skip_string(line, i);
    if (end == kNpos) return {};
    if (depth == 1 && end - i == key.size() + 2 &&
        line.compare(i + 1, key.size(), key) == 0) {
      const std::size_t colon = skip_space(line, end);
      if (colon < line.size() && line[colon] == ':') {
        return value_span(line, skip_space(line, colon + 1));
      }
    }
    i = end;
  }
  return {};
}

std::string rewrite_response_id(const std::string& line, std::uint64_t id) {
  const ValueSpan span = find_top_level_value(line, "id");
  if (span.pos == kNpos) return line;
  return line.substr(0, span.pos) + std::to_string(id) +
         line.substr(span.pos + span.len);
}

}  // namespace qulrb::router
