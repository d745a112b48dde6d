#include "classical/kk.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace qulrb::classical {

PartitionResult kk_partition(std::span<const double> items, std::size_t num_bins) {
  util::require(num_bins > 0, "kk_partition: need at least one bin");

  PartitionResult result;
  result.bins.assign(num_bins, {});
  result.bin_sums.assign(num_bins, 0.0);
  if (items.empty()) return result;

  // Flat state, allocated once. Tuple t (one per item to start with; a merge
  // reuses the slot of its first operand) owns the M sums at sums[t*M ...],
  // sorted descending, and position p of it holds an intrusive list of item
  // indices (head/tail per position, `next` per item) in the order the
  // merges appended them.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t n = items.size();
  const std::size_t m = num_bins;
  std::vector<double> sums(n * m, 0.0);
  std::vector<std::size_t> head(n * m, kNone);
  std::vector<std::size_t> tail(n * m, kNone);
  std::vector<std::size_t> next(n, kNone);
  std::vector<double> spread(n);
  std::vector<std::uint64_t> id(n);  // creation order, for tie-breaking
  std::vector<std::size_t> heap(n);
  for (std::size_t i = 0; i < n; ++i) {
    sums[i * m] = items[i];
    head[i * m] = tail[i * m] = i;
    spread[i] = sums[i * m] - sums[i * m + m - 1];
    id[i] = i;
    heap[i] = i;
  }
  std::uint64_t next_id = n;

  // Max-heap on spread; the older tuple wins ties.
  const auto less = [&](std::size_t a, std::size_t b) {
    if (spread[a] != spread[b]) return spread[a] < spread[b];
    return id[a] > id[b];
  };
  std::make_heap(heap.begin(), heap.end(), less);
  const auto pop = [&] {
    std::pop_heap(heap.begin(), heap.end(), less);
    const std::size_t t = heap.back();
    heap.pop_back();
    return t;
  };

  std::vector<double> merged_sum(m);
  std::vector<std::size_t> merged_head(m);
  std::vector<std::size_t> merged_tail(m);
  std::vector<std::size_t> order(m);
  while (heap.size() > 1) {
    const std::size_t a = pop();
    const std::size_t b = pop();

    // Combine: a's p-th largest bin with b's p-th smallest bin.
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t pa = a * m + p;
      const std::size_t qb = b * m + (m - 1 - p);
      merged_sum[p] = sums[pa] + sums[qb];
      if (head[pa] == kNone) {
        merged_head[p] = head[qb];
        merged_tail[p] = tail[qb];
      } else {
        merged_head[p] = head[pa];
        merged_tail[p] = tail[qb] == kNone ? tail[pa] : tail[qb];
        if (head[qb] != kNone) next[tail[pa]] = head[qb];
      }
    }
    // Restore descending order of the sums: a stable insertion sort, so
    // equal sums keep their merge order.
    for (std::size_t p = 0; p < m; ++p) {
      std::size_t j = p;
      for (; j > 0 && merged_sum[order[j - 1]] < merged_sum[p]; --j) {
        order[j] = order[j - 1];
      }
      order[j] = p;
    }
    for (std::size_t p = 0; p < m; ++p) {
      sums[a * m + p] = merged_sum[order[p]];
      head[a * m + p] = merged_head[order[p]];
      tail[a * m + p] = merged_tail[order[p]];
    }
    spread[a] = sums[a * m] - sums[a * m + m - 1];
    id[a] = next_id++;
    heap.push_back(a);
    std::push_heap(heap.begin(), heap.end(), less);
  }

  const std::size_t last = heap.front();
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t i = head[last * m + p]; i != kNone; i = next[i]) {
      result.bins[p].push_back(i);
    }
    result.bin_sums[p] = sums[last * m + p];
  }
  return result;
}

}  // namespace qulrb::classical
