#pragma once

#include <span>

#include "classical/partition.hpp"

namespace qulrb::classical {

/// Karmarkar-Karp largest differencing method, multiway generalisation
/// (Karmarkar & Karp 1983): every item starts as an M-tuple of subset sums;
/// the two tuples with the largest spread are repeatedly combined so that the
/// largest sums of one meet the smallest sums of the other. Produces better
/// balance than Greedy on adversarial inputs at O(N log N) heap work plus
/// an M-element insertion sort per merge, on flat arrays allocated once.
PartitionResult kk_partition(std::span<const double> items, std::size_t num_bins);

}  // namespace qulrb::classical
