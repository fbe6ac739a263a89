#include "rewrite/set_cover.h"

#include <algorithm>
#include <bit>
#include <set>

#include "common/budget.h"
#include "common/check.h"

namespace vbr {

namespace {

// DFS on the lowest uncovered element: every minimal cover contains, for the
// lowest uncovered element, some set covering it, so branching over those
// sets reaches every minimal (hence every minimum) cover.
class CoverSearch {
 public:
  CoverSearch(uint64_t universe, const std::vector<uint64_t>& sets)
      : universe_(universe), sets_(sets) {
    for (size_t i = 0; i < sets_.size(); ++i) {
      if (sets_[i] != 0) nonempty_.push_back(i);
    }
  }

  // Enumerates covers in depth-first discovery order, deduplicated, and
  // stops at `max_out` distinct covers. With `require_exact`, only covers
  // of size exactly `depth_limit` are recorded (with the optimistic bound
  // pruning); otherwise every cover the branching reaches within
  // `depth_limit` picks is recorded and the caller filters for minimality.
  // Sets *truncated iff the distinct count reached the cap.
  // Sets *aborted when the governor stopped any top-level branch early;
  // found covers remain genuine (each was verified complete when recorded).
  std::vector<std::vector<size_t>> Enumerate(size_t depth_limit,
                                             bool require_exact,
                                             size_t max_out, bool* truncated,
                                             bool* aborted) {
    depth_limit_ = depth_limit;
    require_exact_ = require_exact;
    max_out_ = max_out;
    found_.clear();
    seen_.clear();
    aborted_ = false;
    *truncated = false;
    if (universe_ == 0 || depth_limit == 0) return {};
    const uint64_t lowest = universe_ & (~universe_ + 1);
    uint64_t total_nodes = 0;
    for (size_t i : nonempty_) {
      if ((sets_[i] & lowest) == 0) continue;
      // search_node_cap bounds each top-level branch on its own.
      nodes_ = 0;
      chosen_.assign(1, i);
      Dfs(universe_ & ~sets_[i]);
      total_nodes += nodes_;
      if (found_.size() >= max_out_) {
        *truncated = true;
        break;
      }
    }
    if (governor_ != nullptr) governor_->ChargeWork(total_nodes);
    *aborted = aborted_;
    return std::move(found_);
  }

 private:
  // Returns false to stop the branch: the output reached its cap, or the
  // governor stopped it (aborted_).
  bool Dfs(uint64_t uncovered) {
    if (governor_ != nullptr) {
      ++nodes_;
      // KeepGoing only observes the deadline and injected faults; a work
      // budget stops the branch through its node cap.
      if ((node_cap_ != 0 && nodes_ > node_cap_) ||
          (nodes_ % 64 == 0 &&
           !governor_->KeepGoing("corecover.set_cover"))) {
        aborted_ = true;
        return false;
      }
    }
    if (uncovered == 0) {
      if (!require_exact_ || chosen_.size() == depth_limit_) {
        std::vector<size_t> cover = chosen_;
        std::sort(cover.begin(), cover.end());
        if (seen_.insert(cover).second) {
          found_.push_back(std::move(cover));
          if (found_.size() >= max_out_) return false;
        }
      }
      return true;
    }
    if (chosen_.size() >= depth_limit_) return true;
    if (require_exact_) {
      // Optimistic bound: each remaining pick covers all remaining elements
      // of some largest set; cheap bound via max popcount.
      const size_t remaining = depth_limit_ - chosen_.size();
      size_t max_cover = 0;
      for (size_t i : nonempty_) {
        max_cover = std::max(
            max_cover,
            static_cast<size_t>(std::popcount(sets_[i] & uncovered)));
      }
      if (max_cover * remaining <
          static_cast<size_t>(std::popcount(uncovered))) {
        return true;
      }
    }
    const uint64_t lowest = uncovered & (~uncovered + 1);
    for (size_t i : nonempty_) {
      if ((sets_[i] & lowest) == 0) continue;
      chosen_.push_back(i);
      const bool keep_going = Dfs(uncovered & ~sets_[i]);
      chosen_.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  const uint64_t universe_;
  const std::vector<uint64_t>& sets_;
  std::vector<size_t> nonempty_;
  ResourceGovernor* const governor_ = ResourceGovernor::Current();
  const uint64_t node_cap_ = governor_ ? governor_->search_node_cap() : 0;
  // State of the current Enumerate call.
  size_t depth_limit_ = 0;
  bool require_exact_ = false;
  size_t max_out_ = 0;
  std::vector<size_t> chosen_;
  std::vector<std::vector<size_t>> found_;
  std::set<std::vector<size_t>> seen_;
  uint64_t nodes_ = 0;  // in the current top-level branch
  bool aborted_ = false;  // some top-level branch was stopped early
};

bool IsMinimalCover(uint64_t universe, const std::vector<uint64_t>& sets,
                    const std::vector<size_t>& cover) {
  for (size_t skip = 0; skip < cover.size(); ++skip) {
    uint64_t covered = 0;
    for (size_t j = 0; j < cover.size(); ++j) {
      if (j != skip) covered |= sets[cover[j]];
    }
    if ((covered & universe) == universe) return false;
  }
  return true;
}

}  // namespace

MinimumCoversResult FindAllMinimumCovers(uint64_t universe,
                                         const std::vector<uint64_t>& sets,
                                         size_t max_covers) {
  VBR_CHECK_MSG(max_covers >= 1, "set cover requires max_covers >= 1");
  MinimumCoversResult result;
  if (universe == 0) {
    result.feasible = true;
    result.min_size = 0;
    result.covers.push_back({});
    return result;
  }
  // Infeasible unless the union covers the universe.
  uint64_t all = 0;
  for (uint64_t s : sets) all |= s;
  if ((all & universe) != universe) return result;

  CoverSearch search(universe, sets);
  ResourceGovernor* const governor = ResourceGovernor::Current();
  const size_t max_depth =
      std::min<size_t>(sets.size(),
                       static_cast<size_t>(std::popcount(universe)));
  for (size_t k = 1; k <= max_depth; ++k) {
    // Per-cardinality checkpoint: a work budget latches here, on the total
    // charged through depth k-1.
    if (governor != nullptr && !governor->CheckPoint("corecover.set_cover")) {
      result.aborted = true;
      return result;
    }
    bool truncated = false;
    bool aborted = false;
    std::vector<std::vector<size_t>> found = search.Enumerate(
        k, /*require_exact=*/true, max_covers, &truncated, &aborted);
    if (!found.empty()) {
      result.feasible = true;
      result.min_size = k;
      std::sort(found.begin(), found.end());
      result.covers = std::move(found);
      result.truncated = truncated;
      result.aborted = aborted;
      return result;
    }
    if (aborted) {
      // The search for cardinality k was cut short, so an empty result no
      // longer proves infeasibility at k; stop instead of reporting larger
      // covers as minimum.
      result.aborted = true;
      return result;
    }
  }
  VBR_CHECK_MSG(false, "set cover feasibility check disagreed with search");
  return result;
}

std::vector<std::vector<size_t>> FindAllMinimalCovers(
    uint64_t universe, const std::vector<uint64_t>& sets, size_t max_covers,
    bool* truncated, bool* aborted) {
  VBR_CHECK_MSG(max_covers >= 1, "set cover requires max_covers >= 1");
  if (aborted != nullptr) *aborted = false;
  if (universe == 0) {
    if (truncated != nullptr) *truncated = false;
    return {{}};
  }
  // Pre-search checkpoint, mirroring the per-cardinality one in
  // FindAllMinimumCovers: a work budget latches here, on the total charged
  // by the earlier stages.
  ResourceGovernor* const governor = ResourceGovernor::Current();
  if (governor != nullptr && !governor->CheckPoint("corecover.set_cover")) {
    if (truncated != nullptr) *truncated = false;
    if (aborted != nullptr) *aborted = true;
    return {};
  }
  CoverSearch search(universe, sets);
  bool hit_cap = false;
  bool hit_budget = false;
  std::vector<std::vector<size_t>> found = search.Enumerate(
      sets.size(), /*require_exact=*/false, max_covers, &hit_cap, &hit_budget);
  if (truncated != nullptr) *truncated = hit_cap;
  if (aborted != nullptr) *aborted = hit_budget;
  std::sort(found.begin(), found.end());
  std::vector<std::vector<size_t>> result;
  for (std::vector<size_t>& cover : found) {
    if (IsMinimalCover(universe, sets, cover)) {
      result.push_back(std::move(cover));
    }
  }
  return result;
}

}  // namespace vbr
