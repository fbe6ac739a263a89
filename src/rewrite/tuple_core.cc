#include "rewrite/tuple_core.h"

#include <unordered_map>
#include <unordered_set>

#include "common/budget.h"
#include "common/check.h"
#include "rewrite/expansion.h"

namespace vbr {

namespace {

// Backtracking search for the maximum subgoal set admitting a mapping with
// the three Definition 4.1 properties. The tuple-core is unique (Lemma 4.2),
// so the maximum-cardinality consistent set is the core.
class CoreSearch {
 public:
  CoreSearch(const ConjunctiveQuery& query, const ViewTuple& tuple,
             const ViewSet& views)
      : query_(query) {
    const View& view = views[tuple.view_index];
    std::vector<Term> existentials;
    exp_atoms_ = ExpandViewAtom(tuple.atom, view, &existentials);
    existential_.insert(existentials.begin(), existentials.end());
    for (Term t : tuple.atom.args()) tuple_args_.insert(t);
    for (Term t : query.DistinguishedVariables()) distinguished_.insert(t);
    const size_t n = query.num_subgoals();
    VBR_CHECK_MSG(n <= 64, "queries are limited to 64 subgoals");
    for (size_t i = 0; i < n; ++i) {
      for (Term t : query.subgoal(i).args()) {
        if (t.is_variable()) {
          subgoals_of_var_[t.symbol()] |= (uint64_t{1} << i);
        }
      }
    }
  }

  // An aborted search returns the best complete assignment seen so far. That
  // is a consistent (possibly sub-maximum) subgoal set, so downstream covers
  // built from it are still sound — they can only cover less.
  TupleCore Run() {
    Recurse(0, 0);
    // Remainder of the last chunk (full chunks are charged inside Recurse).
    if (governor_ != nullptr && nodes_ > charged_) {
      governor_->ChargeWork(nodes_ - charged_);
    }
    TupleCore core;
    core.covered_mask = best_mask_;
    for (size_t i = 0; i < query_.num_subgoals(); ++i) {
      if (best_mask_ & (uint64_t{1} << i)) core.covered.push_back(i);
    }
    core.mapping = best_mapping_;
    return core;
  }

 private:
  struct Undo {
    std::vector<Term> bound_vars;
    std::vector<Term> registered_images;
  };

  void Recurse(size_t i, size_t included_count) {
    if (governor_ != nullptr) {
      ++nodes_;
      // Charge in the same 64-node chunks the KeepGoing stride uses, so a
      // long search cannot overshoot the shared work budget by its whole
      // node count (it used to be charged only after the search finished).
      if (aborted_ || (node_cap_ != 0 && nodes_ > node_cap_)) {
        aborted_ = true;
        return;
      }
      if (nodes_ % 64 == 0) {
        governor_->ChargeWork(64);
        charged_ = nodes_;
        if (!governor_->KeepGoing("corecover.tuple_cores")) {
          aborted_ = true;
          return;
        }
      }
    }
    const size_t n = query_.num_subgoals();
    // Bound: even including everything remaining cannot beat the best.
    if (included_count + (n - i) <= best_count_) return;
    if (i == n) {
      best_count_ = included_count;
      best_mask_ = included_mask_;
      best_mapping_ = mapping_;
      return;
    }
    const uint64_t bit = uint64_t{1} << i;
    // Include branch: try each expansion atom as the target.
    for (const Atom& target : exp_atoms_) {
      if (target.predicate() != query_.subgoal(i).predicate() ||
          target.arity() != query_.subgoal(i).arity()) {
        continue;
      }
      Undo undo;
      const uint64_t saved_must = must_include_;
      if (TryMatch(query_.subgoal(i), target, &undo)) {
        included_mask_ |= bit;
        Recurse(i + 1, included_count + 1);
        included_mask_ &= ~bit;
      }
      must_include_ = saved_must;
      Rollback(undo);
    }
    // Exclude branch, unless property (3) forces inclusion.
    if ((must_include_ & bit) == 0) {
      excluded_mask_ |= bit;
      Recurse(i + 1, included_count);
      excluded_mask_ &= ~bit;
    }
  }

  // Attempts to extend the current mapping so that `source` maps onto
  // `target` under the Definition 4.1 constraints. On failure the caller
  // must still Rollback(undo) (partial bindings may have been recorded).
  bool TryMatch(const Atom& source, const Atom& target, Undo* undo) {
    for (size_t p = 0; p < source.arity(); ++p) {
      const Term s = source.arg(p);
      const Term t = target.arg(p);
      if (s.is_constant()) {
        // Containment mappings fix constants.
        if (s != t) return false;
        if (!RegisterImage(t, s, undo)) return false;
        continue;
      }
      auto it = var_image_.find(s.symbol());
      if (it != var_image_.end()) {
        if (it->second != t) return false;
        continue;
      }
      // Property (1): identity on arguments appearing in the tuple.
      if (tuple_args_.count(s) > 0) {
        if (t != s) return false;
      } else if (distinguished_.count(s) > 0) {
        // Property (2): a distinguished variable must map to a
        // distinguished variable of the expansion; with property (1) this
        // means it must appear in the tuple and map to itself. Not in the
        // tuple => impossible.
        return false;
      } else if (existential_.count(t) == 0) {
        // Any other variable is not an argument of the rewriting, so it may
        // map only onto an existential of the expansion: a tuple argument
        // there is another query variable, and a constant is fixed, so
        // either image would equate terms the query keeps apart.
        return false;
      }
      // Property (1): injectivity.
      if (!RegisterImage(t, s, undo)) return false;
      // Property (3): mapping onto an existential variable pulls in every
      // subgoal that uses s.
      if (existential_.count(t) > 0) {
        const uint64_t needed = subgoals_of_var_.at(s.symbol());
        if ((needed & excluded_mask_) != 0) return false;
        must_include_ |= needed;
      }
      var_image_.emplace(s.symbol(), t);
      mapping_.Bind(s, t);
      undo->bound_vars.push_back(s);
    }
    return true;
  }

  // Enforces injectivity: each image term may be claimed by at most one
  // source term.
  bool RegisterImage(Term image, Term source, Undo* undo) {
    auto [it, inserted] = image_source_.emplace(image, source);
    if (!inserted) return it->second == source;
    undo->registered_images.push_back(image);
    return true;
  }

  void Rollback(const Undo& undo) {
    for (Term v : undo.bound_vars) {
      var_image_.erase(v.symbol());
      mapping_.Unbind(v);
    }
    for (Term img : undo.registered_images) image_source_.erase(img);
  }

  const ConjunctiveQuery& query_;
  std::vector<Atom> exp_atoms_;
  std::unordered_set<Term, TermHash> existential_;
  std::unordered_set<Term, TermHash> tuple_args_;
  std::unordered_set<Term, TermHash> distinguished_;
  std::unordered_map<Symbol, uint64_t> subgoals_of_var_;

  std::unordered_map<Symbol, Term> var_image_;
  std::unordered_map<Term, Term, TermHash> image_source_;
  Substitution mapping_;
  uint64_t included_mask_ = 0;
  uint64_t excluded_mask_ = 0;
  uint64_t must_include_ = 0;

  uint64_t best_mask_ = 0;
  size_t best_count_ = 0;
  Substitution best_mapping_;

  ResourceGovernor* const governor_ = ResourceGovernor::Current();
  const uint64_t node_cap_ = governor_ ? governor_->search_node_cap() : 0;
  uint64_t nodes_ = 0;
  uint64_t charged_ = 0;
  bool aborted_ = false;
};

}  // namespace

TupleCore ComputeTupleCore(const ConjunctiveQuery& query,
                           const ViewTuple& tuple, const ViewSet& views) {
  VBR_CHECK(tuple.view_index < views.size());
  CoreSearch search(query, tuple, views);
  return search.Run();
}

}  // namespace vbr
