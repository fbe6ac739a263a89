#ifndef VBR_ENGINE_DATABASE_H_
#define VBR_ENGINE_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cq/atom.h"
#include "engine/relation.h"

namespace vbr {

// A database instance: a relation per predicate symbol. Copies share their
// relations until one of them writes to a relation, which then copies just
// that relation, so a copy of a large catalog costs one pointer per
// relation (the planner copies its instances into every catalog snapshot).
class Database {
 public:
  Database() = default;

  // The relation for `predicate`, creating an empty one with `arity` if
  // absent, for writing: a relation shared with a copy is copied first.
  // Writes through the reference after this database is copied reach the
  // copy too, so finish them first. CHECK-fails if the relation exists
  // with a different arity.
  Relation& GetOrCreate(Symbol predicate, size_t arity);

  // The relation for `predicate`, or nullptr if absent.
  const Relation* Find(Symbol predicate) const;

  // Inserts a ground fact. All arguments of `fact` must be constants; they
  // are encoded with EncodeConstant.
  void AddFact(const Atom& fact);

  // Inserts a row of raw values under `predicate` (interned globally).
  void AddRow(std::string_view predicate, std::initializer_list<Value> row);
  void AddRow(Symbol predicate, std::span<const Value> row);

  size_t NumRelations() const { return relations_.size(); }

  // Shares every relation of `other` into this database, overwriting any
  // relation stored under the same predicate (AddViews: the added views'
  // instances join the snapshot's copy of the existing ones).
  void MergeFrom(const Database& other);

  // Drops the relation stored under `predicate`; returns whether one
  // existed.
  bool Remove(Symbol predicate);

  // Total number of rows across relations.
  size_t TotalRows() const;

  // Predicate symbols, sorted by name, for deterministic printing.
  std::vector<Symbol> Predicates() const;

  std::string ToString() const;

 private:
  std::unordered_map<Symbol, std::shared_ptr<Relation>> relations_;
};

}  // namespace vbr

#endif  // VBR_ENGINE_DATABASE_H_
