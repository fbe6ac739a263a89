#include "engine/database.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "engine/value.h"

namespace vbr {

Relation& Database::GetOrCreate(Symbol predicate, size_t arity) {
  std::shared_ptr<Relation>& rel = relations_[predicate];
  if (rel == nullptr) {
    rel = std::make_shared<Relation>(arity);
  } else if (rel.use_count() != 1) {
    // Another database shares it: copy before the caller writes.
    rel = std::make_shared<Relation>(*rel);
  } else {
    // Sole owner. The acquire fence orders the last reads of any database
    // that shared the relation (released by dropping its reference) before
    // this caller's writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  VBR_CHECK_MSG(rel->arity() == arity,
                "predicate re-declared with different arity");
  return *rel;
}

const Relation* Database::Find(Symbol predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : it->second.get();
}

void Database::AddFact(const Atom& fact) {
  std::vector<Value> row;
  row.reserve(fact.arity());
  for (Term t : fact.args()) {
    VBR_CHECK_MSG(t.is_constant(), "AddFact requires a ground atom");
    row.push_back(EncodeConstant(t));
  }
  GetOrCreate(fact.predicate(), fact.arity()).Insert(row);
}

void Database::AddRow(std::string_view predicate,
                      std::initializer_list<Value> row) {
  const Symbol sym = SymbolTable::Global().Intern(predicate);
  GetOrCreate(sym, row.size())
      .Insert(std::span<const Value>(row.begin(), row.size()));
}

void Database::AddRow(Symbol predicate, std::span<const Value> row) {
  GetOrCreate(predicate, row.size()).Insert(row);
}

void Database::MergeFrom(const Database& other) {
  for (const auto& [sym, rel] : other.relations_) {
    relations_.insert_or_assign(sym, rel);
  }
}

bool Database::Remove(Symbol predicate) {
  return relations_.erase(predicate) > 0;
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& [sym, rel] : relations_) total += rel->size();
  return total;
}

std::vector<Symbol> Database::Predicates() const {
  std::vector<Symbol> syms;
  syms.reserve(relations_.size());
  for (const auto& [sym, rel] : relations_) syms.push_back(sym);
  std::sort(syms.begin(), syms.end(), [](Symbol a, Symbol b) {
    return SymbolTable::Global().NameOf(a) < SymbolTable::Global().NameOf(b);
  });
  return syms;
}

std::string Database::ToString() const {
  std::string s;
  for (Symbol sym : Predicates()) {
    s += SymbolTable::Global().NameOf(sym);
    s += " = ";
    s += Find(sym)->ToString();
    s += "\n";
  }
  return s;
}

}  // namespace vbr
