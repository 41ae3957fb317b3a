// Finite sigma-structures (relational databases) over a dense universe
// {0, ..., n-1}. This is substrate S1 of DESIGN.md: the object every
// algorithm in the paper operates on.
#ifndef FOCQ_STRUCTURE_STRUCTURE_H_
#define FOCQ_STRUCTURE_STRUCTURE_H_

#include <cstdint>
#include <vector>

#include "focq/structure/signature.h"

namespace focq {

/// Universe element identifier.
using ElemId = std::uint32_t;

/// A database tuple (arity may be 0).
using Tuple = std::vector<ElemId>;

/// One relation instance. `tuples_` owns every tuple exactly once, in
/// insertion order; `index_` is a flat open-addressing hash index over it
/// (linear probing, power-of-two size, load <= 1/2) whose slots hold
/// row + 1, with 0 marking an empty slot. A copy therefore costs one
/// allocation per tuple plus one memcpy of the index.
class Relation {
 public:
  explicit Relation(int arity) : arity_(arity) {}

  int arity() const { return arity_; }
  std::size_t NumTuples() const { return tuples_.size(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Inserts `t`; duplicate inserts are ignored. Returns true if inserted.
  bool Add(Tuple t);

  /// Removes `t` if present. Returns true if removed. The flat tuple list
  /// keeps its relative order (stable erase) so that a structure mutated by
  /// delete+reinsert round-trips identically through iteration-order
  /// consumers such as the Gaifman builder.
  bool Remove(const Tuple& t);

  bool Contains(const Tuple& t) const {
    return !index_.empty() && index_[Probe(t)] != 0;
  }

  /// Approximate resident footprint in bytes: payload of every tuple once,
  /// a flat per-tuple vector overhead, and two 4-byte index slots per tuple
  /// (the load-1/2 index). A pure function of the contents. Deterministic.
  std::int64_t ApproxBytes() const;

 private:
  /// The index slot holding `t`, or the empty slot ending its probe
  /// sequence. Requires a non-empty index.
  std::size_t Probe(const Tuple& t) const;

  /// Rebuilds the index with `size` slots (a power of two).
  void Rehash(std::size_t size);

  int arity_;
  std::vector<Tuple> tuples_;
  std::vector<std::uint32_t> index_;
};

/// A finite sigma-structure: universe {0..n-1} plus one Relation per symbol.
///
/// Expansions (adding fresh unary/nullary relations, as the Theorem 6.10
/// pipeline and the free-variable elimination of Section 5 require) mutate
/// the structure in place via AddUnarySymbol / AddNullarySymbol; the paper's
/// reduct operation is `ReductTo`.
class Structure {
 public:
  /// An empty-relation structure over the given signature and universe size.
  /// The paper requires non-empty universes; n == 0 is permitted here only as
  /// a transient builder state.
  Structure(Signature sig, std::size_t universe_size);

  const Signature& signature() const { return sig_; }
  std::size_t universe_size() const { return universe_size_; }

  /// The paper's order |A|.
  std::size_t Order() const { return universe_size_; }

  /// The paper's size ||A|| = |A| + sum_R |R^A|.
  std::size_t SizeNorm() const;

  /// Approximate resident footprint in bytes, summed over the relations. A
  /// pure function of the structure, so it falls under the determinism
  /// contract (memory accounting, DESIGN.md "Observability").
  std::int64_t ApproxBytes() const;

  const Relation& relation(SymbolId id) const { return relations_[id]; }

  /// Adds a tuple to relation `id`; element ids must be < universe_size and
  /// the tuple length must match the symbol's arity.
  void AddTuple(SymbolId id, Tuple t);

  /// Tuple-level update entry points (DESIGN.md §3e). Same validation as
  /// AddTuple; both are no-ops (returning false) when the tuple is already
  /// present / absent, so callers can distinguish real changes from no-ops.
  bool InsertTuple(SymbolId id, Tuple t);
  bool DeleteTuple(SymbolId id, const Tuple& t);

  /// Membership test, the semantics of atomic formulas.
  bool Holds(SymbolId id, const Tuple& t) const {
    return relations_[id].Contains(t);
  }

  /// Nullary relation truth value (relation = {()} vs empty set).
  bool NullaryHolds(SymbolId id) const;

  /// Expansion: adds a fresh unary symbol interpreted by `elements`.
  SymbolId AddUnarySymbol(const std::string& name,
                          const std::vector<ElemId>& elements);

  /// Expansion: adds a fresh nullary symbol interpreted as {()} iff `holds`.
  SymbolId AddNullarySymbol(const std::string& name, bool holds);

  /// The sigma-reduct: keeps only the first `num_symbols` symbols.
  Structure ReductTo(std::size_t num_symbols) const;

  /// The induced substructure A[B] for B = `elements` (sorted, duplicate
  /// free, non-empty). Elements are renumbered to 0..|B|-1 in sorted order;
  /// `elements[i]` is the original id of new element i.
  Structure Induced(const std::vector<ElemId>& elements) const;

  /// Disjoint union of two structures over the same signature; elements of
  /// `b` are shifted by a.universe_size().
  static Structure DisjointUnion(const Structure& a, const Structure& b);

 private:
  Signature sig_;
  std::size_t universe_size_;
  std::vector<Relation> relations_;
};

}  // namespace focq

#endif  // FOCQ_STRUCTURE_STRUCTURE_H_
