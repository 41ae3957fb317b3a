// Finite sigma-structures (relational databases) over a dense universe
// {0, ..., n-1}. This is substrate S1 of DESIGN.md: the object every
// algorithm in the paper operates on.
#ifndef FOCQ_STRUCTURE_STRUCTURE_H_
#define FOCQ_STRUCTURE_STRUCTURE_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "focq/structure/signature.h"

namespace focq {

/// Universe element identifier.
using ElemId = std::uint32_t;

/// An owned database tuple (arity may be 0).
using Tuple = std::vector<ElemId>;

/// A borrowed, read-only tuple: the argument of every membership test and
/// insert, and the row type a relation's `tuples()` yields. It binds to a
/// Tuple, to a stored row, or to a braced list such as `{u, v}`; a braced
/// list's ids live only until the end of the full expression, so a
/// TupleSpan built from one must not outlive the call it is passed to.
/// Converts implicitly (one allocation) to an owned Tuple.
class TupleSpan : public std::span<const ElemId> {
 public:
  TupleSpan(const ElemId* data, std::size_t size) : span(data, size) {}
  TupleSpan(std::span<const ElemId> ids) : span(ids) {}
  TupleSpan(const Tuple& t) : span(t) {}
  TupleSpan(std::initializer_list<ElemId> ids)
      : span(ids.begin(), ids.size()) {}

  operator Tuple() const { return Tuple(begin(), end()); }

  friend bool operator==(TupleSpan a, TupleSpan b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
};

/// The rows of one relation in storage order, read in place: a sized,
/// indexable range of TupleSpan.
class RowView {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = TupleSpan;
    using reference = TupleSpan;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const ElemId* rows, std::size_t arity, std::size_t row)
        : rows_(rows), arity_(arity), row_(row) {}

    TupleSpan operator*() const {
      return TupleSpan(rows_ + row_ * arity_, arity_);
    }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++row_;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.row_ == b.row_;
    }

   private:
    const ElemId* rows_ = nullptr;
    std::size_t arity_ = 0;
    std::size_t row_ = 0;
  };

  RowView(const ElemId* rows, std::size_t arity, std::size_t size)
      : rows_(rows), arity_(arity), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TupleSpan operator[](std::size_t row) const {
    return TupleSpan(rows_ + row * arity_, arity_);
  }
  iterator begin() const { return iterator(rows_, arity_, 0); }
  iterator end() const { return iterator(rows_, arity_, size_); }

  /// Same arity, same rows in the same order.
  friend bool operator==(const RowView& a, const RowView& b);

 private:
  const ElemId* rows_;
  std::size_t arity_;
  std::size_t size_;
};

/// One relation instance, stored flat: `rows_` holds every tuple exactly
/// once, in insertion order, as `arity` consecutive ids. Membership is
/// answered by one structure per arity:
///   - arity >= 2: `index_`, an open-addressing hash index over the rows
///     (linear probing, power-of-two size, load <= 1/2) whose slots hold
///     row + 1, with 0 marking an empty slot;
///   - arity 1: `bits_`, one membership bit per element, grown to the
///     largest id inserted;
///   - arity 0: `num_rows_` itself, the flag "() is in the relation".
/// A copy is therefore a few memcpys and a teardown a few frees.
class Relation {
 public:
  explicit Relation(int arity) : arity_(arity) {}

  int arity() const { return arity_; }
  std::size_t NumTuples() const { return num_rows_; }
  RowView tuples() const {
    return RowView(rows_.data(), static_cast<std::size_t>(arity_), num_rows_);
  }

  /// Inserts `t`; duplicate inserts are ignored. Returns true if inserted.
  bool Add(TupleSpan t);

  /// Appends the flat rows `rows` (arity ids each) as if by Add in order:
  /// later duplicates are dropped, first occurrences keep their order. The
  /// membership structure is sized once for the final row count. `rows`
  /// must not alias this relation's storage; for arity 0 it must be empty
  /// (a nullary row has no ids to count).
  void AddRows(std::span<const ElemId> rows);

  /// Removes `t` if present. Returns true if removed. The rows keep their
  /// relative order (stable erase) so that a structure mutated by
  /// delete+reinsert round-trips identically through iteration-order
  /// consumers such as the Gaifman builder. `t` may alias a stored row.
  bool Remove(TupleSpan t);

  /// Membership of `t`, which must have the relation's arity.
  bool Contains(TupleSpan t) const {
    if (arity_ == 1) {
      const ElemId e = t[0];
      return e / 64 < bits_.size() && (bits_[e / 64] >> (e % 64) & 1) != 0;
    }
    if (arity_ == 0) return num_rows_ > 0;
    return !index_.empty() && index_[Probe(t)] != 0;
  }

  /// Approximate resident footprint in bytes: the row ids, two 4-byte index
  /// slots per row (the load-1/2 index) for arity >= 2, and the membership
  /// words up to the largest stored id for arity 1. A pure function of the
  /// contents, independent of the insert/delete history. Deterministic.
  std::int64_t ApproxBytes() const;

 private:
  /// The index slot holding `t`, or the empty slot ending its probe
  /// sequence. Requires arity >= 2 and a non-empty index.
  std::size_t Probe(TupleSpan t) const;

  /// Rebuilds the index with `size` slots (a power of two).
  void Rehash(std::size_t size);

  /// Appends `t`, known to be absent, updating the membership structure;
  /// `slot` is its empty index slot (arity >= 2 only).
  void Append(TupleSpan t, std::size_t slot);

  int arity_;
  std::size_t num_rows_ = 0;
  std::vector<ElemId> rows_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint64_t> bits_;
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
  void AddTuple(SymbolId id, TupleSpan t);

  /// Adds the flat rows `rows` (arity ids each) to relation `id`, as if by
  /// AddTuple on each in order, sizing the membership structure once. Same
  /// validation as AddTuple; see Relation::AddRows.
  void AddRows(SymbolId id, std::span<const ElemId> rows);

  /// Tuple-level update entry points (DESIGN.md §3e). Same validation as
  /// AddTuple; both are no-ops (returning false) when the tuple is already
  /// present / absent, so callers can distinguish real changes from no-ops.
  bool InsertTuple(SymbolId id, TupleSpan t);
  bool DeleteTuple(SymbolId id, TupleSpan t);

  /// Membership test, the semantics of atomic formulas.
  bool Holds(SymbolId id, TupleSpan t) const {
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
