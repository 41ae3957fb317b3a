#include "focq/structure/structure.h"

#include <algorithm>
#include <bit>

#include "focq/util/check.h"

namespace focq {

namespace {

constexpr std::size_t kMinIndexSize = 8;

// Multiplicative mixing per id, then the murmur3 64-bit finaliser, which
// spreads every input bit into the low bits a power-of-two mask keeps.
std::size_t RowHash(TupleSpan t) {
  std::uint64_t h = t.size();
  for (ElemId e : t) h = (h ^ e) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

// The index size Add reaches for `rows` rows: a power of two with load
// <= 1/2.
std::size_t IndexSizeFor(std::size_t rows) {
  return std::max(kMinIndexSize, std::bit_ceil(2 * rows));
}

}  // namespace

bool operator==(const RowView& a, const RowView& b) {
  return a.arity_ == b.arity_ && a.size_ == b.size_ &&
         std::equal(a.rows_, a.rows_ + a.size_ * a.arity_, b.rows_);
}

std::size_t Relation::Probe(TupleSpan t) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = RowHash(t) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t entry = index_[slot];
    if (entry == 0 || tuples()[entry - 1] == t) return slot;
  }
}

void Relation::Rehash(std::size_t size) {
  index_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::size_t row = 0; row < num_rows_; ++row) {
    std::size_t slot = RowHash(tuples()[row]) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::uint32_t>(row + 1);
  }
}

void Relation::Append(TupleSpan t, std::size_t slot) {
  FOCQ_CHECK_LT(num_rows_, std::size_t{UINT32_MAX});
  if (arity_ == 1) bits_[t[0] / 64] |= std::uint64_t{1} << (t[0] % 64);
  rows_.insert(rows_.end(), t.begin(), t.end());
  ++num_rows_;
  if (arity_ >= 2) index_[slot] = static_cast<std::uint32_t>(num_rows_);
}

bool Relation::Add(TupleSpan t) {
  FOCQ_CHECK_EQ(static_cast<int>(t.size()), arity_);
  std::size_t slot = 0;
  if (arity_ >= 2) {
    if (2 * (num_rows_ + 1) > index_.size()) {
      Rehash(std::max(kMinIndexSize, 2 * index_.size()));
    }
    slot = Probe(t);
    if (index_[slot] != 0) return false;
  } else {
    if (Contains(t)) return false;
    if (arity_ == 1 && t[0] / 64 >= bits_.size()) {
      bits_.resize(t[0] / 64 + 1, 0);
    }
  }
  Append(t, slot);
  return true;
}

void Relation::AddRows(std::span<const ElemId> rows) {
  const std::size_t arity = static_cast<std::size_t>(arity_);
  FOCQ_CHECK(arity == 0 ? rows.empty() : rows.size() % arity == 0);
  if (rows.empty()) return;
  const std::size_t count = rows.size() / arity;
  rows_.reserve(rows_.size() + rows.size());
  if (arity == 1) {
    const ElemId largest = *std::max_element(rows.begin(), rows.end());
    if (largest / 64 >= bits_.size()) bits_.resize(largest / 64 + 1, 0);
  } else if (IndexSizeFor(num_rows_ + count) > index_.size()) {
    Rehash(IndexSizeFor(num_rows_ + count));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const TupleSpan t(rows.data() + i * arity, arity);
    std::size_t slot = 0;
    if (arity == 1 ? !Contains(t) : index_[slot = Probe(t)] == 0) {
      Append(t, slot);
    }
  }
}

bool Relation::Remove(TupleSpan t) {
  FOCQ_CHECK_EQ(static_cast<int>(t.size()), arity_);
  if (!Contains(t)) return false;
  if (arity_ == 0) {
    num_rows_ = 0;
    return true;
  }
  if (arity_ == 1) {
    const ElemId e = t[0];  // `t` may alias the row erased below
    bits_[e / 64] &= ~(std::uint64_t{1} << (e % 64));
    rows_.erase(std::find(rows_.begin(), rows_.end(), e));
    --num_rows_;
    return true;
  }
  std::size_t hole = Probe(t);
  const std::uint32_t removed = index_[hole];
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole when the hole lies on its own probe path, so lookups never
  // need tombstones.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; index_[next] != 0;
       next = (next + 1) & mask) {
    const std::size_t home = RowHash(tuples()[index_[next] - 1]) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
  const std::size_t arity = static_cast<std::size_t>(arity_);
  const auto first = rows_.begin() + (removed - 1) * arity;
  rows_.erase(first, first + arity);
  --num_rows_;
  // The stable erase shifted every later row down by one.
  if (removed <= num_rows_) {
    for (std::uint32_t& entry : index_) {
      if (entry > removed) --entry;
    }
  }
  return true;
}

std::int64_t Relation::ApproxBytes() const {
  // The row ids, plus two 4-byte slots per row for the load-1/2 index, or
  // the membership words up to the largest stored id. Counting from the
  // contents rather than the index's or bit vector's current size keeps
  // the figure independent of the insert/delete history.
  std::int64_t bytes =
      static_cast<std::int64_t>(rows_.size() * sizeof(ElemId));
  if (arity_ >= 2) {
    bytes += static_cast<std::int64_t>(num_rows_ * 2 * sizeof(std::uint32_t));
  } else if (arity_ == 1 && num_rows_ > 0) {
    const ElemId largest = *std::max_element(rows_.begin(), rows_.end());
    bytes += static_cast<std::int64_t>((largest / 64 + 1) *
                                       sizeof(std::uint64_t));
  }
  return bytes;
}

Structure::Structure(Signature sig, std::size_t universe_size)
    : sig_(std::move(sig)), universe_size_(universe_size) {
  relations_.reserve(sig_.NumSymbols());
  for (SymbolId id = 0; id < sig_.NumSymbols(); ++id) {
    relations_.emplace_back(sig_.Arity(id));
  }
}

std::size_t Structure::SizeNorm() const {
  std::size_t total = universe_size_;
  for (const Relation& r : relations_) total += r.NumTuples();
  return total;
}

std::int64_t Structure::ApproxBytes() const {
  std::int64_t total = 0;
  for (const Relation& r : relations_) total += r.ApproxBytes();
  return total;
}

void Structure::AddTuple(SymbolId id, TupleSpan t) {
  InsertTuple(id, t);
}

void Structure::AddRows(SymbolId id, std::span<const ElemId> rows) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : rows) FOCQ_CHECK_LT(e, universe_size_);
  relations_[id].AddRows(rows);
}

bool Structure::InsertTuple(SymbolId id, TupleSpan t) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : t) FOCQ_CHECK_LT(e, universe_size_);
  return relations_[id].Add(t);
}

bool Structure::DeleteTuple(SymbolId id, TupleSpan t) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : t) FOCQ_CHECK_LT(e, universe_size_);
  return relations_[id].Remove(t);
}

bool Structure::NullaryHolds(SymbolId id) const {
  FOCQ_CHECK_EQ(sig_.Arity(id), 0);
  return relations_[id].NumTuples() > 0;
}

SymbolId Structure::AddUnarySymbol(const std::string& name,
                                   const std::vector<ElemId>& elements) {
  SymbolId id = sig_.AddSymbol(name, 1);
  relations_.emplace_back(1);
  AddRows(id, elements);
  return id;
}

SymbolId Structure::AddNullarySymbol(const std::string& name, bool holds) {
  SymbolId id = sig_.AddSymbol(name, 0);
  relations_.emplace_back(0);
  if (holds) relations_[id].Add({});
  return id;
}

Structure Structure::ReductTo(std::size_t num_symbols) const {
  FOCQ_CHECK_LE(num_symbols, sig_.NumSymbols());
  Signature reduced;
  for (SymbolId id = 0; id < num_symbols; ++id) {
    reduced.AddSymbol(sig_.Name(id), sig_.Arity(id));
  }
  Structure out(std::move(reduced), universe_size_);
  std::copy(relations_.begin(), relations_.begin() + num_symbols,
            out.relations_.begin());
  return out;
}

Structure Structure::Induced(const std::vector<ElemId>& elements) const {
  FOCQ_CHECK(!elements.empty());
  FOCQ_CHECK(std::is_sorted(elements.begin(), elements.end()));
  // Dense inverse map: original id -> new id (or kMissing).
  constexpr ElemId kMissing = static_cast<ElemId>(-1);
  std::vector<ElemId> remap(universe_size_, kMissing);
  for (ElemId i = 0; i < elements.size(); ++i) {
    FOCQ_CHECK_LT(elements[i], universe_size_);
    FOCQ_CHECK(remap[elements[i]] == kMissing);  // duplicate-free
    remap[elements[i]] = i;
  }
  Structure out(sig_, elements.size());
  std::vector<ElemId> mapped;
  for (SymbolId id = 0; id < relations_.size(); ++id) {
    if (sig_.Arity(id) == 0) {
      out.relations_[id] = relations_[id];
      continue;
    }
    mapped.clear();
    for (TupleSpan t : relations_[id].tuples()) {
      if (std::any_of(t.begin(), t.end(),
                      [&](ElemId e) { return remap[e] == kMissing; })) {
        continue;
      }
      for (ElemId e : t) mapped.push_back(remap[e]);
    }
    out.relations_[id].AddRows(mapped);
  }
  return out;
}

Structure Structure::DisjointUnion(const Structure& a, const Structure& b) {
  FOCQ_CHECK(a.sig_.IsPrefixOf(b.sig_) && b.sig_.IsPrefixOf(a.sig_));
  Structure out(a.sig_, a.universe_size_ + b.universe_size_);
  out.relations_ = a.relations_;
  const ElemId shift = static_cast<ElemId>(a.universe_size_);
  std::vector<ElemId> shifted;
  for (SymbolId id = 0; id < a.relations_.size(); ++id) {
    if (a.sig_.Arity(id) == 0) {
      if (b.NullaryHolds(id)) out.relations_[id].Add({});
      continue;
    }
    shifted.clear();
    for (TupleSpan t : b.relations_[id].tuples()) {
      for (ElemId e : t) shifted.push_back(e + shift);
    }
    out.relations_[id].AddRows(shifted);
  }
  return out;
}

}  // namespace focq
