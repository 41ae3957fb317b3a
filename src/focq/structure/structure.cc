#include "focq/structure/structure.h"

#include <algorithm>

#include "focq/util/check.h"
#include "focq/util/hash.h"

namespace focq {

namespace {

constexpr std::size_t kMinIndexSize = 8;

// VectorHash mixes the ids only weakly into its low bits, which are all a
// power-of-two mask keeps; the murmur3 64-bit finaliser spreads every input
// bit across the word.
std::size_t TupleHash(const Tuple& t) {
  std::uint64_t h = VectorHash{}(t);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

}  // namespace

std::size_t Relation::Probe(const Tuple& t) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = TupleHash(t) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t entry = index_[slot];
    if (entry == 0 || tuples_[entry - 1] == t) return slot;
  }
}

void Relation::Rehash(std::size_t size) {
  index_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::size_t row = 0; row < tuples_.size(); ++row) {
    std::size_t slot = TupleHash(tuples_[row]) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::uint32_t>(row + 1);
  }
}

bool Relation::Add(Tuple t) {
  FOCQ_CHECK_EQ(static_cast<int>(t.size()), arity_);
  if (2 * (tuples_.size() + 1) > index_.size()) {
    Rehash(std::max(kMinIndexSize, 2 * index_.size()));
  }
  const std::size_t slot = Probe(t);
  if (index_[slot] != 0) return false;
  FOCQ_CHECK_LT(tuples_.size(), std::size_t{UINT32_MAX});
  tuples_.push_back(std::move(t));
  index_[slot] = static_cast<std::uint32_t>(tuples_.size());
  return true;
}

bool Relation::Remove(const Tuple& t) {
  if (index_.empty()) return false;
  std::size_t hole = Probe(t);
  const std::uint32_t removed = index_[hole];
  if (removed == 0) return false;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole when the hole lies on its own probe path, so lookups never
  // need tombstones.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; index_[next] != 0;
       next = (next + 1) & mask) {
    const std::size_t home = TupleHash(tuples_[index_[next] - 1]) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
  tuples_.erase(tuples_.begin() + (removed - 1));
  // The stable erase shifted every later row down by one.
  if (removed <= tuples_.size()) {
    for (std::uint32_t& entry : index_) {
      if (entry > removed) --entry;
    }
  }
  return true;
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

std::int64_t Relation::ApproxBytes() const {
  // Each tuple is stored once; 24 bytes stands in for its vector overhead,
  // and the load-1/2 index spends two 4-byte slots on it. Counting slots
  // from the tuple count rather than the index's current size keeps the
  // figure independent of the insert/delete history.
  return static_cast<std::int64_t>(NumTuples()) *
         (static_cast<std::int64_t>(arity_) *
              static_cast<std::int64_t>(sizeof(ElemId)) +
          24 + 2 * static_cast<std::int64_t>(sizeof(std::uint32_t)));
}

std::int64_t Structure::ApproxBytes() const {
  std::int64_t total = 0;
  for (const Relation& r : relations_) total += r.ApproxBytes();
  return total;
}

void Structure::AddTuple(SymbolId id, Tuple t) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : t) FOCQ_CHECK_LT(e, universe_size_);
  relations_[id].Add(std::move(t));
}

bool Structure::InsertTuple(SymbolId id, Tuple t) {
  FOCQ_CHECK_LT(id, relations_.size());
  for (ElemId e : t) FOCQ_CHECK_LT(e, universe_size_);
  return relations_[id].Add(std::move(t));
}

bool Structure::DeleteTuple(SymbolId id, const Tuple& t) {
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
  for (ElemId e : elements) {
    FOCQ_CHECK_LT(e, universe_size_);
    relations_[id].Add({e});
  }
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
  for (SymbolId id = 0; id < num_symbols; ++id) {
    for (const Tuple& t : relations_[id].tuples()) out.AddTuple(id, t);
  }
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
  Tuple mapped;
  for (SymbolId id = 0; id < relations_.size(); ++id) {
    for (const Tuple& t : relations_[id].tuples()) {
      mapped.clear();
      bool inside = true;
      for (ElemId e : t) {
        if (remap[e] == kMissing) {
          inside = false;
          break;
        }
        mapped.push_back(remap[e]);
      }
      if (inside) out.AddTuple(id, mapped);
    }
  }
  return out;
}

Structure Structure::DisjointUnion(const Structure& a, const Structure& b) {
  FOCQ_CHECK(a.sig_.IsPrefixOf(b.sig_) && b.sig_.IsPrefixOf(a.sig_));
  Structure out(a.sig_, a.universe_size_ + b.universe_size_);
  for (SymbolId id = 0; id < a.relations_.size(); ++id) {
    for (const Tuple& t : a.relations_[id].tuples()) out.AddTuple(id, t);
    for (const Tuple& t : b.relations_[id].tuples()) {
      Tuple shifted = t;
      for (ElemId& e : shifted) e += static_cast<ElemId>(a.universe_size_);
      out.AddTuple(id, std::move(shifted));
    }
  }
  return out;
}

}  // namespace focq
