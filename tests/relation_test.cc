// Relation storage: the flat tuple list plus its open-addressing index must
// behave exactly like an ordered reference (set membership, insertion order,
// stable erase) through many index growths, and structures must copy and
// round-trip through the text format unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "focq/graph/generators.h"
#include "focq/obs/querylog.h"
#include "focq/structure/io.h"
#include "focq/structure/structure.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

Tuple RandomTuple(int arity, std::uint64_t range, Rng* rng) {
  Tuple t;
  for (int i = 0; i < arity; ++i) {
    t.push_back(static_cast<ElemId>(rng->NextBelow(range)));
  }
  return t;
}

// Random Add/Remove/Contains against a std::set for membership and a
// std::vector with stable erase for order. The id range is sized so the
// relation grows to a few thousand tuples (several index doublings) while
// duplicates and hits on Remove stay frequent.
TEST(Relation, MatchesReferenceUnderRandomUpdates) {
  for (int arity = 0; arity <= 3; ++arity) {
    Rng rng(1000 + static_cast<std::uint64_t>(arity));
    const std::uint64_t range = arity == 0 ? 1 : arity == 1 ? 3000 : 60;
    Relation r(arity);
    std::set<Tuple> members;
    std::vector<Tuple> order;
    for (int step = 0; step < 20000; ++step) {
      Tuple t = RandomTuple(arity, range, &rng);
      // Insert-heavy early on so the index grows, balanced later.
      const bool insert = rng.NextBelow(100) < (step < 8000 ? 80u : 50u);
      if (insert) {
        const bool fresh = members.insert(t).second;
        if (fresh) order.push_back(t);
        ASSERT_EQ(r.Add(t), fresh) << "arity " << arity << " step " << step;
      } else {
        const bool present = members.erase(t) > 0;
        if (present) order.erase(std::find(order.begin(), order.end(), t));
        ASSERT_EQ(r.Remove(t), present)
            << "arity " << arity << " step " << step;
      }
      Tuple probe = RandomTuple(arity, range, &rng);
      ASSERT_EQ(r.Contains(probe), members.count(probe) > 0);
      ASSERT_EQ(r.NumTuples(), members.size());
      if (step % 997 == 0) {
        ASSERT_EQ(r.tuples(), order);
      }
    }
    EXPECT_EQ(r.tuples(), order);
    for (const Tuple& t : order) EXPECT_TRUE(r.Contains(t));
  }
}

TEST(Relation, GrowsThroughManyDoublingsAndShrinksToEmpty) {
  Relation r(2);
  std::vector<Tuple> order;
  for (ElemId i = 0; i < 5000; ++i) {
    order.push_back({i, i * 7 % 5000});
    ASSERT_TRUE(r.Add(order.back()));
  }
  EXPECT_EQ(r.tuples(), order);
  // Remove from the front, so every removal renumbers the remaining rows.
  while (!order.empty()) {
    ASSERT_TRUE(r.Remove(order.front()));
    ASSERT_FALSE(r.Contains(order.front()));
    order.erase(order.begin());
    if (order.size() % 500 == 0) {
      ASSERT_EQ(r.tuples(), order);
      for (const Tuple& t : order) ASSERT_TRUE(r.Contains(t));
    }
  }
  EXPECT_EQ(r.NumTuples(), 0u);
  EXPECT_FALSE(r.Remove({0, 0}));
  EXPECT_FALSE(Relation(1).Remove({0}));  // never indexed
  EXPECT_FALSE(Relation(1).Contains({0}));
}

// Delete+reinsert appends the tuple at the end and keeps everything else in
// place: the Gaifman builder and WriteStructure iterate in this order.
TEST(Relation, DeleteThenReinsertKeepsStableOrder) {
  Relation r(2);
  for (ElemId i = 0; i < 6; ++i) r.Add({i, i + 1});
  ASSERT_TRUE(r.Remove({2, 3}));
  ASSERT_TRUE(r.Remove({0, 1}));
  EXPECT_FALSE(r.Remove({0, 1}));
  ASSERT_TRUE(r.Add({2, 3}));
  EXPECT_FALSE(r.Add({4, 5}));
  const std::vector<Tuple> expected = {{1, 2}, {3, 4}, {4, 5}, {5, 6}, {2, 3}};
  EXPECT_EQ(r.tuples(), expected);
}

TEST(Relation, RemoveAcceptsAReferenceIntoItsOwnList) {
  Relation r(1);
  for (ElemId i = 0; i < 10; ++i) r.Add({i});
  ASSERT_TRUE(r.Remove(r.tuples()[3]));
  EXPECT_FALSE(r.Contains({3}));
  EXPECT_EQ(r.NumTuples(), 9u);
  EXPECT_TRUE(r.Contains({9}));
}

TEST(Relation, ApproxBytesCountsEachTupleOnce) {
  Relation r(2);
  EXPECT_EQ(r.ApproxBytes(), 0);
  for (ElemId i = 0; i < 100; ++i) r.Add({i, i});
  // 8 bytes of ids + 24 bytes of vector overhead + two 4-byte index slots.
  EXPECT_EQ(r.ApproxBytes(), 100 * (8 + 24 + 8));
  // A function of the contents, not of the index's growth history.
  for (ElemId i = 0; i < 50; ++i) r.Remove({i, i});
  Relation fresh(2);
  for (ElemId i = 50; i < 100; ++i) fresh.Add({i, i});
  EXPECT_EQ(r.ApproxBytes(), fresh.ApproxBytes());
}

TEST(Relation, CopiedStructureIsIndependent) {
  Structure a(Signature({{"E", 2}, {"R", 1}}), 100);
  for (ElemId i = 0; i + 1 < 100; ++i) a.AddTuple(0, {i, i + 1});
  for (ElemId i = 0; i < 100; i += 3) a.AddTuple(1, {i});
  const std::string before = WriteStructure(a);

  Structure copy = a;
  EXPECT_EQ(WriteStructure(copy), before);
  ASSERT_TRUE(copy.DeleteTuple(0, {10, 11}));
  ASSERT_TRUE(copy.InsertTuple(0, {11, 10}));
  ASSERT_TRUE(copy.DeleteTuple(1, {0}));
  for (ElemId i = 0; i < 100; ++i) copy.InsertTuple(0, {i, i});

  EXPECT_EQ(WriteStructure(a), before);
  EXPECT_TRUE(a.Holds(0, {10, 11}));
  EXPECT_FALSE(a.Holds(0, {11, 10}));
  EXPECT_FALSE(a.Holds(0, {5, 5}));
  EXPECT_TRUE(a.Holds(1, {0}));
  EXPECT_FALSE(copy.Holds(0, {10, 11}));
  EXPECT_TRUE(copy.Holds(0, {5, 5}));

  Structure assigned(Signature({{"E", 2}, {"R", 1}}), 100);
  assigned = copy;
  EXPECT_EQ(WriteStructure(assigned), WriteStructure(copy));
  assigned.DeleteTuple(0, {5, 5});
  EXPECT_TRUE(copy.Holds(0, {5, 5}));
}

// The benchmark inputs (perfbench's MakeInputText): a symmetric E over a
// random graph plus a unary R on ~30% of the vertices, serialised.
std::string BenchmarkInputText(bool tree, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g =
      tree ? MakeRandomTree(n, &rng) : MakeRandomBoundedDegree(n, 4, &rng);
  Structure a(Signature({{"E", 2}, {"R", 1}}), n);
  for (auto [u, v] : g.Edges()) {
    a.AddTuple(0, {u, v});
    a.AddTuple(0, {v, u});
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.NextBool(0.3)) a.AddTuple(1, {static_cast<ElemId>(v)});
  }
  return WriteStructure(a);
}

// Write(Read(x)) is byte-identical to x, and both digests are pinned to the
// values the pre-index storage produced, so a change in tuple order (which
// the Gaifman builder and every iteration-order consumer would observe)
// fails here.
TEST(Relation, BenchmarkInputsRoundTripByteIdentically) {
  struct Input {
    bool tree;
    std::size_t n;
    std::uint64_t digest;
  };
  for (const Input& input : {Input{false, 65536, 0x2b6aa75ac66279f1ull},
                             Input{true, 4096, 0xe82f31226ed71642ull}}) {
    const std::string text = BenchmarkInputText(input.tree, input.n, 1);
    Result<Structure> a = ReadStructure(text);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    const std::string written = WriteStructure(*a);
    EXPECT_TRUE(written == text);
    EXPECT_EQ(Fnv1a64(written), input.digest)
        << std::hex << "0x" << Fnv1a64(written);
  }
}

}  // namespace
}  // namespace focq
