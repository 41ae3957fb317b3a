// Relation storage: the flat row array plus its membership structure (row
// index, unary bits or nullary flag) must behave exactly like an ordered
// reference (set membership, insertion order, stable erase) through many
// index growths, and structures must copy and round-trip through the text
// format unchanged.
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

// The rows of `r` as owned tuples, for comparison with a reference list.
std::vector<Tuple> Rows(const Relation& r) {
  return std::vector<Tuple>(r.tuples().begin(), r.tuples().end());
}

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
        ASSERT_EQ(Rows(r), order);
      }
    }
    EXPECT_EQ(Rows(r), order);
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
  EXPECT_EQ(Rows(r), order);
  // Remove from the front, so every removal renumbers the remaining rows.
  while (!order.empty()) {
    ASSERT_TRUE(r.Remove(order.front()));
    ASSERT_FALSE(r.Contains(order.front()));
    order.erase(order.begin());
    if (order.size() % 500 == 0) {
      ASSERT_EQ(Rows(r), order);
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
  EXPECT_EQ(Rows(r), expected);
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
  // 8 bytes of ids in the row array + two 4-byte index slots.
  EXPECT_EQ(r.ApproxBytes(), 100 * (8 + 8));
  // A function of the contents, not of the index's growth history.
  for (ElemId i = 0; i < 50; ++i) r.Remove({i, i});
  Relation fresh(2);
  for (ElemId i = 50; i < 100; ++i) fresh.Add({i, i});
  EXPECT_EQ(r.ApproxBytes(), fresh.ApproxBytes());
}

// Every arity through one path: arity 0 is a flag, arity 1 membership bits
// (here with ids far apart, so the bit vector grows by large steps), arity
// >= 2 the row index.
TEST(Relation, EveryArityStoresRowsInOrder) {
  for (int arity = 0; arity <= 4; ++arity) {
    Relation r(arity);
    std::vector<Tuple> rows;
    for (ElemId i = 0; i < (arity == 0 ? 1u : 6u); ++i) {
      Tuple t;
      for (int j = 0; j < arity; ++j) {
        t.push_back(arity == 1 ? (i * 1000003u) % 4000037u
                               : i * 7 + static_cast<ElemId>(j));
      }
      rows.push_back(t);
      ASSERT_TRUE(r.Add(t)) << "arity " << arity;
      ASSERT_FALSE(r.Add(t)) << "arity " << arity;
    }
    EXPECT_EQ(Rows(r), rows) << "arity " << arity;
    for (const Tuple& t : rows) EXPECT_TRUE(r.Contains(t));
    if (arity > 0) {
      Tuple absent(static_cast<std::size_t>(arity), 4000036u);
      EXPECT_FALSE(r.Contains(absent)) << "arity " << arity;
      EXPECT_FALSE(r.Remove(absent)) << "arity " << arity;
    }
    ASSERT_TRUE(r.Remove(rows.front()));
    EXPECT_FALSE(r.Contains(rows.front()));
    rows.erase(rows.begin());
    EXPECT_EQ(Rows(r), rows) << "arity " << arity;
    EXPECT_EQ(r.NumTuples(), rows.size());
  }
}

// The loader appends a relation's rows in file order and drops a repeated
// row, keeping its first occurrence's position.
TEST(Relation, LoaderKeepsFirstOccurrenceOfDuplicateRows) {
  Result<Structure> a = ReadStructure(
      "universe 5\nrelation E 2\n0 1\n2 3\n0 1\n1 0\n2 3\n"
      "relation R 1\n4\n0\n4\n4\n2\nrelation Q 0\n()\n()\n");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(Rows(a->relation(0)), (std::vector<Tuple>{{0, 1}, {2, 3}, {1, 0}}));
  EXPECT_EQ(Rows(a->relation(1)), (std::vector<Tuple>{{4}, {0}, {2}}));
  EXPECT_EQ(a->relation(2).NumTuples(), 1u);
  EXPECT_EQ(a->SizeNorm(), 5u + 3 + 3 + 1);
  EXPECT_TRUE(a->Holds(1, {2}));
  EXPECT_FALSE(a->Holds(1, {3}));
  EXPECT_EQ(WriteStructure(*a),
            "universe 5\nrelation E 2\n0 1\n2 3\n1 0\n"
            "relation R 1\n4\n0\n2\nrelation Q 0\n()\n");
}

// A unary relation answers membership from its bits; after any sequence of
// inserts and deletes the bits must say exactly what the rows say.
TEST(Relation, UnaryBitsTrackRowsUnderUpdates) {
  constexpr std::size_t kN = 300;
  Structure a(Signature({{"R", 1}}), kN);
  Rng rng(77);
  for (int step = 0; step < 4000; ++step) {
    const Tuple t = {static_cast<ElemId>(rng.NextBelow(kN))};
    if (rng.NextBool(0.55)) {
      a.InsertTuple(0, t);
    } else {
      a.DeleteTuple(0, t);
    }
    if (step % 100 != 0) continue;
    std::vector<bool> in_rows(kN, false);
    for (TupleSpan row : a.relation(0).tuples()) {
      ASSERT_FALSE(in_rows[row[0]]) << "row " << row[0] << " stored twice";
      in_rows[row[0]] = true;
    }
    for (ElemId e = 0; e < kN; ++e) {
      ASSERT_EQ(a.Holds(0, {e}), in_rows[e]) << "element " << e;
    }
  }
}

TEST(Relation, RowViewComparesByContentsAndHoldsTakesItsOwnRows) {
  Relation r(3), same(3), other(3);
  for (ElemId i = 0; i < 20; ++i) {
    r.Add({i, i + 1, i + 2});
    same.Add({i, i + 1, i + 2});
    other.Add({i + 2, i + 1, i});
  }
  EXPECT_TRUE(r.tuples() == same.tuples());
  EXPECT_FALSE(r.tuples() == other.tuples());
  EXPECT_FALSE(Relation(2).tuples() == Relation(3).tuples());
  EXPECT_TRUE(r.tuples()[4] == (Tuple{4, 5, 6}));
  EXPECT_FALSE(r.tuples()[4] == (Tuple{4, 5}));

  Structure a(Signature({{"T", 3}}), 30);
  for (ElemId i = 0; i < 20; ++i) a.AddTuple(0, {i, i + 1, i + 2});
  // Each probe is a span into the relation's own row array.
  for (TupleSpan row : a.relation(0).tuples()) {
    EXPECT_TRUE(a.Holds(0, row));
  }
  const TupleSpan row = a.relation(0).tuples()[7];
  EXPECT_TRUE(a.Holds(0, row.subspan(0, 3)));
  ASSERT_TRUE(a.DeleteTuple(0, row));  // may alias the row it erases
  EXPECT_FALSE(a.Holds(0, {7, 8, 9}));
  EXPECT_EQ(a.relation(0).NumTuples(), 19u);
}

// ApproxBytes is a function of the contents: the index size a relation
// grew to, or the bits a since-deleted large id forced, do not show.
TEST(Relation, ApproxBytesIgnoresUpdateHistory) {
  for (int arity = 1; arity <= 3; ++arity) {
    Relation grown(arity), fresh(arity);
    auto tuple = [arity](ElemId e) {
      return Tuple(static_cast<std::size_t>(arity), e);
    };
    for (ElemId e = 0; e < 500; ++e) grown.Add(tuple(e));
    grown.Add(tuple(1u << 20));
    for (ElemId e = 0; e < 500; e += 2) grown.Remove(tuple(e));
    grown.Remove(tuple(1u << 20));
    for (ElemId e = 1; e < 500; e += 2) fresh.Add(tuple(e));
    EXPECT_EQ(grown.ApproxBytes(), fresh.ApproxBytes()) << "arity " << arity;
    EXPECT_GT(fresh.ApproxBytes(), 0) << "arity " << arity;
  }
  Relation unary(1);
  unary.Add({63});
  EXPECT_EQ(unary.ApproxBytes(), 4 + 8);  // one id, one membership word
  unary.Add({64});
  EXPECT_EQ(unary.ApproxBytes(), 8 + 16);
  Relation nullary(0);
  nullary.Add({});
  EXPECT_EQ(nullary.ApproxBytes(), 0);
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
