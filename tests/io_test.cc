#include <gtest/gtest.h>

#include "focq/structure/incidence.h"
#include "focq/structure/io.h"

namespace focq {
namespace {

constexpr const char* kSample = R"(
# a small database
universe 5
relation E 2
0 1
1 2   # trailing comment
relation R 1
3
relation Z 0
()
)";

TEST(StructureIo, ReadBasics) {
  Result<Structure> a = ReadStructure(kSample);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->universe_size(), 5u);
  EXPECT_EQ(a->signature().NumSymbols(), 3u);
  EXPECT_TRUE(a->Holds(*a->signature().Find("E"), {0, 1}));
  EXPECT_TRUE(a->Holds(*a->signature().Find("E"), {1, 2}));
  EXPECT_FALSE(a->Holds(*a->signature().Find("E"), {1, 0}));
  EXPECT_TRUE(a->Holds(*a->signature().Find("R"), {3}));
  EXPECT_TRUE(a->NullaryHolds(*a->signature().Find("Z")));
}

TEST(StructureIo, RoundTrip) {
  Result<Structure> a = ReadStructure(kSample);
  ASSERT_TRUE(a.ok());
  std::string serialized = WriteStructure(*a);
  Result<Structure> b = ReadStructure(serialized);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(WriteStructure(*b), serialized);
  EXPECT_EQ(b->universe_size(), a->universe_size());
  for (SymbolId id = 0; id < a->signature().NumSymbols(); ++id) {
    EXPECT_EQ(b->relation(id).NumTuples(), a->relation(id).NumTuples());
  }
}

TEST(StructureIo, Errors) {
  EXPECT_FALSE(ReadStructure("relation E 2\n0 1\n").ok());  // no universe
  EXPECT_FALSE(ReadStructure("universe 0\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nuniverse 3\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nrelation E 2\n0 7\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nrelation E 2\n0\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\n0 1\n").ok());  // tuple w/o relation
  EXPECT_FALSE(
      ReadStructure("universe 3\nrelation E 2\nrelation E 2\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nrelation E 2\n()\n").ok());
}

TEST(StructureIo, EdgeList) {
  Result<Structure> a = ReadEdgeList("0 1\n1 2\n# comment\n2 0\n");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->universe_size(), 3u);
  SymbolId e = *a->signature().Find("E");
  EXPECT_TRUE(a->Holds(e, {0, 1}));
  EXPECT_TRUE(a->Holds(e, {1, 0}));  // symmetric encoding
  EXPECT_EQ(a->relation(e).NumTuples(), 6u);
  EXPECT_FALSE(ReadEdgeList("0 -1\n").ok());
  EXPECT_FALSE(ReadEdgeList("").ok());
  Result<Structure> padded = ReadEdgeList("0 1\n", /*min_vertices=*/10);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->universe_size(), 10u);
}

// Each input must fail with a one-line "line N:" diagnostic naming the
// offending line.
void ExpectLineError(const std::string& text, int line) {
  Result<Structure> a = ReadStructure(text);
  ASSERT_FALSE(a.ok()) << "accepted: " << text;
  const std::string& message = a.status().message();
  EXPECT_EQ(message.rfind("line " + std::to_string(line) + ": ", 0), 0u)
      << message;
  EXPECT_EQ(message.find('\n'), std::string::npos) << message;
}

TEST(StructureIo, NumericFieldsAreWholeUnsignedTokens) {
  ExpectLineError("universe -5\n", 1);  // istream >> size_t used to wrap
  ExpectLineError("universe 5x\n", 1);
  ExpectLineError("universe 3\nrelation E 2x\n", 2);
  ExpectLineError("universe 3\nrelation E 2\n0 1x\n", 3);
  ExpectLineError("universe 3\nrelation E 2\n0 1 x\n", 3);
  ExpectLineError("universe 3\nrelation E 2\n+1 2\n", 3);
  ExpectLineError("universe 3\nrelation E 2\n0 -1\n", 3);
  ExpectLineError("universe 3\nrelation Z 0\n() 1\n", 3);
}

TEST(StructureIo, OverflowingIdIsOutsideTheUniverse) {
  ExpectLineError("universe 3\nrelation E 2\n0 99999999999999999999\n", 3);
  ExpectLineError("universe 5000000000\nrelation R 1\n4294967296\n", 3);
}

TEST(StructureIo, LayoutVariantsStillParse) {
  const std::string expected = "universe 3\nrelation E 2\n0 1\n";
  for (const char* text : {
           "universe 3\r\nrelation E 2\r\n0 1\r\n",  // CRLF endings
           "universe\t3\nrelation\tE\t2\n\t0\t1\t\n",  // tabs
           "universe 3\nrelation E 2\n0 1# comment\n",  // comment after tuple
           "universe 3\nrelation E 2\n0 1",             // no final newline
       }) {
    Result<Structure> a = ReadStructure(text);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(WriteStructure(*a), expected);
  }
  Result<Structure> z = ReadStructure("universe 1\nrelation Z 0\n()\n()\n");
  ASSERT_TRUE(z.ok()) << z.status().ToString();  // duplicate () is ignored
  EXPECT_EQ(z->relation(0).NumTuples(), 1u);
}

TEST(StructureIo, EdgeListFieldsAreStrict) {
  for (const char* text : {"0 1x\n", "0\n", "+0 1\n", "0 1 2\n",
                           "0 99999999999999999999\n"}) {
    Result<Structure> a = ReadEdgeList(std::string("2 3\n") + text);
    ASSERT_FALSE(a.ok()) << "accepted: " << text;
    EXPECT_NE(a.status().message().find("line 2: "), std::string::npos)
        << a.status().message();
  }
  Result<Structure> crlf = ReadEdgeList("0 1\r\n\t1 2 # tail\r\n");
  ASSERT_TRUE(crlf.ok()) << crlf.status().ToString();
  EXPECT_EQ(crlf->universe_size(), 3u);
}

TEST(Incidence, FastInducedMatchesSlow) {
  Result<Structure> a = ReadStructure(kSample);
  ASSERT_TRUE(a.ok());
  TupleIncidence incidence(*a);
  std::vector<ElemId> members = {0, 1, 3};
  SubstructureView fast = InducedViewFast(incidence, members);
  SubstructureView slow = InducedView(*a, members);
  EXPECT_EQ(WriteStructure(fast.structure), WriteStructure(slow.structure));
  // Nullary relations survive the fast path even without incidence.
  EXPECT_TRUE(fast.structure.NullaryHolds(*a->signature().Find("Z")));
}

TEST(Incidence, TupleListedOncePerElement) {
  Structure a(Signature({{"T", 3}}), 3);
  a.AddTuple(0, {1, 1, 2});
  TupleIncidence incidence(a);
  EXPECT_EQ(incidence.Of(1).size(), 1u);  // despite two occurrences
  EXPECT_EQ(incidence.Of(2).size(), 1u);
  EXPECT_TRUE(incidence.Of(0).empty());
}

}  // namespace
}  // namespace focq
