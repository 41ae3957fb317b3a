// The statement module: the kind words, the batch line grammar, and the
// golden result texts every front end answers with — focq_cli --batch, the
// server's responses and the query-log digests all render through here, so
// a change in any of these strings is a protocol change.
#include "focq/core/statement.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "focq/structure/io.h"

namespace focq {
namespace {

constexpr StatementKind kAllKinds[] = {StatementKind::kCheck,
                                       StatementKind::kCount,
                                       StatementKind::kTerm,
                                       StatementKind::kUpdate};

// Three elements, one symmetric edge 0 - 1.
Structure SmallStructure() {
  return *ReadStructure("universe 3\nrelation E 2\n0 1\n1 0\n");
}

// Prepares and executes against `a` (writable overload, no context) and
// renders the outcome the way the server and focq_logreplay do.
std::string RunStatement(StatementKind kind, const std::string& text,
                         Structure* a, const EvalOptions& options = {}) {
  Result<PreparedStatement> statement =
      PrepareStatement(kind, text, a->signature());
  if (!statement.ok()) return statement.status().ToString();
  Result<std::string> result = ExecuteStatement(*statement, a, options);
  return result.ok() ? *result : result.status().ToString();
}

std::vector<StatementLine> ReadAll(const std::string& text,
                                   std::vector<int>* linenos = nullptr) {
  std::istringstream in(text);
  BatchReader reader(in);
  std::vector<StatementLine> lines;
  for (;;) {
    Result<std::optional<StatementLine>> line = reader.Next();
    EXPECT_TRUE(line.ok()) << line.status().ToString();
    if (!line.ok() || !line->has_value()) return lines;
    lines.push_back(**line);
    if (linenos != nullptr) linenos->push_back(reader.lineno());
  }
}

TEST(StatementKinds, WordsRoundTrip) {
  EXPECT_STREQ(StatementKindName(StatementKind::kCheck), "check");
  EXPECT_STREQ(StatementKindName(StatementKind::kCount), "count");
  EXPECT_STREQ(StatementKindName(StatementKind::kTerm), "term");
  EXPECT_STREQ(StatementKindName(StatementKind::kUpdate), "update");
  for (StatementKind kind : kAllKinds) {
    EXPECT_EQ(StatementKindFromWord(StatementKindName(kind)), kind);
  }
  for (const char* word : {"", "ping", "shutdown", "Check", "counts", " term",
                           "update "}) {
    EXPECT_FALSE(StatementKindFromWord(word).has_value()) << "'" << word << "'";
  }
}

TEST(BatchReader, SkipsBlankAndCommentLines) {
  std::vector<int> linenos;
  std::vector<StatementLine> lines = ReadAll(
      "\n"
      "   \t \n"
      "# a comment\n"
      "   # an indented comment\n"
      "check exists x. E(x, x)\n",
      &linenos);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].kind, StatementKind::kCheck);
  EXPECT_EQ(lines[0].text, "exists x. E(x, x)");
  EXPECT_EQ(linenos, std::vector<int>{5});
}

TEST(BatchReader, SplitsKindAndTextAfterOneSeparator) {
  std::vector<int> linenos;
  std::vector<StatementLine> lines = ReadAll(
      "  count E(x, y)\n"          // leading blanks before the kind
      "\tterm\t#(x). (E(x, x))\n"  // tabs on both sides
      "check  true\n"              // only the first separator is consumed
      "term\n"                     // no text part at all
      "update insert E 0 2",       // no trailing newline
      &linenos);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].kind, StatementKind::kCount);
  EXPECT_EQ(lines[0].text, "E(x, y)");
  EXPECT_EQ(lines[1].kind, StatementKind::kTerm);
  EXPECT_EQ(lines[1].text, "#(x). (E(x, x))");
  EXPECT_EQ(lines[2].kind, StatementKind::kCheck);
  EXPECT_EQ(lines[2].text, " true");
  EXPECT_EQ(lines[3].kind, StatementKind::kTerm);
  EXPECT_EQ(lines[3].text, "");
  EXPECT_EQ(lines[4].kind, StatementKind::kUpdate);
  EXPECT_EQ(lines[4].text, "insert E 0 2");
  EXPECT_EQ(linenos, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BatchReader, UnknownKindNamesTheLine) {
  std::istringstream in(
      "check true\n\n# skipped\nbogus E(x, y)\ncount true\n");
  BatchReader reader(in);
  Result<std::optional<StatementLine>> first = reader.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  Result<std::optional<StatementLine>> second = reader.Next();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(second.status().message(),
            "line 4: expected 'check', 'count', 'term' or 'update', got "
            "'bogus'");
}

TEST(StatementExecution, RendersGoldenResultTexts) {
  Structure a = SmallStructure();
  auto run = [&a](StatementKind kind, const std::string& text) {
    return RunStatement(kind, text, &a);
  };
  EXPECT_EQ(run(StatementKind::kCheck, "exists x. exists y. E(x, y)"), "true");
  EXPECT_EQ(run(StatementKind::kCheck, "exists x. E(x, x)"), "false");
  EXPECT_EQ(run(StatementKind::kCount, "E(x, y)"), "2");
  EXPECT_EQ(run(StatementKind::kCount, "x = x"), "3");
  EXPECT_EQ(run(StatementKind::kTerm, "#(x, y). (E(x, y))"), "2");
  EXPECT_EQ(run(StatementKind::kTerm, "#(x). (E(x, x))"), "0");
  EXPECT_EQ(run(StatementKind::kUpdate, "insert E 1 2"), "applied");
  EXPECT_EQ(run(StatementKind::kUpdate, "insert E 1 2"), "noop");
  EXPECT_EQ(run(StatementKind::kCount, "E(x, y)"), "3");
  EXPECT_EQ(run(StatementKind::kUpdate, "delete E 1 2"), "applied");
  EXPECT_EQ(run(StatementKind::kUpdate, "delete E 1 2"), "noop");
}

TEST(StatementExecution, EveryEngineRendersTheSameText) {
  for (auto [engine, term_engine] :
       {std::pair{Engine::kNaive, TermEngine::kBall},
        std::pair{Engine::kLocal, TermEngine::kBall},
        std::pair{Engine::kLocal, TermEngine::kSparseCover}}) {
    Structure a = SmallStructure();
    EvalOptions options{.engine = engine, .term_engine = term_engine};
    EXPECT_EQ(RunStatement(StatementKind::kCount, "@ge1(#(y). (E(x, y)))",
                           &a, options),
              "2");
    EXPECT_EQ(RunStatement(StatementKind::kCheck,
                           "forall x. @ge1(#(y). (E(x, y)))", &a, options),
              "false");
  }
}

TEST(StatementExecution, ErrorsRenderAsStatusText) {
  Structure a = SmallStructure();
  auto run = [&a](StatementKind kind, const std::string& text) {
    return RunStatement(kind, text, &a);
  };
  // Parse errors.
  EXPECT_EQ(run(StatementKind::kCount, "E(x,"),
            "INVALID_ARGUMENT: atom arguments must be variables");
  EXPECT_EQ(run(StatementKind::kTerm, "#(x). ("),
            "INVALID_ARGUMENT: expected a formula at offset 7");
  EXPECT_EQ(run(StatementKind::kUpdate, "upsert E 0 1"),
            "INVALID_ARGUMENT: update op must be insert|delete, got 'upsert'");
  // Symbol errors.
  EXPECT_EQ(run(StatementKind::kCheck, "exists x. R(x)"),
            "INVALID_ARGUMENT: unknown relation symbol 'R' in atom R(x)");
  EXPECT_EQ(run(StatementKind::kCount, "E(x)"),
            "INVALID_ARGUMENT: atom E(x) has 1 arguments but 'E' has arity 2");
  EXPECT_EQ(run(StatementKind::kUpdate, "insert Q 0"),
            "NOT_FOUND: unknown relation symbol 'Q'");
  // Evaluation errors: the statement prepares, executing it fails.
  EXPECT_EQ(run(StatementKind::kUpdate, "insert E 0 9"),
            "OUT_OF_RANGE: update element 9 outside universe of size 3");
  EXPECT_EQ(run(StatementKind::kTerm, "9223372036854775807 + #(x). (x = x)"),
            "OUT_OF_RANGE: cl-term value overflows int64");
}

TEST(StatementExecution, UpdatesNeedAWritableStructure) {
  Structure a = SmallStructure();
  Result<PreparedStatement> update =
      PrepareStatement(StatementKind::kUpdate, "insert E 1 2", a.signature());
  ASSERT_TRUE(update.ok());
  const Structure& read_only = a;
  Result<std::string> result = ExecuteStatement(*update, read_only, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(a.SizeNorm(), SmallStructure().SizeNorm());

  // A read-only Session refuses the same way; a read-write one applies it.
  Session reader(read_only);
  EXPECT_FALSE(reader.Execute(*update).ok());
  Session writer(&a);
  Result<std::string> applied = writer.Execute(*update);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, "applied");
}

TEST(StatementExecution, UpdatesThroughAContextKeepItsCacheCoherent) {
  // The same statement stream through a warm Session (updates repair the
  // cached artifacts) and through fresh cold evaluations answers alike.
  const std::vector<StatementLine> stream = {
      {StatementKind::kCount, "@ge1(#(y). (E(x, y)))"},
      {StatementKind::kUpdate, "insert E 1 2"},
      {StatementKind::kUpdate, "insert E 2 1"},
      {StatementKind::kCount, "@ge1(#(y). (E(x, y)))"},
      {StatementKind::kTerm, "#(x, y). (E(x, y))"},
      {StatementKind::kUpdate, "delete E 0 1"},
      {StatementKind::kCheck, "exists x. @eq(#(y). (E(x, y)), 2)"},
  };
  Structure warm = SmallStructure();
  Structure cold = SmallStructure();
  Session session(&warm,
                  EvalOptions{.term_engine = TermEngine::kSparseCover});
  for (const StatementLine& line : stream) {
    Result<PreparedStatement> statement =
        PrepareStatement(line.kind, line.text, warm.signature());
    ASSERT_TRUE(statement.ok()) << statement.status().ToString();
    Result<std::string> got = session.Execute(*statement);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, RunStatement(line.kind, line.text, &cold)) << line.text;
  }
  EXPECT_GT(session.context().cache_stats().hits, 0);
}

}  // namespace
}  // namespace focq
