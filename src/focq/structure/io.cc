#include "focq/structure/io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>

#include "focq/graph/graph.h"
#include "focq/structure/encode.h"

namespace focq {
namespace {

// The blank characters " \t\r\v\f", tested directly: the reader looks at
// every character, and a set search per character cost 40% of a load.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// Strips a '#' comment and surrounding whitespace; empty result means skip.
std::string_view CleanLine(std::string_view line) {
  line = line.substr(0, line.find('#'));
  while (!line.empty() && IsBlank(line.front())) line.remove_prefix(1);
  while (!line.empty() && IsBlank(line.back())) line.remove_suffix(1);
  return line;
}

// Yields the cleaned, non-empty lines of a text with their 1-based numbers.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  bool Next(std::string_view* line) {
    while (!rest_.empty()) {
      const std::size_t end = rest_.find('\n');
      std::string_view raw = rest_.substr(0, end);
      rest_ = end == std::string_view::npos ? std::string_view()
                                            : rest_.substr(end + 1);
      ++number_;
      *line = CleanLine(raw);
      if (!line->empty()) return true;
    }
    return false;
  }

  int number() const { return number_; }

 private:
  std::string_view rest_;
  int number_ = 0;
};

// Yields the whitespace-separated words of one cleaned line.
class WordReader {
 public:
  explicit WordReader(std::string_view line) : rest_(line) {}

  bool Next(std::string_view* word) {
    while (!rest_.empty() && IsBlank(rest_.front())) rest_.remove_prefix(1);
    if (rest_.empty()) return false;
    std::size_t end = 1;
    while (end < rest_.size() && !IsBlank(rest_[end])) ++end;
    *word = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return true;
  }

 private:
  std::string_view rest_;
};

// Parses a whole unsigned decimal word: no sign, no junk, no overflow.
template <typename T>
std::errc ParseUnsigned(std::string_view word, T* value) {
  if (word.empty() || word[0] < '0' || word[0] > '9') {
    return std::errc::invalid_argument;
  }
  auto [end, ec] = std::from_chars(word.data(), word.data() + word.size(),
                                   *value);
  // On overflow from_chars still consumes every digit, so trailing junk is
  // reported as junk rather than as an out-of-range number.
  if (end != word.data() + word.size()) return std::errc::invalid_argument;
  return ec;
}

}  // namespace

Result<Structure> ReadStructure(const std::string& text) {
  int line_number = 0;
  auto fail = [&line_number](const std::string& msg) {
    return Status::InvalidArgument("line " + std::to_string(line_number) +
                                   ": " + msg);
  };
  std::string_view line, word;

  // Phase 1: find the universe line and collect the full signature, so the
  // Structure can be created before tuples are inserted.
  std::optional<std::size_t> universe;
  Signature sig;
  for (LineReader lines(text); lines.Next(&line);) {
    WordReader words(line);
    words.Next(&word);
    if (word == "universe") {
      line_number = lines.number();
      std::size_t n = 0;
      if (!words.Next(&word) || ParseUnsigned(word, &n) != std::errc() ||
          n == 0) {
        return fail("expected 'universe <positive count>'");
      }
      if (universe.has_value()) return fail("duplicate universe declaration");
      universe = n;
    } else if (word == "relation") {
      line_number = lines.number();
      std::string_view name;
      int arity = 0;
      if (!words.Next(&name) || !words.Next(&word) ||
          ParseUnsigned(word, &arity) != std::errc()) {
        return fail("expected 'relation <name> <arity>'");
      }
      if (sig.Contains(std::string(name))) {
        return fail("duplicate relation '" + std::string(name) + "'");
      }
      sig.AddSymbol(std::string(name), arity);
    }
  }
  if (!universe.has_value()) {
    return Status::InvalidArgument("missing 'universe <count>' declaration");
  }

  // Phase 2: tuples. Each relation's block is collected as flat rows and
  // added in one AddRows call, which sizes the relation's index once and
  // drops later duplicates.
  Structure a(std::move(sig), *universe);
  std::optional<SymbolId> current;
  std::vector<ElemId> rows;
  auto flush = [&a, &current, &rows] {
    if (current.has_value()) a.AddRows(*current, rows);
    rows.clear();
  };
  for (LineReader lines(text); lines.Next(&line);) {
    line_number = lines.number();
    WordReader words(line);
    words.Next(&word);
    if (word == "universe") continue;
    if (word == "relation") {
      flush();
      words.Next(&word);
      current = a.signature().Find(std::string(word));
      continue;
    }
    if (!current.has_value()) {
      return fail("tuple before any 'relation' declaration");
    }
    const int arity = a.signature().Arity(*current);
    if (word == "()") {
      if (arity != 0) return fail("'()' is only valid for arity-0 relations");
      if (words.Next(&word)) return fail("unexpected text after '()'");
      a.AddTuple(*current, {});
      continue;
    }
    const std::size_t start = rows.size();
    do {
      ElemId id = 0;
      const std::errc ec = ParseUnsigned(word, &id);
      if (ec == std::errc::invalid_argument) {
        return fail("expected an unsigned element id, got '" +
                    std::string(word) + "'");
      }
      if (ec != std::errc() || id >= *universe) {
        return fail("element id " + std::string(word) +
                    " outside the universe");
      }
      rows.push_back(id);
    } while (words.Next(&word));
    if (rows.size() - start != static_cast<std::size_t>(arity)) {
      return fail("expected " + std::to_string(arity) + " ids, got " +
                  std::to_string(rows.size() - start));
    }
  }
  flush();
  return a;
}

Result<Structure> ReadStructureFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadStructure(buffer.str());
}

std::string WriteStructure(const Structure& a) {
  std::ostringstream out;
  out << "universe " << a.universe_size() << "\n";
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    out << "relation " << a.signature().Name(id) << " "
        << a.signature().Arity(id) << "\n";
    for (TupleSpan t : a.relation(id).tuples()) {
      if (t.empty()) {
        out << "()\n";
        continue;
      }
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ' ';
        out << t[i];
      }
      out << "\n";
    }
  }
  return out.str();
}

Result<Structure> ReadEdgeList(const std::string& text,
                               std::size_t min_vertices) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::size_t n = min_vertices;
  std::string_view line, word;
  for (LineReader lines(text); lines.Next(&line);) {
    WordReader words(line);
    VertexId u = 0, v = 0;
    if (!words.Next(&word) || ParseUnsigned(word, &u) != std::errc() ||
        !words.Next(&word) || ParseUnsigned(word, &v) != std::errc() ||
        words.Next(&word)) {
      return Status::InvalidArgument("edge list line " +
                                     std::to_string(lines.number()) +
                                     ": expected two non-negative ids");
    }
    edges.emplace_back(u, v);
    n = std::max<std::size_t>({n, std::size_t{u} + 1, std::size_t{v} + 1});
  }
  if (n == 0) {
    return Status::InvalidArgument("edge list describes an empty structure");
  }
  Graph g(n);
  for (auto [u, v] : edges) g.AddEdge(u, v);
  g.Finalize();
  return EncodeGraph(g);
}

}  // namespace focq
