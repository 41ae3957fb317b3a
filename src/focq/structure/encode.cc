#include "focq/structure/encode.h"

#include "focq/util/check.h"

namespace focq {

Structure EncodeGraph(const Graph& g) {
  Signature sig({{kEdgeSymbolName, 2}});
  Structure a(std::move(sig), g.num_vertices());
  std::vector<ElemId> rows;
  for (auto [u, v] : g.Edges()) rows.insert(rows.end(), {u, v, v, u});
  a.AddRows(0, rows);
  return a;
}

Structure EncodeDigraph(std::size_t n,
                        const std::vector<std::pair<ElemId, ElemId>>& arcs) {
  Signature sig({{kEdgeSymbolName, 2}});
  Structure a(std::move(sig), n);
  for (auto [u, v] : arcs) a.AddTuple(0, {u, v});
  return a;
}

Structure EncodeString(const std::string& s, const std::string& alphabet) {
  FOCQ_CHECK(!s.empty());
  Signature sig;
  SymbolId order = sig.AddSymbol(kOrderSymbolName, 2);
  std::vector<SymbolId> letter(256, static_cast<SymbolId>(-1));
  for (char c : alphabet) {
    letter[static_cast<unsigned char>(c)] =
        sig.AddSymbol(std::string("P_") + c, 1);
  }
  Structure a(std::move(sig), s.size());
  for (ElemId i = 0; i < s.size(); ++i) {
    for (ElemId j = i; j < s.size(); ++j) a.AddTuple(order, {i, j});
    SymbolId p = letter[static_cast<unsigned char>(s[i])];
    FOCQ_CHECK_NE(p, static_cast<SymbolId>(-1));
    a.AddTuple(p, {i});
  }
  return a;
}

}  // namespace focq
