#include "focq/structure/gaifman.h"

namespace focq {

Graph BuildGaifmanGraph(const Structure& a) {
  Graph g(a.universe_size());
  // A first pass counts each vertex's endpoints (an upper bound on its
  // list before Finalize deduplicates), so every list is allocated once.
  std::vector<std::size_t> endpoints(a.universe_size(), 0);
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    if (a.signature().Arity(id) < 2) continue;
    for (TupleSpan t : a.relation(id).tuples()) {
      for (ElemId e : t) endpoints[e] += t.size() - 1;
    }
  }
  for (VertexId v = 0; v < endpoints.size(); ++v) {
    g.ReserveEndpoints(v, endpoints[v]);
  }
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    for (TupleSpan t : a.relation(id).tuples()) {
      for (std::size_t i = 0; i < t.size(); ++i) {
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (t[i] != t[j]) g.AddEdge(t[i], t[j]);
        }
      }
    }
  }
  g.Finalize();
  return g;
}

}  // namespace focq
