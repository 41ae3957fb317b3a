#include "focq/structure/removal.h"

#include "focq/graph/bfs.h"
#include "focq/util/check.h"

namespace focq {

std::string RemovalSymbolName(const std::string& base, unsigned subset_mask) {
  std::string name = base + "~{";
  bool first = true;
  for (int i = 0; subset_mask >> i; ++i) {
    if ((subset_mask >> i) & 1u) {
      if (!first) name += ',';
      name += std::to_string(i + 1);
      first = false;
    }
  }
  name += '}';
  return name;
}

std::string DistanceMarkerName(std::uint32_t i) {
  return "S_" + std::to_string(i);
}

RemovalSignature BuildRemovalSignature(const Signature& sig, std::uint32_t r) {
  RemovalSignature out;
  out.tilde_ids.resize(sig.NumSymbols());
  for (SymbolId s = 0; s < sig.NumSymbols(); ++s) {
    int k = sig.Arity(s);
    FOCQ_CHECK_LT(k, 20);  // subset enumeration must stay tractable
    unsigned num_subsets = 1u << k;
    out.tilde_ids[s].resize(num_subsets);
    for (unsigned mask = 0; mask < num_subsets; ++mask) {
      int removed = __builtin_popcount(mask);
      out.tilde_ids[s][mask] = out.sig.AddSymbol(
          RemovalSymbolName(sig.Name(s), mask), k - removed);
    }
  }
  out.s_markers.reserve(r);
  for (std::uint32_t i = 1; i <= r; ++i) {
    out.s_markers.push_back(out.sig.AddSymbol(DistanceMarkerName(i), 1));
  }
  return out;
}

RemovalResult RemoveElement(const Structure& a, const Graph& gaifman, ElemId d,
                            std::uint32_t r,
                            const RemovalSignature& removal_sig) {
  FOCQ_CHECK_GE(a.universe_size(), 2u);
  FOCQ_CHECK_LT(d, a.universe_size());
  RemovalResult result{Structure(removal_sig.sig, a.universe_size() - 1), d};

  // Relations R~I.
  Tuple projected;
  for (SymbolId s = 0; s < a.signature().NumSymbols(); ++s) {
    for (TupleSpan t : a.relation(s).tuples()) {
      unsigned mask = 0;
      projected.clear();
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i] == d) {
          mask |= 1u << i;
        } else {
          projected.push_back(result.ToLocal(t[i]));
        }
      }
      result.structure.AddTuple(removal_sig.tilde_ids[s][mask], projected);
    }
  }

  // Distance markers S_i = { b : dist_A(d, b) <= i }, b != d.
  if (r > 0) {
    BallExplorer explorer(gaifman);
    const std::vector<VertexId>& ball = explorer.Explore(d, r);
    for (VertexId b : ball) {
      if (b == d) continue;
      std::uint32_t dist = explorer.DistanceOf(b);
      FOCQ_CHECK_GE(dist, 1u);
      for (std::uint32_t i = dist; i <= r; ++i) {
        result.structure.AddTuple(removal_sig.s_markers[i - 1],
                                  {result.ToLocal(b)});
      }
    }
  }
  return result;
}

}  // namespace focq
