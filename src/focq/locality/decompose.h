// The decomposition machinery of Section 6 (Lemma 6.4): turning a counting
// term #(y-bar). psi -- with psi an r-local kernel -- into a cl-term, i.e. an
// integer polynomial over *connected* basic cl-terms.
//
// The algorithm follows the paper's induction on the number of connected
// components of the distance pattern G:
//
//   #y-bar.psi  =  sum over G in G_k of  #y-bar.(psi and delta_{G,2r+1})
//
//   * G connected: a basic cl-term, done.
//   * G disconnected, V' the component of y1, V'' the rest:
//       1. *Purify* psi under delta_{G,2r+1}: every atom whose variables are
//          anchored in different components is provably false (elements of a
//          relational tuple are Gaifman-adjacent, while the components are
//          2r+1-separated), so it is replaced by `false`.
//       2. *Split*: the purified kernel is a Boolean combination of
//          component-pure pieces; Shannon expansion over the pieces yields
//          mutually exclusive conjunctions psi'_i(y-bar') and psi''_i(y-bar'').
//          This realises the Feferman-Vaught step of the paper's proof
//          exactly, on the guarded fragment (substitution #2 in DESIGN.md).
//       3. *Inclusion-exclusion*:
//            #(psi'_i and psi''_i and delta_G)
//              = #(psi' and delta_G') * #(psi'' and delta_G'')
//                - sum over H in CrossingSupergraphs(G,V',V'') of
//                      #(psi' and psi'' and delta_H),
//          recursing on patterns with fewer components.
#ifndef FOCQ_LOCALITY_DECOMPOSE_H_
#define FOCQ_LOCALITY_DECOMPOSE_H_

#include <cstdint>
#include <vector>

#include "focq/locality/cl_term.h"
#include "focq/locality/local_eval.h"
#include "focq/logic/expr.h"
#include "focq/util/status.h"

namespace focq {

/// Result of a decomposition: the cl-term plus the locality radius used.
struct Decomposition {
  ClTerm term;
  std::uint32_t radius = 0;
};

/// Decomposes the counting term
///   unary == false:  #(vars). kernel            (ground, width |vars|)
///   unary == true:   #(vars[1..]). kernel       (unary in vars[0])
/// into a cl-term. `kernel` must be a guarded FO+ formula with
/// free(kernel) within vars; the locality radius is computed syntactically.
/// Returns Unsupported if the kernel is outside the guarded fragment or the
/// splitting step encounters a mixed piece under a quantifier.
Result<Decomposition> DecomposeCount(const std::vector<Var>& vars, bool unary,
                                     const Formula& kernel);

/// Lemma 6.4 inner step, exposed for tests: the cl-term for
/// #(...).(kernel and delta_{G,2r+1}) with the given pattern.
Result<ClTerm> CountWithPattern(const Formula& kernel,
                                const std::vector<Var>& vars, bool unary,
                                std::uint32_t r, const PatternGraph& g);

/// Boolean constant folding (true/false propagation through not/and/or).
ExprRef FoldConstants(const ExprRef& e);

/// Theorem 6.8 helper: the ground cl-term g_chi for a basic local sentence
///   chi = exists y1..yk ( /\_{i<j} dist(yi,yj) > 2r  and  /\_i psi(y_i) )
/// such that chi holds iff g_chi >= 1. `psi` must be a guarded kernel with
/// exactly one free variable `y`; the sentence uses k copies.
Result<Decomposition> BasicLocalSentenceTerm(int k, std::uint32_t r,
                                             Var y, const Formula& psi);

}  // namespace focq

#endif  // FOCQ_LOCALITY_DECOMPOSE_H_
