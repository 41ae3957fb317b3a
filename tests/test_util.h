// Shared helpers for the focq test suite. The seeded random builders live in
// the focq_testing library (src/focq/testing/) so the unit tests and the
// fuzzing harness (tools/focq_fuzz) draw from one distribution; this header
// re-exports them under the historical focq::test names.
#ifndef FOCQ_TESTS_TEST_UTIL_H_
#define FOCQ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "focq/structure/structure.h"
#include "focq/testing/formula_gen.h"
#include "focq/testing/structure_gen.h"
#include "focq/util/rng.h"
#include "focq/util/thread_pool.h"

namespace focq::test {

/// The thread contract's guard: a run asked for more than one effective
/// worker must have submitted tasks to the shared pool, or its "parallel"
/// path silently ran serial (the equivalence check would then compare the
/// serial path with itself). Construct before the run, check after.
class PoolFanOutProbe {
 public:
  PoolFanOutProbe() : before_(Submitted()) {}

  void ExpectFannedOut(int threads) const {
    if (EffectiveThreads(threads) <= 1) return;
    EXPECT_GT(Submitted(), before_)
        << "threads=" << threads << ": the parallel path ran serial";
  }

 private:
  static std::int64_t Submitted() {
    return ThreadPool::Shared().GetStats().tasks_submitted;
  }

  std::int64_t before_;
};

/// A random sparse graph structure ({E/2}, symmetric) with n elements.
inline Structure RandomGraphStructure(std::size_t n, double edge_per_node,
                                      Rng* rng) {
  return fuzz::RandomGraphStructure(n, edge_per_node, rng);
}

/// A random two-relation structure: binary E plus unary R ("red").
inline Structure RandomColoredStructure(std::size_t n, double edge_per_node,
                                        double red_fraction, Rng* rng) {
  return fuzz::RandomColoredStructure(n, edge_per_node, red_fraction, rng);
}

/// A random quantifier-free formula over the given variables, using E, R
/// (if `with_color`), equality and dist atoms with bound <= max_dist.
inline Formula RandomQuantifierFree(const std::vector<Var>& vars, int depth,
                                    bool with_color, std::uint32_t max_dist,
                                    Rng* rng) {
  return fuzz::RandomQuantifierFree(vars, depth, with_color, max_dist, rng);
}

/// A random *guarded* kernel over `vars`: quantifier-free pieces plus
/// ball-guarded quantifiers anchored at the given variables.
inline Formula RandomGuardedKernel(const std::vector<Var>& vars, int depth,
                                   bool with_color, std::uint32_t max_guard,
                                   Rng* rng, int quantifier_budget = 2) {
  return fuzz::RandomGuardedKernel(vars, depth, with_color, max_guard, rng,
                                   quantifier_budget);
}

}  // namespace focq::test

#endif  // FOCQ_TESTS_TEST_UTIL_H_
