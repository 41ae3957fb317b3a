// Overflow-checked integer arithmetic for counting-term evaluation.
//
// FOC(P) counting terms are polynomials over tuple counts; a count of k-tuples
// is bounded by n^k, and term arithmetic multiplies such counts. The paper
// works over Z with a unit-cost numerical-predicate oracle; we substitute
// checked int64 arithmetic (documented in DESIGN.md): any overflow is detected
// and surfaces as an explicit error rather than silent wraparound.
#ifndef FOCQ_UTIL_CHECKED_ARITH_H_
#define FOCQ_UTIL_CHECKED_ARITH_H_

#include <cstdint>
#include <optional>

namespace focq {

/// The integer domain of counting terms.
using CountInt = std::int64_t;

/// Returns a+b, or nullopt on signed overflow.
inline std::optional<CountInt> CheckedAdd(CountInt a, CountInt b) {
  CountInt out;
  if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Returns a-b, or nullopt on signed overflow.
inline std::optional<CountInt> CheckedSub(CountInt a, CountInt b) {
  CountInt out;
  if (__builtin_sub_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Returns a*b, or nullopt on signed overflow.
inline std::optional<CountInt> CheckedMul(CountInt a, CountInt b) {
  CountInt out;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Returns base^exp for exp >= 0, or nullopt on overflow.
std::optional<CountInt> CheckedPow(CountInt base, int exp);

/// Deterministic primality test valid for all int64 values (negative numbers
/// and 0/1 are not prime). Used by the `Prime` numerical predicate.
bool IsPrime(CountInt n);

}  // namespace focq

#endif  // FOCQ_UTIL_CHECKED_ARITH_H_
