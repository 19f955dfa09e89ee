// Fuzz harness for the solver-cache key: two conjunctions decoded from
// arbitrary bytes must get equal keys exactly when they are structurally
// equal (operator==), as Sat, Simplify and Entails questions. Any
// disagreement would let the cache serve one question's answer for
// another, or miss a question it holds.
//
// Input layout, read bytewise (reads past the end yield 0): per
// conjunction an atom count, then per atom a constant, a term count,
// (variable, coefficient) pairs and a relop. A coefficient is a tag byte
// selecting a small value, a fraction, INT64_MIN, or a value of either
// sign just past the int64 range, plus the bytes that value needs.
//
// Build with -DLYRIC_FUZZERS=ON (libFuzzer under Clang, corpus-replay
// driver elsewhere; see CMakeLists.txt).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "constraint/solver_cache.h"

namespace {

using lyric::BigInt;
using lyric::Conjunction;
using lyric::Rational;
using lyric::SolverCache;

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }
  int64_t NextSigned() { return static_cast<int8_t>(Next()); }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Rational Coefficient(Reader& in) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (in.Next() % 6) {
    case 0:
      return Rational(kMin);
    case 1:
      return Rational(BigInt(kMax) + BigInt(in.Next()), BigInt(1));
    case 2:
      return Rational(-(BigInt(kMax) + BigInt(in.Next())), BigInt(1));
    case 3: {
      const int64_t num = in.NextSigned();
      const int64_t den = in.NextSigned();
      return Rational(num, den == 0 ? 1 : den);
    }
    default:
      return Rational(in.NextSigned());
  }
}

Conjunction Decode(Reader& in) {
  static const lyric::VarId kVars[] = {lyric::Variable::Intern("fa"),
                                       lyric::Variable::Intern("fb"),
                                       lyric::Variable::Intern("fc")};
  std::vector<lyric::LinearConstraint> atoms;
  const size_t n = in.Next() % 5;
  for (size_t i = 0; i < n; ++i) {
    lyric::LinearExpr lhs(Coefficient(in));
    const size_t terms = in.Next() % 4;
    for (size_t t = 0; t < terms; ++t) {
      const lyric::VarId var = kVars[in.Next() % 3];
      lhs.AddTerm(var, Coefficient(in));
    }
    atoms.emplace_back(lhs, static_cast<lyric::RelOp>(in.Next() % 4));
  }
  return Conjunction(std::move(atoms));
}

std::string Key(const SolverCache::Question& q) {
  std::string out;
  SolverCache::EncodeKey(q, &out);
  return out;
}

void Check(const SolverCache::Question& a, const SolverCache::Question& b,
           bool equal) {
  if ((Key(a) == Key(b)) != equal) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 4096) return 0;
  Reader in(data, size);
  const Conjunction a = Decode(in);
  const Conjunction b = Decode(in);
  const bool same = a == b;
  using Q = SolverCache::Question;
  Check(Q::Sat(a), Q::Sat(b), same);
  const auto level = static_cast<lyric::CanonicalLevel>(in.Next() % 3);
  Check(Q::Simplify(a, level), Q::Simplify(b, level), same);
  Check(Q::Sat(a), Q::Simplify(a, level), false);
  const lyric::Dnf da(a);
  const lyric::Dnf db(b);
  Check(Q::Entails(a, db), Q::Entails(b, da), same && da == db);
  return 0;
}
