/// \file test_contracts.cpp
/// \brief The correctness-tooling layer itself, tested: the contract
///        macros fire (and stay quiet) as specified, the kernel-boundary
///        checks catch a hand-corrupted CSR at the boundary where it
///        enters, and the concept hierarchy classifies every shipped
///        pair the way DESIGN.md §8 says it does.
///
/// This TU forces contracts on and switches violations from abort to
/// throw *before any i2a include* — the per-TU escape hatch contract.hpp
/// documents — so a fired check is an observable exception instead of a
/// dead process.

#ifndef I2A_CHECK_INVARIANTS
#define I2A_CHECK_INVARIANTS 1
#endif
#ifndef I2A_CONTRACT_VIOLATION_THROWS
#define I2A_CONTRACT_VIOLATION_THROWS 1
#endif

#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "algebra/any_pair.hpp"
#include "algebra/concepts.hpp"
#include "algebra/non_examples.hpp"
#include "algebra/pairs.hpp"
#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "sparse/merge.hpp"
#include "sparse/spgemm.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/contract.hpp"
#include "test_util.hpp"

using namespace i2a;

static_assert(I2A_CONTRACTS_ENABLED,
              "this TU defines I2A_CHECK_INVARIANTS before including i2a");

// ---------------------------------------------------------------------------
// Concept hierarchy, pinned at compile time.

// Every paper pair satisfies the full semiring contract (undeclared laws
// default to true — the Table I convention).
static_assert(algebra::Semiring<algebra::PlusTimes<double>>);
static_assert(algebra::Semiring<algebra::MaxTimes<double>>);
static_assert(algebra::Semiring<algebra::MinTimes<double>>);
static_assert(algebra::Semiring<algebra::MaxPlus<double>>);
static_assert(algebra::Semiring<algebra::MinPlus<double>>);
static_assert(algebra::Semiring<algebra::MaxMin<double>>);
static_assert(algebra::Semiring<algebra::MinMax<double>>);
static_assert(algebra::Semiring<algebra::OrAndU8>);
static_assert(algebra::ConformingPair<algebra::PlusTimes<double>>);
static_assert(algebra::ConformingPair<algebra::MinPlus<double>>);
// Type erasure cannot carry compile-time law declarations; AnyPairD must
// pass so the sweep's uniform driver keeps compiling.
static_assert(algebra::Semiring<algebra::AnyPairD>);

// The Section III non-examples land exactly where their declared broken
// law puts them.
static_assert(algebra::Semiring<algebra::SignedPlusTimes<double>> &&
              !algebra::ConformingPair<algebra::SignedPlusTimes<double>>);
static_assert(algebra::Semiring<algebra::GaloisF2> &&
              !algebra::ConformingPair<algebra::GaloisF2>);
static_assert(algebra::Semiring<algebra::BitsetUnionIntersect> &&
              !algebra::ConformingPair<algebra::BitsetUnionIntersect>);
// max.+ on [0,∞): 0 is not an annihilator, so it is not even a Semiring
// — the kernels reject it at the signature (tests/compile_fail pins the
// rejection itself).
static_assert(algebra::CommutativeMonoidAdd<algebra::MaxPlusNonNeg<double>> &&
              !algebra::Semiring<algebra::MaxPlusNonNeg<double>>);

// Structural failures: missing members or wrong signatures never reach
// the law layer.
namespace {
struct MissingMul {
  using value_type = double;
  static constexpr std::string_view name() { return "no ⊗"; }
  double zero() const { return 0.0; }
  double one() const { return 1.0; }
  double add(double a, double b) const { return a + b; }
};
struct WrongAddType {
  using value_type = double;
  static constexpr std::string_view name() { return "⊕ → void"; }
  double zero() const { return 0.0; }
  double one() const { return 1.0; }
  void add(double, double) const {}
  double mul(double a, double b) const { return a * b; }
};
/// PlusTimes with the ⊕-inverse hook — what a deletion-capable pair will
/// look like per the ROADMAP tombstone item.
struct PlusTimesSub {
  using value_type = double;
  static constexpr std::string_view name() { return "+.* (invertible)"; }
  double zero() const { return 0.0; }
  double one() const { return 1.0; }
  double add(double a, double b) const { return a + b; }
  double sub(double a, double b) const { return a - b; }
  double mul(double a, double b) const { return a * b; }
};
}  // namespace
static_assert(!algebra::AlgebraPair<MissingMul>);
static_assert(!algebra::AlgebraPair<WrongAddType>);
static_assert(!algebra::AlgebraPair<int>);

// InvertibleAdd is the deletion gate: on for the toy `sub` pair, off for
// every shipped pair (none has inverses exposed — min/max never will).
static_assert(algebra::InvertibleAdd<PlusTimesSub>);
static_assert(!algebra::InvertibleAdd<algebra::PlusTimes<double>>);
static_assert(!algebra::InvertibleAdd<algebra::MinPlus<double>>);

// ---------------------------------------------------------------------------
// Runtime contract mechanics.

namespace {

void test_macro_mechanics() {
  // A failed check throws ContractViolation carrying kind, location and
  // message; a passing check is silent and evaluates its condition once.
  bool threw = false;
  try {
    I2A_ASSERT(1 + 1 == 3, "arithmetic is broken");
  } catch (const util::ContractViolation& e) {
    threw = true;
    const std::string what = e.what();
    CHECK(what.find("invariant") != std::string::npos);
    CHECK(what.find("arithmetic is broken") != std::string::npos);
    CHECK(what.find("test_contracts.cpp") != std::string::npos);
  }
  CHECK(threw);
  threw = false;
  try {
    I2A_EXPECTS(false, "pre");
  } catch (const util::ContractViolation& e) {
    threw = true;
    CHECK(std::string(e.what()).find("precondition") != std::string::npos);
  }
  CHECK(threw);
  threw = false;
  try {
    I2A_ENSURES(false, "post");
  } catch (const util::ContractViolation& e) {
    threw = true;
    CHECK(std::string(e.what()).find("postcondition") != std::string::npos);
  }
  CHECK(threw);

  int evaluations = 0;
  I2A_ASSERT([&] { return ++evaluations; }(), "evaluated once");
  CHECK_EQ(evaluations, 1);
  // ContractViolation is a library-bug signal, distinct from the
  // argument-validation exceptions kernels throw unconditionally.
  static_assert(std::is_base_of_v<std::logic_error, util::ContractViolation>);
  static_assert(
      !std::is_base_of_v<std::invalid_argument, util::ContractViolation>);
}

/// A structurally corrupt CSR: row 0's columns are out of order. The raw
/// constructor accepts it (it only sizes-checks); the kernel boundaries
/// must not.
sparse::Csr<double> unsorted_csr() {
  return sparse::Csr<double>(2, 3, {0, 2, 3}, {1, 0, 2}, {1.0, 2.0, 3.0});
}

template <typename Fn>
bool violates(Fn&& fn) {
  try {
    fn();
  } catch (const util::ContractViolation&) {
    return true;
  }
  return false;
}

void test_kernel_boundaries_reject_corruption() {
  const algebra::PlusTimes<double> p;
  const auto bad = unsorted_csr();
  CHECK(!bad.is_canonical());
  const auto good = sparse::Csr<double>(3, 2, {0, 1, 2, 2}, {0, 1},
                                        {1.0, 1.0, });
  CHECK(good.is_canonical());

  // Each entry point that assumes canonical input fires its I2A_EXPECTS
  // at the boundary — not an out-of-bounds read three kernels later.
  CHECK(violates([&] { (void)sparse::spgemm(p, bad, good); }));
  // good (3×2) · bad (2×3): dims agree, so the check reaches operand B.
  CHECK(violates([&] { (void)sparse::spgemm(p, good, bad); }));
  CHECK(violates([&] { (void)sparse::spgemm_at_b(p, bad, bad); }));
  CHECK(violates([&] { (void)sparse::transpose(bad); }));
  CHECK(violates([&] {
    const auto a = unsorted_csr();
    const auto b = unsorted_csr();
    (void)sparse::merge(p, a, b);
  }));
  // Dimension disagreement is an argument error, not a library bug: it
  // throws std::invalid_argument in every build (test_spgemm checks the
  // same under NDEBUG), so it never reaches the contract layer.
  bool mismatch_rejected = false;
  try {
    (void)sparse::spgemm(p, good, good);
  } catch (const std::invalid_argument&) {
    mismatch_rejected = true;
  }
  CHECK(mismatch_rejected);
}

void test_clean_paths_stay_quiet() {
  // With every check active, the ordinary pipeline must run silently:
  // the postconditions are supposed to hold.
  const algebra::PlusTimes<double> p;
  graph::Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(0, 1, 5.0);  // parallel edge
  g.add_edge(3, 3, 1.0);  // self-loop
  const auto a = graph::build_adjacency(g, p);
  CHECK(a.is_canonical());
  CHECK_EQ(a.nnz(), 3);
  const auto at = sparse::transpose(a);
  CHECK(at.is_canonical());
  const auto sq = sparse::spgemm(p, a, a);
  CHECK(sq.is_canonical());
  const auto m = sparse::merge(p, a, a);
  CHECK_EQ(m.at(0, 1, 0.0), 2.0 * a.at(0, 1, 0.0));

  stream::AdjacencyBuilder<algebra::PlusTimes<double>> builder(4, p);
  builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});
  builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});  // forces a carry
  builder.ingest(std::vector<graph::Edge>{{2, 3, 1.0}});
  CHECK_EQ(builder.adjacency().nnz(), 2);
}

}  // namespace

int main() {
  test_macro_mechanics();
  test_kernel_boundaries_reject_corruption();
  test_clean_paths_stay_quiet();
  return TEST_MAIN_RESULT();
}
