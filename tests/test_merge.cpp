/// \file test_merge.cpp
/// \brief Differential + edge-case suite for the parallel semiring
///        ⊕-merge (sparse/merge.hpp): every engine output is bitwise
///        -compared against `merge_add_reference` below (a deliberately
///        independent concatenate/stable-sort/fold-left oracle) across
///        pool sizes and the three layout pairs (dense → dense,
///        hypersparse → hypersparse, hypersparse → dense), and stored
///        zeros and the exception-from-chunk semantics are pinned
///        explicitly.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/merge.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;
using i2a::test::dcsr_bitwise_equal;

/// Serial oracle (the `from_coo_reference` pattern): per row, concatenate
/// the runs' entries in run order, stable sort by column, fold left.
/// Deliberately shares no code with the engine.
template <typename T, typename Add>
sparse::Csr<T> merge_add_reference(const std::vector<const sparse::Csr<T>*>& runs,
                                   const Add& add) {
  const index_t nrows = runs.at(0)->nrows();
  const index_t ncols = runs[0]->ncols();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  std::vector<index_t> cols;
  std::vector<T> vals;
  std::vector<std::pair<index_t, T>> buf;
  for (index_t r = 0; r < nrows; ++r) {
    buf.clear();
    for (const auto* m : runs) {
      const auto cs = m->row_cols(r);
      const auto vs = m->row_vals(r);
      for (std::size_t i = 0; i < cs.size(); ++i) {
        buf.emplace_back(cs[i], vs[i]);
      }
    }
    std::stable_sort(
        buf.begin(), buf.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t i = 0; i < buf.size();) {
      T acc = buf[i].second;
      std::size_t j = i + 1;
      for (; j < buf.size() && buf[j].first == buf[i].first; ++j) {
        acc = add(acc, buf[j].second);
      }
      cols.push_back(buf[i].first);
      vals.push_back(acc);
      ++row_ptr[static_cast<std::size_t>(r) + 1];
      i = j;
    }
  }
  for (index_t r = 0; r < nrows; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] +=
        row_ptr[static_cast<std::size_t>(r)];
  }
  return sparse::Csr<T>(nrows, ncols, std::move(row_ptr), std::move(cols),
                        std::move(vals));
}

double plus(const double& a, const double& b) { return a + b; }

/// C = a ⊕ b, a folding first: the two-run dense merge.
template <typename Add>
sparse::Csr<double> merge_pair(const sparse::Csr<double>& a,
                               const sparse::Csr<double>& b, const Add& add,
                               util::ThreadPool* pool = nullptr) {
  return sparse::merge_add_k(std::vector<const sparse::Csr<double>*>{&a, &b},
                             add, pool);
}

/// The same two runs, compressed to hypersparse and merged into `Out`.
template <template <typename> class Out, typename Add>
Out<double> merge_pair_hyper(const sparse::Dcsr<double>& a,
                             const sparse::Dcsr<double>& b, const Add& add,
                             util::ThreadPool* pool = nullptr) {
  return sparse::merge_add_k<sparse::Dcsr, Out>(
      std::vector<const sparse::Dcsr<double>*>{&a, &b}, add, pool);
}

sparse::Csr<double> random_csr(index_t nr, index_t nc, index_t nnz,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  coo.reserve(static_cast<std::size_t>(nnz));
  for (index_t i = 0; i < nnz; ++i) {
    // Integer values keep FP + exact, so fold *order* differences would
    // still be caught while reassociation noise cannot hide them.
    coo.push(static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(nr)),
             static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(nc)),
             static_cast<double>(1 + rng.next() % 7));
  }
  return sparse::Csr<double>::from_coo(std::move(coo));
}

/// Engine vs oracle across pool sizes {serial, 1, 4, 8}, bitwise.
void check_matches_reference(const std::vector<const sparse::Csr<double>*>& runs) {
  const auto expected = merge_add_reference(runs, plus);
  const auto serial = sparse::merge_add_k(runs, plus);
  CHECK(csr_bitwise_equal(serial, expected));
  for (const std::size_t threads : {1u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const auto got = sparse::merge_add_k(runs, plus, &pool);
    CHECK(csr_bitwise_equal(got, expected));
  }
}

void test_empty_delta() {
  const auto master = random_csr(40, 40, 120, 1);
  const sparse::Csr<double> empty(
      40, 40, std::vector<index_t>(41, 0), {}, {});
  check_matches_reference({&master, &empty});
  check_matches_reference({&empty, &master});
  check_matches_reference({&empty, &empty});
  // Merging an empty delta is the identity, bit for bit.
  util::ThreadPool pool(4);
  CHECK(csr_bitwise_equal(merge_pair(master, empty, plus, &pool), master));
}

void test_disjoint_delta() {
  // Master in columns [0, 20), delta in columns [20, 40): pure
  // interleave, ⊕ never fires.
  sparse::Coo<double> ca(30, 40), cb(30, 40);
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    ca.push(static_cast<index_t>(rng.next() % 30),
            static_cast<index_t>(rng.next() % 20), 2.0);
    cb.push(static_cast<index_t>(rng.next() % 30),
            static_cast<index_t>(20 + rng.next() % 20), 3.0);
  }
  const auto a = sparse::Csr<double>::from_coo(std::move(ca));
  const auto b = sparse::Csr<double>::from_coo(std::move(cb));
  check_matches_reference({&a, &b});
  const auto merged = merge_pair(a, b, plus);
  CHECK_EQ(merged.nnz(), a.nnz() + b.nnz());
}

void test_fully_overlapping_delta() {
  // Identical patterns: every entry folds, nnz stays put, values double.
  const auto a = random_csr(25, 25, 200, 9);
  check_matches_reference({&a, &a});
  const auto merged = merge_pair(a, a, plus);
  CHECK_EQ(merged.nnz(), a.nnz());
  for (index_t r = 0; r < a.nrows(); ++r) {
    const auto mv = merged.row_vals(r);
    const auto av = a.row_vals(r);
    for (std::size_t k = 0; k < mv.size(); ++k) {
      CHECK_EQ(mv[k], 2 * av[k]);
    }
  }
}

void test_kway_random() {
  // The ladder's shape: several runs of very different sizes, merged in
  // one k-way pass, against the oracle, all pool sizes.
  std::vector<sparse::Csr<double>> owned;
  owned.push_back(random_csr(60, 50, 400, 21));
  owned.push_back(random_csr(60, 50, 100, 22));
  owned.push_back(random_csr(60, 50, 25, 23));
  owned.push_back(random_csr(60, 50, 7, 24));
  owned.push_back(sparse::Csr<double>(
      60, 50, std::vector<index_t>(61, 0), {}, {}));
  std::vector<const sparse::Csr<double>*> runs;
  for (const auto& m : owned) runs.push_back(&m);
  check_matches_reference(runs);
  // Fold order is run order: with a non-commutative ⊕ (keep-right),
  // permuting the runs must change the bytes exactly as the oracle says.
  const auto keep_right = [](const double&, const double& y) { return y; };
  std::vector<const sparse::Csr<double>*> reversed(runs.rbegin(),
                                                   runs.rend());
  const auto fwd = sparse::merge_add_k(runs, keep_right);
  const auto rev = sparse::merge_add_k(reversed, keep_right);
  CHECK(csr_bitwise_equal(fwd,
                      merge_add_reference(runs, keep_right)));
  CHECK(csr_bitwise_equal(rev,
                      merge_add_reference(reversed, keep_right)));
}

void test_explicit_zero_entries() {
  // Every stored entry survives a merge, stored zeros included — whether
  // stored in an input or manufactured by the fold (+1 ⊕ -1). This is
  // what the SpGEMM engine produces, so the bytes match a rebuild.
  sparse::Coo<double> ca(4, 4), cb(4, 4);
  ca.push(0, 0, 0.0);   // stored zero, unmatched: kept
  ca.push(0, 1, 1.0);
  ca.push(1, 2, 1.0);   // +1 ⊕ -1 → stored 0: kept
  ca.push(2, 3, 2.0);   // folded with 3.0
  cb.push(1, 2, -1.0);
  cb.push(2, 3, 3.0);
  cb.push(3, 3, 0.0);   // stored zero in the delta: kept
  const auto a = sparse::Csr<double>::from_coo(std::move(ca));
  const auto b = sparse::Csr<double>::from_coo(std::move(cb));
  check_matches_reference({&a, &b});
  const auto kept = merge_pair(a, b, plus);
  CHECK_EQ(kept.nnz(), 5);
  CHECK_EQ(kept.at(0, 0, -1.0), 0.0);
  CHECK_EQ(kept.at(1, 2, -1.0), 0.0);
  CHECK_EQ(kept.at(2, 3, -1.0), 5.0);
  CHECK_EQ(kept.at(3, 3, -1.0), 0.0);
  // The hypersparse pairs keep them too.
  const auto ha = sparse::Dcsr<double>::compress(a);
  const auto hb = sparse::Dcsr<double>::compress(b);
  CHECK(csr_bitwise_equal(merge_pair_hyper<sparse::Csr>(ha, hb, plus), kept));
  CHECK(dcsr_bitwise_equal(merge_pair_hyper<sparse::Dcsr>(ha, hb, plus),
                           sparse::Dcsr<double>::compress(kept)));
}

void test_exception_from_chunk() {
  // ⊕ throwing inside a worker chunk must surface on the caller, under
  // every pool size, for each layout pair: dense → dense, hypersparse →
  // hypersparse (the ladder) and hypersparse → dense (materialize). The
  // count pass never calls ⊕, so the throw comes from the scatter pass.
  const auto a = random_csr(64, 32, 300, 31);
  const auto b = random_csr(64, 32, 300, 32);
  const auto ha = sparse::Dcsr<double>::compress(a);
  const auto hb = sparse::Dcsr<double>::compress(b);
  const auto expected = merge_add_reference<double>({&a, &b}, plus);
  struct Boom {};
  const auto throwing = [](const double&, const double&) -> double {
    throw Boom{};
  };
  const auto throws = [](const auto& call) {
    try {
      (void)call();
    } catch (const Boom&) {
      return true;
    }
    return false;
  };
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  pools.push_back(std::make_unique<util::ThreadPool>(2));
  pools.push_back(std::make_unique<util::ThreadPool>(8));
  for (const auto& owned : pools) {
    util::ThreadPool* pool = owned.get();
    CHECK(throws([&] { return merge_pair(a, b, throwing, pool); }));
    CHECK(throws([&] {
      return merge_pair_hyper<sparse::Dcsr>(ha, hb, throwing, pool);
    }));
    CHECK(throws([&] {
      return merge_pair_hyper<sparse::Csr>(ha, hb, throwing, pool);
    }));
    // The pool must remain serviceable after capturing the throw.
    CHECK(csr_bitwise_equal(merge_pair(a, b, plus, pool), expected));
    CHECK(dcsr_bitwise_equal(merge_pair_hyper<sparse::Dcsr>(ha, hb, plus, pool),
                             sparse::Dcsr<double>::compress(expected)));
    CHECK(csr_bitwise_equal(merge_pair_hyper<sparse::Csr>(ha, hb, plus, pool),
                            expected));
  }
}

void test_shape_mismatch_rejected() {
  const auto a = random_csr(10, 10, 20, 41);
  const auto b = random_csr(10, 11, 20, 42);
  bool threw = false;
  try {
    (void)merge_pair(a, b, plus);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)sparse::merge_add_k(std::vector<const sparse::Csr<double>*>{},
                              plus);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_zero_row_matrices() {
  const sparse::Csr<double> a(0, 5, {0}, {}, {});
  const sparse::Csr<double> b(0, 5, {0}, {}, {});
  util::ThreadPool pool(4);
  const auto merged = merge_pair(a, b, plus, &pool);
  CHECK_EQ(merged.nrows(), 0);
  CHECK_EQ(merged.nnz(), 0);
}

/// n x n-ish run whose non-empty rows are exactly `rows`, each holding
/// 1..4 random columns; values are small integers (negative ones too when
/// `signed_vals`, so a + fold can cancel to zero).
sparse::Csr<double> rows_csr(index_t nr, index_t nc,
                             const std::vector<index_t>& rows,
                             std::uint64_t seed, bool signed_vals) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  for (const index_t r : rows) {
    const auto per_row = static_cast<int>(1 + rng.next() % 4);
    for (int i = 0; i < per_row; ++i) {
      const auto c = static_cast<index_t>(
          rng.next() % static_cast<std::uint64_t>(nc));
      const auto v = static_cast<double>(1 + rng.next() % 3);
      coo.push(r, c, signed_vals && rng.next() % 2 ? -v : v);
    }
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

/// The rows a run-set shape stores for run `i` of `k`.
std::vector<index_t> shape_rows(int shape, index_t nr, std::size_t i,
                                std::size_t k, util::Xoshiro256& rng) {
  std::vector<index_t> rows;
  switch (shape) {
    case 0:  // hypersparse: a few random rows each, overlapping by chance
      for (int j = 0; j < 5; ++j) {
        rows.push_back(static_cast<index_t>(
            rng.next() % static_cast<std::uint64_t>(nr)));
      }
      break;
    case 1:  // disjoint row sets: run i owns rows ≡ i (mod k)
      for (index_t r = static_cast<index_t>(i); r < nr;
           r += static_cast<index_t>(k)) {
        rows.push_back(r);
      }
      break;
    case 2:  // every row non-empty
      for (index_t r = 0; r < nr; ++r) rows.push_back(r);
      break;
    default:  // empty run, except the first (row 0 and the last row)
      if (i == 0) rows = {0, nr - 1};
      break;
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// The kernel against the oracle on the three layout pairs, over
/// hypersparse, disjoint, full and near-empty run sets, k = 1..8, pools
/// {serial, 1, 4}, with unsigned and signed values (a signed + fold can
/// cancel to a stored zero, which must survive).
void test_layout_differential() {
  const index_t nr = 37;
  const index_t nc = 29;
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  pools.push_back(std::make_unique<util::ThreadPool>(1));
  pools.push_back(std::make_unique<util::ThreadPool>(4));
  std::uint64_t seed = 1000;
  for (std::size_t k = 1; k <= 8; ++k) {
    for (int shape = 0; shape < 4; ++shape) {
      for (const bool signed_vals : {false, true}) {
        util::Xoshiro256 rng(++seed);
        std::vector<sparse::Csr<double>> dense;
        for (std::size_t i = 0; i < k; ++i) {
          dense.push_back(rows_csr(nr, nc, shape_rows(shape, nr, i, k, rng),
                                   rng.next(), signed_vals));
        }
        std::vector<sparse::Dcsr<double>> hyper;
        std::vector<const sparse::Csr<double>*> dense_ptrs;
        for (const auto& m : dense) {
          hyper.push_back(sparse::Dcsr<double>::compress(m));
          dense_ptrs.push_back(&m);
          CHECK(csr_bitwise_equal(hyper.back().to_csr(), m));
        }
        std::vector<const sparse::Dcsr<double>*> hyper_ptrs;
        for (const auto& m : hyper) hyper_ptrs.push_back(&m);
        const auto expected = merge_add_reference(dense_ptrs, plus);
        const auto expected_hyper = sparse::Dcsr<double>::compress(expected);
        for (const auto& pool : pools) {
          CHECK(csr_bitwise_equal(
              sparse::merge_add_k(dense_ptrs, plus, pool.get()), expected));
          const auto h = sparse::merge_add_k(hyper_ptrs, plus, pool.get());
          CHECK(dcsr_bitwise_equal(h, expected_hyper));
          CHECK(h.is_canonical());
          CHECK(csr_bitwise_equal(
              sparse::merge_add_k<sparse::Dcsr, sparse::Csr>(
                  hyper_ptrs, plus, pool.get()),
              expected));
        }
      }
    }
  }
}

/// The DCSR layout itself: compress/to_csr round trip, row lookup, the
/// dense row pointer it generates, and the canonical-form validator.
void test_dcsr_layout() {
  const auto dense = rows_csr(20, 10, {0, 3, 4, 19}, 5, false);
  const auto h = sparse::Dcsr<double>::compress(dense);
  CHECK(h.is_canonical());
  CHECK_EQ(h.stored_rows(), 4u);
  CHECK(h.row_ids() == (std::vector<index_t>{0, 3, 4, 19}));
  CHECK_EQ(h.nnz(), dense.nnz());
  CHECK(csr_bitwise_equal(h.to_csr(), dense));
  for (index_t r = 0; r < 20; ++r) {
    const index_t k = h.find_row(r);
    CHECK_EQ(k >= 0, dense.row_nnz(r) > 0);
    if (k >= 0) {
      const auto cs = h.stored_cols(k);
      const auto ds = dense.row_cols(r);
      CHECK(std::equal(cs.begin(), cs.end(), ds.begin(), ds.end()));
    }
  }
  const auto tail = sparse::Dcsr<double>::compress(
      rows_csr(20, 10, {5, 9, 10}, 6, false));
  CHECK_EQ(tail.find_row(0), -1);
  CHECK_EQ(tail.find_row(5), 0);
  CHECK_EQ(tail.find_row(7), -1);
  CHECK_EQ(tail.find_row(9), 1);
  CHECK_EQ(tail.find_row(10), 2);
  CHECK_EQ(tail.find_row(19), -1);
  std::vector<index_t> rp;
  h.for_each_dense_row_ptr([&rp](index_t r, index_t v) {
    CHECK_EQ(static_cast<std::size_t>(r), rp.size());
    rp.push_back(v);
  });
  CHECK(rp == dense.row_ptr());
  const sparse::Dcsr<double> empty(7, 7, {}, {0}, {}, {});
  CHECK(empty.is_canonical());
  CHECK(csr_bitwise_equal(empty.to_csr(),
                          sparse::Csr<double>(7, 7, std::vector<index_t>(8, 0),
                                              {}, {})));
  // Each malformed layout is refused by the validator.
  using D = sparse::Dcsr<double>;
  CHECK(!D(4, 4, {1, 1}, {0, 1, 2}, {0, 1}, {1.0, 1.0}).is_canonical());
  CHECK(!D(4, 4, {2, 1}, {0, 1, 2}, {0, 1}, {1.0, 1.0}).is_canonical());
  CHECK(!D(4, 4, {1, 4}, {0, 1, 2}, {0, 1}, {1.0, 1.0}).is_canonical());
  CHECK(!D(4, 4, {-1, 2}, {0, 1, 2}, {0, 1}, {1.0, 1.0}).is_canonical());
  CHECK(!D(4, 4, {1, 2}, {0, 0, 2}, {0, 1}, {1.0, 1.0}).is_canonical());
  CHECK(!D(4, 4, {1, 2}, {0, 1, 1}, {0}, {1.0}).is_canonical());
  CHECK(!D(4, 4, {1}, {1, 2}, {0, 1}, {1.0, 1.0}).is_canonical());
  CHECK(!D(4, 4, {1}, {0, 2}, {1, 1}, {1.0, 1.0}).is_canonical());
  CHECK(!D(4, 4, {1}, {0, 2}, {1, 4}, {1.0, 1.0}).is_canonical());
  CHECK(D(4, 4, {1, 3}, {0, 2, 3}, {0, 3, 2}, {1.0, 1.0, 1.0}).is_canonical());
}

/// Column ids at the top of the 32-bit range: 4-row arrays with
/// ncols = 2^32 and entries in column 2^32 − 1 (folded across both runs
/// in row 0, alone in row 3) go through `compress`, both hypersparse
/// merges and `to_csr` bit for bit, and `compress` refuses one more
/// column.
void test_dcsr_32bit_column_edge() {
  constexpr index_t kCols = index_t{1} << 32;
  constexpr index_t kTop = kCols - 1;
  const sparse::Csr<double> a(4, kCols, {0, 2, 2, 3, 4}, {5, kTop, 0, 1},
                              {1.0, 2.0, 3.0, 4.0});
  const sparse::Csr<double> b(4, kCols, {0, 1, 2, 2, 3}, {kTop, kTop - 1, kTop},
                              {5.0, 6.0, 7.0});
  const auto ha = sparse::Dcsr<double>::compress(a);
  const auto hb = sparse::Dcsr<double>::compress(b);
  CHECK(ha.is_canonical());
  CHECK_EQ(ha.cols()[1], std::uint32_t{0xffffffff});
  CHECK(csr_bitwise_equal(ha.to_csr(), a));
  CHECK(csr_bitwise_equal(hb.to_csr(), b));
  const auto expected = merge_add_reference(
      std::vector<const sparse::Csr<double>*>{&a, &b}, plus);
  CHECK_EQ(expected.at(0, kTop, 0.0), 7.0);
  util::ThreadPool pool(4);
  for (util::ThreadPool* pl : {static_cast<util::ThreadPool*>(nullptr),
                               &pool}) {
    const auto hyper = merge_pair_hyper<sparse::Dcsr>(ha, hb, plus, pl);
    CHECK(dcsr_bitwise_equal(hyper,
                             sparse::Dcsr<double>::compress(expected)));
    CHECK(csr_bitwise_equal(hyper.to_csr(), expected));
    CHECK(csr_bitwise_equal(merge_pair_hyper<sparse::Csr>(ha, hb, plus, pl),
                            expected));
  }
  bool threw = false;
  try {
    (void)sparse::Dcsr<double>::compress(
        sparse::Csr<double>(4, kCols + 1, {0, 0, 0, 0, 1}, {kCols}, {1.0}));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_empty_delta();
  test_disjoint_delta();
  test_fully_overlapping_delta();
  test_kway_random();
  test_explicit_zero_entries();
  test_exception_from_chunk();
  test_shape_mismatch_rejected();
  test_zero_row_matrices();
  test_layout_differential();
  test_dcsr_layout();
  test_dcsr_32bit_column_edge();
  return TEST_MAIN_RESULT();
}
