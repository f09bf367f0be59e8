/// \file i2a_e2e.cpp
/// \brief End-to-end wall-clock benchmark of the durable, sharded,
///        read-while-write path (see README.md for the workloads, the
///        metrics and the layer each metric belongs to).
///
///   i2a_e2e --workload NAME --seed S [--seconds T] [--trace FILE]
///           [--smoke] [--workdir DIR]
///
/// One process per workload. Inputs are generated from the seed; the
/// program under test sees only the public API. A run repeats whole
/// rounds (set up, ingest, drain, verify, recover) until `--seconds` have
/// passed, and prints every metric as `name value unit`, medians over the
/// rounds. Provenance lines start with `@`. Every round checks its
/// outputs; any mismatch prints `correct 0` and exits 1.
///
/// `--trace FILE` runs a warm-up round, then pairs of one untraced and
/// one traced round in alternating order; the first traced round is
/// followed by the layer replay (replay.hpp), interleaved batch by batch
/// with a twin builder that times the same batches, and its spans go to
/// FILE as JSON lines.
/// `--smoke` runs the same workloads at 1/64 of their size, one round.

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "stream/sharded_builder.hpp"
#include "util/failpoint.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include "histogram.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace {

using namespace i2a;
using e2e::now_ns;
using e2e::SpanBuffer;

struct Workload {
  const char* name;
  int scale;
  index_t edge_factor;
  std::size_t batch_edges;
  std::size_t shards;  ///< 0: one unsharded AdjacencyBuilder
  bool min_plus;       ///< weighted min.+; otherwise unweighted +.×
  std::size_t pool_threads;  ///< ThreadPool(k) has k − 1 workers
  stream::Compaction compaction;
  bool durable;
  stream::Durability durability;
  std::uint64_t checkpoint_every;
  std::size_t readers;
  bool timed_build;  ///< ends with a timed one-shot build_adjacency
};

// Why each workload exists is in README.md. Threads per process: the
// writer, the pool's workers and the readers, at most 4 in every row.
constexpr Workload kWorkloads[] = {
    {"durable-ingest", 16, 8, 256, 0, false, 2,
     stream::Compaction::kBackground, true,
     stream::Durability::kFsyncEachBatch, 1000, 0, false},
    {"bulk-load", 19, 16, 131072, 0, false, 4, stream::Compaction::kInline,
     false, stream::Durability::kNone, 0, 0, true},
    {"serve-sharded", 16, 8, 1024, 4, true, 2,
     stream::Compaction::kBackground, true, stream::Durability::kAsync, 500,
     2, false},
    {"serve-single", 16, 8, 1024, 1, true, 2,
     stream::Compaction::kBackground, true, stream::Durability::kAsync, 500,
     2, false},
};

/// 1/64 of the edges: six fewer R-MAT levels, batches no larger than
/// 1/64 of the stream, checkpoints 64 times as often.
Workload smoke(Workload w) {
  w.scale -= 6;
  const auto edges = static_cast<std::size_t>(index_t{1} << w.scale) *
                     static_cast<std::size_t>(w.edge_factor);
  w.batch_edges = std::min(w.batch_edges, edges / 64);
  if (w.checkpoint_every != 0) {
    w.checkpoint_every = std::max<std::uint64_t>(1, w.checkpoint_every / 64);
  }
  return w;
}

constexpr std::size_t kSampledRows = 1000;
constexpr int kRecoveries = 3;
constexpr int kFirstRoundSetups = 3;
constexpr std::size_t kMinTracePairs = 2;
/// How much longer than a twin builder's acknowledgements the replayed
/// writer path may take before the replay counts as not mirroring the
/// builder.
constexpr double kAttributionSlack = 0.05;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Input {
  graph::Graph g{0};
  std::vector<std::span<const graph::Edge>> batches;
};

Input generate(const Workload& w, std::uint64_t seed, util::ThreadPool* pool) {
  Input in{graph::gen::rmat(w.scale, w.edge_factor, 0.57, 0.19, 0.19, seed,
                            pool),
           {}};
  graph::gen::randomize_weights(in.g, 1.0, 10.0, seed ^ 0x77e1647ULL, pool);
  const auto& edges = in.g.edges();
  for (std::size_t lo = 0; lo < edges.size(); lo += w.batch_edges) {
    in.batches.emplace_back(edges.data() + lo,
                            std::min(w.batch_edges, edges.size() - lo));
  }
  return in;
}

template <typename B>
constexpr bool kSharded = false;
template <typename P>
constexpr bool kSharded<stream::ShardedBuilder<P>> = true;

template <typename P, typename B>
std::unique_ptr<B> open_builder(const Workload& w, index_t n,
                                const stream::Options& o, bool recover) {
  if constexpr (kSharded<B>) {
    if (recover) {
      return std::unique_ptr<B>(new B(B::recover(n, w.shards, P{}, o)));
    }
    return std::make_unique<B>(n, w.shards, P{}, o);
  } else {
    if (recover) return std::unique_ptr<B>(new B(B::recover(n, P{}, o)));
    return std::make_unique<B>(n, P{}, o);
  }
}

template <typename P>
sparse::Csr<typename P::value_type> oracle(const Workload& w,
                                           const graph::Graph& g,
                                           util::ThreadPool* pool) {
  const P p;
  if (w.min_plus) {
    return graph::adjacency_array(
        p, graph::weighted_incidence_arrays(g, p, pool),
        sparse::SpGemmAlgo::kAuto, pool);
  }
  return graph::build_adjacency(g, p, sparse::SpGemmAlgo::kAuto, pool);
}

std::uint64_t dir_bytes(const std::string& dir) {
  return e2e::dir_bytes(dir, [](const std::string&) { return true; });
}

/// What one reader thread saw. The per-layer fields are filled only in
/// the traced round.
struct ReaderLog {
  e2e::Histogram lat_ns;
  double pin_ns = 0;
  double fold_ns = 0;
  e2e::Histogram pin_lat_ns;
  e2e::Histogram fold_lat_ns;
  e2e::Histogram runs;
  e2e::Histogram row_nnz;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything the rounds of one run add up to.
struct Totals {
  std::vector<double> setup_s;
  std::vector<double> ingest_edges_per_s;
  std::vector<double> ack_ms;
  e2e::Histogram read_ns;
  std::vector<double> reads_per_s;
  std::vector<double> recover_s;
  std::vector<double> build_edges_per_s;
  std::vector<double> disk_bytes_per_edge;
  double peak_rss_mb = 0;
  double setup_peak_rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> mismatches;
  std::map<std::string, std::pair<double, const char*>> layers;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      mismatches.push_back(what);
    }
  }
};

struct RunConfig {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_file;
  std::string workdir;
};

/// Read `ru_maxrss` (KiB on Linux) as MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

template <typename P, typename B>
class Round {
 public:
  using V = typename P::value_type;
  using Csr = sparse::Csr<V>;

  /// A traced round records spans; `replay` adds the layer replay after
  /// it and writes the trace file.
  Round(const RunConfig& cfg, int index, bool traced, bool replay,
        Totals& tot)
      : cfg_(cfg), w_(cfg.w), index_(index), traced_(traced),
        replay_(replay), tot_(tot), pool_(w_.pool_threads) {}

  /// Returns the round's ingest rate (edges/s), for the trace overhead.
  double run() {
    setup();
    const double rate = ingest();
    verify();
    recover();
    if (replay_) replay();
    std::filesystem::remove_all(dir_);
    return rate;
  }

 private:
  stream::Options options(const std::string& dir) {
    stream::Options o;
    o.weighting = w_.min_plus ? stream::Weighting::kWeighted
                              : stream::Weighting::kUnweighted;
    o.pool = &pool_;
    o.compaction = w_.compaction;
    if (w_.durable) {
      o.wal_dir = dir;
      o.durability = w_.durability;
      o.checkpoint_every = w_.checkpoint_every;
    }
    return o;
  }

  /// Set-up = input generation + builder construction. The first round
  /// sets up several times (each into a fresh directory) so that even a
  /// one-round run reports a median. The previous set-up's builder and
  /// input are released first, so only one input is ever alive.
  void setup() {
    const int count = index_ == 0 ? kFirstRoundSetups : 1;
    for (int k = 0; k < count; ++k) {
      builder_.reset();
      in_ = Input{};
      if (!dir_.empty()) std::filesystem::remove_all(dir_);
      dir_ = cfg_.workdir + "/" + w_.name + "-r" + std::to_string(index_) +
             "-s" + std::to_string(k);
      std::filesystem::remove_all(dir_);
      const std::int64_t t0 = now_ns();
      in_ = generate(w_, cfg_.seed, &pool_);
      builder_ = open_builder<P, B>(w_, in_.g.num_vertices(), options(dir_),
                                    /*recover=*/false);
      tot_.setup_s.push_back(seconds(now_ns() - t0));
    }
    if (index_ == 0) tot_.setup_peak_rss_mb = peak_rss_mb();
  }

  /// Closed loops: the writer ingests back to back, and each reader
  /// issues its next read when the previous one returns.
  double ingest() {
    const auto& edges = in_.g.edges();
    std::atomic<std::size_t> acked{0};
    std::atomic<bool> stop{false};
    logs_.assign(w_.readers, ReaderLog{});
    reader_spans_.clear();
    for (std::size_t r = 0; r < w_.readers; ++r) {
      reader_spans_.emplace_back(static_cast<std::uint16_t>(r + 1),
                                 traced_ ? (1U << 18) : 0, /*thin=*/true);
    }
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < w_.readers; ++r) {
      readers.emplace_back([&, r] {
        read_loop(r, edges, acked, stop);
      });
    }

    const std::size_t nb = in_.batches.size();
    writer_spans_.emplace(0, traced_ ? nb * 16 + 64 : 0, /*thin=*/false);
    ingest_ids_.assign(nb, 0);
    std::vector<double> ack_ms(nb);
    std::size_t offset = 0;
    const std::int64_t w0 = now_ns();
    for (std::size_t i = 0; i < nb; ++i) {
      const std::int64_t t0 = now_ns();
      ++tot_.attempted;
      try {
        builder_->ingest(in_.batches[i]);
      } catch (const std::exception& e) {
        ++tot_.failed;
        tot_.check(false, std::string("ingest threw: ") + e.what());
      }
      const std::int64_t t1 = now_ns();
      ack_ms[i] = static_cast<double>(t1 - t0) * 1e-6;
      if (traced_) {
        ingest_ids_[i] = writer_spans_->next_id();
        writer_spans_->add("ingest", ingest_ids_[i], 0, i + 1, t0, t1);
      }
      offset += in_.batches[i].size();
      acked.store(offset, std::memory_order_release);
    }
    const std::int64_t d0 = now_ns();
    try {
      builder_->drain();
    } catch (const std::exception& e) {
      ++tot_.failed;
      tot_.check(false, std::string("drain threw: ") + e.what());
    }
    const std::int64_t w1 = now_ns();
    if (traced_) {
      writer_spans_->add("drain", writer_spans_->next_id(), 0, nb, d0, w1);
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    const double rate = static_cast<double>(edges.size()) / seconds(w1 - w0);
    tot_.ingest_edges_per_s.push_back(rate);
    tot_.ack_ms.insert(tot_.ack_ms.end(), ack_ms.begin(), ack_ms.end());
    if (w_.readers > 0) {
      std::uint64_t reads = 0;
      for (const ReaderLog& log : logs_) {
        tot_.read_ns.merge(log.lat_ns);
        reads += log.lat_ns.count();
        tot_.attempted += log.attempted;
        tot_.failed += log.failed;
        tot_.check(log.failed == 0, "a read threw");
      }
      tot_.reads_per_s.push_back(static_cast<double>(reads) /
                                 seconds(w1 - w0));
    }
    if (index_ == 0) tot_.peak_rss_mb = peak_rss_mb();
    if (w_.durable) {
      tot_.disk_bytes_per_edge.push_back(
          static_cast<double>(dir_bytes(dir_)) /
          static_cast<double>(edges.size()));
    }
    stats_ = builder_->stats();
    return rate;
  }

  void read_loop(std::size_t r, const std::vector<graph::Edge>& edges,
                 const std::atomic<std::size_t>& acked,
                 const std::atomic<bool>& stop) {
    ReaderLog& log = logs_[r];
    SpanBuffer& spans = reader_spans_[r];
    util::Xoshiro256 rng(cfg_.seed * 0x9e3779b97f4a7c15ULL + r + 1);
    typename stream::PinnedSnapshot<P>::RowScratch scratch;
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t a = acked.load(std::memory_order_acquire);
      if (a == 0) {
        std::this_thread::yield();
        continue;
      }
      const index_t row = edges[rng.next() % a].src;
      ++seq;
      ++log.attempted;
      try {
        const std::int64_t t0 = now_ns();
        std::int64_t t1 = 0;
        std::size_t runs = 0;
        std::size_t nnz = 0;
        {
          const auto snap = builder_->snapshot();
          t1 = now_ns();
          runs = snap.num_runs();
          snap.fold_row(row, scratch, [&nnz](index_t, const V&) { ++nnz; });
        }
        const std::int64_t t2 = now_ns();
        log.lat_ns.add(static_cast<std::uint64_t>(t2 - t0));
        if (traced_) {
          log.pin_ns += static_cast<double>(t1 - t0);
          log.fold_ns += static_cast<double>(t2 - t1);
          log.pin_lat_ns.add(static_cast<std::uint64_t>(t1 - t0));
          log.fold_lat_ns.add(static_cast<std::uint64_t>(t2 - t1));
          log.runs.add(runs);
          log.row_nnz.add(nnz);
          const std::uint64_t req =
              (static_cast<std::uint64_t>(r + 1) << 40) | seq;
          if (spans.sampled(req)) {
            spans.add("snapshot.pin", spans.next_id(), 0, req, t0, t1);
            spans.add("snapshot.fold_row", spans.next_id(), 0, req, t1, t2);
          }
        }
      } catch (const std::exception&) {
        ++log.failed;
      }
    }
  }

  /// Untimed, except for the one-shot construction of `bulk-load`, which
  /// is both a metric and the oracle.
  void verify() {
    final_ = builder_->snapshot().materialize(&pool_);
    const std::int64_t t0 = now_ns();
    const Csr expect = oracle<P>(w_, in_.g, &pool_);
    const std::int64_t t1 = now_ns();
    if (traced_) {
      writer_spans_->add("build", writer_spans_->next_id(), 0, 0, t0, t1);
    }
    if (w_.timed_build) {
      tot_.build_edges_per_s.push_back(
          static_cast<double>(in_.g.num_edges()) / seconds(t1 - t0));
    }
    tot_.check(e2e::same_bytes(final_, expect),
               "materialize() differs from the one-shot construction");

    const auto snap = builder_->snapshot();
    typename stream::PinnedSnapshot<P>::RowScratch scratch;
    util::Xoshiro256 rng(cfg_.seed ^ 0x5a3b1ed5ULL);
    const auto& edges = in_.g.edges();
    std::vector<index_t> cols;
    std::vector<V> vals;
    bool rows_ok = true;
    for (std::size_t k = 0; k < kSampledRows; ++k) {
      const index_t row = edges[rng.next() % edges.size()].src;
      cols.clear();
      vals.clear();
      snap.fold_row(row, scratch, [&](index_t c, const V& v) {
        cols.push_back(c);
        vals.push_back(v);
      });
      const auto want_c = final_.row_cols(row);
      const auto want_v = final_.row_vals(row);
      rows_ok = rows_ok && cols.size() == want_c.size() &&
                std::equal(cols.begin(), cols.end(), want_c.begin()) &&
                std::memcmp(vals.data(), want_v.data(),
                            vals.size() * sizeof(V)) == 0;
    }
    tot_.check(rows_ok, "a sampled fold_row differs from materialize()");
  }

  /// Close the builder, then recover its directory several times; each
  /// recovery must reproduce the pre-recovery bytes.
  void recover() {
    builder_.reset();
    if (!w_.durable) return;
    for (int k = 0; k < kRecoveries; ++k) {
      ++tot_.attempted;
      try {
        const std::int64_t t0 = now_ns();
        auto rb = open_builder<P, B>(w_, in_.g.num_vertices(), options(dir_),
                                     /*recover=*/true);
        const std::int64_t t1 = now_ns();
        tot_.recover_s.push_back(seconds(t1 - t0));
        if (traced_) {
          const std::uint64_t id = writer_spans_->next_id();
          if (recover_id_ == 0) recover_id_ = id;
          writer_spans_->add("recover", id, 0, 0, t0, t1);
        }
        rb->drain();
        tot_.check(e2e::same_bytes(rb->adjacency(), final_),
                   "recover() differs from the state before recovery");
      } catch (const std::exception& e) {
        ++tot_.failed;
        tot_.check(false, std::string("recover threw: ") + e.what());
      }
    }
  }

  void replay();

  const RunConfig& cfg_;
  const Workload& w_;
  int index_;
  bool traced_;
  bool replay_;
  Totals& tot_;
  util::ThreadPool pool_;
  std::string dir_;
  Input in_;
  std::unique_ptr<B> builder_;
  typename B::Stats stats_{};
  Csr final_;
  std::vector<ReaderLog> logs_;
  std::optional<SpanBuffer> writer_spans_;
  std::vector<SpanBuffer> reader_spans_;
  std::vector<std::uint64_t> ingest_ids_;
  std::uint64_t recover_id_ = 0;
};

/// The replay's span names, one per layer call (replay.hpp).
constexpr const char* kLayers[] = {
    "route",     "stage.incidence",  "stage.spgemm",    "wal.write",
    "wal.fsync", "compaction.merge", "checkpoint.write"};

/// One layer's replay spans: their sum, each call, and the sum per epoch
/// (a sharded epoch stages one part per shard).
struct LayerTimes {
  double total_ns = 0;
  std::vector<double> calls_us;
  std::vector<double> per_epoch_us;
};

template <typename P, typename B>
void Round<P, B>::replay() {
  e2e::ReplayConfig rc;
  rc.shards = kSharded<B> ? w_.shards : 0;
  rc.weighted = w_.min_plus;
  rc.pool = &pool_;
  rc.inline_compaction = w_.compaction == stream::Compaction::kInline;
  rc.durable = w_.durable;
  rc.fsync_each_batch = w_.durability == stream::Durability::kFsyncEachBatch;
  rc.checkpoint_every = w_.checkpoint_every;
  rc.dir = dir_ + "-replay";
  std::filesystem::remove_all(rc.dir);
  e2e::LayerReplay<P> layers(rc, in_.g.num_vertices(), *writer_spans_);
  // The check on the replay's timing needs a reference measured at the
  // same moment, because the host's speed drifts between rounds: a twin
  // builder of the same configuration ingests each batch just before the
  // replay repeats it, then drains, so no background work overlaps the
  // replay.
  const std::string twin_dir = dir_ + "-twin";
  std::filesystem::remove_all(twin_dir);
  auto twin = open_builder<P, B>(w_, in_.g.num_vertices(), options(twin_dir),
                                 /*recover=*/false);
  std::vector<double> twin_ns(in_.batches.size());
  for (std::size_t i = 0; i < in_.batches.size(); ++i) {
    const std::int64_t t0 = now_ns();
    twin->ingest(in_.batches[i]);
    twin_ns[i] = static_cast<double>(now_ns() - t0);
    twin->drain();
    layers.ingest(in_.batches[i], i + 1, ingest_ids_[i]);
  }
  twin.reset();
  std::filesystem::remove_all(twin_dir);
  const auto res = layers.finish(recover_id_);
  std::filesystem::remove_all(rc.dir);
  tot_.check(e2e::same_bytes(res.final, final_),
             "the layer replay's array differs from the builder's");
  tot_.check(res.recovered_equal,
             "the replay's recovery differs from the replay's array");
  if (rc.inline_compaction) {
    tot_.check(res.merges == stats_.compactions &&
                   res.merged_entries == stats_.merged_entries,
               "the replay's merges differ from the builder's Stats");
  }

  // Attribution. A replay span whose parent is an `ingest` span is work
  // the live writer waits for (routing, staging, the WAL, and merges when
  // compaction is inline); background merges and checkpoints have no
  // parent. An ingest span's self time, its length minus those children,
  // is what the replay does not account for: `ingest.unattributed`. A
  // layer's share is its part of the replay's own total, because the
  // background layers ran beside the live writer, not inside it.
  const std::vector<e2e::Span>& spans = writer_spans_->spans();
  std::map<std::string, LayerTimes> layer;
  double ingest_ns = 0;
  double replay_ns = 0;
  double writer_ns = 0;
  std::vector<double> writer_epoch_ns(ingest_ids_.size(), 0);
  for (const e2e::Span& s : spans) {
    const auto ns = static_cast<double>(s.ns());
    if (std::strcmp(s.name, "ingest") == 0) ingest_ns += ns;
    const bool is_layer =
        std::any_of(std::begin(kLayers), std::end(kLayers),
                    [&](const char* l) { return std::strcmp(s.name, l) == 0; });
    if (!is_layer) continue;
    LayerTimes& lt = layer[s.name];
    lt.total_ns += ns;
    lt.calls_us.push_back(ns * 1e-3);
    if (lt.per_epoch_us.empty()) lt.per_epoch_us.assign(ingest_ids_.size(), 0);
    lt.per_epoch_us[s.req - 1] += ns * 1e-3;
    replay_ns += ns;
    if (s.parent != 0) {
      writer_ns += ns;
      writer_epoch_ns[s.req - 1] += ns;
    }
  }
  // The replay repeats, serially, work the twin's writer also did, so a
  // batch's replayed writer path may not take longer than the twin's
  // acknowledgement of it. Compared batch by batch, as a median, because
  // a sum is dominated by the few largest merges, each timed once.
  std::vector<double> over_twin(twin_ns.size());
  for (std::size_t i = 0; i < twin_ns.size(); ++i) {
    over_twin[i] = writer_epoch_ns[i] / twin_ns[i];
  }
  tot_.check(median(over_twin) <= 1.0 + kAttributionSlack,
             "the replayed writer path took longer than the twin's ingests");

  const double edges = static_cast<double>(in_.g.num_edges());
  auto share = [&](const char* name) {
    return replay_ns > 0 ? layer[name].total_ns / replay_ns : 0.0;
  };
  auto put = [&](const std::string& name, double v, const char* unit) {
    tot_.layers[name] = {v, unit};
  };
  // Per-call percentiles, only on workloads that have the layer.
  auto put_calls = [&](const std::string& name, const std::vector<double>& us,
                       bool tail) {
    if (us.empty()) return;
    put(name + ".us_p50", percentile(us, 0.50), "us");
    if (tail) put(name + ".us_p99", percentile(us, 0.99), "us");
  };
  double skew = 1.0;
  if (!res.shard_edges.empty()) {
    double max = 0;
    double sum = 0;
    for (const std::uint64_t e : res.shard_edges) {
      max = std::max(max, static_cast<double>(e));
      sum += static_cast<double>(e);
    }
    skew = max / (sum / static_cast<double>(res.shard_edges.size()));
  }
  put("route.share", share("route"), "ratio");
  put("route.shard_skew", skew, "ratio");
  put_calls("route", layer["route"].calls_us, false);
  for (const char* stage : {"stage.incidence", "stage.spgemm"}) {
    const std::string s = stage;
    put(s + ".us_p50", percentile(layer[stage].per_epoch_us, 0.50), "us");
    put(s + ".us_p99", percentile(layer[stage].per_epoch_us, 0.99), "us");
    put(s + ".share", share(stage), "ratio");
  }
  put("stage.delta_nnz_per_edge", static_cast<double>(res.delta_nnz) / edges,
      "entries/edge");
  put("wal.write.share", share("wal.write"), "ratio");
  put("wal.fsync.share", share("wal.fsync"), "ratio");
  put("wal.share", share("wal.write") + share("wal.fsync"), "ratio");
  put("wal.bytes_per_edge", static_cast<double>(res.wal_bytes) / edges,
      "B/edge");
  put_calls("wal.write", layer["wal.write"].calls_us, true);
  put_calls("wal.fsync", layer["wal.fsync"].calls_us, true);
  const std::vector<double>& merges = layer["compaction.merge"].calls_us;
  put("compaction.merges", static_cast<double>(res.merges), "count");
  put("compaction.merge.ms_total", layer["compaction.merge"].total_ns * 1e-6,
      "ms");
  put("compaction.merge.ms_max",
      merges.empty() ? 0 : *std::max_element(merges.begin(), merges.end()) * 1e-3,
      "ms");
  put("compaction.rewrite_per_edge",
      static_cast<double>(res.merged_entries) / edges, "entries/edge");
  put("compaction.share", share("compaction.merge"), "ratio");
  put("checkpoint.writes", static_cast<double>(res.checkpoints), "count");
  put("checkpoint.share", share("checkpoint.write"), "ratio");
  put("checkpoint.bytes_per_edge",
      static_cast<double>(res.checkpoint_bytes) / edges, "B/edge");
  const std::vector<double>& ckpts = layer["checkpoint.write"].calls_us;
  if (!ckpts.empty()) {
    put("checkpoint.write.ms_p50", percentile(ckpts, 0.50) * 1e-3, "ms");
  }
  put("ingest.unattributed.share", (ingest_ns - writer_ns) / ingest_ns,
      "ratio");

  // Reads: pin against fold, and the shape the fold walks.
  e2e::Histogram runs;
  e2e::Histogram nnz;
  e2e::Histogram pin_lat;
  e2e::Histogram fold_lat;
  double pin = 0;
  double fold = 0;
  for (const ReaderLog& log : logs_) {
    runs.merge(log.runs);
    nnz.merge(log.row_nnz);
    pin_lat.merge(log.pin_lat_ns);
    fold_lat.merge(log.fold_lat_ns);
    pin += log.pin_ns;
    fold += log.fold_ns;
  }
  put("snapshot.pin.share", pin + fold > 0 ? pin / (pin + fold) : 0, "ratio");
  put("snapshot.runs_p50", runs.percentile(0.50), "count");
  put("snapshot.runs_max", runs.percentile(1.0), "count");
  put("snapshot.row_nnz_p50", nnz.percentile(0.50), "count");
  if (pin_lat.count() > 0) {
    put("snapshot.pin.us_p50", pin_lat.percentile(0.50) * 1e-3, "us");
    put("snapshot.pin.us_p99", pin_lat.percentile(0.99) * 1e-3, "us");
    put("snapshot.fold_row.us_p50", fold_lat.percentile(0.50) * 1e-3, "us");
    put("snapshot.fold_row.us_p99", fold_lat.percentile(0.99) * 1e-3, "us");
  }

  double load_ns = 0;
  double wal_replay_ns = 0;
  for (const e2e::Span& s : spans) {
    if (std::strcmp(s.name, "recover.checkpoint_load") == 0) load_ns += s.ns();
    if (std::strcmp(s.name, "recover.replay") == 0) wal_replay_ns += s.ns();
  }
  const double rec = load_ns + wal_replay_ns;
  put("recover.checkpoint_load.share", rec > 0 ? load_ns / rec : 0, "ratio");
  put("recover.replay.share", rec > 0 ? wal_replay_ns / rec : 0, "ratio");
  if (w_.durable) {
    put("recover.checkpoint_load.ms", load_ns * 1e-6, "ms");
    put("recover.replay.ms", wal_replay_ns * 1e-6, "ms");
  }
  put("recover.batches_replayed", static_cast<double>(res.batches_replayed),
      "count");

  if (!cfg_.trace_file.empty()) {
    std::vector<const SpanBuffer*> all{&*writer_spans_};
    for (const SpanBuffer& b : reader_spans_) all.push_back(&b);
    e2e::write_spans(cfg_.trace_file, all);
  }
}

const char* fs_type(const std::string& dir) {
  struct statfs st{};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    default: return "other";
  }
}

void print_provenance(const RunConfig& cfg, const Workload& w) {
  std::cout << "@workload " << w.name << "\n@seed " << cfg.seed
            << "\n@scale " << w.scale << "\n@edge_factor " << w.edge_factor
            << "\n@batch_edges " << w.batch_edges << "\n@shards "
            << std::max<std::size_t>(w.shards, 1) << "\n@algebra "
            << (w.min_plus ? "min.+" : "+.*") << "\n@pool_threads "
            << w.pool_threads << "\n@readers " << w.readers
            << "\n@compaction "
            << (w.compaction == stream::Compaction::kInline ? "inline"
                                                            : "background")
            << "\n@durability "
            << (!w.durable ? "memory"
                : w.durability == stream::Durability::kFsyncEachBatch
                    ? "fsync-each-batch"
                    : "async")
            << "\n@checkpoint_every " << w.checkpoint_every
            << "\n@build_type " << I2A_E2E_BUILD_TYPE << "\n@ndebug "
#ifdef NDEBUG
            << 1
#else
            << 0
#endif
            << "\n@failpoints " << I2A_FAILPOINTS_ENABLED
            << "\n@check_invariants "
#ifdef I2A_CHECK_INVARIANTS
            << 1
#else
            << 0
#endif
            << "\n@compiler " << I2A_E2E_COMPILER << " " << __VERSION__
            << "\n@nproc " << std::thread::hardware_concurrency()
            << "\n@wal_fs " << fs_type(cfg.workdir) << "\n";
}

void print_metric(const char* name, double v, const char* unit) {
  std::printf("%s %.9g %s\n", name, v, unit);
}

template <typename P, typename B>
int run(const RunConfig& cfg) {
  const Workload& w = cfg.w;
  Totals tot;
  const std::int64_t start = now_ns();
  int rounds = 0;
  // Start another round (or pair of rounds) only while it would end about
  // on time.
  double last = 0;
  auto time_left = [&] {
    return seconds(now_ns() - start) + last / 2 < cfg.seconds;
  };
  double trace_overhead = 0;
  if (!cfg.trace_file.empty()) {
    // The first round pays the process's cold start and is left out of
    // the comparison. Then pairs of an untraced and a traced round, in
    // alternating order so that a drift of the host's speed does not
    // favour either; the overhead is the median of the pairs' ratios.
    Round<P, B>(cfg, rounds++, false, false, tot).run();
    std::vector<double> ratios;
    bool replayed = false;
    do {
      const std::int64_t t0 = now_ns();
      double rate[2] = {0, 0};  // untraced, traced
      for (int k = 0; k < 2; ++k) {
        const bool traced = (k == 0) == (ratios.size() % 2 == 1);
        const bool replay = traced && !replayed;
        replayed = replayed || replay;
        rate[traced ? 1 : 0] =
            Round<P, B>(cfg, rounds++, traced, replay, tot).run();
      }
      ratios.push_back(rate[1] / rate[0] - 1.0);
      last = seconds(now_ns() - t0);
    } while (ratios.size() < kMinTracePairs || time_left());
    trace_overhead = median(ratios);
  } else {
    do {
      const std::int64_t t0 = now_ns();
      Round<P, B>(cfg, rounds++, false, false, tot).run();
      last = seconds(now_ns() - t0);
    } while (time_left());
  }

  print_provenance(cfg, w);
  print_metric("rounds", rounds, "count");
  print_metric("setup_s", median(tot.setup_s), "s");
  print_metric("ingest_edges_per_s", median(tot.ingest_edges_per_s), "edges/s");
  print_metric("ack_p50_ms", percentile(tot.ack_ms, 0.50), "ms");
  if (!w.timed_build) {
    print_metric("ack_p99_ms", percentile(tot.ack_ms, 0.99), "ms");
  }
  if (w.readers > 0) {
    print_metric("read_p50_us", tot.read_ns.percentile(0.50) * 1e-3, "us");
    print_metric("read_p99_us", tot.read_ns.percentile(0.99) * 1e-3, "us");
    print_metric("read_p999_us", tot.read_ns.percentile(0.999) * 1e-3, "us");
    print_metric("reads_per_s", median(tot.reads_per_s), "1/s");
  }
  if (w.durable) {
    print_metric("recover_s", median(tot.recover_s), "s");
    print_metric("disk_bytes_per_edge", median(tot.disk_bytes_per_edge),
                 "B/edge");
  }
  if (w.timed_build) {
    print_metric("build_edges_per_s", median(tot.build_edges_per_s),
                 "edges/s");
  }
  print_metric("peak_rss_mb", tot.peak_rss_mb, "MiB");
  print_metric("setup.peak_rss_mb", tot.setup_peak_rss_mb, "MiB");
  const auto attempts = std::max<std::uint64_t>(tot.attempted, 1);
  print_metric("error_rate",
               static_cast<double>(tot.failed) /
                   static_cast<double>(attempts),
               "ratio");
  print_metric("attempted", static_cast<double>(tot.attempted), "count");
  print_metric("failed", static_cast<double>(tot.failed), "count");
  if (!cfg.trace_file.empty()) {
    for (const auto& [name, v] : tot.layers) {
      print_metric(name.c_str(), v.first, v.second);
    }
    print_metric("trace.overhead", trace_overhead, "ratio");
  }
  for (const std::string& m : tot.mismatches) {
    std::cerr << "MISMATCH: " << m << "\n";
  }
  print_metric("correct", tot.correct ? 1 : 0, "bool");
  return tot.correct ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::cerr << "i2a_e2e: " << msg
            << "\nusage: i2a_e2e --workload NAME --seed S [--seconds T] "
               "[--trace FILE] [--smoke] [--workdir DIR]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string name;
  bool is_smoke = false;
  cfg.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      name = value();
    } else if (a == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (a == "--trace") {
      cfg.trace_file = value();
    } else if (a == "--workdir") {
      cfg.workdir = value();
    } else if (a == "--smoke") {
      is_smoke = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  if (found == nullptr) usage(("unknown workload '" + name + "'").c_str());
  cfg.w = is_smoke ? smoke(*found) : *found;
  if (is_smoke) cfg.seconds = 0;
  try {
    std::filesystem::create_directories(cfg.workdir);
    // The two combinations the workload table uses: sharded min.+, and
    // an unsharded +.× builder.
    using PT = algebra::PlusTimes<double>;
    using MP = algebra::MinPlus<double>;
    if (cfg.w.shards > 0 && cfg.w.min_plus) {
      return run<MP, stream::ShardedBuilder<MP>>(cfg);
    }
    if (cfg.w.shards == 0 && !cfg.w.min_plus) {
      return run<PT, stream::AdjacencyBuilder<PT>>(cfg);
    }
    throw std::logic_error("no builder for this workload's configuration");
  } catch (const std::exception& e) {
    std::cerr << "i2a_e2e: " << e.what() << "\n";
    return 2;
  }
}
