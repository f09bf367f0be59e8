#pragma once
/// \file replay.hpp
/// \brief The traced run's layer replay: the batches of a finished live
///        run, fed one at a time through the public functions of each
///        layer, in the order the builder calls them, with a span around
///        every call.
///
/// The live run can only time whole `ingest()` calls; the layers run
/// inside the library, which has no instrument yet. So the replay repeats
/// the builder's work from outside: route (`ShardedBuilder::shard_of`),
/// stage (`incidence_arrays` / `weighted_incidence_arrays`, then
/// `adjacency_array`), log (`stream::Wal::append`, plus `sync()` where the
/// builder fsyncs each batch), compact (`merge_add_k` under a copy of the
/// balanced-suffix policy), checkpoint (`write_checkpoint`), and finally
/// recover (`load_newest_checkpoint`, then `replay_wal`). A replay span
/// of work the live writer waits for has the live `ingest` span of the
/// same epoch as its parent; merges under background compaction and
/// checkpoints, which the builder runs on its pool beside the writer,
/// have no parent. Every replay span's request id is its epoch.
///
/// The replay is also a check: its final array must be byte-identical to
/// the builder's, and in inline-compaction mode (where the builder's
/// merge schedule is deterministic) its merge counts must equal the
/// builder's `Stats`.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "sparse/csr.hpp"
#include "sparse/merge.hpp"
#include "stream/checkpoint.hpp"
#include "stream/sharded_builder.hpp"
#include "stream/wal.hpp"
#include "trace.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

struct ReplayConfig {
  std::size_t shards = 0;  ///< 0: an unsharded builder, nothing is routed
  bool weighted = false;
  i2a::util::ThreadPool* pool = nullptr;
  bool inline_compaction = true;
  bool durable = false;
  bool fsync_each_batch = false;
  std::uint64_t checkpoint_every = 0;
  std::string dir;  ///< WAL + checkpoint directory (durable only)
};

template <typename V>
struct ReplayResult {
  i2a::sparse::Csr<V> final;
  std::uint64_t merges = 0;
  std::uint64_t merged_entries = 0;
  std::uint64_t delta_nnz = 0;
  std::uint64_t checkpoints = 0;
  std::vector<std::uint64_t> shard_edges;  ///< edges routed to each shard
  std::uint64_t wal_bytes = 0;             ///< WAL segment bytes at the end
  std::uint64_t checkpoint_bytes = 0;      ///< newest checkpoint file size
  std::uint64_t batches_replayed = 0;      ///< by the recovery replay
  bool recovered_equal = true;  ///< recovery replay reproduced `final`
};

/// Bytes in the files of `dir` whose names satisfy `keep`.
template <typename Keep>
std::uint64_t dir_bytes(const std::string& dir, const Keep& keep) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && keep(entry.path().filename().string())) {
      total += entry.file_size();
    }
  }
  return total;
}

/// Byte equality of two arrays, values compared as bit patterns.
template <typename V>
bool same_bytes(const i2a::sparse::Csr<V>& a,
                const i2a::sparse::Csr<V>& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         a.row_ptr() == b.row_ptr() && a.cols() == b.cols() &&
         a.vals().size() == b.vals().size() &&
         std::memcmp(a.vals().data(), b.vals().data(),
                     a.vals().size() * sizeof(V)) == 0;
}

/// One shard's run list plus the builder's compaction policy: merge the
/// longest tail in which every run weighs no more than the runs after it.
template <typename V>
struct MirrorLadder {
  std::vector<std::shared_ptr<const i2a::sparse::Csr<V>>> runs;
  std::vector<std::uint64_t> weights;

  /// Start of the suffix to merge, or runs.size() when none qualifies.
  std::size_t plan() const {
    const std::size_t k = weights.size();
    if (k < 2) return k;
    std::size_t lo = k - 1;
    std::uint64_t tail = weights[lo];
    while (lo > 0 && weights[lo - 1] <= tail) {
      tail += weights[lo - 1];
      --lo;
    }
    return k - lo < 2 ? k : lo;
  }
};

template <typename P>
class LayerReplay {
 public:
  using V = typename P::value_type;
  using Csr = i2a::sparse::Csr<V>;
  using Edge = i2a::graph::Edge;

  LayerReplay(const ReplayConfig& cfg, i2a::index_t n, SpanBuffer& spans)
      : cfg_(cfg), n_(n), spans_(spans),
        ladders_(std::max<std::size_t>(cfg.shards, 1)),
        shard_edges_(ladders_.size(), 0),
        edges_(ladders_.size(), 0) {
    if (cfg_.shards > 0) router_.emplace(n, cfg_.shards, p_);
    manifest_ = i2a::stream::WalManifest{
        i2a::stream::algebra_tag<P>(), static_cast<std::uint64_t>(n),
        static_cast<std::uint32_t>(ladders_.size()),
        static_cast<std::uint32_t>(cfg_.weighted
                                       ? i2a::stream::Weighting::kWeighted
                                       : i2a::stream::Weighting::kUnweighted)};
    if (cfg_.durable) {
      i2a::util::ensure_dir(cfg_.dir);
      wal_.emplace(cfg_.dir, manifest_, i2a::stream::Durability::kAsync,
                   64ULL << 20, 0, 0);
    }
  }

  /// Replay one batch; `parent` is the live `ingest` span of `epoch`.
  void ingest(std::span<const Edge> batch, std::uint64_t epoch,
              std::uint64_t parent) {
    std::vector<std::span<const Edge>> parts =
        route(batch, epoch, parent, /*traced=*/true);
    std::vector<std::shared_ptr<const Csr>> deltas;
    deltas.reserve(parts.size());
    for (const auto& part : parts) {
      deltas.push_back(stage(part, epoch, parent, /*traced=*/true));
    }
    if (wal_) {
      std::int64_t t0 = now_ns();
      wal_->append(epoch, batch);
      std::int64_t t1 = now_ns();
      spans_.add("wal.write", spans_.next_id(), parent, epoch, t0, t1);
      if (cfg_.fsync_each_batch) {
        t0 = now_ns();
        wal_->sync();
        t1 = now_ns();
        spans_.add("wal.fsync", spans_.next_id(), parent, epoch, t0, t1);
      }
    }
    for (std::size_t s = 0; s < ladders_.size(); ++s) {
      publish(s, std::move(deltas[s]), epoch, parent, /*traced=*/true);
      edges_[s] += parts[s].size();
    }
    if (wal_ && cfg_.checkpoint_every != 0 &&
        epoch % cfg_.checkpoint_every == 0) {
      checkpoint(epoch);
    }
  }

  /// After the last batch: the replay's final array, then the recovery
  /// of the replay's own directory (a child of `recover_parent`).
  ReplayResult<V> finish(std::uint64_t recover_parent) {
    ReplayResult<V> out;
    out.merges = merges_;
    out.merged_entries = merged_entries_;
    out.delta_nnz = delta_nnz_;
    out.checkpoints = checkpoints_;
    out.shard_edges = shard_edges_;
    out.final = materialize();
    if (cfg_.durable) {
      out.wal_bytes = dir_bytes(cfg_.dir, [](const std::string& f) {
        return i2a::stream::parse_wal_segment_name(f).has_value();
      });
      out.checkpoint_bytes = newest_checkpoint_bytes();
      wal_.reset();  // close: the kAsync contract fsyncs here
      recover(recover_parent, out);
    }
    return out;
  }

 private:
  std::vector<std::span<const Edge>> route(std::span<const Edge> batch,
                                           std::uint64_t epoch,
                                           std::uint64_t parent,
                                           bool traced) {
    if (!router_) {
      if (traced) shard_edges_[0] += batch.size();
      return {batch};
    }
    const std::int64_t t0 = now_ns();
    routed_.assign(ladders_.size(), {});
    for (const Edge& e : batch) routed_[router_->shard_of(e.src)].push_back(e);
    const std::int64_t t1 = now_ns();
    std::vector<std::span<const Edge>> parts;
    for (std::size_t s = 0; s < routed_.size(); ++s) {
      parts.emplace_back(routed_[s].data(), routed_[s].size());
      if (traced) shard_edges_[s] += routed_[s].size();
    }
    if (traced) spans_.add("route", spans_.next_id(), parent, epoch, t0, t1);
    return parts;
  }

  std::shared_ptr<const Csr> stage(std::span<const Edge> part,
                                   std::uint64_t epoch, std::uint64_t parent,
                                   bool traced) {
    if (part.empty()) return nullptr;
    const std::int64_t t0 = now_ns();
    i2a::graph::Graph g(n_);
    g.edges().assign(part.begin(), part.end());
    const auto inc =
        cfg_.weighted ? i2a::graph::weighted_incidence_arrays(g, p_, cfg_.pool)
                      : i2a::graph::incidence_arrays(g, p_, cfg_.pool);
    const std::int64_t t1 = now_ns();
    auto delta = std::make_shared<const Csr>(i2a::graph::adjacency_array(
        p_, inc, i2a::sparse::SpGemmAlgo::kAuto, cfg_.pool));
    const std::int64_t t2 = now_ns();
    if (traced) {
      spans_.add("stage.incidence", spans_.next_id(), parent, epoch, t0, t1);
      spans_.add("stage.spgemm", spans_.next_id(), parent, epoch, t1, t2);
      delta_nnz_ += static_cast<std::uint64_t>(delta->nnz());
    }
    return delta;
  }

  /// Append the delta (an empty batch adds no run) and settle the
  /// shard's ladder the way the builder does. Background compaction
  /// merges without the pool, as the builder's detached task does.
  void publish(std::size_t s, std::shared_ptr<const Csr> delta,
               std::uint64_t epoch, std::uint64_t parent, bool traced) {
    MirrorLadder<V>& lad = ladders_[s];
    if (delta) {
      lad.runs.push_back(std::move(delta));
      lad.weights.push_back(1);
    }
    i2a::util::ThreadPool* merge_pool =
        cfg_.inline_compaction ? cfg_.pool : nullptr;
    for (std::size_t lo = lad.plan(); lo < lad.runs.size(); lo = lad.plan()) {
      const std::int64_t t0 = now_ns();
      std::vector<const Csr*> group;
      std::uint64_t weight = 0;
      for (std::size_t i = lo; i < lad.runs.size(); ++i) {
        group.push_back(lad.runs[i].get());
        weight += lad.weights[i];
      }
      auto merged = std::make_shared<const Csr>(
          i2a::sparse::merge_add_k(group, add(), merge_pool));
      lad.runs.resize(lo + 1);
      lad.weights.resize(lo + 1);
      lad.runs[lo] = std::move(merged);
      lad.weights[lo] = weight;
      const std::int64_t t1 = now_ns();
      if (traced) {
        spans_.add("compaction.merge", spans_.next_id(),
                   cfg_.inline_compaction ? parent : 0, epoch, t0, t1);
        ++merges_;
        merged_entries_ += static_cast<std::uint64_t>(lad.runs[lo]->nnz());
      }
    }
  }

  /// The builder's checkpoint task: write, drop older checkpoints,
  /// retire WAL segments the checkpoint covers. The builder always runs
  /// it on the pool, so its span has no parent.
  void checkpoint(std::uint64_t epoch) {
    const std::int64_t t0 = now_ns();
    std::vector<std::vector<i2a::stream::CheckpointRun<V>>> runs(
        ladders_.size());
    for (std::size_t s = 0; s < ladders_.size(); ++s) {
      for (std::size_t i = 0; i < ladders_[s].runs.size(); ++i) {
        runs[s].push_back({ladders_[s].runs[i], ladders_[s].weights[i]});
      }
    }
    i2a::stream::write_checkpoint<V>(cfg_.dir, manifest_, epoch, runs, edges_);
    i2a::stream::gc_checkpoints(cfg_.dir, epoch);
    i2a::stream::Wal::retire_segments(cfg_.dir, epoch, wal_->seqno());
    const std::int64_t t1 = now_ns();
    spans_.add("checkpoint.write", spans_.next_id(), 0, epoch, t0, t1);
    ++checkpoints_;
  }

  std::uint64_t newest_checkpoint_bytes() const {
    std::string newest;
    for (const std::string& f : i2a::util::list_dir(cfg_.dir)) {
      if (i2a::stream::parse_checkpoint_name(f)) newest = f;
    }
    return newest.empty()
               ? 0
               : std::filesystem::file_size(cfg_.dir + "/" + newest);
  }

  /// Load the newest checkpoint into fresh ladders, then replay the WAL
  /// suffix through route + stage + publish, as `recover()` does.
  void recover(std::uint64_t parent, ReplayResult<V>& out) {
    ladders_.assign(ladders_.size(), MirrorLadder<V>{});
    std::int64_t t0 = now_ns();
    std::uint64_t start = 0;
    if (auto ckpt =
            i2a::stream::load_newest_checkpoint<V>(cfg_.dir, manifest_)) {
      start = ckpt->epoch;
      for (std::size_t s = 0; s < ladders_.size(); ++s) {
        for (auto& r : ckpt->shards[s]) {
          ladders_[s].runs.push_back(std::move(r.csr));
          ladders_[s].weights.push_back(r.weight);
        }
      }
    }
    std::int64_t t1 = now_ns();
    spans_.add("recover.checkpoint_load", spans_.next_id(), parent, 0, t0, t1);
    t0 = now_ns();
    const auto stats = i2a::stream::replay_wal(
        cfg_.dir, manifest_, start,
        [&](std::uint64_t epoch, const std::vector<Edge>& edges) {
          const auto parts = route(edges, epoch, parent, /*traced=*/false);
          for (std::size_t s = 0; s < parts.size(); ++s) {
            publish(s, stage(parts[s], epoch, parent, /*traced=*/false), epoch,
                    parent, /*traced=*/false);
          }
        });
    t1 = now_ns();
    spans_.add("recover.replay", spans_.next_id(), parent, 0, t0, t1);
    out.batches_replayed = stats.batches_replayed;
    out.recovered_equal = same_bytes(materialize(), out.final);
  }

  Csr materialize() const {
    std::vector<const Csr*> all;
    for (const auto& lad : ladders_) {
      for (const auto& r : lad.runs) all.push_back(r.get());
    }
    if (all.empty()) {
      return Csr(n_, n_,
                 std::vector<i2a::index_t>(static_cast<std::size_t>(n_) + 1, 0),
                 {}, {});
    }
    return i2a::sparse::merge_add_k(all, add(), cfg_.pool);
  }

  auto add() const {
    return [p = p_](const V& x, const V& y) { return p.add(x, y); };
  }

  ReplayConfig cfg_;
  i2a::index_t n_;
  P p_{};
  SpanBuffer& spans_;
  std::vector<MirrorLadder<V>> ladders_;
  std::vector<std::uint64_t> shard_edges_;
  std::vector<std::uint64_t> edges_;  ///< per-shard edges, for checkpoints
  std::optional<i2a::stream::ShardedBuilder<P>> router_;
  std::vector<std::vector<Edge>> routed_;
  i2a::stream::WalManifest manifest_;
  std::optional<i2a::stream::Wal> wal_;
  std::uint64_t merges_ = 0;
  std::uint64_t merged_entries_ = 0;
  std::uint64_t delta_nnz_ = 0;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace e2e
