#pragma once
/// \file stream/checkpoint.hpp
/// \brief Run-level checkpoints for the streaming builder: serialize the
///        settled run-list + epoch so recovery replays only the WAL
///        suffix (DESIGN.md §12).
///
/// A checkpoint is one file, `checkpoint-<epoch>.ckpt`, holding a header
/// frame (format version, epoch, manifest, total run count) followed by
/// one frame per ladder run — shard-tagged, so a ShardedBuilder's
/// per-shard ladders round-trip exactly. Every frame carries the usual
/// CRC32C (util/io.hpp), and the file becomes visible atomically:
/// written to a `.tmp` name, fsynced, renamed into place, parent
/// directory fsynced. A crash at any point leaves either the previous
/// checkpoint set or the previous set plus one complete new file —
/// never a half-visible checkpoint (a stray `.tmp` is ignored by the
/// loader and deleted by the next GC pass).
///
/// Because runs are immutable and refcounted, the background checkpoint
/// task serializes a *pinned* copy of the run handles while the writer
/// keeps ingesting — the same epoch-pinning discipline snapshots use.
/// Recovery loads the newest fully-valid checkpoint (a corrupt one
/// falls back to the next older; a *valid but mismatched-manifest* one
/// is refused with RecoveryError) and then replays WAL batches with
/// epoch greater than the checkpoint's.
///
/// Failpoint: `checkpoint.write` fires between the header and the run
/// frames of a checkpoint under construction — the injection sweep
/// proves a failed checkpoint deletes its temp file, reports through
/// the deferred-error channel, and never shadows an older good
/// checkpoint.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "stream/wal.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"

namespace i2a::stream {

/// One serialized ladder run: the immutable CSR plus its ladder weight
/// (number of batches it covers), per shard.
template <typename V>
struct CheckpointRun {
  std::shared_ptr<const sparse::Csr<V>> csr;
  std::uint64_t weight = 0;
};

/// A fully parsed checkpoint.
template <typename V>
struct LoadedCheckpoint {
  std::uint64_t epoch = 0;
  /// Outer index = shard (size == manifest.shard_count), inner =
  /// oldest-first runs, matching the ladder's order.
  std::vector<std::vector<CheckpointRun<V>>> shards;
  /// Per-shard ingested-edge counters at `epoch`, so recovery restores
  /// `stats.edges` exactly (size == manifest.shard_count).
  std::vector<std::uint64_t> edges;
};

inline std::string checkpoint_name(std::uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  I2A_EXPECTS(digits.size() <= 16, "checkpoint: epoch too large");
  return "checkpoint-" + std::string(16 - digits.size(), '0') + digits +
         ".ckpt";
}

/// Parse `checkpoint-<epoch>.ckpt`; nullopt for anything else (including
/// `.tmp` residue).
inline std::optional<std::uint64_t> parse_checkpoint_name(
    std::string_view name) {
  constexpr std::string_view prefix = "checkpoint-";
  constexpr std::string_view suffix = ".ckpt";
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(prefix.size() + 16) != suffix) return std::nullopt;
  std::uint64_t epoch = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = name[prefix.size() + i];
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

/// Byte size of a run frame's fixed fields: kind, shard, weight, nrows,
/// ncols, nnz.
inline constexpr std::uint64_t kRunFrameFixedBytes = 4 + 4 + 4 * 8;

/// Byte size of a run frame's CSR arrays: row pointers and columns as
/// i64, then the raw values.
template <typename V>
constexpr std::uint64_t run_arrays_bytes(std::uint64_t nrows,
                                         std::uint64_t nnz) {
  return (nrows + 1 + nnz) * 8 + nnz * sizeof(V);
}

/// Write `checkpoint-<epoch>.ckpt` atomically (tmp + fsync + rename +
/// dir fsync). `shards[s]` is shard s's oldest-first run list; run CSRs
/// are read but not retained; each run frame is streamed
/// (util::write_frame_streamed), so memory stays bounded by one
/// kFrameChunkBytes chunk whatever the run size. Throws util::IoError
/// (including for a run too large for one frame) / FailpointError on
/// failure, after deleting the temp file.
template <typename V>
std::string write_checkpoint(
    const std::string& dir, const WalManifest& manifest, std::uint64_t epoch,
    const std::vector<std::vector<CheckpointRun<V>>>& shards,
    const std::vector<std::uint64_t>& edges_per_shard) {
  I2A_EXPECTS(shards.size() == manifest.shard_count,
              "checkpoint: run lists do not match the manifest shard count");
  I2A_EXPECTS(edges_per_shard.size() == manifest.shard_count,
              "checkpoint: edge counters do not match the shard count");
  std::uint64_t total_runs = 0;
  for (const auto& runs : shards) total_runs += runs.size();

  const std::string final_path = dir + "/" + checkpoint_name(epoch);
  const std::string tmp_path = final_path + ".tmp";
  if (util::file_exists(tmp_path)) util::remove_file(tmp_path);
  try {
    util::File f = util::File::create_append(tmp_path);
    {
      util::ByteWriter w;
      w.u32(kFrameCheckpointHeader);
      w.u32(kWalFormatVersion);
      w.u64(epoch);
      encode_manifest(w, manifest);
      for (const std::uint64_t e : edges_per_shard) w.u64(e);
      w.u64(total_runs);
      util::write_frame(f, w.buffer());
    }
    I2A_FAILPOINT("checkpoint.write");
    for (std::size_t s = 0; s < shards.size(); ++s) {
      for (const CheckpointRun<V>& run : shards[s]) {
        const sparse::Csr<V>& csr = *run.csr;
        const auto nrows = static_cast<std::uint64_t>(csr.nrows());
        const auto nnz = static_cast<std::uint64_t>(csr.nnz());
        // Streamed: the frame costs one fixed chunk of memory, not a
        // copy of the run.
        util::write_frame_streamed(
            f, kRunFrameFixedBytes + run_arrays_bytes<V>(nrows, nnz),
            [&](util::ChunkEncoder& w) {
              w.u32(kFrameCheckpointRun);
              w.u32(static_cast<std::uint32_t>(s));
              w.u64(run.weight);
              w.u64(nrows);
              w.u64(static_cast<std::uint64_t>(csr.ncols()));
              w.u64(nnz);
              for (const index_t v : csr.row_ptr()) w.i64(v);
              for (const index_t v : csr.cols()) w.i64(v);
              // Values ride as raw bit patterns; the manifest's algebra
              // tag pins sizeof(V), so a mismatched instantiation can't
              // misread them.
              w.bytes(csr.vals().data(), csr.vals().size() * sizeof(V));
            });
      }
    }
    f.sync();
    f.close();
  } catch (...) {
    if (util::file_exists(tmp_path)) util::remove_file(tmp_path);
    throw;
  }
  util::rename_file(tmp_path, final_path);
  util::fsync_dir(dir);
  return final_path;
}

/// Parse one checkpoint file completely. Throws RecoveryError on any
/// structural problem (torn frame, bad counts, manifest mismatch — the
/// caller distinguishes mismatch by catching ManifestMismatch below).
struct ManifestMismatch final : RecoveryError {
  explicit ManifestMismatch(const std::string& what) : RecoveryError(what) {}
};

template <typename V>
LoadedCheckpoint<V> parse_checkpoint(const std::string& path,
                                     const WalManifest& expected) {
  const std::vector<unsigned char> image = util::read_file(path);
  util::FrameReader reader(image);
  std::vector<unsigned char> payload;
  const auto corrupt = [&](const std::string& what) -> RecoveryError {
    return RecoveryError(what + " in checkpoint '" + path + "'");
  };
  try {
    if (reader.next(payload) != util::FrameStatus::kOk) {
      throw corrupt("unreadable header frame");
    }
    util::ByteReader r(payload);
    if (r.u32() != kFrameCheckpointHeader) {
      throw corrupt("first frame is not a checkpoint header");
    }
    if (const std::uint32_t v = r.u32(); v != kWalFormatVersion) {
      throw corrupt("format version " + std::to_string(v));
    }
    LoadedCheckpoint<V> out;
    out.epoch = r.u64();
    if (const WalManifest m = decode_manifest(r); m != expected) {
      throw ManifestMismatch("manifest mismatch in '" + path +
                             "': checkpoint has " + m.describe() +
                             ", builder is " + expected.describe());
    }
    out.edges.reserve(expected.shard_count);
    for (std::uint32_t s = 0; s < expected.shard_count; ++s) {
      out.edges.push_back(r.u64());
    }
    const std::uint64_t total_runs = r.u64();
    out.shards.resize(expected.shard_count);
    for (std::uint64_t i = 0; i < total_runs; ++i) {
      if (reader.next(payload) != util::FrameStatus::kOk) {
        throw corrupt("missing run frame " + std::to_string(i));
      }
      util::ByteReader rr(payload);
      if (rr.u32() != kFrameCheckpointRun) {
        throw corrupt("unexpected frame type for run " + std::to_string(i));
      }
      const std::uint32_t shard = rr.u32();
      if (shard >= expected.shard_count) {
        throw corrupt("run frame names shard " + std::to_string(shard));
      }
      CheckpointRun<V> run;
      run.weight = rr.u64();
      const std::uint64_t nrows = rr.u64();
      const std::uint64_t ncols = rr.u64();
      const std::uint64_t nnz = rr.u64();
      if (nrows != expected.num_vertices || ncols != expected.num_vertices) {
        throw corrupt("run dimensions disagree with manifest");
      }
      if (nnz > rr.remaining() / 8) throw corrupt("run nnz too large");
      if (rr.remaining() != run_arrays_bytes<V>(nrows, nnz)) {
        throw corrupt("run frame size does not match its counts");
      }
      std::vector<index_t> row_ptr;
      row_ptr.reserve(nrows + 1);
      for (std::uint64_t k = 0; k <= nrows; ++k) row_ptr.push_back(rr.i64());
      std::vector<index_t> cols;
      cols.reserve(nnz);
      for (std::uint64_t k = 0; k < nnz; ++k) cols.push_back(rr.i64());
      std::vector<V> vals(nnz);
      rr.raw(vals.data(), nnz * sizeof(V));
      run.csr = std::make_shared<const sparse::Csr<V>>(
          static_cast<index_t>(nrows), static_cast<index_t>(ncols),
          std::move(row_ptr), std::move(cols), std::move(vals));
      out.shards[shard].push_back(std::move(run));
    }
    if (reader.next(payload) != util::FrameStatus::kEnd) {
      throw corrupt("trailing bytes after the declared run count");
    }
    return out;
  } catch (const util::IoError& e) {
    // Payload underruns (and any read failure) mean a malformed file.
    throw RecoveryError("malformed checkpoint '" + path + "': " + e.what());
  }
}

/// Load the newest fully-valid checkpoint in `dir`, or nullopt if none
/// exists (recovery then replays the WAL from epoch 0). A corrupt
/// newest checkpoint falls back to the next older one; a *valid* file
/// whose manifest disagrees is refused (ManifestMismatch propagates) —
/// that is operator error, not crash residue.
template <typename V>
std::optional<LoadedCheckpoint<V>> load_newest_checkpoint(
    const std::string& dir, const WalManifest& expected) {
  std::vector<std::string> names;
  for (const std::string& name : util::list_dir(dir)) {
    if (parse_checkpoint_name(name)) names.push_back(name);
  }
  // list_dir sorts ascending and names zero-pad the epoch: walk newest
  // first.
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    try {
      return parse_checkpoint<V>(dir + "/" + *it, expected);
    } catch (const ManifestMismatch&) {
      throw;
    } catch (const RecoveryError&) {
      continue;  // corrupt: fall back to the next older checkpoint
    }
  }
  return std::nullopt;
}

/// Throw std::invalid_argument if `dir` already holds WAL segments or
/// checkpoints: a *fresh* builder constructing over recoverable state
/// would be silent data loss — the caller should use `recover()`.
inline void require_no_durable_state(const std::string& dir) {
  for (const std::string& name : util::list_dir(dir)) {
    if (parse_wal_segment_name(name) || parse_checkpoint_name(name)) {
      throw std::invalid_argument(
          "i2a: durable state already present in '" + dir +
          "'; construct via recover() instead of a fresh builder");
    }
  }
}

/// Garbage-collect: delete checkpoints older than `keep_epoch` and any
/// stray `.tmp` residue. Called after a new checkpoint lands.
inline void gc_checkpoints(const std::string& dir, std::uint64_t keep_epoch) {
  bool removed = false;
  for (const std::string& name : util::list_dir(dir)) {
    const auto epoch = parse_checkpoint_name(name);
    const bool stale_ckpt = epoch && *epoch < keep_epoch;
    const bool tmp_residue =
        name.size() > 4 && name.substr(name.size() - 4) == ".tmp";
    if (stale_ckpt || tmp_residue) {
      util::remove_file(dir + "/" + name);
      removed = true;
    }
  }
  if (removed) util::fsync_dir(dir);
}

}  // namespace i2a::stream
