#pragma once
/// \file stream/wal.hpp
/// \brief Write-ahead log for the streaming builder: one checksummed
///        frame per ingested batch, segment rotation, torn-tail repair,
///        and the replay scanner recovery drives (DESIGN.md §12).
///
/// **What is logged.** The WAL records the *input* stream, not derived
/// state: each `ingest()` batch becomes one frame carrying its epoch and
/// the raw COO edge list. Replay pushes the recorded batches back
/// through the normal publish path, and because every per-(i,j) value is
/// a ⊕-fold over parallel edges with ⊕ associative (the algebraic
/// condition the paper's Theorem II.1 rests on), re-merging replayed
/// runs reproduces the pre-crash builder byte-for-byte — the same
/// rebuild-oracle identity test_stream enforces, extended across a kill
/// boundary.
///
/// **Append is all-or-nothing.** `append()` gives the strong guarantee
/// the ingest path requires: on any failure (write, fsync, or an armed
/// failpoint) the segment is ftruncated back to its pre-append length
/// before the exception propagates, so a batch either occupies exactly
/// one durable frame or leaves no bytes behind. Consequently each epoch
/// appears at most once in the log and replay can insist on a strictly
/// sequential epoch chain. If even the rollback truncate fails the WAL
/// enters a failed state and every later append throws — the builder
/// surfaces that as an ordinary ingest failure and commits nothing it
/// cannot log.
///
/// **Durability contract** (`Durability`):
///   * `kFsyncEachBatch` — fsync before `append()` returns: once
///     `ingest()` returns, the batch survives power loss. This is the
///     mode whose acknowledgements the crash harness treats as binding.
///   * `kAsync` — frames go to the page cache; fsync happens on segment
///     rotation and on `close()`. Acknowledged batches survive SIGKILL
///     (the kernel still owns the pages) but not power loss, which can
///     cost at most the active segment's unsynced tail. A checkpoint
///     does not sync the log and need not: the checkpoint file itself
///     is fsynced before its rename, so the prefix it covers is durable
///     on its own, and only segments it fully covers are retired.
///   * `kNone` — never fsyncs. Same SIGKILL story, no power-loss story
///     at all; for tests and bulk loads.
///
/// **Segments.** Frames land in `wal-<seqno>.log` files, rotated once a
/// segment exceeds `segment_bytes`. Every segment opens with a header
/// frame naming the manifest (algebra tag, vertex count, shard count,
/// weighting) and the epoch the segment starts after, so recovery can
/// refuse a mismatched log and checkpointing can retire fully-covered
/// segments.
///
/// Failpoints: `wal.append.write` fires inside a frame's torn window
/// (after the header write, before the payload write) and
/// `wal.append.fsync` fires in place of a successful fsync — the
/// exception-safety sweep in test_recovery drives both through the
/// rollback path.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"

namespace i2a::stream {

/// When an acknowledged (`ingest()` returned) batch is durable.
enum class Durability {
  kNone,            ///< never fsync: page-cache only
  kAsync,           ///< fsync on rotation and close
  kFsyncEachBatch,  ///< fsync before ingest returns (acknowledged ⇒ durable)
};

/// Typed failure for recovery-time *format* problems: corrupt or
/// mismatched durable state (bad manifest, epoch gap, mid-log
/// corruption, unparseable checkpoint). Environment-level syscall
/// failures stay util::IoError.
class RecoveryError : public std::runtime_error {
 public:
  explicit RecoveryError(const std::string& what)
      : std::runtime_error("i2a recovery: " + what) {}
};

/// Identity of a durable directory. Recovery refuses to replay state
/// written under a different manifest (wrong algebra instantiation,
/// vertex count, shard count, or weighting) — replaying "+.*" frames
/// into a min.+ builder would be silently wrong, so it is an error.
struct WalManifest {
  std::string algebra;        ///< P::name() + "/" + sizeof(value_type)
  std::uint64_t num_vertices = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t weighting = 0;  ///< underlying value of stream::Weighting

  friend bool operator==(const WalManifest&, const WalManifest&) = default;

  std::string describe() const {
    return "{algebra=" + algebra + ", n=" + std::to_string(num_vertices) +
           ", shards=" + std::to_string(shard_count) +
           ", weighting=" + std::to_string(weighting) + "}";
  }
};

/// Build the manifest algebra tag for a pair type: the pair's spelled
/// name plus the value-type width, so distinct instantiations of the
/// same symbolic algebra (e.g. double vs float carriers) don't alias.
template <typename P>
std::string algebra_tag() {
  return std::string(P::name()) + "/" +
         std::to_string(sizeof(typename P::value_type));
}

// On-disk frame discriminators (first u32 of every payload) and format
// version, shared with stream/checkpoint.hpp.
inline constexpr std::uint32_t kFrameSegmentHeader = 1;
inline constexpr std::uint32_t kFrameBatch = 2;
inline constexpr std::uint32_t kFrameCheckpointHeader = 3;
inline constexpr std::uint32_t kFrameCheckpointRun = 4;
inline constexpr std::uint32_t kWalFormatVersion = 1;

/// Bound on a segment header frame's payload: four fixed words plus the
/// manifest, whose algebra tag is a short name. `Wal::list_segments`
/// reads no more than this (plus the frame header) of any segment.
inline constexpr std::size_t kMaxSegmentHeaderBytes = 4096;

inline void encode_manifest(util::ByteWriter& w, const WalManifest& m) {
  w.str(m.algebra);
  w.u64(m.num_vertices);
  w.u32(m.shard_count);
  w.u32(m.weighting);
}

inline WalManifest decode_manifest(util::ByteReader& r) {
  WalManifest m;
  m.algebra = r.str();
  m.num_vertices = r.u64();
  m.shard_count = r.u32();
  m.weighting = r.u32();
  return m;
}

inline std::string wal_segment_name(std::uint64_t seqno) {
  std::string digits = std::to_string(seqno);
  I2A_EXPECTS(digits.size() <= 16, "wal: seqno too large");
  return "wal-" + std::string(16 - digits.size(), '0') + digits + ".log";
}

/// Parse `wal-<seqno>.log`; nullopt for anything else.
inline std::optional<std::uint64_t> parse_wal_segment_name(
    std::string_view name) {
  constexpr std::string_view prefix = "wal-";
  constexpr std::string_view suffix = ".log";
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(prefix.size() + 16) != suffix) return std::nullopt;
  std::uint64_t seqno = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = name[prefix.size() + i];
    if (c < '0' || c > '9') return std::nullopt;
    seqno = seqno * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seqno;
}

/// Append-side WAL over one directory. Single writer (the same external
/// serialization `ingest()` already requires); not thread-safe.
class Wal {
 public:
  /// Open a fresh segment `wal-<seqno>.log` whose header says "batches
  /// after epoch `start_epoch` follow". The directory must exist.
  Wal(std::string dir, WalManifest manifest, Durability durability,
      std::uint64_t segment_bytes, std::uint64_t seqno,
      std::uint64_t start_epoch)
      : dir_(std::move(dir)),
        manifest_(std::move(manifest)),
        durability_(durability),
        segment_bytes_(segment_bytes),
        seqno_(seqno),
        next_epoch_(start_epoch + 1) {
    I2A_EXPECTS(segment_bytes_ > 0, "wal: zero segment size");
    open_segment(start_epoch);
  }

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  Wal(Wal&&) = default;
  Wal& operator=(Wal&&) = default;
  ~Wal() {
    try {
      close();  // kAsync promises an fsync on close
    } catch (...) {
      // A failed final fsync has no remaining caller to report to; the
      // frames are still in the page cache (SIGKILL-safe, not
      // power-loss-safe), which is also kAsync's mid-run contract.
    }
  }

  /// Log one batch under `epoch`. Strong guarantee (see file comment);
  /// epochs must arrive strictly sequentially.
  void append(std::uint64_t epoch, std::span<const graph::Edge> batch) {
    if (failed_) {
      throw util::IoError("wal '" + dir_ + "' is failed (rollback truncate " +
                          "did not complete); no further appends accepted");
    }
    I2A_EXPECTS(epoch == next_epoch_, "wal: non-sequential epoch");
    util::ByteWriter w;
    w.u32(kFrameBatch);
    w.u64(epoch);
    w.u64(batch.size());
    for (const graph::Edge& e : batch) {
      w.i64(static_cast<std::int64_t>(e.src));
      w.i64(static_cast<std::int64_t>(e.dst));
      w.f64(e.weight);
    }
    const std::uint64_t pre_append = file_.size();
    try {
      util::write_frame(file_, w.buffer(),
                        [] { I2A_FAILPOINT("wal.append.write"); });
      if (durability_ == Durability::kFsyncEachBatch) {
        I2A_FAILPOINT("wal.append.fsync");
        file_.sync();
      }
    } catch (...) {
      rollback_to(pre_append);
      throw;
    }
    ++next_epoch_;
    if (file_.size() >= segment_bytes_) rotate();
  }

  /// fsync the current segment (`rotate()` and `close()` call it: the
  /// kAsync durability points).
  void sync() {
    if (durability_ != Durability::kNone) file_.sync();
  }

  /// Flush and close the current segment. The Wal is unusable after.
  void close() {
    if (file_.is_open()) {
      sync();
      file_.close();
    }
  }

  /// Delete every segment made fully redundant by a checkpoint at
  /// `checkpoint_epoch`: segment i is redundant when segment i+1 exists,
  /// has a readable header, and starts at or before that epoch (an
  /// unreadable successor header proves nothing about coverage, so its
  /// predecessor is kept). Segments with seqno ≥ `active_seqno` are
  /// never deleted. Static (dir + values only) so the background
  /// checkpoint task can retire without referencing the live Wal
  /// object — the task may run concurrently with appends and rotation.
  static void retire_segments(const std::string& dir,
                              std::uint64_t checkpoint_epoch,
                              std::uint64_t active_seqno) {
    const auto segments = list_segments(dir);
    bool removed = false;
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      if (segments[i + 1].header_ok &&
          segments[i + 1].start_epoch <= checkpoint_epoch &&
          segments[i].seqno < active_seqno) {
        util::remove_file(segments[i].path);
        removed = true;
      }
    }
    if (removed) util::fsync_dir(dir);
  }

  const std::string& dir() const { return dir_; }
  std::uint64_t seqno() const { return seqno_; }

  /// One on-disk segment, as discovered by `list_segments`.
  struct SegmentInfo {
    std::string path;
    std::uint64_t seqno = 0;
    std::uint64_t start_epoch = 0;  ///< epochs > start_epoch live here
    bool header_ok = false;         ///< header frame parsed and CRC-valid
  };

  /// Discover segments in `dir`, sorted by seqno. Reads only the first
  /// kFrameHeaderBytes + kMaxSegmentHeaderBytes of each file, so memory
  /// stays bounded however large the segments grow. A segment whose
  /// header frame does not decode within that prefix gets header_ok =
  /// false and start_epoch 0 (the replay pass classifies it properly).
  static std::vector<SegmentInfo> list_segments(const std::string& dir) {
    std::vector<SegmentInfo> out;
    for (const std::string& name : util::list_dir(dir)) {
      const auto seqno = parse_wal_segment_name(name);
      if (!seqno) continue;
      SegmentInfo info;
      info.path = dir + "/" + name;
      info.seqno = *seqno;
      out.push_back(std::move(info));
    }
    // list_dir sorts lexically and the names zero-pad seqno, so `out`
    // is already seqno-sorted; fill in header epochs where readable.
    for (SegmentInfo& info : out) {
      const std::vector<unsigned char> image = util::read_prefix(
          info.path, util::kFrameHeaderBytes + kMaxSegmentHeaderBytes);
      util::FrameReader reader(image);
      std::vector<unsigned char> payload;
      if (reader.next(payload) == util::FrameStatus::kOk) {
        try {
          util::ByteReader r(payload);
          if (r.u32() == kFrameSegmentHeader && r.u32() == kWalFormatVersion) {
            r.u64();  // seqno (redundant with the name)
            info.start_epoch = r.u64();
            info.header_ok = true;
          }
        } catch (const util::IoError&) {
          // Leave start_epoch = 0; replay rejects the segment.
        }
      }
    }
    return out;
  }

 private:
  void open_segment(std::uint64_t start_epoch) {
    const std::string path = dir_ + "/" + wal_segment_name(seqno_);
    if (util::file_exists(path)) {
      throw util::IoError("wal segment already exists: " + path);
    }
    util::ByteWriter w;
    w.u32(kFrameSegmentHeader);
    w.u32(kWalFormatVersion);
    w.u64(seqno_);
    w.u64(start_epoch);
    encode_manifest(w, manifest_);
    // list_segments reads no further; a longer header would hide the
    // segment's start epoch from retirement.
    if (w.buffer().size() > kMaxSegmentHeaderBytes) {
      throw std::invalid_argument("wal: manifest " + manifest_.describe() +
                                  " exceeds the segment header bound");
    }
    file_ = util::File::create_append(path);
    util::write_frame(file_, w.buffer());
    // The header must be durable before any batch frame can be: a
    // segment whose header never reached disk would orphan the batches
    // behind it.
    if (durability_ != Durability::kNone) {
      file_.sync();
      util::fsync_dir(dir_);
    }
  }

  void rotate() {
    // Seal the old segment (fsync under any durability mode that ever
    // syncs), then open the next one.
    sync();
    file_.close();
    ++seqno_;
    open_segment(next_epoch_ - 1);
  }

  void rollback_to(std::uint64_t pre_append) noexcept {
    try {
      file_.truncate(pre_append);
    } catch (...) {
      failed_ = true;  // can no longer promise at-most-once epochs
    }
  }

  std::string dir_;
  WalManifest manifest_;
  Durability durability_ = Durability::kFsyncEachBatch;
  std::uint64_t segment_bytes_ = 0;
  std::uint64_t seqno_ = 0;
  std::uint64_t next_epoch_ = 0;
  bool failed_ = false;
  util::File file_;
};

/// Replay outcome for one directory scan.
struct WalReplayStats {
  std::uint64_t batches_replayed = 0;
  std::uint64_t batches_skipped = 0;   ///< epochs the checkpoint already covers
  std::uint64_t tail_bytes_truncated = 0;
  std::uint64_t last_seqno = 0;        ///< highest segment seqno seen
  bool any_segment = false;
};

/// ftruncate `path` to `keep` bytes (torn-tail repair), recording the
/// loss in `stats`. Separate function so the crash harness can count
/// repairs.
inline void truncate_segment(const std::string& path, std::uint64_t keep,
                             std::size_t file_size, WalReplayStats& stats) {
  stats.tail_bytes_truncated += static_cast<std::uint64_t>(file_size) - keep;
  util::File f = util::File::open_append(path);
  f.truncate(keep);
  f.sync();
  f.close();
}
/// Scan every segment in `dir` and replay each batch frame with epoch >
/// `start_epoch` through `sink(epoch, edges)`, in epoch order.
///
/// Torn-tail policy: an invalid tail (short header, impossible length,
/// CRC mismatch — indistinguishable classes, by design of the format)
/// in the **last** segment is the expected SIGKILL residue: the file is
/// ftruncated back to the last valid frame boundary and replay
/// succeeds. The same residue in any earlier segment cannot come from a
/// tail crash (a later segment exists, so this one was sealed) and is
/// reported as RecoveryError. Epoch gaps, manifest mismatches and
/// CRC-valid frames naming a vertex ≥ the manifest's count are always
/// RecoveryError.
///
/// Idempotent: re-running on the directory it just repaired replays the
/// identical batch sequence (truncation only ever removes bytes replay
/// ignored).
template <typename Sink>
WalReplayStats replay_wal(const std::string& dir,
                          const WalManifest& expected,
                          std::uint64_t start_epoch, Sink&& sink) {
  WalReplayStats stats;
  const auto segments = Wal::list_segments(dir);
  std::uint64_t epoch = start_epoch;
  for (std::size_t si = 0; si < segments.size(); ++si) {
    const bool last = si + 1 == segments.size();
    const Wal::SegmentInfo& seg = segments[si];
    stats.any_segment = true;
    stats.last_seqno = seg.seqno;
    const std::vector<unsigned char> image = util::read_file(seg.path);
    util::FrameReader reader(image);
    std::vector<unsigned char> payload;

    const auto corrupt = [&](const std::string& what) -> RecoveryError {
      return RecoveryError(what + " in segment '" + seg.path + "' at offset " +
                           std::to_string(reader.offset()));
    };

    // Header frame first. An empty segment file (crash between segment
    // creation and the header write, or a previous recovery's repair)
    // carries nothing and is skipped; a torn header in the last segment
    // is the same residue and is truncated back to empty.
    {
      const util::FrameStatus st = reader.next(payload);
      if (st == util::FrameStatus::kEnd) continue;
      if (st != util::FrameStatus::kOk) {
        if (last) {
          truncate_segment(seg.path, 0, image.size(), stats);
          break;
        }
        throw corrupt("unreadable segment header");
      }
      try {
        util::ByteReader r(payload);
        if (r.u32() != kFrameSegmentHeader) {
          throw corrupt("first frame is not a segment header");
        }
        if (const std::uint32_t v = r.u32(); v != kWalFormatVersion) {
          throw RecoveryError("segment '" + seg.path +
                              "' has format version " + std::to_string(v) +
                              ", expected " +
                              std::to_string(kWalFormatVersion));
        }
        r.u64();  // seqno
        r.u64();  // segment start epoch (informational; the chain rules)
        if (const WalManifest m = decode_manifest(r); m != expected) {
          throw RecoveryError("manifest mismatch in '" + seg.path +
                              "': log has " + m.describe() + ", builder is " +
                              expected.describe());
        }
      } catch (const util::IoError&) {
        throw corrupt("truncated segment header payload");
      }
    }

    // Batch frames.
    for (;;) {
      const std::uint64_t frame_start = reader.offset();
      const util::FrameStatus st = reader.next(payload);
      if (st == util::FrameStatus::kEnd) break;
      if (st == util::FrameStatus::kTorn) {
        if (!last) throw corrupt("torn frame in sealed segment");
        truncate_segment(seg.path, frame_start, image.size(), stats);
        break;
      }
      std::uint64_t frame_epoch = 0;
      std::vector<graph::Edge> edges;
      try {
        util::ByteReader r(payload);
        if (r.u32() != kFrameBatch) throw corrupt("unexpected frame type");
        frame_epoch = r.u64();
        const std::uint64_t count = r.u64();
        if (count > r.remaining() / 24 || count * 24 != r.remaining()) {
          throw corrupt("batch frame size does not match edge count");
        }
        edges.reserve(count);
        const auto n = static_cast<index_t>(expected.num_vertices);
        // A frame can pass its CRC and still name a vertex the manifest
        // does not have, or one above the 32-bit edge ids; that is
        // corrupt state, not an ingest-time argument error. Checked on
        // the frame's i64 before it is narrowed, so no id aliases.
        const auto endpoint = [&](std::int64_t v) {
          if (!graph::storable_vertex(v, n)) {
            throw corrupt("batch edge endpoint out of range");
          }
          return static_cast<graph::Edge::vertex_type>(v);
        };
        for (std::uint64_t i = 0; i < count; ++i) {
          const graph::Edge::vertex_type src = endpoint(r.i64());
          const graph::Edge::vertex_type dst = endpoint(r.i64());
          edges.push_back(graph::Edge{src, dst, r.f64()});
        }
      } catch (const util::IoError&) {
        throw corrupt("malformed batch payload");
      }
      if (frame_epoch <= start_epoch) {
        // The checkpoint already covers this batch.
        ++stats.batches_skipped;
        continue;
      }
      if (frame_epoch != epoch + 1) {
        throw RecoveryError("epoch chain broken in '" + seg.path +
                            "': expected epoch " + std::to_string(epoch + 1) +
                            ", found " + std::to_string(frame_epoch));
      }
      sink(frame_epoch, edges);
      epoch = frame_epoch;
      ++stats.batches_replayed;
    }
  }
  return stats;
}

}  // namespace i2a::stream
