/// \file test_recovery.cpp
/// \brief Crash-safety suite for the durable streaming path (DESIGN.md
///        §12): frame/CRC mechanics, WAL replay, checkpoint round-trips,
///        manifest refusal, a corruption matrix (truncation + bit
///        flips), a durable failpoint sweep, seeded SIGKILL crash
///        trials, and the write path's memory bounds (streamed
///        checkpoint frames byte-identical to a buffered reference
///        encoder; allocation caps on segment discovery and
///        checkpoint writes).
///
/// The binding contract under test: after ANY crash, `recover()` yields
/// a builder whose adjacency is byte-identical to a serial rebuild of
/// some *prefix* of the ingested batches — and that prefix covers every
/// batch whose `ingest()` returned before the kill (acknowledged ⇒
/// recovered, for both `kFsyncEachBatch` and, under SIGKILL, `kAsync`).
/// Corrupted durable state — which no crash schedule of ours can
/// produce, only bad media — must yield either an intact shorter prefix
/// or a typed `RecoveryError`; never UB, never silently wrong bytes
/// (the ASan/UBSan legs run this same binary).
///
/// Crash trials re-exec this binary as a writer child (`--writer`) that
/// acknowledges each durable batch into an ack file, SIGKILL it at a
/// seeded random point, and recover in the parent. `--trials N --seed S`
/// runs only the trial loop — that is what tools/crash_harness.sh and
/// the CI crash-injection leg drive (≥200 iterations, seed logged).
/// A failing trial prints `ARTIFACT <dir>` and keeps the directory.

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "stream/checkpoint.hpp"
#include "stream/sharded_builder.hpp"
#include "stream/wal.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;
using i2a::test::csr_bitwise_equal;

// ---------------------------------------------------------------------------
// Counting global allocator, local to this executable: the allocation-
// bound tests read the bytes requested through operator new across one
// call. Allocation itself stays malloc/free.

namespace {

std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_largest{0};

void* counted_malloc(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  std::uint64_t largest = g_alloc_largest.load(std::memory_order_relaxed);
  while (size > largest && !g_alloc_largest.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using PT = algebra::PlusTimes<double>;
using Builder = stream::AdjacencyBuilder<PT>;
using Sharded = stream::ShardedBuilder<PT>;
using stream::Durability;
using stream::Options;
using stream::RecoveryError;

constexpr index_t kN = 24;

// ---------------------------------------------------------------------------
// Workload + oracle (same shapes as test_failpoints).

graph::Graph rec_graph(index_t n, index_t m, std::uint64_t seed) {
  auto g = graph::gen::random_multigraph(n, m, seed);
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& e : g.edges()) {
    e.weight = static_cast<double>(1 + rng.next() % 9);
  }
  return g;
}

std::vector<std::vector<graph::Edge>> make_batches(const graph::Graph& g,
                                                   std::size_t batch) {
  std::vector<std::vector<graph::Edge>> out;
  const auto& edges = g.edges();
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t hi = std::min(edges.size(), lo + batch);
    out.emplace_back(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                     edges.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

/// Serial rebuild over batches [0, k) — the byte oracle.
sparse::Csr<double> oracle_prefix(
    index_t n, const std::vector<std::vector<graph::Edge>>& batches,
    std::size_t k) {
  const PT p{};
  graph::Graph prefix(n);
  for (std::size_t b = 0; b < k; ++b) {
    for (const auto& e : batches[b]) prefix.add_edge(e.src, e.dst, e.weight);
  }
  return graph::adjacency_array(p, graph::incidence_arrays(prefix, p));
}

/// The crash-trial workload, derived from the trial seed so the writer
/// child and the recovering parent agree without communicating.
std::vector<std::vector<graph::Edge>> trial_batches(std::uint64_t seed) {
  return make_batches(rec_graph(kN, 192, seed ^ 0xC0FFEEULL), 8);
}

// ---------------------------------------------------------------------------
// Temp-dir scaffolding. Trials keep their directory on failure (the
// artifact the harness uploads); everything else cleans up.

std::string make_temp_dir() {
  std::string tmpl = "/tmp/i2a-recovery-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(2);
  }
  return tmpl;
}

void remove_tree(const std::string& dir) {
  for (const std::string& name : util::list_dir(dir)) {
    const std::string path = dir + "/" + name;
    struct stat st = {};
    if (::lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      remove_tree(path);
    } else {
      ::unlink(path.c_str());
    }
  }
  ::rmdir(dir.c_str());
}

struct TempDir {
  std::string path = make_temp_dir();
  bool keep = false;
  ~TempDir() {
    if (!keep) remove_tree(path);
  }
};

void copy_file_bytes(const std::string& from, const std::string& to) {
  const auto bytes = util::read_file(from);
  util::File f = util::File::create_append(to);
  f.write_fully(bytes.data(), bytes.size());
  f.close();
}

void copy_dir_flat(const std::string& from, const std::string& to) {
  for (const std::string& name : util::list_dir(from)) {
    copy_file_bytes(from + "/" + name, to + "/" + name);
  }
}

Options durable_opts(const std::string& dir,
                     Durability durability = Durability::kFsyncEachBatch) {
  Options o;
  o.wal_dir = dir;
  o.durability = durability;
  return o;
}

// ---------------------------------------------------------------------------
// Frame / CRC / encoding mechanics.

void test_crc32c_vectors() {
  // The canonical CRC-32C check value: "123456789" -> 0xE3069283.
  const char* msg = "123456789";
  CHECK_EQ(util::crc32c(msg, 9), 0xE3069283U);
  CHECK_EQ(util::crc32c(msg, 0), 0U);
  // Incremental == one-shot via the seed parameter's complement chain is
  // not part of the API; what matters is sensitivity: any byte change
  // changes the sum.
  std::string other = msg;
  other[4] ^= 1;
  CHECK(util::crc32c(other.data(), 9) != 0xE3069283U);
}

void test_byte_codec_roundtrip() {
  util::ByteWriter w;
  w.u32(0xDEADBEEFU);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.5);
  w.str("manifest");
  util::ByteReader r(w.buffer());
  CHECK_EQ(r.u32(), 0xDEADBEEFU);
  CHECK_EQ(r.u64(), 0x0123456789ABCDEFULL);
  CHECK_EQ(r.i64(), -42);
  CHECK_EQ(r.f64(), 3.5);
  CHECK(r.str() == "manifest");
  CHECK(r.done());
  // Underrun is a typed IoError, never an out-of-bounds read.
  bool threw = false;
  try {
    r.u32();
  } catch (const util::IoError&) {
    threw = true;
  }
  CHECK(threw);
}

void test_frame_reader_classification() {
  TempDir td;
  const std::string path = td.path + "/frames.bin";
  std::vector<std::vector<unsigned char>> payloads;
  {
    util::File f = util::File::create_append(path);
    for (unsigned i = 0; i < 4; ++i) {
      std::vector<unsigned char> p(7 * (i + 1));
      for (std::size_t j = 0; j < p.size(); ++j) {
        p[j] = static_cast<unsigned char>(i * 31 + j);
      }
      util::write_frame(f, p);
      payloads.push_back(std::move(p));
    }
    f.close();
  }
  const auto image = util::read_file(path);
  // Clean read: every frame back, then kEnd.
  {
    util::FrameReader reader(image);
    std::vector<unsigned char> out;
    for (const auto& expect : payloads) {
      CHECK(reader.next(out) == util::FrameStatus::kOk);
      CHECK(out == expect);
    }
    CHECK(reader.next(out) == util::FrameStatus::kEnd);
  }
  // Truncation at EVERY byte length: the reader yields exactly the
  // frames that fit and classifies any leftover as kTorn with offset()
  // at the last whole-frame boundary — the ftruncate target.
  std::vector<std::uint64_t> boundaries = {0};
  {
    util::FrameReader reader(image);
    std::vector<unsigned char> out;
    while (reader.next(out) == util::FrameStatus::kOk) {
      boundaries.push_back(reader.offset());
    }
  }
  for (std::size_t len = 0; len <= image.size(); ++len) {
    util::FrameReader reader(image.data(), len);
    std::vector<unsigned char> out;
    std::size_t got = 0;
    util::FrameStatus st;
    while ((st = reader.next(out)) == util::FrameStatus::kOk) ++got;
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= len) {
      ++whole;
    }
    CHECK_EQ(got, whole);
    if (len == boundaries[whole]) {
      CHECK(st == util::FrameStatus::kEnd);
    } else {
      CHECK(st == util::FrameStatus::kTorn);
      CHECK_EQ(reader.offset(), boundaries[whole]);
    }
  }
  // Bit flips: a flip anywhere inside a frame makes that frame torn, and
  // the frames before it still decode.
  for (std::size_t pos = 0; pos < image.size(); pos += 5) {
    auto flipped = image;
    flipped[pos] ^= static_cast<unsigned char>(1U << (pos % 8));
    util::FrameReader reader(flipped);
    std::vector<unsigned char> out;
    std::size_t got = 0;
    while (reader.next(out) == util::FrameStatus::kOk) {
      CHECK(out == payloads[got]);
      ++got;
    }
    CHECK(got < payloads.size());  // the damaged frame never decodes
  }
}

/// The length word is a u32: the largest length encodes as all ones, and
/// one byte more is a typed IoError in every build type — raised before
/// any byte of the frame reaches the file, so a failed checkpoint never
/// replaces the good one. Exercised through the length-only paths, with
/// no 4 GiB payload.
void test_frame_length_cap() {
  const auto h = util::frame_header(util::kMaxFrameBytes, 0x04030201U);
  for (std::size_t i = 0; i < 4; ++i) {
    CHECK_EQ(h[i], 0xFFU);
    CHECK_EQ(h[i + 4], i + 1);
  }
  const auto throws_io = [](auto&& fn) {
    try {
      fn();
    } catch (const util::IoError&) {
      return true;
    }
    return false;
  };
  CHECK(throws_io([] { util::frame_header(util::kMaxFrameBytes + 1, 0); }));

  TempDir td;
  util::File f = util::File::create_append(td.path + "/frames.bin");
  bool encoded = false;
  CHECK(throws_io([&] {
    util::write_frame_streamed(f, util::kMaxFrameBytes + 1,
                               [&](util::ChunkEncoder&) { encoded = true; });
  }));
  CHECK(!encoded);
  CHECK_EQ(f.size(), 0u);
  // A declared length the encoder does not produce is refused before
  // the header is written, too.
  CHECK(throws_io([&] {
    util::write_frame_streamed(f, 9, [](util::ChunkEncoder& w) { w.u64(1); });
  }));
  CHECK_EQ(f.size(), 0u);
}

// ---------------------------------------------------------------------------
// WAL append/replay mechanics (below the builder).

void test_wal_replay_roundtrip() {
  TempDir td;
  const auto batches = trial_batches(11);
  const stream::WalManifest manifest{"test/8", 24, 1, 0};
  {
    // Tiny segments force rotation: the chain must replay across
    // segment boundaries in epoch order.
    stream::Wal wal(td.path, manifest, Durability::kFsyncEachBatch,
                    /*segment_bytes=*/256, /*seqno=*/0, /*start_epoch=*/0);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      wal.append(b + 1, std::span<const graph::Edge>(batches[b].data(),
                                                     batches[b].size()));
    }
    wal.close();
  }
  const auto segments = stream::Wal::list_segments(td.path);
  CHECK(segments.size() > 1);  // rotation actually happened
  for (const auto& seg : segments) CHECK(seg.header_ok);

  std::vector<std::vector<graph::Edge>> replayed;
  const auto stats = stream::replay_wal(
      td.path, manifest, 0,
      [&](std::uint64_t epoch, const std::vector<graph::Edge>& edges) {
        CHECK_EQ(epoch, replayed.size() + 1);
        replayed.push_back(edges);
      });
  CHECK_EQ(stats.batches_replayed, batches.size());
  CHECK_EQ(stats.tail_bytes_truncated, 0u);
  CHECK_EQ(replayed.size(), batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    CHECK_EQ(replayed[b].size(), batches[b].size());
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      CHECK_EQ(replayed[b][i].src, batches[b][i].src);
      CHECK_EQ(replayed[b][i].dst, batches[b][i].dst);
      CHECK_EQ(replayed[b][i].weight, batches[b][i].weight);
    }
  }
  // A checkpoint at epoch k turns the prefix into skips.
  const std::uint64_t k = batches.size() / 2;
  std::size_t replayed_after = 0;
  const auto stats2 = stream::replay_wal(
      td.path, manifest, k,
      [&](std::uint64_t epoch, const std::vector<graph::Edge>&) {
        CHECK(epoch > k);
        ++replayed_after;
      });
  CHECK_EQ(stats2.batches_skipped, k);
  CHECK_EQ(replayed_after, batches.size() - k);
}

// ---------------------------------------------------------------------------
// Builder-level recovery.

void test_recover_clean() {
  TempDir td;
  const auto batches = trial_batches(21);
  for (const Durability mode :
       {Durability::kFsyncEachBatch, Durability::kAsync}) {
    const std::string dir =
        td.path + (mode == Durability::kAsync ? "/async" : "/fsync");
    {
      Builder b(kN, PT{}, durable_opts(dir, mode));
      for (const auto& batch : batches) b.ingest(batch);
      CHECK(csr_bitwise_equal(
          b.adjacency(), oracle_prefix(kN, batches, batches.size())));
    }
    Builder r = Builder::recover(kN, PT{}, durable_opts(dir, mode));
    CHECK_EQ(r.stats().batches, batches.size());
    CHECK_EQ(r.stats().edges, 192u);
    CHECK(csr_bitwise_equal(r.adjacency(),
                            oracle_prefix(kN, batches, batches.size())));
    // The recovered builder keeps working: new ingests extend the same
    // log and survive another recovery.
    r.ingest(batches[0]);
    graph::Graph extended(kN);
    for (const auto& batch : batches) {
      for (const auto& e : batch) extended.add_edge(e.src, e.dst, e.weight);
    }
    for (const auto& e : batches[0]) {
      extended.add_edge(e.src, e.dst, e.weight);
    }
    const PT p{};
    const auto extended_oracle =
        graph::adjacency_array(p, graph::incidence_arrays(extended, p));
    CHECK(csr_bitwise_equal(r.adjacency(), extended_oracle));
    { Builder drop = std::move(r); }  // seal the log
    Builder r2 = Builder::recover(kN, PT{}, durable_opts(dir, mode));
    CHECK_EQ(r2.stats().batches, batches.size() + 1);
    CHECK(csr_bitwise_equal(r2.adjacency(), extended_oracle));
  }
}

void test_recover_empty_dir_is_fresh() {
  TempDir td;
  Builder r = Builder::recover(kN, PT{}, durable_opts(td.path + "/new"));
  CHECK_EQ(r.stats().batches, 0u);
  const auto batches = trial_batches(31);
  r.ingest(batches[0]);
  CHECK(csr_bitwise_equal(r.adjacency(), oracle_prefix(kN, batches, 1)));
}

void test_recover_with_checkpoint() {
  TempDir td;
  const auto batches = trial_batches(41);
  util::ThreadPool pool(2);
  Options opts = durable_opts(td.path);
  opts.pool = &pool;
  opts.compaction = stream::Compaction::kBackground;
  opts.checkpoint_every = 3;
  opts.wal_segment_bytes = 256;  // rotate often so retirement can bite
  {
    Builder b(kN, PT{}, opts);
    for (const auto& batch : batches) b.ingest(batch);
    b.drain();
    CHECK(b.stats().checkpoints > 0);
  }
  // Checkpoint GC keeps one file; segment retirement pruned the prefix.
  std::size_t ckpts = 0;
  std::size_t segments = 0;
  for (const std::string& name : util::list_dir(td.path)) {
    if (stream::parse_checkpoint_name(name)) ++ckpts;
    if (stream::parse_wal_segment_name(name)) ++segments;
  }
  CHECK_EQ(ckpts, 1u);
  CHECK(segments < batches.size());
  // Recovery restores the checkpointed ladder + WAL suffix exactly.
  Builder r = Builder::recover(kN, PT{}, durable_opts(td.path));
  CHECK_EQ(r.stats().batches, batches.size());
  CHECK_EQ(r.stats().edges, 192u);
  CHECK(csr_bitwise_equal(r.adjacency(),
                          oracle_prefix(kN, batches, batches.size())));
}

void test_sharded_recover() {
  TempDir td;
  const auto batches = trial_batches(51);
  util::ThreadPool pool(2);
  Options opts = durable_opts(td.path);
  opts.pool = &pool;
  opts.compaction = stream::Compaction::kBackground;
  opts.checkpoint_every = 4;
  {
    Sharded sb(kN, 4, PT{}, opts);
    for (const auto& batch : batches) sb.ingest(batch);
    sb.drain();
    CHECK(sb.stats().checkpoints > 0);
  }
  Sharded r = Sharded::recover(kN, 4, PT{}, durable_opts(td.path));
  CHECK_EQ(r.stats().batches, batches.size());
  CHECK(csr_bitwise_equal(r.adjacency(),
                          oracle_prefix(kN, batches, batches.size())));
  // Replayed routing is deterministic: continue ingesting, recover
  // again, and the fused bytes still match a serial rebuild.
  r.ingest(batches[0]);
  graph::Graph extended(kN);
  for (const auto& batch : batches) {
    for (const auto& e : batch) extended.add_edge(e.src, e.dst, e.weight);
  }
  for (const auto& e : batches[0]) extended.add_edge(e.src, e.dst, e.weight);
  const PT p{};
  const auto extended_oracle =
      graph::adjacency_array(p, graph::incidence_arrays(extended, p));
  CHECK(csr_bitwise_equal(r.adjacency(), extended_oracle));
}

void test_manifest_refusals() {
  TempDir td;
  const auto batches = trial_batches(61);
  {
    Builder b(kN, PT{}, durable_opts(td.path + "/single"));
    for (std::size_t i = 0; i < 3; ++i) b.ingest(batches[i]);
  }
  const auto expect_recovery_error = [](auto&& fn) {
    bool threw = false;
    try {
      fn();
    } catch (const RecoveryError&) {
      threw = true;
    }
    CHECK(threw);
  };
  // Wrong vertex count.
  expect_recovery_error([&] {
    Builder::recover(kN + 1, PT{}, durable_opts(td.path + "/single"));
  });
  // Wrong weighting.
  expect_recovery_error([&] {
    Options o = durable_opts(td.path + "/single");
    o.weighting = stream::Weighting::kWeighted;
    Builder::recover(kN, PT{}, o);
  });
  // Wrong algebra instantiation.
  expect_recovery_error([&] {
    stream::AdjacencyBuilder<algebra::MinPlus<double>>::recover(
        kN, algebra::MinPlus<double>{}, durable_opts(td.path + "/single"));
  });
  // Wrong shard count, both directions.
  {
    Sharded sb(kN, 4, PT{}, durable_opts(td.path + "/sharded"));
    sb.ingest(batches[0]);
  }
  expect_recovery_error([&] {
    Sharded::recover(kN, 2, PT{}, durable_opts(td.path + "/sharded"));
  });
  expect_recovery_error([&] {
    Builder::recover(kN, PT{}, durable_opts(td.path + "/sharded"));
  });
  // A fresh builder refuses a directory holding recoverable state —
  // constructing over it would be silent data loss.
  bool refused = false;
  try {
    Builder b(kN, PT{}, durable_opts(td.path + "/single"));
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  CHECK(refused);
}

// ---------------------------------------------------------------------------
// Corruption matrix: truncation at/around every frame boundary, then a
// bit-flip sweep, over both the WAL and a checkpoint. Every outcome must
// be an intact prefix or a typed RecoveryError — never UB, never wrong
// bytes (the ASan/UBSan legs run this matrix too).

bool recovers_to_some_prefix(
    const std::string& dir,
    const std::vector<std::vector<graph::Edge>>& batches) {
  try {
    Builder r = Builder::recover(kN, PT{}, durable_opts(dir));
    const auto epoch = static_cast<std::size_t>(r.stats().batches);
    CHECK(epoch <= batches.size());
    CHECK(csr_bitwise_equal(r.adjacency(), oracle_prefix(kN, batches, epoch)));
    return true;
  } catch (const RecoveryError&) {
    return false;  // typed refusal is an accepted outcome
  }
}

void test_corruption_truncation_matrix() {
  TempDir td;
  const auto batches = trial_batches(71);
  const std::string src = td.path + "/src";
  {
    Builder b(kN, PT{}, durable_opts(src));
    for (std::size_t i = 0; i < 6; ++i) b.ingest(batches[i]);
  }
  const auto segments = stream::Wal::list_segments(src);
  CHECK_EQ(segments.size(), 1u);
  const auto image = util::read_file(segments[0].path);
  // Frame boundaries of the one segment.
  std::vector<std::uint64_t> boundaries = {0};
  {
    util::FrameReader reader(image);
    std::vector<unsigned char> out;
    while (reader.next(out) == util::FrameStatus::kOk) {
      boundaries.push_back(reader.offset());
    }
  }
  CHECK_EQ(boundaries.size(), 8u);  // header + 6 batches + start
  std::size_t cases = 0;
  for (std::size_t bi = 0; bi < boundaries.size(); ++bi) {
    const std::uint64_t b = boundaries[bi];
    std::vector<std::uint64_t> lens = {b};
    if (b > 0) lens.push_back(b - 1);
    if (b < image.size()) lens.push_back(b + 1);
    if (bi + 1 < boundaries.size()) {
      lens.push_back(b + (boundaries[bi + 1] - b) / 2);  // mid-frame
    }
    for (const std::uint64_t len : lens) {
      const std::string dir = td.path + "/t" + std::to_string(cases++);
      util::ensure_dir(dir);
      copy_dir_flat(src, dir);
      {
        util::File f = util::File::open_append(
            dir + "/" + stream::wal_segment_name(0));
        f.truncate(len);
        f.close();
      }
      // Tail truncation of the last (only) segment is always repairable:
      // recovery must SUCCEED with the longest intact prefix.
      Builder r = Builder::recover(kN, PT{}, durable_opts(dir));
      const auto epoch = static_cast<std::size_t>(r.stats().batches);
      // Whole batch frames that survive: boundary index - 1 (header).
      std::size_t whole = 0;
      while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= len) {
        ++whole;
      }
      const std::size_t expect = whole == 0 ? 0 : whole - 1;
      CHECK_EQ(epoch, expect);
      CHECK(csr_bitwise_equal(r.adjacency(),
                              oracle_prefix(kN, batches, epoch)));
      // Idempotent: the repair left a clean log; a second recovery of
      // the same directory replays the identical prefix.
      { Builder drop = std::move(r); }
      Builder r2 = Builder::recover(kN, PT{}, durable_opts(dir));
      CHECK_EQ(static_cast<std::size_t>(r2.stats().batches), epoch);
      CHECK(csr_bitwise_equal(r2.adjacency(),
                              oracle_prefix(kN, batches, epoch)));
    }
  }
  std::printf("  truncation matrix: %zu cases\n", cases);
}

void test_corruption_sealed_segment_is_refused() {
  TempDir td;
  const auto batches = trial_batches(81);
  const std::string dir = td.path + "/multi";
  {
    Options opts = durable_opts(dir);
    opts.wal_segment_bytes = 256;  // rotate every batch or two
    Builder b(kN, PT{}, opts);
    for (std::size_t i = 0; i < 6; ++i) b.ingest(batches[i]);
  }
  const auto segments = stream::Wal::list_segments(dir);
  CHECK(segments.size() >= 3);
  // Mid-frame damage in a SEALED (non-last) segment cannot be SIGKILL
  // residue — recovery must refuse, not silently skip recorded batches.
  {
    util::File f = util::File::open_append(segments[1].path);
    f.truncate(segments[1].path.size() % 7 + 20);  // inside some frame
    f.close();
  }
  bool threw = false;
  try {
    Builder::recover(kN, PT{}, durable_opts(dir));
  } catch (const RecoveryError&) {
    threw = true;
  }
  CHECK(threw);
}

void test_corruption_bitflip_matrix() {
  TempDir td;
  const auto batches = trial_batches(91);
  const std::string src = td.path + "/src";
  {
    Builder b(kN, PT{}, durable_opts(src));
    for (std::size_t i = 0; i < 5; ++i) b.ingest(batches[i]);
  }
  const std::string seg_name = stream::wal_segment_name(0);
  const auto image = util::read_file(src + "/" + seg_name);
  std::size_t cases = 0;
  std::size_t refused = 0;
  for (std::size_t pos = 0; pos < image.size(); pos += 13) {
    auto flipped = image;
    flipped[pos] ^= static_cast<unsigned char>(1U << (pos % 8));
    const std::string dir = td.path + "/f" + std::to_string(cases++);
    util::ensure_dir(dir);
    {
      util::File f = util::File::create_append(dir + "/" + seg_name);
      f.write_fully(flipped.data(), flipped.size());
      f.close();
    }
    if (!recovers_to_some_prefix(dir, batches)) ++refused;
  }
  std::printf("  WAL bit-flip matrix: %zu cases, %zu typed refusals\n",
              cases, refused);
}

void test_corruption_checkpoint_bitflips() {
  TempDir td;
  const auto batches = trial_batches(101);
  const std::string src = td.path + "/src";
  util::ThreadPool pool(1);
  Options opts = durable_opts(src);
  opts.pool = &pool;
  opts.checkpoint_every = 3;
  {
    Builder b(kN, PT{}, opts);
    for (const auto& batch : batches) b.ingest(batch);
    b.drain();
    CHECK(b.stats().checkpoints > 0);
  }
  std::string ckpt_name;
  for (const std::string& name : util::list_dir(src)) {
    if (stream::parse_checkpoint_name(name)) ckpt_name = name;
  }
  CHECK(!ckpt_name.empty());
  const auto image = util::read_file(src + "/" + ckpt_name);
  std::size_t cases = 0;
  std::size_t fell_back = 0;
  for (std::size_t pos = 0; pos < image.size(); pos += 17) {
    auto flipped = image;
    flipped[pos] ^= static_cast<unsigned char>(1U << (pos % 8));
    const std::string dir = td.path + "/c" + std::to_string(cases++);
    util::ensure_dir(dir);
    copy_dir_flat(src, dir);
    util::remove_file(dir + "/" + ckpt_name);
    {
      util::File f = util::File::create_append(dir + "/" + ckpt_name);
      f.write_fully(flipped.data(), flipped.size());
      f.close();
    }
    // A flip lands in some frame -> its CRC fails -> the checkpoint is
    // rejected as corrupt and recovery falls back to pure WAL replay
    // (every segment is still present here). Either way the outcome is
    // a prefix or a typed error, never wrong bytes.
    if (recovers_to_some_prefix(dir, batches)) ++fell_back;
  }
  CHECK(fell_back > 0);  // fallback path actually exercised
  std::printf("  checkpoint bit-flip matrix: %zu cases, %zu recovered\n",
              cases, fell_back);
}

// ---------------------------------------------------------------------------
// Write-path memory bounds. Checkpoint run frames are streamed through
// one fixed chunk (util::write_frame_streamed); the files must stay
// byte-identical to the buffered encoder below, and neither segment
// discovery nor a checkpoint write may allocate in proportion to the
// data on disk.

template <typename V>
using RunLists = std::vector<std::vector<stream::CheckpointRun<V>>>;

/// The buffered checkpoint encoder the streamed writer replaced: each
/// frame built whole in a ByteWriter, then write_frame. Kept here only as
/// the byte-identity reference.
template <typename V>
void write_checkpoint_reference(const std::string& path,
                                const stream::WalManifest& manifest,
                                std::uint64_t epoch, const RunLists<V>& shards,
                                const std::vector<std::uint64_t>& edges) {
  std::uint64_t total_runs = 0;
  for (const auto& runs : shards) total_runs += runs.size();
  util::File f = util::File::create_append(path);
  {
    util::ByteWriter w;
    w.u32(stream::kFrameCheckpointHeader);
    w.u32(stream::kWalFormatVersion);
    w.u64(epoch);
    stream::encode_manifest(w, manifest);
    for (const std::uint64_t e : edges) w.u64(e);
    w.u64(total_runs);
    util::write_frame(f, w.buffer());
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const auto& run : shards[s]) {
      const sparse::Csr<V>& csr = *run.csr;
      util::ByteWriter w;
      w.u32(stream::kFrameCheckpointRun);
      w.u32(static_cast<std::uint32_t>(s));
      w.u64(run.weight);
      w.u64(static_cast<std::uint64_t>(csr.nrows()));
      w.u64(static_cast<std::uint64_t>(csr.ncols()));
      w.u64(static_cast<std::uint64_t>(csr.nnz()));
      for (const index_t v : csr.row_ptr()) w.i64(v);
      for (const index_t v : csr.cols()) w.i64(v);
      w.bytes(csr.vals().data(), csr.vals().size() * sizeof(V));
      util::write_frame(f, w.buffer());
    }
  }
  f.close();
}

/// n x n CSR whose first `rows` rows each hold `per_row` consecutive
/// columns; values are a deterministic function of the position.
template <typename V>
std::shared_ptr<const sparse::Csr<V>> band_csr(index_t n, index_t rows,
                                               index_t per_row) {
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> cols;
  std::vector<V> vals;
  cols.reserve(static_cast<std::size_t>(rows * per_row));
  vals.reserve(static_cast<std::size_t>(rows * per_row));
  for (index_t i = 0; i < n; ++i) {
    if (i < rows) {
      for (index_t k = 0; k < per_row; ++k) {
        cols.push_back(k);
        vals.push_back(static_cast<V>((i * 31 + k * 7) % 101 + 1));
      }
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(cols.size());
  }
  return std::make_shared<const sparse::Csr<V>>(
      n, n, std::move(row_ptr), std::move(cols), std::move(vals));
}

/// write_checkpoint's file equals the reference encoder's, byte for byte,
/// and parses back to the same runs. Returns the file image.
template <typename V>
std::vector<unsigned char> check_checkpoint_identity(
    const std::string& dir, const stream::WalManifest& manifest,
    const RunLists<V>& shards) {
  util::ensure_dir(dir);
  const std::vector<std::uint64_t> edges(manifest.shard_count, 5);
  const std::string streamed =
      stream::write_checkpoint<V>(dir, manifest, 7, shards, edges);
  const std::string reference = dir + "/reference.bin";
  write_checkpoint_reference<V>(reference, manifest, 7, shards, edges);
  const auto image = util::read_file(streamed);
  const bool identical = image == util::read_file(reference);
  CHECK(identical);
  if (!identical) return image;
  const auto loaded = stream::parse_checkpoint<V>(streamed, manifest);
  CHECK_EQ(loaded.epoch, 7u);
  CHECK(loaded.edges == edges);
  CHECK_EQ(loaded.shards.size(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    CHECK_EQ(loaded.shards[s].size(), shards[s].size());
    for (std::size_t r = 0; r < shards[s].size(); ++r) {
      CHECK_EQ(loaded.shards[s][r].weight, shards[s][r].weight);
      CHECK(csr_bitwise_equal(*loaded.shards[s][r].csr, *shards[s][r].csr));
    }
  }
  return image;
}

void test_checkpoint_streamed_bytes_match_reference() {
  TempDir td;
  using Run = stream::CheckpointRun<double>;
  const auto batches = trial_batches(141);
  const auto prefix_run = [&](std::size_t k, std::uint64_t weight) {
    return Run{std::make_shared<const sparse::Csr<double>>(
                   oracle_prefix(kN, batches, k)),
               weight};
  };
  const auto empty_run = Run{band_csr<double>(kN, 0, 0), 1};
  const stream::WalManifest one{"test/8", kN, 1, 0};
  const stream::WalManifest four{"test/8", kN, 4, 0};
  // Empty run lists, one shard and four.
  check_checkpoint_identity<double>(td.path + "/empty1", one,
                                    RunLists<double>(1));
  check_checkpoint_identity<double>(td.path + "/empty4", four,
                                    RunLists<double>(4));
  // A zero-nnz run.
  check_checkpoint_identity<double>(td.path + "/zero", one, {{empty_run}});
  // Real ladder-shaped runs: one shard, then four with an empty shard
  // and a zero-nnz run among them.
  check_checkpoint_identity<double>(
      td.path + "/one", one,
      {{prefix_run(8, 4), prefix_run(3, 2), prefix_run(1, 1)}});
  check_checkpoint_identity<double>(
      td.path + "/four", four,
      {{prefix_run(5, 4), prefix_run(2, 1)},
       {},
       {empty_run, prefix_run(9, 2)},
       {prefix_run(24, 8)}});
  // A run spanning many chunks.
  check_checkpoint_identity<double>(
      td.path + "/multi", stream::WalManifest{"test/8", 512, 1, 0},
      {{Run{band_csr<double>(512, 256, 64), 3}}});
  // Run payloads of chunk - 1, chunk and chunk + 1 bytes. A one-byte value
  // type makes every length reachable: payload = fixed + 8 (n + 1) + 9 nnz.
  constexpr std::uint64_t kFixed = stream::kRunFrameFixedBytes + 8;
  for (const std::uint64_t target :
       {util::kFrameChunkBytes - 1, util::kFrameChunkBytes,
        util::kFrameChunkBytes + 1}) {
    std::uint64_t nnz = 0;
    while ((target - kFixed - 9 * nnz) % 8 != 0) ++nnz;
    const auto n = static_cast<index_t>((target - kFixed - 9 * nnz) / 8);
    const stream::WalManifest manifest{"test/1", static_cast<std::uint64_t>(n),
                                       1, 0};
    const auto image = check_checkpoint_identity<std::uint8_t>(
        td.path + "/chunk" + std::to_string(target), manifest,
        {{stream::CheckpointRun<std::uint8_t>{
            band_csr<std::uint8_t>(n, nnz > 0 ? 1 : 0,
                                   static_cast<index_t>(nnz)),
            1}}});
    util::FrameReader reader(image);
    std::vector<unsigned char> payload;
    CHECK(reader.next(payload) == util::FrameStatus::kOk);  // header
    CHECK(reader.next(payload) == util::FrameStatus::kOk);  // the run
    CHECK_EQ(payload.size(), target);
  }
}

/// Bytes requested through operator new since construction, and the
/// largest single request. Read with no other thread running.
class AllocWindow {
 public:
  AllocWindow() { g_alloc_largest.store(0, std::memory_order_relaxed); }
  std::uint64_t bytes() const {
    return g_alloc_bytes.load(std::memory_order_relaxed) - start_;
  }
  std::uint64_t largest() const {
    return g_alloc_largest.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t start_ = g_alloc_bytes.load(std::memory_order_relaxed);
};

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;

/// Segment discovery reads header frames only: two 64 MiB segments (a
/// valid header, extended by a sparse ftruncate) cost under 64 KiB to
/// list and to retire.
void test_segment_discovery_allocation_bound() {
  TempDir td;
  const stream::WalManifest manifest{"test/8", kN, 1, 0};
  for (const std::uint64_t seqno : {0U, 1U}) {
    stream::Wal wal(td.path, manifest, Durability::kNone, 64 * kMiB, seqno,
                    /*start_epoch=*/10 * seqno);
    wal.close();
    util::File f =
        util::File::open_append(td.path + "/" + stream::wal_segment_name(seqno));
    f.truncate(64 * kMiB);
    f.close();
  }
  {
    const AllocWindow window;
    const auto segments = stream::Wal::list_segments(td.path);
    const std::uint64_t used = window.bytes();
    std::printf("  list_segments over 2 x 64 MiB: %llu bytes allocated\n",
                static_cast<unsigned long long>(used));
    CHECK(used < 64 * kKiB);
    CHECK_EQ(segments.size(), 2u);
    for (const auto& seg : segments) CHECK(seg.header_ok);
    CHECK_EQ(segments[1].start_epoch, 10u);
  }
  {
    const AllocWindow window;
    stream::Wal::retire_segments(td.path, /*checkpoint_epoch=*/10,
                                 /*active_seqno=*/2);
    CHECK(window.bytes() < 64 * kKiB);
  }
  CHECK(!util::file_exists(td.path + "/" + stream::wal_segment_name(0)));
  CHECK(util::file_exists(td.path + "/" + stream::wal_segment_name(1)));
}

/// A checkpoint holding a run of more than 4 MiB allocates under 1 MiB in
/// all, and nothing larger than one 64 KiB chunk at a time.
void test_checkpoint_write_allocation_bound() {
  TempDir td;
  constexpr index_t n = 1024;
  const auto csr = band_csr<double>(n, n, 256);
  CHECK(csr->nnz() * 16 >= static_cast<index_t>(4 * kMiB));
  const stream::WalManifest manifest{"test/8", n, 1, 0};
  const RunLists<double> shards = {{stream::CheckpointRun<double>{csr, 1}}};
  const std::vector<std::uint64_t> edges = {0};
  std::string path;
  {
    const AllocWindow window;
    path = stream::write_checkpoint<double>(td.path, manifest, 1, shards, edges);
    const std::uint64_t used = window.bytes();
    std::printf(
        "  write_checkpoint of a %lld-nnz run: %llu bytes allocated, "
        "largest %llu\n",
        static_cast<long long>(csr->nnz()),
        static_cast<unsigned long long>(used),
        static_cast<unsigned long long>(window.largest()));
    CHECK(used < kMiB);
    CHECK(window.largest() <= 64 * kKiB);
  }
  const auto loaded = stream::parse_checkpoint<double>(path, manifest);
  CHECK(csr_bitwise_equal(*loaded.shards[0][0].csr, *csr));
}

// ---------------------------------------------------------------------------
// Durable failpoint sweep — the wal.append.*, checkpoint.write, and
// recover.replay sites slot into the PR 8 injection methodology:
// exercise each site and assert its documented guarantee class.

#if I2A_FAILPOINTS_ENABLED

using Reg = util::FailpointRegistry;
using Sched = Reg::Schedule;

/// wal.append.write / wal.append.fsync: strong guarantee. A failed
/// append consumed nothing — in memory (epoch, bytes) or on disk (the
/// rollback ftruncate) — and the retry extends the same segment.
void test_wal_append_failpoints() {
  const auto batches = trial_batches(111);
  for (const char* site : {"wal.append.write", "wal.append.fsync"}) {
    TempDir td;
    Builder b(kN, PT{}, durable_opts(td.path));
    b.ingest(batches[0]);
    const std::string seg = td.path + "/" + stream::wal_segment_name(0);
    const std::uint64_t disk_before = util::read_file(seg).size();
    {
      util::ScopedFailpoint fp(site, Sched::once());
      bool threw = false;
      try {
        b.ingest(batches[1]);
      } catch (const util::FailpointError&) {
        threw = true;
      }
      CHECK(threw);
    }
    CHECK_EQ(b.stats().batches, 1u);  // nothing consumed
    CHECK_EQ(util::read_file(seg).size(), disk_before);  // rolled back
    b.ingest(batches[1]);  // retry succeeds, same epoch slot
    CHECK_EQ(b.stats().batches, 2u);
    { Builder drop = std::move(b); }
    Builder r = Builder::recover(kN, PT{}, durable_opts(td.path));
    CHECK_EQ(r.stats().batches, 2u);
    CHECK(csr_bitwise_equal(r.adjacency(), oracle_prefix(kN, batches, 2)));
  }
}

/// checkpoint.write: deferred-error class. The ingest that crossed the
/// boundary returns normally; the failure arrives via drain() exactly
/// once; the temp file is gone; the next boundary checkpoints fine.
void test_checkpoint_write_failpoint() {
  TempDir td;
  const auto batches = trial_batches(121);
  util::ThreadPool workerless(1);  // checkpoint task runs inside ingest
  Options opts = durable_opts(td.path);
  opts.pool = &workerless;
  opts.checkpoint_every = 2;
  Builder b(kN, PT{}, opts);
  b.ingest(batches[0]);
  {
    util::ScopedFailpoint fp("checkpoint.write", Sched::once());
    b.ingest(batches[1]);  // boundary: checkpoint scheduled and fails
  }
  bool threw = false;
  try {
    b.drain();
  } catch (const util::FailpointError&) {
    threw = true;
  }
  CHECK(threw);
  b.drain();  // exactly once
  CHECK_EQ(b.stats().checkpoints, 0u);
  for (const std::string& name : util::list_dir(td.path)) {
    CHECK(name.find(".tmp") == std::string::npos);  // cleaned up
    CHECK(!stream::parse_checkpoint_name(name));    // nothing half-made
  }
  b.ingest(batches[2]);
  b.ingest(batches[3]);  // next boundary: succeeds
  b.drain();
  CHECK_EQ(b.stats().checkpoints, 1u);
  { Builder drop = std::move(b); }
  Builder r = Builder::recover(kN, PT{}, durable_opts(td.path));
  CHECK_EQ(r.stats().batches, 4u);
  CHECK(csr_bitwise_equal(r.adjacency(), oracle_prefix(kN, batches, 4)));
}

/// recover.replay: a crash inside recovery itself. The throwing
/// recover() must leave the directory replayable — the retry recovers
/// everything.
void test_recover_replay_failpoint() {
  TempDir td;
  const auto batches = trial_batches(131);
  {
    Builder b(kN, PT{}, durable_opts(td.path));
    for (std::size_t i = 0; i < 4; ++i) b.ingest(batches[i]);
  }
  {
    util::ScopedFailpoint fp("recover.replay", Sched::nth(2));
    bool threw = false;
    try {
      Builder r = Builder::recover(kN, PT{}, durable_opts(td.path));
    } catch (const util::FailpointError&) {
      threw = true;
    }
    CHECK(threw);
  }
  Builder r = Builder::recover(kN, PT{}, durable_opts(td.path));
  CHECK_EQ(r.stats().batches, 4u);
  CHECK(csr_bitwise_equal(r.adjacency(), oracle_prefix(kN, batches, 4)));
}

#endif  // I2A_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// SIGKILL crash trials. The parent re-execs this binary as a writer
// child, kills it at a seeded random point, and holds recovery to the
// acknowledged-prefix contract. Both durability modes are binding under
// SIGKILL (the kernel keeps the page cache); kFsyncEachBatch is
// additionally the power-loss mode.

const char* g_argv0 = nullptr;

struct TrialConfig {
  Durability mode = Durability::kFsyncEachBatch;
  std::size_t shards = 1;
  bool checkpointed = false;
};

/// Derived from the trial SEED (which the writer child receives), so the
/// child and the recovering parent agree without communicating.
TrialConfig trial_config(std::uint64_t trial, std::uint64_t seed) {
  TrialConfig c;
  c.mode = (trial & 1) != 0 ? Durability::kAsync : Durability::kFsyncEachBatch;
  c.shards = ((trial >> 1) & 1) != 0 ? 4 : 1;
  c.checkpointed = (seed & 4) != 0;
  return c;
}

Options writer_opts(const std::string& dir, const TrialConfig& c,
                    util::ThreadPool* pool) {
  Options o = durable_opts(dir, c.mode);
  o.wal_segment_bytes = 512;  // rotate often: more boundary kills
  if (c.checkpointed) {
    o.pool = pool;
    o.compaction = stream::Compaction::kBackground;
    o.checkpoint_every = 3;
  }
  return o;
}

/// Child: ingest the trial workload, acknowledging each batch into the
/// ack file the instant ingest() returns. Killed by the parent at a
/// random point; exits 0 if it outlives the timer.
int run_writer(const std::string& dir, std::uint64_t seed, int mode_int,
               std::size_t shards, const std::string& ack_path) {
  const auto batches = trial_batches(seed);
  const TrialConfig c{mode_int != 0 ? Durability::kFsyncEachBatch
                                    : Durability::kAsync,
                      shards, (seed & 4) != 0};
  std::FILE* ack = std::fopen(ack_path.c_str(), "a");
  if (ack == nullptr) return 2;
  util::ThreadPool pool(2);
  const auto acknowledge = [&](std::size_t epoch) {
    std::fprintf(ack, "a %zu\n", epoch);
    std::fflush(ack);
  };
  if (shards == 1) {
    Builder b(kN, PT{}, writer_opts(dir, c, &pool));
    for (std::size_t i = 0; i < batches.size(); ++i) {
      b.ingest(batches[i]);
      acknowledge(i + 1);
    }
    b.drain();
  } else {
    Sharded sb(kN, shards, PT{}, writer_opts(dir, c, &pool));
    for (std::size_t i = 0; i < batches.size(); ++i) {
      sb.ingest(batches[i]);
      acknowledge(i + 1);
    }
    sb.drain();
  }
  std::fclose(ack);
  return 0;
}

/// Child: run one recover() of the directory and exit — the parent
/// kills THIS process too, to prove recovery survives a crash during
/// recovery (repair idempotence under fire).
int run_recover_once(const std::string& dir, std::size_t shards) {
  if (shards == 1) {
    Builder r = Builder::recover(kN, PT{}, durable_opts(dir));
    static_cast<void>(r.stats());
  } else {
    Sharded r = Sharded::recover(kN, shards, PT{}, durable_opts(dir));
    static_cast<void>(r.stats());
  }
  return 0;
}

pid_t spawn_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(g_argv0));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(g_argv0, argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

void kill_after(pid_t pid, std::uint64_t micros) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(micros)));
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

std::size_t max_acked_epoch(const std::string& ack_path) {
  std::size_t acked = 0;
  std::FILE* f = std::fopen(ack_path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[64];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::size_t e = 0;
    // The final line can be torn mid-write; only complete lines count.
    if (std::sscanf(line, "a %zu\n", &e) == 1 &&
        std::strchr(line, '\n') != nullptr) {
      if (e > acked) acked = e;
    }
  }
  std::fclose(f);
  return acked;
}

/// One trial. Returns true on pass; on failure the caller keeps the
/// directory as the artifact.
bool run_trial(std::uint64_t trial, std::uint64_t base_seed, TempDir& td) {
  const int before = i2a::test::failures;
  const std::uint64_t seed = base_seed * 1000003ULL + trial;
  const TrialConfig c = trial_config(trial, seed);
  const auto batches = trial_batches(seed);
  const std::string dir = td.path + "/wal";
  const std::string ack = td.path + "/ack";
  util::Xoshiro256 rng(seed ^ 0x5EEDULL);

  const pid_t pid = spawn_child(
      {"--writer", dir, std::to_string(seed),
       c.mode == Durability::kFsyncEachBatch ? "1" : "0",
       std::to_string(c.shards), ack});
  CHECK(pid > 0);
  // Kill anywhere in the writer's lifetime, biased toward mid-stream.
  kill_after(pid, rng.next() % 60000);
  const std::size_t acked = max_acked_epoch(ack);

  // One trial in five also crashes the RECOVERY, then recovers again:
  // repair-under-fire must be idempotent.
  if (trial % 5 == 0) {
    const pid_t rpid =
        spawn_child({"--recover-once", dir, std::to_string(c.shards)});
    CHECK(rpid > 0);
    kill_after(rpid, rng.next() % 20000);
  }

  std::size_t recovered = 0;
  if (c.shards == 1) {
    Builder r = Builder::recover(kN, PT{}, durable_opts(dir, c.mode));
    recovered = static_cast<std::size_t>(r.stats().batches);
    CHECK(recovered >= acked);
    CHECK(recovered <= batches.size());
    CHECK(csr_bitwise_equal(r.adjacency(),
                            oracle_prefix(kN, batches, recovered)));
    { Builder drop = std::move(r); }
    // Idempotence: recover the same directory again.
    Builder r2 = Builder::recover(kN, PT{}, durable_opts(dir, c.mode));
    CHECK_EQ(static_cast<std::size_t>(r2.stats().batches), recovered);
    CHECK(csr_bitwise_equal(r2.adjacency(),
                            oracle_prefix(kN, batches, recovered)));
  } else {
    Sharded r = Sharded::recover(kN, c.shards, PT{}, durable_opts(dir, c.mode));
    recovered = static_cast<std::size_t>(r.stats().batches);
    CHECK(recovered >= acked);
    CHECK(recovered <= batches.size());
    CHECK(csr_bitwise_equal(r.adjacency(),
                            oracle_prefix(kN, batches, recovered)));
    // Idempotence (the first recovery's fresh, still-open segment is an
    // empty header-only segment to the second scan — skipped cleanly).
    Sharded r2 =
        Sharded::recover(kN, c.shards, PT{}, durable_opts(dir, c.mode));
    CHECK_EQ(static_cast<std::size_t>(r2.stats().batches), recovered);
    CHECK(csr_bitwise_equal(r2.adjacency(),
                            oracle_prefix(kN, batches, recovered)));
  }
  std::printf(
      "  trial %llu seed %llu mode=%s shards=%zu ckpt=%d: acked %zu, "
      "recovered %zu\n",
      static_cast<unsigned long long>(trial),
      static_cast<unsigned long long>(seed),
      c.mode == Durability::kFsyncEachBatch ? "fsync" : "async", c.shards,
      c.checkpointed ? 1 : 0, acked, recovered);
  return i2a::test::failures == before;
}

void run_trials(std::uint64_t count, std::uint64_t base_seed) {
  std::printf("test_recovery: %llu SIGKILL trials, base seed %llu\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(base_seed));
  for (std::uint64_t t = 0; t < count; ++t) {
    TempDir td;
    if (!run_trial(t, base_seed, td)) {
      td.keep = true;
      std::printf("ARTIFACT %s\n", td.path.c_str());
    }
  }
}

std::uint64_t env_seed() {
  if (const char* env = std::getenv("I2A_FAILPOINT_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 20260808ULL;
}

}  // namespace

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  // Child modes (re-exec'd by the trial loop).
  if (argc >= 2 && std::strcmp(argv[1], "--writer") == 0) {
    if (argc != 7) return 2;
    return run_writer(argv[2], std::strtoull(argv[3], nullptr, 0),
                      std::atoi(argv[4]),
                      static_cast<std::size_t>(std::atoi(argv[5])), argv[6]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--recover-once") == 0) {
    if (argc != 4) return 2;
    return run_recover_once(argv[2],
                            static_cast<std::size_t>(std::atoi(argv[3])));
  }
  // Harness mode: trials only, count and seed from the command line.
  std::uint64_t trials = 0;
  std::uint64_t seed = env_seed();
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0) {
      trials = std::strtoull(argv[i + 1], nullptr, 0);
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 0);
    }
  }
  if (trials > 0) {
    run_trials(trials, seed);
    return TEST_MAIN_RESULT();
  }

  test_crc32c_vectors();
  test_byte_codec_roundtrip();
  test_frame_reader_classification();
  test_frame_length_cap();
  test_wal_replay_roundtrip();
  test_recover_clean();
  test_recover_empty_dir_is_fresh();
  test_recover_with_checkpoint();
  test_sharded_recover();
  test_manifest_refusals();
  test_corruption_truncation_matrix();
  test_corruption_sealed_segment_is_refused();
  test_corruption_bitflip_matrix();
  test_corruption_checkpoint_bitflips();
  test_checkpoint_streamed_bytes_match_reference();
  test_segment_discovery_allocation_bound();
  test_checkpoint_write_allocation_bound();
#if I2A_FAILPOINTS_ENABLED
  std::printf("test_recovery: failpoints ENABLED — durable site sweep\n");
  test_wal_append_failpoints();
  test_checkpoint_write_failpoint();
  test_recover_replay_failpoint();
#endif
  run_trials(8, seed);
  return TEST_MAIN_RESULT();
}
