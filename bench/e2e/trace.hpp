#pragma once
/// \file trace.hpp
/// \brief Span recording for the e2e benchmark's traced run.
///
/// A span is one timed call at a layer boundary: name, id, parent span,
/// request id (the batch epoch for the writer and the layer replay, the
/// read sequence number for readers), and start/end in steady-clock ns.
/// Each thread owns one `SpanBuffer`, preallocated before the timed loop,
/// so recording is a bounds check and a store: no lock, no allocation.
/// The buffers are written out as JSON lines once the run is over.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< a string literal: the layer-boundary site name
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  std::uint64_t req;
  std::int64_t t0;
  std::int64_t t1;

  std::int64_t ns() const { return t1 - t0; }
};

/// One thread's spans. Ids are unique across buffers: the thread index
/// sits in the top 16 bits.
///
/// A writer's span count is known up front (batches × layers), so its
/// buffer is sized for it and grows if the estimate was short. A reader's
/// count depends on how fast it runs, so a reader buffer is created with
/// `thin` set and thins when full: it keeps only requests whose id is a
/// multiple of a doubling stride, which keeps the sample spread evenly
/// over the whole run instead of favouring its start or its end.
class SpanBuffer {
 public:
  SpanBuffer(std::uint16_t thread, std::size_t capacity, bool thin)
      : thread_(thread), capacity_(capacity), thin_(thin) {
    spans_.reserve(capacity);
  }

  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(thread_) << 48) | ++seq_;
  }

  /// Whether a request with this id would be kept at the current stride.
  bool sampled(std::uint64_t req) const { return req % stride_ == 0; }

  void add(const char* name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t req, std::int64_t t0, std::int64_t t1) {
    if (thin_ && spans_.size() == capacity_) thin();
    spans_.push_back(Span{name, id, parent, req, t0, t1});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void thin() {
    stride_ *= 2;
    std::size_t w = 0;
    for (const Span& s : spans_) {
      if (sampled(s.req)) spans_[w++] = s;
    }
    spans_.resize(w);
  }

  std::uint16_t thread_;
  std::size_t capacity_;
  bool thin_;
  std::uint64_t seq_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<Span> spans_;
};

/// Write every buffer's spans as one JSON object per line.
inline void write_spans(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path);
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"req\":" << s.req
          << ",\"t0\":" << s.t0 << ",\"t1\":" << s.t1 << "}\n";
    }
  }
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace e2e
