#pragma once
/// \file util/pages.hpp
/// \brief The library's page-level OS calls, in one place: the
///        page-aligned interior of a buffer (`whole_pages`), handing its
///        pages back to the OS (`release_pages`) and faulting them in on a
///        pool (`populate_pages`).
///
/// Both calls act only on the whole pages inside a range. The partial
/// pages at either end, where the allocator keeps its chunk headers and
/// neighbouring objects may live, are left alone, and neither call
/// changes a byte the program can still read. Off Linux both are no-ops.

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/types.hpp"
#include "util/thread_pool.hpp"

namespace i2a::util {

/// The OS page size (4 KiB off Linux, where nothing here calls the OS).
inline std::size_t page_bytes() noexcept {
#if defined(__linux__)
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
#else
  return 4096;
#endif
}

/// The page-aligned interior of a buffer: the whole pages inside it.
struct PageSpan {
  char* begin = nullptr;
  std::size_t bytes = 0;  ///< a multiple of page_bytes(), possibly 0
};

/// The whole pages inside [p, p + bytes): empty when the range holds
/// none.
inline PageSpan whole_pages(const void* p, std::size_t bytes) noexcept {
  const auto page = static_cast<std::uintptr_t>(page_bytes());
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (begin + bytes) & ~(page - 1);
  if (p == nullptr || hi <= lo) return {};
  return {reinterpret_cast<char*>(lo), static_cast<std::size_t>(hi - lo)};
}

/// Return the whole pages inside [p, p + bytes) to the OS before the
/// buffer is freed (`madvise(MADV_DONTNEED)`): they stop counting as
/// resident and fault back in as zero pages if the allocator reuses
/// them. A no-op off Linux.
inline void release_pages(const void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  const PageSpan span = whole_pages(p, bytes);
  if (span.bytes > 0) {
    // Advisory: on failure the pages merely stay resident until freed.
    (void)::madvise(span.begin, span.bytes, MADV_DONTNEED);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

/// Fault the whole pages inside [p, p + bytes) in, writable, on `pool`,
/// before the caller writes them. The interior is split into one slice
/// per chunk of `pool->parallel_for`, and each slice is handed to
/// `madvise(MADV_POPULATE_WRITE)` (Linux 5.14+), which maps its pages as
/// a write would but changes no byte. A fresh large buffer's page faults,
/// which its first writer would otherwise take one by one, are then paid
/// on every pool thread at once.
///
/// Returns true when every slice was populated. Returns false, having
/// done nothing, off Linux or where the headers lack the advice, without
/// a pool of at least two threads, and for a null pointer or a range
/// with no whole page. Returns false also when the kernel refuses a
/// slice (EINVAL before 5.14, ENOMEM): the pages left out then fault in
/// on first write, as they would without the call.
inline bool populate_pages(void* p, std::size_t bytes, ThreadPool* pool) {
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  if (pool == nullptr || pool->size() < 2) return false;
  const PageSpan span = whole_pages(p, bytes);
  const std::size_t page = page_bytes();
  const auto npages = static_cast<index_t>(span.bytes / page);
  if (npages == 0) return false;
  std::atomic<bool> ok{true};
  pool->parallel_for(npages, [&](index_t lo, index_t hi) {
    char* const at = span.begin + static_cast<std::size_t>(lo) * page;
    const std::size_t len = static_cast<std::size_t>(hi - lo) * page;
    if (::madvise(at, len, MADV_POPULATE_WRITE) != 0) ok = false;
  });
  return ok;
#else
  (void)p;
  (void)bytes;
  (void)pool;
  return false;
#endif
}

}  // namespace i2a::util
