#pragma once

// Durable-I/O primitives for the streaming WAL and checkpoint files
// (stream/wal.hpp, stream/checkpoint.hpp): CRC32C, fixed-width
// little-endian encoding, POSIX fd wrappers, and the length-prefixed
// checksummed frame format shared by every on-disk record.
//
// Frame layout (DESIGN.md §12):
//
//   [u32 len][u32 crc32c(payload)][payload: len bytes]
//
// both header words little-endian. The header goes out in its own
// write(2), before any payload byte, on purpose: a SIGKILL (or power
// cut) after it leaves a torn tail that FrameReader must classify, so
// the recovery path is exercised by real kill schedules, not only by
// synthetic truncation. The payload follows in one write (write_frame)
// or one write per fixed-size chunk (write_frame_streamed, for
// checkpoint runs of any size); either way the torn window is the same.
// write_fully() below is the single place a raw write(2) may appear —
// everything else goes through the frame writers (enforced by the
// `durable-write-checksummed` lint rule).
//
// Portability: POSIX-only (open/write/fsync/ftruncate/rename + parent
// directory fsync), which is what CI runs. Multi-byte integers are
// encoded explicitly little-endian; floating-point payload values are
// stored via their IEEE-754 bit pattern.

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contract.hpp"

namespace i2a::util {

// Typed failure for any syscall-level I/O problem (open, write, fsync,
// rename, ...). Recovery-time *format* problems use
// stream::RecoveryError instead; an IoError during recovery means the
// environment (not the data) is broken.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void throw_errno(const std::string& op,
                                     const std::string& path) {
  throw IoError(op + " '" + path + "': " + std::strerror(errno));
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — software
// table-based; portable and fast enough for the batch sizes the WAL
// sees. Matches the widely deployed iSCSI/ext4 checksum so frames are
// verifiable with standard tooling.

inline const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1U) != 0 ? 0x82F63B78U : 0U);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

inline std::uint32_t crc32c(const void* data, std::size_t len,
                            std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& table = crc32c_table();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFU];
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// Fixed-width little-endian payload encoding. LeEncoder supplies the field
// encoders on top of its sink's `bytes(data, len)`: ByteWriter collects a
// whole payload in memory (small frames: segment and checkpoint headers,
// WAL batches); ChunkEncoder below feeds one fixed-size chunk at a time
// to the streamed frame writer.

template <typename Sink>
class LeEncoder {
 public:
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  // Length-prefixed string: u32 byte count, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    sink().bytes(s.data(), s.size());
  }

 private:
  LeEncoder() = default;
  friend Sink;

  template <typename U>
  void put_le(U v) {
    std::array<unsigned char, sizeof(U)> b;  // NOLINT(*-member-init)
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFFU);
    }
    sink().bytes(b.data(), b.size());
  }
  Sink& sink() { return static_cast<Sink&>(*this); }
};

class ByteWriter : public LeEncoder<ByteWriter> {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  const std::vector<unsigned char>& buffer() const { return buf_; }

 private:
  std::vector<unsigned char> buf_;
};

// Reader over a decoded frame payload. Overrunning the payload throws
// IoError("payload underrun ...") — callers at recovery time translate
// that into a typed RecoveryError; it never reads out of bounds.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<unsigned char>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void raw(void* out, std::size_t len) {
    need(len);
    if (len == 0) return;  // `out` may be null (an empty vector's data())
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw IoError("payload underrun: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(size_ - pos_));
    }
  }
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// POSIX fd wrapper. Move-only; throws IoError on any syscall failure.

class File {
 public:
  File() = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}
  File& operator=(File&& other) noexcept {
    if (this != &other) {
      close_quietly();
      fd_ = std::exchange(other.fd_, -1);
      path_ = std::move(other.path_);
    }
    return *this;
  }
  ~File() { close_quietly(); }

  static File create_append(const std::string& path) {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) throw_errno("open(create)", path);
    return File(fd, path);
  }
  // Open an existing file for append without O_APPEND semantics getting
  // in the way of ftruncate-based rollback: plain O_WRONLY positioned
  // at the end.
  static File open_append(const std::string& path) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) throw_errno("open(append)", path);
    File f(fd, path);
    if (::lseek(fd, 0, SEEK_END) < 0) throw_errno("lseek", path);
    return f;
  }
  static File open_read(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw_errno("open(read)", path);
    return File(fd, path);
  }

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  // The one raw write(2) site in the durable path (see file comment and
  // the `durable-write-checksummed` lint rule). Loops on short writes
  // and EINTR.
  void write_fully(const void* data, std::size_t len) {
    I2A_EXPECTS(is_open(), "io: file not open");
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd_, p + off, len - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("write", path_);
      }
      off += static_cast<std::size_t>(n);
    }
  }

  // Read until `len` bytes or end of file; returns the count read. Loops
  // on short reads and EINTR.
  std::size_t read_upto(void* out, std::size_t len) {
    I2A_EXPECTS(is_open(), "io: file not open");
    auto* p = static_cast<unsigned char*>(out);
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::read(fd_, p + off, len - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("read", path_);
      }
      if (n == 0) break;
      off += static_cast<std::size_t>(n);
    }
    return off;
  }

  void sync() {
    I2A_EXPECTS(is_open(), "io: file not open");
    if (::fsync(fd_) != 0) throw_errno("fsync", path_);
  }

  std::uint64_t size() const {
    I2A_EXPECTS(is_open(), "io: file not open");
    struct stat st = {};
    if (::fstat(fd_, &st) != 0) throw_errno("fstat", path_);
    return static_cast<std::uint64_t>(st.st_size);
  }

  // Truncate to `len` and reposition the write offset there — the WAL's
  // rollback primitive for failed appends.
  void truncate(std::uint64_t len) {
    I2A_EXPECTS(is_open(), "io: file not open");
    if (::ftruncate(fd_, static_cast<off_t>(len)) != 0) {
      throw_errno("ftruncate", path_);
    }
    if (::lseek(fd_, static_cast<off_t>(len), SEEK_SET) < 0) {
      throw_errno("lseek", path_);
    }
  }

  void close() {
    if (fd_ >= 0) {
      const int fd = std::exchange(fd_, -1);
      if (::close(fd) != 0) throw_errno("close", path_);
    }
  }

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  void close_quietly() noexcept {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  }
  int fd_ = -1;
  std::string path_;
};

// ---------------------------------------------------------------------------
// Directory helpers. Metadata durability (a created/renamed file name
// surviving power loss) requires fsyncing the parent directory; SIGKILL
// alone does not need it, but the checkpoint rename protocol does it
// anyway so the documented contract holds for power loss too.

inline void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno("mkdir", path);
  }
}

inline void fsync_dir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("open(dir)", path);
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    throw_errno("fsync(dir)", path);
  }
}

inline std::vector<std::string> list_dir(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) throw_errno("opendir", path);
  std::vector<std::string> names;
  errno = 0;
  while (const dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    if (name != "." && name != "..") names.emplace_back(name);
    errno = 0;
  }
  const int saved = errno;
  ::closedir(d);
  if (saved != 0) {
    errno = saved;
    throw_errno("readdir", path);
  }
  std::sort(names.begin(), names.end());
  return names;
}

inline void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0) throw_errno("unlink", path);
}

inline void rename_file(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno("rename", from + "' -> '" + to);
  }
}

inline bool file_exists(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0;
}

inline std::vector<unsigned char> read_file(const std::string& path) {
  File f = File::open_read(path);
  std::vector<unsigned char> buf;
  std::array<unsigned char, 1 << 16> chunk;  // NOLINT(*-member-init)
  while (const std::size_t n = f.read_upto(chunk.data(), chunk.size())) {
    buf.insert(buf.end(), chunk.data(), chunk.data() + n);
  }
  return buf;
}

// The first `max_bytes` of `path` (all of it if shorter): a bounded read
// for callers that need only a file's leading frame, whatever the file's
// size.
inline std::vector<unsigned char> read_prefix(const std::string& path,
                                              std::size_t max_bytes) {
  File f = File::open_read(path);
  std::vector<unsigned char> buf(max_bytes);
  buf.resize(f.read_upto(buf.data(), buf.size()));
  return buf;
}

// ---------------------------------------------------------------------------
// Frame writer / reader.

// Byte size of the [len][crc] frame header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

// Largest payload a frame can carry: the length word is a u32. Checked on
// every write, in every build type, before any byte of the frame is
// written — a longer payload would otherwise be framed with a wrapped
// length and read back as a different, CRC-invalid frame.
inline constexpr std::uint64_t kMaxFrameBytes =
    std::numeric_limits<std::uint32_t>::max();

inline void require_frame_len(std::uint64_t len) {
  if (len > kMaxFrameBytes) {
    throw IoError("frame payload of " + std::to_string(len) +
                  " bytes exceeds the u32 length word");
  }
}

// The [len][crc] header for a payload of `len` bytes with checksum `crc`.
// Throws IoError when `len` does not fit the length word.
inline std::array<unsigned char, kFrameHeaderBytes> frame_header(
    std::uint64_t len, std::uint32_t crc) {
  require_frame_len(len);
  std::array<unsigned char, kFrameHeaderBytes> h;  // NOLINT(*-member-init)
  for (std::size_t i = 0; i < 4; ++i) {
    h[i] = static_cast<unsigned char>((len >> (8 * i)) & 0xFFU);
    h[i + 4] = static_cast<unsigned char>((crc >> (8 * i)) & 0xFFU);
  }
  return h;
}

// Append one in-memory frame: header write, then payload write (two
// syscalls — see file comment). `between` runs between the two, which is
// where the WAL plants its `wal.append.write` failpoint to simulate a
// crash in the torn window.
template <typename BetweenFn>
void write_frame(File& f, const std::vector<unsigned char>& payload,
                 BetweenFn&& between) {
  const auto h =
      frame_header(payload.size(), crc32c(payload.data(), payload.size()));
  f.write_fully(h.data(), h.size());
  between();
  f.write_fully(payload.data(), payload.size());
}

inline void write_frame(File& f, const std::vector<unsigned char>& payload) {
  write_frame(f, payload, [] {});
}

// Payload chunk of the streamed frame writer: the memory a frame costs to
// write, whatever its length.
inline constexpr std::size_t kFrameChunkBytes = std::size_t{1} << 16;

// The encoder write_frame_streamed hands its caller. Fields accumulate in
// one fixed chunk; each full chunk is folded into a running CRC32C (the
// checksum pass) or written to the file (the write pass).
class ChunkEncoder : public LeEncoder<ChunkEncoder> {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    while (len > 0) {
      const std::size_t n = std::min(len, buf_.size() - fill_);
      std::memcpy(buf_.data() + fill_, p, n);
      fill_ += n;
      p += n;
      len -= n;
      if (fill_ == buf_.size()) flush();
    }
  }

 private:
  template <typename EncodeFn>
  friend void write_frame_streamed(File& f, std::uint64_t len,
                                   const EncodeFn& encode);

  // Start a pass: checksum only when `out` is null, else write to `out`.
  void begin(File* out) {
    out_ = out;
    fill_ = 0;
    total_ = 0;
    crc_ = 0;
  }
  // Flush the last partial chunk; returns the bytes this pass encoded.
  std::uint64_t end() {
    flush();
    return total_;
  }
  void flush() {
    if (out_ != nullptr) {
      out_->write_fully(buf_.data(), fill_);
    } else {
      crc_ = crc32c(buf_.data(), fill_, crc_);
    }
    total_ += fill_;
    fill_ = 0;
  }

  std::array<unsigned char, kFrameChunkBytes> buf_;  // NOLINT(*-member-init)
  std::size_t fill_ = 0;
  std::uint64_t total_ = 0;
  std::uint32_t crc_ = 0;
  File* out_ = nullptr;
};

// Append one frame whose `len`-byte payload `encode(ChunkEncoder&)`
// produces, in kFrameChunkBytes of memory however large the payload. The
// caller states `len` up front (it is known from counts) and `encode`
// runs twice: pass 1 checksums the encoded chunks, then the [len][crc]
// header is written, then pass 2 re-encodes the same chunks and writes
// them. The bytes on disk equal write_frame's for the same payload, and
// the torn window (header on disk, payload not) is the same; the payload
// merely takes one write per chunk. Throws IoError, before any byte is
// written, if `len` exceeds kMaxFrameBytes or pass 1 encodes other than
// `len` bytes.
template <typename EncodeFn>
void write_frame_streamed(File& f, std::uint64_t len, const EncodeFn& encode) {
  require_frame_len(len);
  const auto mismatch = [len](std::uint64_t got) {
    return IoError("streamed frame encoded " + std::to_string(got) +
                   " bytes, declared " + std::to_string(len));
  };
  ChunkEncoder enc;
  enc.begin(nullptr);
  encode(enc);
  if (const std::uint64_t got = enc.end(); got != len) throw mismatch(got);
  const auto h = frame_header(len, enc.crc_);
  f.write_fully(h.data(), h.size());
  enc.begin(&f);
  encode(enc);
  if (const std::uint64_t got = enc.end(); got != len) throw mismatch(got);
}

enum class FrameStatus {
  kOk,    // frame decoded, payload valid
  kEnd,   // clean end of buffer, no bytes left over
  kTorn,  // trailing bytes that do not form a CRC-valid frame
};

// Sequential reader over an in-memory file image. `offset()` after a
// kTorn result is the byte offset of the last valid frame boundary —
// exactly what recovery ftruncates a tail-torn segment to.
class FrameReader {
 public:
  FrameReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit FrameReader(const std::vector<unsigned char>& buf)
      : FrameReader(buf.data(), buf.size()) {}

  FrameStatus next(std::vector<unsigned char>& payload_out) {
    if (pos_ == size_) return FrameStatus::kEnd;
    if (size_ - pos_ < kFrameHeaderBytes) return FrameStatus::kTorn;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
             << (8 * i);
      crc |= static_cast<std::uint32_t>(
                 data_[pos_ + static_cast<std::size_t>(i) + 4])
             << (8 * i);
    }
    // A length running past the buffer is torn: a garbage length word
    // never turns into a giant allocation.
    if (len > size_ - pos_ - kFrameHeaderBytes) {
      return FrameStatus::kTorn;
    }
    const unsigned char* payload = data_ + pos_ + kFrameHeaderBytes;
    if (crc32c(payload, len) != crc) return FrameStatus::kTorn;
    payload_out.assign(payload, payload + len);
    pos_ += kFrameHeaderBytes + len;
    return FrameStatus::kOk;
  }

  // Offset of the next unread byte = last valid frame boundary seen.
  std::uint64_t offset() const { return pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::uint64_t pos_ = 0;
};

}  // namespace i2a::util
