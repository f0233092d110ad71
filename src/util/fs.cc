#include "util/fs.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/hash.h"

#ifdef _WIN32
#include <process.h>
#define ARROW_GETPID _getpid
#else
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#define ARROW_GETPID getpid
#endif

namespace arrow::util {

namespace {
thread_local const FsFaults* t_fs_faults = nullptr;

#ifndef _WIN32

// Writes the (possibly capped) buffer to `tmp` with POSIX I/O and fsyncs it
// before close. Returns true only if every byte the caller asked for made it
// out AND reached stable storage — a short write, a write error, a failed
// fsync (real or injected) and a failed close all report false.
bool write_bytes(const std::string& tmp, const char* data, std::size_t size,
                 std::size_t cap, bool inject_fsync_failure) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::size_t n = cap < size ? cap : size;
  std::size_t off = 0;
  bool ok = true;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(w);
  }
  // The fsync is the durability half of the atomic-write contract: without
  // it, rename(2) can land the new name on data the kernel never flushed,
  // and a power loss leaves a complete-looking file full of zeros.
  if (ok && (inject_fsync_failure || ::fsync(fd) != 0)) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok && n == size;
}

// fsyncs the directory containing `path`, making the rename itself durable
// (the new directory entry, not just the file's bytes). Best-effort: some
// filesystems refuse O_DIRECTORY fsync; a failure here is reported.
bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

#else  // _WIN32: no fsync discipline — crash-only (not power-loss) safety.

bool write_bytes(const std::string& tmp, const char* data, std::size_t size,
                 std::size_t cap, bool inject_fsync_failure) {
  if (inject_fsync_failure) return false;
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::size_t n = cap < size ? cap : size;
  out.write(data, static_cast<std::streamsize>(n));
  out.flush();
  return out.good() && n == size;
}

bool sync_parent_dir(const std::string&) { return true; }

#endif
}  // namespace

ScopedFsFaults::ScopedFsFaults(const FsFaults& faults)
    : faults_(faults), previous_(t_fs_faults) {
  t_fs_faults = &faults_;
}

ScopedFsFaults::~ScopedFsFaults() { t_fs_faults = previous_; }

const FsFaults* ScopedFsFaults::active() { return t_fs_faults; }

bool write_file_atomic(const std::string& path, const void* data,
                       std::size_t size) {
  const FsFaults* faults = t_fs_faults;
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(ARROW_GETPID()));

  if (faults != nullptr && faults->fail_open) return false;

  std::size_t cap = size;
  if (faults != nullptr && faults->write_cap_bytes >= 0 &&
      static_cast<std::size_t>(faults->write_cap_bytes) < size) {
    cap = static_cast<std::size_t>(faults->write_cap_bytes);
  }
  const bool inject_fsync_failure =
      faults != nullptr && faults->fail_fsync;

  const bool wrote = write_bytes(tmp, static_cast<const char*>(data), size,
                                 cap, inject_fsync_failure);

  if (faults != nullptr && faults->torn_write) {
    // Crash simulation: whatever landed in the temp file (typically capped)
    // is promoted under the real name, and the write still reports failure —
    // the reader's checksum is the only defense.
    std::rename(tmp.c_str(), path.c_str());
    return false;
  }

  if (!wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  if (faults != nullptr && faults->fail_rename) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  // The rename landed; make it durable. A failed directory fsync is
  // reported (the caller's error counters should see it) even though the
  // new file is complete and valid — after a power loss either generation
  // may be the one that survives, and both parse.
  return sync_parent_dir(path);
}

#ifndef _WIN32

FileLock::FileLock(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  // Blocking: a saver waits its turn rather than dropping its merge. flock
  // (not fcntl) so the lock is per-open-file-description — a close anywhere
  // else in the process cannot release it early.
  if (::flock(fd_, LOCK_EX) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  held_ = true;
}

FileLock::~FileLock() {
  if (fd_ >= 0) ::close(fd_);  // closing the fd drops the flock
}

#else

FileLock::FileLock(const std::string&) { held_ = true; }
FileLock::~FileLock() = default;

#endif

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buf.str();
}

namespace {

// Checksummed-file framing: magic + version, then the FNV-1a trailer.
constexpr std::size_t kHeaderBytes = 4 + 4;
constexpr std::size_t kTrailerBytes = 8;

void put_little_endian(std::string& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

}  // namespace

void put_u8(std::string& out, std::uint8_t v) { put_little_endian(out, v, 1); }

void put_u32(std::string& out, std::uint32_t v) {
  put_little_endian(out, v, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  put_little_endian(out, v, 8);
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

bool ByteReader::take(std::uint64_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint64_t ByteReader::little_endian(int width) {
  if (!take(static_cast<std::uint64_t>(width))) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(little_endian(1));
}

std::uint32_t ByteReader::u32() {
  return static_cast<std::uint32_t>(little_endian(4));
}

std::uint64_t ByteReader::u64() { return little_endian(8); }

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() { return std::string(bytes(u64())); }

std::string_view ByteReader::bytes(std::uint64_t n) {
  if (!take(n)) return {};
  const std::string_view out = data_.substr(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

bool write_checksummed_file(const std::string& path, const FileFormat& format,
                            std::string_view payload) {
  std::string buf;
  buf.reserve(kHeaderBytes + payload.size() + kTrailerBytes);
  buf.append(format.magic, sizeof(format.magic));
  put_u32(buf, format.version);
  buf.append(payload);
  put_u64(buf, Fnv1a().bytes(buf.data(), buf.size()).value());
  return write_file_atomic(path, buf);
}

std::optional<std::string> read_checksummed_file(const std::string& path,
                                                 const FileFormat& format) {
  std::optional<std::string> buf = read_file(path);
  if (!buf || buf->size() < kHeaderBytes + kTrailerBytes) return std::nullopt;
  const std::size_t body = buf->size() - kTrailerBytes;
  ByteReader trailer(std::string_view(*buf).substr(body));
  if (trailer.u64() != Fnv1a().bytes(buf->data(), body).value()) {
    return std::nullopt;
  }
  ByteReader header(*buf);
  if (header.bytes(sizeof(format.magic)) !=
          std::string_view(format.magic, sizeof(format.magic)) ||
      header.u32() != format.version) {
    return std::nullopt;
  }
  buf->resize(body);
  buf->erase(0, kHeaderBytes);
  return buf;
}

}  // namespace arrow::util
