// Crash-consistent file writes with injectable fault hooks.
//
// write_file_atomic() is the single write discipline for every persistent
// artifact that must survive a crash (solver::BasisStore, ctrl::StateJournal):
// the bytes go to a pid-suffixed temp file in the target directory and land
// under the real name via rename(2), so a reader only ever sees the old file
// or the complete new one — never a torn intermediate.
//
// ScopedFsFaults is the chaos seam: while one is in scope on a thread, its
// fault flags apply to that thread's write_file_atomic() calls. Drills use it
// to simulate a failed open, ENOSPC / short writes, a failed rename, and the
// nastiest case — a torn write that lands under the real name (a filesystem
// that reordered data and metadata around a crash). Callers must treat a
// false return as "the old file is still the truth"; loaders must detect the
// torn case by checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace arrow::util {

struct FsFaults {
  bool fail_open = false;       // temp file cannot be created
  // >= 0: only this many bytes reach the temp file before the write fails
  // (ENOSPC / short write). The temp file is removed; the target untouched.
  long long write_cap_bytes = -1;
  // fsync of the temp file (or of the parent directory after rename) fails
  // — an I/O error at the exact point where durability is decided. The temp
  // file is removed and the target is untouched, same contract as a short
  // write.
  bool fail_fsync = false;
  bool fail_rename = false;     // temp written fully, rename fails
  // Torn write: write_cap_bytes bytes (the whole buffer when < 0 — then this
  // flag alone is a no-op) land under the REAL name via rename, and the call
  // still reports failure. Simulates a crash that left a truncated file.
  bool torn_write = false;
};

// Thread-local scoped fault injection for write_file_atomic.
class ScopedFsFaults {
 public:
  explicit ScopedFsFaults(const FsFaults& faults);
  ~ScopedFsFaults();
  ScopedFsFaults(const ScopedFsFaults&) = delete;
  ScopedFsFaults& operator=(const ScopedFsFaults&) = delete;

  static const FsFaults* active();

 private:
  FsFaults faults_;
  const FsFaults* previous_;
};

// Writes `size` bytes to `path` via temp file + atomic rename. On any
// failure the previous contents of `path` are preserved (except under an
// injected torn_write, which is the crash case loaders must detect).
//
// Durability (POSIX): the temp file is fsync'd before the rename and the
// parent directory is fsync'd after it, so a completed call survives power
// loss — not just process death. rename alone orders nothing: a crash
// could land the new name pointing at unwritten data, or roll the rename
// back entirely. Elsewhere (non-POSIX builds) the fsyncs are no-ops and the
// call keeps its crash-only (kill -9) guarantee.
bool write_file_atomic(const std::string& path, const void* data,
                       std::size_t size);
inline bool write_file_atomic(const std::string& path,
                              const std::string& bytes) {
  return write_file_atomic(path, bytes.data(), bytes.size());
}

// Whole file as bytes; nullopt when missing or unreadable.
std::optional<std::string> read_file(const std::string& path);

// --- checksummed binary files -----------------------------------------------
// The one layout of every persistent binary artifact (the state journal and
// the basis store; docs/file-formats.md):
//
//   bytes 0..3    magic (4 bytes, names the format)
//   bytes 4..7    format version (u32)
//   payload       the format's own fields
//   trailer       FNV-1a 64-bit checksum (u64) over every preceding byte
//
// All integers are little-endian and fixed width. The checksum catches
// truncation, bit rot and torn writes without trusting any length field; a
// payload parser reads through ByteReader, whose bounds checks keep a
// valid-checksum file from a future or hostile writer from smuggling
// garbage in.

struct FileFormat {
  char magic[4];
  std::uint32_t version;
};

// Payload encoders: append the value little-endian (f64 as its IEEE-754
// bits; a string as its u64 length, then its bytes).
void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i32(std::string& out, std::int32_t v);
void put_f64(std::string& out, double v);
void put_str(std::string& out, std::string_view s);

// Cursor over untrusted bytes: every read checks bounds and, on overrun,
// returns zero/empty and flips ok() sticky-false, so a parser reads
// linearly and checks once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  // The next n raw bytes.
  std::string_view bytes(std::uint64_t n);

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  // Every byte read and no overrun: a count that lied leaves bytes over.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool take(std::uint64_t n);
  std::uint64_t little_endian(int width);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Frames `payload` with `format`'s header and the checksum trailer and
// writes it with write_file_atomic.
bool write_checksummed_file(const std::string& path, const FileFormat& format,
                            std::string_view payload);

// The payload of a file write_checksummed_file wrote in `format`; nullopt
// when the file is missing or unreadable, shorter than header + trailer,
// fails its checksum, or carries another magic or version.
std::optional<std::string> read_checksummed_file(const std::string& path,
                                                 const FileFormat& format);

// Advisory inter-process mutex over a lock file: the constructor opens
// (creating if needed) `path` and takes a blocking exclusive flock(2); the
// destructor releases it. Guards read-merge-write cycles on files shared by
// several processes (solver::BasisStore::save) — rename alone keeps a
// file untorn but lets the last writer silently drop everyone else's merge.
// The lock file is left in place on release; unlinking it would race with a
// waiter that already opened the same inode.
//
// held() is false when the lock could not be taken (callers should fall back
// to best-effort, not fail the save). Non-POSIX builds have no flock; the
// lock is vacuously held under the single-process assumption.
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  bool held() const { return held_; }

 private:
  int fd_ = -1;
  bool held_ = false;
};

}  // namespace arrow::util
