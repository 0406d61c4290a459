#include "cla/agg/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"
#include "cla/util/framed_io.hpp"

namespace cla::agg {

namespace {

constexpr char kStoreMagic[4] = {'C', 'L', 'A', 'G'};
constexpr char kRecordMagic[4] = {'C', 'L', 'A', 'R'};
constexpr std::uint32_t kStoreVersion = 1;

enum RecordKind : std::uint32_t {
  kKindStoreMeta = 1,
  kKindRunSummary = 2,
};

using util::io::kFrameHeaderBytes;

// Five used counters plus reserved zeros; fixed size keeps the StoreMeta
// record rewritable in place (no allocation on a full disk).
constexpr std::size_t kMetaPayloadBytes = 64;
constexpr std::uint64_t kMetaOffset = 8;
constexpr std::uint64_t kFirstAppendOffset =
    kMetaOffset + kFrameHeaderBytes + kMetaPayloadBytes;

// Every store read and write takes the disk ladder, fault injection
// included (framed_io.hpp).
constexpr util::io::RetryPolicy kStoreRetry = util::io::kDiskRetry;

std::string store_image(const StoreLoss& loss) {
  std::string image(kStoreMagic, 4);
  util::io::put_u32(image, kStoreVersion);
  std::string meta;
  for (const std::uint64_t counter :
       {loss.truncated_records, loss.truncated_bytes, loss.skipped_bytes,
        loss.failed_appends, loss.meta_resets}) {
    util::io::put_u64(meta, counter);
  }
  meta.resize(kMetaPayloadBytes, '\0');
  util::io::append_frame(image, kRecordMagic, kKindStoreMeta, meta.data(),
                         meta.size());
  return image;
}

bool write_at(int fd, const char* bytes, std::size_t len,
              std::uint64_t offset) {
  return util::io::write_all(fd, bytes, len, static_cast<std::int64_t>(offset),
                             kStoreRetry)
      .ok();
}

bool read_at(int fd, void* buf, std::size_t len, std::uint64_t offset) {
  return util::io::read_all(fd, buf, len, offset, kStoreRetry).ok();
}

// Walks the records in buf[0..size) with the recovery scan's damage
// policy: anything that does not check Ok is skipped up to the next valid
// frame. Calls `record(kind, payload, payload_bytes)` per valid frame and
// returns the offset just past the last one; `resynced` counts the bytes
// skipped in between and `torn` is set when damage runs to the end.
template <typename Record>
std::size_t scan_records(const unsigned char* buf, std::size_t size,
                         std::uint64_t& resynced, bool& torn, Record record) {
  std::size_t end = 0;
  util::io::FrameHeader header;
  while (end < size) {
    const std::size_t at =
        util::io::next_valid_frame(buf, size, end, kRecordMagic, &header);
    if (at == std::string::npos) {
      torn = true;
      break;
    }
    resynced += at - end;
    record(header.kind, buf + at + kFrameHeaderBytes, header.payload_bytes);
    end = at + kFrameHeaderBytes + header.payload_bytes;
  }
  return end;
}

}  // namespace

std::string AggStore::store_file(const std::string& dir) {
  return dir + "/agg.claa";
}

AggStore::AggStore(const std::string& dir, Mode mode) : mode_(mode) {
  util::fault::init();
  path_ = store_file(dir);
  if (mode_ == Mode::ReadWrite) {
    // Best-effort: open() reports the real failure if this did not help.
    ::mkdir(dir.c_str(), 0755);
  }
  open_locked(path_);
  try {
    if (mode_ == Mode::ReadWrite) {
      // A .tmp here is a compaction the process died inside; the rename
      // never happened, so it is garbage by construction.
      ::unlink((path_ + ".tmp").c_str());
    }
    struct stat st{};
    CLA_CHECK(::fstat(fd_, &st) == 0,
              "cannot stat aggregation store: " + path_ + ": " +
                  std::strerror(errno));
    const auto size = static_cast<std::uint64_t>(st.st_size);

    if (size < kFirstAppendOffset) {
      // Empty file, or an initialization this process' predecessor died
      // inside (no record can exist yet either way). Re-initialize in
      // read-write mode; read-only mode just sees an empty store. A
      // non-matching magic prefix means a foreign file — refuse.
      unsigned char prefix[4] = {};
      const std::size_t probe = std::min<std::uint64_t>(size, 4);
      if (probe > 0) {
        CLA_CHECK(read_at(fd_, prefix, probe, 0),
                  "cannot read aggregation store: " + path_);
        CLA_CHECK(std::memcmp(prefix, kStoreMagic, probe) == 0,
                  path_ + " is not an aggregation store");
      }
      if (mode_ == Mode::ReadWrite) {
        init_empty();
      } else {
        end_offset_ = size;
      }
      return;
    }

    unsigned char preamble[8];
    CLA_CHECK(read_at(fd_, preamble, sizeof preamble, 0),
              "cannot read aggregation store: " + path_);
    CLA_CHECK(std::memcmp(preamble, kStoreMagic, 4) == 0,
              path_ + " is not an aggregation store");
    std::uint32_t version = 0;
    std::memcpy(&version, preamble + 4, 4);
    CLA_CHECK(version == kStoreVersion,
              path_ + ": unsupported aggregation store version " +
                  std::to_string(version));

    load_meta();
    recovery_scan();
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

AggStore::~AggStore() {
  if (fd_ >= 0) ::close(fd_);
}

void AggStore::open_locked(const std::string& file) {
  const int flags = (mode_ == Mode::ReadWrite ? O_RDWR | O_CREAT : O_RDONLY) |
                    O_CLOEXEC;
  const int lock_op = mode_ == Mode::ReadWrite ? LOCK_EX : LOCK_SH;
  // Acquire-then-recheck loop: compaction replaces the store inode via
  // rename, so a waiter that locked the pre-rename inode must notice the
  // path moved on and start over.
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::open(file.c_str(), flags, 0644);
    if (fd < 0) {
      if (mode_ == Mode::ReadOnly && errno == ENOENT) {
        CLA_CHECK(false, "no aggregation store at " + file);
      }
      CLA_CHECK(false, "cannot open aggregation store: " + file + ": " +
                           std::strerror(errno));
    }
    while (::flock(fd, lock_op) != 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      CLA_CHECK(false, "cannot lock aggregation store: " + file + ": " +
                           std::strerror(err));
    }
    struct stat by_fd{}, by_path{};
    if (::fstat(fd, &by_fd) == 0 && ::stat(file.c_str(), &by_path) == 0 &&
        by_fd.st_dev == by_path.st_dev && by_fd.st_ino == by_path.st_ino) {
      fd_ = fd;
      return;
    }
    ::close(fd);  // renamed or unlinked underneath us; retry on the path
  }
  CLA_CHECK(false, "cannot obtain a stable lock on " + file);
}

void AggStore::init_empty() {
  const std::string image = store_image(StoreLoss{});
  // Clear any torn previous initialization first so a failure below
  // cannot leave stale bytes past what we rewrote.
  util::io::truncate_to(fd_, 0);
  CLA_CHECK(write_at(fd_, image.data(), image.size(), 0),
            "cannot initialize aggregation store: " + path_ + ": " +
                std::strerror(errno));
  end_offset_ = kFirstAppendOffset;
}

void AggStore::load_meta() {
  unsigned char frame[kFrameHeaderBytes + kMetaPayloadBytes];
  CLA_CHECK(read_at(fd_, frame, sizeof frame, kMetaOffset),
            "cannot read aggregation store metadata: " + path_);
  util::io::FrameHeader header;
  if (util::io::check_frame(frame, sizeof frame, 0, kRecordMagic, header) ==
          util::io::FrameCheck::Ok &&
      header.kind == kKindStoreMeta &&
      header.payload_bytes == kMetaPayloadBytes) {
    util::io::FieldReader in{frame + kFrameHeaderBytes, kMetaPayloadBytes};
    for (std::uint64_t* counter :
         {&loss_.truncated_records, &loss_.truncated_bytes,
          &loss_.skipped_bytes, &loss_.failed_appends, &loss_.meta_resets}) {
      in.u64(*counter);
    }
    return;
  }
  // The loss ledger itself is unreadable. Restarting it from zero would
  // silently forget real loss, so the reset is itself counted as loss
  // and the store stays flagged lossy forever after.
  loss_ = StoreLoss{};
  loss_.meta_resets = 1;
  note(util::DiagCode::CLA_W_AGG_META_RESET,
       "store metadata record was unreadable; loss counters restarted");
  if (mode_ == Mode::ReadWrite) write_meta();
}

void AggStore::write_meta() {
  if (mode_ != Mode::ReadWrite) return;
  const std::string image = store_image(loss_);
  // Rewrites allocated bytes only — succeeds on a full disk. If even
  // that fails the counters survive in memory for this process' report;
  // the next successful writer persists its own scan's findings.
  write_at(fd_, image.data() + kMetaOffset, image.size() - kMetaOffset,
           kMetaOffset);
}

void AggStore::recovery_scan() {
  struct stat st{};
  CLA_CHECK(::fstat(fd_, &st) == 0,
            "cannot stat aggregation store: " + path_ + ": " +
                std::strerror(errno));
  const auto size = static_cast<std::uint64_t>(st.st_size);
  end_offset_ = kFirstAppendOffset;
  if (size <= kFirstAppendOffset) return;

  std::vector<unsigned char> buf(size - kFirstAppendOffset);
  CLA_CHECK(read_at(fd_, buf.data(), buf.size(), kFirstAppendOffset),
            "cannot read aggregation store: " + path_);

  const StoreLoss before = loss_;
  std::uint64_t resynced = 0;
  bool torn_tail = false;
  end_offset_ += scan_records(buf.data(), buf.size(), resynced, torn_tail,
                              [](std::uint32_t, const void*, std::size_t) {});

  if (resynced > 0) {
    loss_.skipped_bytes += resynced;
    note(util::DiagCode::CLA_W_AGG_SKIPPED_BYTES,
         std::to_string(resynced) +
             " corrupt bytes inside the store were skipped");
  }
  if (torn_tail) {
    const std::uint64_t torn = size - end_offset_;
    if (mode_ == Mode::ReadWrite) {
      // Under LOCK_EX nobody is mid-append: the torn frame is crash
      // damage. Remove it so the next append extends a clean tail, and
      // count what was removed.
      util::io::truncate_to(fd_, end_offset_);
      loss_.truncated_records += 1;
      loss_.truncated_bytes += torn;
      note(util::DiagCode::CLA_W_AGG_TRUNCATED_TAIL,
           "torn record (" + std::to_string(torn) +
               " bytes) truncated from the store tail");
    }
    // Read-only: a shared lock cannot rule out a concurrent in-flight
    // append, so the tail is neither removed nor judged loss.
  }
  if (mode_ == Mode::ReadWrite && !(loss_ == before)) write_meta();
}

bool AggStore::append(const RunRecord& record) {
  CLA_CHECK(mode_ == Mode::ReadWrite,
            "append to read-only aggregation store: " + path_);
  const std::string payload = encode_run_record(record);
  CLA_CHECK(payload.size() <= util::io::kMaxFramePayload,
            "run record too large for the aggregation store");
  std::string frame;
  util::io::append_frame(frame, kRecordMagic, kKindRunSummary, payload.data(),
                         payload.size());
  if (!write_at(fd_, frame.data(), frame.size(), end_offset_)) {
    const int err = errno;
    // Roll the file back so a half-written frame cannot masquerade as a
    // torn tail for the next recovery scan — this loss is counted here.
    util::io::truncate_to(fd_, end_offset_);
    loss_.failed_appends += 1;
    note(util::DiagCode::CLA_W_AGG_APPEND_FAILED,
         "append of run " + record.run_id + " abandoned: " +
             std::strerror(err));
    write_meta();
    return false;
  }
  end_offset_ += frame.size();
  ::fdatasync(fd_);  // best-effort durability; integrity comes from CRC
  return true;
}

std::vector<RunRecord> AggStore::read_records() {
  std::vector<RunRecord> records;
  if (end_offset_ <= kFirstAppendOffset) return records;
  std::vector<unsigned char> buf(end_offset_ - kFirstAppendOffset);
  CLA_CHECK(read_at(fd_, buf.data(), buf.size(), kFirstAppendOffset),
            "cannot read aggregation store: " + path_);
  // Mid-file damage the recovery scan already counted as skipped_bytes
  // is resynced over the same way, so every record behind it is returned.
  std::uint64_t resynced = 0;
  bool torn = false;
  scan_records(buf.data(), buf.size(), resynced, torn,
               [&](std::uint32_t kind, const void* payload, std::size_t bytes) {
                 if (kind != kKindRunSummary) return;  // forward compatibility
                 RunRecord record;
                 if (decode_run_record(payload, bytes, record)) {
                   records.push_back(std::move(record));
                 } else {
                   note(util::DiagCode::CLA_W_AGG_SKIPPED_BYTES,
                        "undecodable run record (" +
                            std::to_string(kFrameHeaderBytes + bytes) +
                            " bytes) skipped");
                 }
               });
  return records;
}

bool AggStore::compact() {
  CLA_CHECK(mode_ == Mode::ReadWrite,
            "compact on read-only aggregation store: " + path_);
  const std::vector<RunRecord> records = merge_duplicates(read_records());

  std::string image = store_image(loss_);  // loss history survives
  for (const RunRecord& record : records) {
    const std::string payload = encode_run_record(record);
    util::io::append_frame(image, kRecordMagic, kKindRunSummary,
                           payload.data(), payload.size());
  }

  const std::string tmp = path_ + ".tmp";
  const int tfd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tfd < 0) return false;
  const bool wrote =
      write_at(tfd, image.data(), image.size(), 0) &&
      ::fsync(tfd) == 0;
  ::close(tfd);
  if (!wrote || ::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable.
  const int dfd = ::open(std::filesystem::path(path_).parent_path().c_str(),
                         O_RDONLY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  // Switch to the new inode: lock it first, then release the old one so
  // blocked writers wake, re-check the path, and find the new file.
  const int old_fd = fd_;
  open_locked(path_);
  ::close(old_fd);
  end_offset_ = image.size();
  return true;
}

void AggStore::note(util::DiagCode code, const std::string& message) {
  util::Diagnostic diagnostic;
  diagnostic.severity = util::Severity::Warning;
  diagnostic.code = code;
  diagnostic.message = message;
  open_diagnostics_.push_back(std::move(diagnostic));
}

}  // namespace cla::agg
