// Crash-safe append-only aggregation store (`cla-agg`'s persistence).
//
// On-disk layout of DIR/agg.claa — the same frame codec as the `.clat`
// trace format, so every torn or corrupt byte is detectable:
//
//   preamble: "CLAG" | u32 version (8 bytes)
//   StoreMeta record, reserved in place right after the preamble:
//       "CLAR" | u32 kind=1 | u32 payload_bytes | u32 crc32(payload) |
//       payload (fixed 64 bytes: the five loss counters + reserved zeros)
//   then zero or more appended run summaries:
//       "CLAR" | u32 kind=2 | u32 payload_bytes | u32 crc32(payload) |
//       payload (encode_run_record)
//
// Durability invariants (DESIGN §14):
//   * Appends are atomic-or-counted. A record is either fully framed with
//     a valid CRC, or the recovery scan removes it and counts the loss.
//     A failed append (retry budget exhausted on ENOSPC and friends) rolls
//     the file back with ftruncate and increments `failed_appends`.
//   * The StoreMeta record lives in pre-allocated bytes, so persisting
//     loss counters needs no new disk blocks and succeeds on a full disk.
//   * Compaction is copy-snapshot-rename: dedup into DIR/agg.claa.tmp,
//     fsync, rename(2) over the store, fsync the directory. A SIGKILL at
//     any byte leaves either the old store or the new one — never a mix.
//     Stale .tmp files from killed compactions are removed at open.
//   * The recovery scan at open distinguishes a torn tail (damage running
//     to EOF: truncate + count `truncated_records`/`truncated_bytes`)
//     from mid-file corruption (valid records behind the damage: resync
//     forward to the next "CLAR" frame + count `skipped_bytes`).
//   * Read-only opens never truncate and never count a torn tail: under a
//     shared lock a torn tail may be a concurrent in-flight append, not
//     crash damage. Only an exclusive-lock open may judge it loss.
//
// I/O: framing, payload fields and every read and write go through the
// layer shared with the `.clat` trace files (util/framed_io.hpp). Store
// reads and writes all take one ladder: 8 retries sleeping 0.5 -> 64 ms on
// transient errors, EINTR restarted, fault injection consulted.
//
// Locking: flock(2) — LOCK_EX for ReadWrite, LOCK_SH for ReadOnly — with
// an inode re-check after acquisition (compaction renames a new inode
// over the path; a waiter that locked the old inode must reopen).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cla/agg/record.hpp"
#include "cla/util/diagnostics.hpp"

namespace cla::agg {

/// Persisted loss accounting: everything this store has ever had to drop
/// or skip. Any non-zero field marks the store lossy (`cla-agg` exit 3).
struct StoreLoss {
  std::uint64_t truncated_records = 0;  ///< torn tail records removed
  std::uint64_t truncated_bytes = 0;    ///< bytes those records spanned
  std::uint64_t skipped_bytes = 0;      ///< corrupt mid-file bytes resynced
  std::uint64_t failed_appends = 0;     ///< appends abandoned after retries
  std::uint64_t meta_resets = 0;        ///< StoreMeta was unreadable

  bool any() const noexcept {
    return truncated_records != 0 || truncated_bytes != 0 ||
           skipped_bytes != 0 || failed_appends != 0 || meta_resets != 0;
  }
  bool operator==(const StoreLoss&) const = default;
};

/// One aggregation store directory, opened and locked.
///
/// Opening runs the recovery scan; in ReadWrite mode the scan repairs the
/// file (truncates a torn tail, rewrites an unreadable StoreMeta, removes
/// stale compaction temporaries) and persists any newly counted loss.
/// Throws util::Error when the store cannot be opened at all (missing in
/// read-only mode, foreign file, unsupported version, unreadable).
class AggStore {
 public:
  enum class Mode { ReadOnly, ReadWrite };

  AggStore(const std::string& dir, Mode mode);
  ~AggStore();
  AggStore(const AggStore&) = delete;
  AggStore& operator=(const AggStore&) = delete;

  /// Appends one run summary (ReadWrite only). False when the write retry
  /// budget was exhausted: the file is rolled back to its pre-append size
  /// and the failure is persisted as `failed_appends` loss.
  bool append(const RunRecord& record);

  /// All valid run summaries, in file order, duplicates included (callers
  /// dedup with merge_duplicates()). Skips unknown record kinds.
  std::vector<RunRecord> read_records();

  /// Rewrites the store as a deduplicated snapshot via atomic rename
  /// (ReadWrite only). False if writing the snapshot failed; the original
  /// store is untouched in that case.
  bool compact();

  /// Loss counters: the persisted ones plus (read-only mode) corruption
  /// observed by this open's scan that could not be persisted.
  const StoreLoss& loss() const noexcept { return loss_; }
  bool lossy() const noexcept { return loss_.any(); }

  /// What the open-time recovery scan found (torn tail, skipped bytes,
  /// meta reset...). Empty for a healthy store.
  const std::vector<util::Diagnostic>& open_diagnostics() const noexcept {
    return open_diagnostics_;
  }

  const std::string& path() const noexcept { return path_; }

  /// DIR/agg.claa for a store directory.
  static std::string store_file(const std::string& dir);

 private:
  void open_locked(const std::string& file);
  void init_empty();
  void load_meta();
  void write_meta();
  void recovery_scan();
  void note(util::DiagCode code, const std::string& message);

  Mode mode_ = Mode::ReadOnly;
  int fd_ = -1;
  std::string path_;                ///< DIR/agg.claa
  std::uint64_t end_offset_ = 0;    ///< end of the last valid record
  StoreLoss loss_;
  std::vector<util::Diagnostic> open_diagnostics_;
};

}  // namespace cla::agg
