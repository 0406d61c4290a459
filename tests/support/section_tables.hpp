// The TraceIndex section-table invariant: every thread's SectionTable
// equals a rebuild from TraceIndex::mutexes(). Checked after every
// extend() by the index and incremental suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cla/analysis/index.hpp"

namespace cla::test_support {

/// One section-table row, as the table holds it or as a rebuild from the
/// mutexes says it should be.
struct SectionRow {
  std::uint32_t idx;
  std::uint64_t acquired_ts;
  std::uint64_t released_ts;
  std::uint32_t slot;
  std::uint32_t pos;
  std::uint8_t flags;
  bool operator==(const SectionRow&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const SectionRow& r) {
    return os << "{event " << r.idx << ", [" << r.acquired_ts << ", "
              << r.released_ts << "), slot " << r.slot << ", pos " << r.pos
              << ", flags " << int{r.flags} << "}";
  }
};

inline void expect_section_tables_match(const analysis::TraceIndex& index,
                                        const std::string& label) {
  using analysis::SectionTable;
  ASSERT_EQ(index.slot_count(), index.mutexes().size()) << label;
  std::vector<std::vector<SectionRow>> want(index.threads().size());
  for (const auto& [id, mi] : index.mutexes()) {
    ASSERT_LT(mi.slot, index.slot_count()) << label << " mutex " << id;
    ASSERT_EQ(&index.mutex_at(mi.slot), &mi) << label << " mutex " << id;
    for (std::uint32_t pos = 0; pos < mi.sections.size(); ++pos) {
      const analysis::CsRecord& cs = mi.sections[pos];
      ASSERT_LT(cs.tid, want.size()) << label;
      const std::uint8_t flags =
          (cs.contended ? SectionTable::kContended : 0) |
          (cs.stack_id != 0 ? SectionTable::kHasStack : 0);
      want[cs.tid].push_back(SectionRow{cs.acquired_idx, cs.acquired_ts,
                                 cs.released_ts, mi.slot, pos, flags});
    }
  }
  for (trace::ThreadId tid = 0; tid < want.size(); ++tid) {
    std::sort(want[tid].begin(), want[tid].end(),
              [](const SectionRow& a, const SectionRow& b) { return a.idx < b.idx; });
    const SectionTable& table = index.thread_sections(tid);
    const std::string where = label + " thread " + std::to_string(tid);
    ASSERT_EQ(table.size(), want[tid].size()) << where;
    ASSERT_EQ(table.span.size(), table.size()) << where;
    ASSERT_EQ(table.slot.size(), table.size()) << where;
    ASSERT_EQ(table.pos.size(), table.size()) << where;
    ASSERT_EQ(table.flags.size(), table.size()) << where;
    for (std::size_t k = 0; k < table.size(); ++k) {
      const SectionRow got{table.acquired_idx[k], table.span[k].acquired_ts,
                    table.span[k].released_ts, table.slot[k], table.pos[k],
                    table.flags[k]};
      ASSERT_EQ(got, want[tid][k]) << where << " row " << k << " (event "
                                   << want[tid][k].idx << ")";
      ASSERT_EQ(index.section_of(tid, got.idx), got.pos) << where << " row " << k;
    }
  }
}

}  // namespace cla::test_support
