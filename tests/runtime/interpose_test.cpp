// End-to-end test of the paper's deployment model: an uninstrumented
// pthread binary runs under LD_PRELOAD=libcla_interpose.so, the flushed
// .clat trace is loaded and analyzed.
#include <elf.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/analyze.hpp"
#include "cla/trace/trace_io.hpp"

namespace {

class InterposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_path_ = (std::filesystem::temp_directory_path() /
                   "cla_interpose_test.clat")
                      .string();
    std::remove(trace_path_.c_str());
  }
  void TearDown() override { std::remove(trace_path_.c_str()); }

  int run_demo(const std::string& mode = "",
               const std::string& extra_env = "") const {
    const std::string command = extra_env + " CLA_TRACE_FILE=" + trace_path_ +
                                " LD_PRELOAD=" CLA_INTERPOSE_LIB
                                " " CLA_DEMO_APP " " +
                                mode + " > /dev/null 2>&1";
    return std::system(command.c_str());
  }

  std::string trace_path_;
};

TEST_F(InterposeTest, PreloadedAppWritesAnalyzableTrace) {
  ASSERT_EQ(run_demo(), 0);
  ASSERT_TRUE(std::filesystem::exists(trace_path_));

  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  // main + 4 workers; glibc may register extra internal threads/locks
  // (startup locking under the interposer), so assert lower bounds and
  // identify the application's own locks by their invocation count.
  EXPECT_GE(trace.thread_count(), 5u);
  EXPECT_GT(trace.event_count(), 100u);
  EXPECT_NO_THROW(trace.validate());

  const auto result = cla::test_support::analyze(trace);
  EXPECT_GT(result.completion_time, 0u);
  EXPECT_GE(result.locks.size(), 2u);
  EXPECT_GE(result.barriers.size(), 1u);
  // All 20*4 = 80 acquisitions of each application lock are in the trace.
  std::vector<const cla::analysis::LockStats*> app_locks;
  for (const auto& lock : result.locks) {
    if (lock.invocations == 80u) app_locks.push_back(&lock);
  }
  ASSERT_EQ(app_locks.size(), 2u);
  // The big-CS lock dominates the critical path (it sorts first because
  // the lock list is ordered by on-path hold time).
  EXPECT_EQ(app_locks.front(), &result.locks.front());
  EXPECT_GT(app_locks.front()->cp_time_fraction, 0.2);
  EXPECT_GT(app_locks.front()->total_hold, app_locks.back()->total_hold);
}

TEST_F(InterposeTest, FailedLockCallsRecordNoEvents) {
  // The errorcheck scenario makes exactly 3 successful acquisitions of
  // its PTHREAD_MUTEX_ERRORCHECK mutex while EDEADLK relock, EBUSY
  // trylock and EPERM unlock all fail in between. A failed call must not
  // record: the buggy interposer logged an acquisition for the EDEADLK
  // relock (a phantom re-acquire of a held mutex) and a release for the
  // EPERM unlock, which breaks lock pairing.
  ASSERT_EQ(run_demo("errorcheck"), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_NO_THROW(trace.validate());

  std::map<cla::trace::ObjectId, int> acquires, acquireds, releases;
  for (cla::trace::ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    for (const cla::trace::Event& e : trace.thread_events(tid)) {
      if (e.type == cla::trace::EventType::MutexAcquire) ++acquires[e.object];
      if (e.type == cla::trace::EventType::MutexAcquired)
        ++acquireds[e.object];
      if (e.type == cla::trace::EventType::MutexReleased)
        ++releases[e.object];
    }
  }
  // Identify the app mutex by its signature: exactly 3 acquisitions (the
  // preloaded libc may take its own locks around startup).
  int matching = 0;
  for (const auto& [object, acquired] : acquireds) {
    if (acquired != 3) continue;
    ++matching;
    EXPECT_EQ(acquires[object], 3) << "phantom wait-start on " << object;
    EXPECT_EQ(releases[object], 3) << "phantom release on " << object;
  }
  EXPECT_GE(matching, 1) << "errorcheck mutex not found in trace";
  // Pairing must hold for every lock in the trace, not just the app's.
  for (const auto& [object, acquired] : acquireds) {
    EXPECT_EQ(acquired, releases[object])
        << "unbalanced acquire/release on " << object;
  }
}

TEST_F(InterposeTest, StreamsCompactV3WhenRequested) {
  // CLA_TRACE_FORMAT=v3 switches the streamed chunk encoding; the trace
  // must load and analyze identically to a v2 recording.
  ASSERT_EQ(run_demo("", "CLA_TRACE_FORMAT=v3"), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_GE(trace.thread_count(), 5u);
  EXPECT_GT(trace.event_count(), 100u);
  EXPECT_NO_THROW(trace.validate());
  const auto result = cla::test_support::analyze(trace);
  EXPECT_GT(result.completion_time, 0u);
  EXPECT_GE(result.locks.size(), 2u);
}

TEST_F(InterposeTest, StackDepthCapturesSymbolizedCallsites) {
  // CLA_STACK_DEPTH=4 turns on acquisition call-stack capture; the demo
  // app is linked -rdynamic, so dladdr can name its functions and the
  // analysis attributes CP time to symbolized (lock, callsite) pairs.
  ASSERT_EQ(run_demo("", "CLA_STACK_DEPTH=4"), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_NO_THROW(trace.validate());
  ASSERT_FALSE(trace.call_stacks().empty());
  EXPECT_FALSE(trace.frame_symbols().empty());
  for (const auto& [id, pcs] : trace.call_stacks()) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(pcs.size(), cla::trace::kMaxCallStackDepth);
    EXPECT_FALSE(pcs.empty());
  }

  const auto result = cla::test_support::analyze(trace);
  ASSERT_FALSE(result.callsites.empty());
  // At least one callsite resolves into the demo app itself, and the
  // exported lock-calling function symbolizes by name.
  bool app_frame = false;
  bool named_frame = false;
  for (const auto& cs : result.callsites) {
    for (const std::string& frame : cs.frames) {
      if (frame.find("interpose_demo_app") != std::string::npos) {
        app_frame = true;
      }
      if (frame.find("demo_worker") != std::string::npos) named_frame = true;
    }
  }
  EXPECT_TRUE(app_frame);
  EXPECT_TRUE(named_frame);
  // Attribution never invents time: each lock's callsite CP total stays
  // within its lock's CP total.
  for (const auto& lock : result.locks) {
    std::uint64_t callsite_cp = 0;
    for (const auto& cs : result.callsites) {
      if (cs.lock_id == lock.id) callsite_cp += cs.cp_hold_time;
    }
    EXPECT_LE(callsite_cp, lock.cp_hold_time);
  }
}

TEST_F(InterposeTest, StackCaptureIsOffByDefault) {
  ASSERT_EQ(run_demo(), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_TRUE(trace.call_stacks().empty());
  EXPECT_TRUE(trace.frame_symbols().empty());
  const auto result = cla::test_support::analyze(trace);
  EXPECT_TRUE(result.callsites.empty());

  ASSERT_EQ(run_demo("", "CLA_STACK_DEPTH=0"), 0);
  const cla::trace::Trace off = cla::trace::read_trace_file(trace_path_);
  EXPECT_TRUE(off.call_stacks().empty());
}

TEST_F(InterposeTest, JoinEdgesAllowPathToLeaveMainThread) {
  ASSERT_EQ(run_demo(), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  const auto result = cla::test_support::analyze(trace);
  // The critical path must not be confined to the coordinator: at least
  // one jump goes through a join or a lock hand-off.
  EXPECT_FALSE(result.path.jumps.empty());
  std::uint64_t worker_cp_time = 0;
  for (cla::trace::ThreadId tid = 1; tid < trace.thread_count(); ++tid) {
    worker_cp_time += result.path.thread_time(tid);
  }
  EXPECT_GT(worker_cp_time, 0u);
}

TEST_F(InterposeTest, CancelInsideInterposedCondWaitUnwindsThroughTheHook) {
  // pthread_cancel's forced unwind starts in the system unwinder and runs
  // the cleanups of the interposer's pthread_cond_wait frame on its way
  // to the thread's own cleanup handler. The process must survive it (a
  // private unwinder copy in the library aborts here) and the trace must
  // still be closed cleanly, the cancelled thread ending in ThreadExit.
  ASSERT_EQ(run_demo("cancel-condwait"), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  ASSERT_GE(trace.thread_count(), 2u);
  EXPECT_EQ(trace.thread_events(1).back().type,
            cla::trace::EventType::ThreadExit);
}

// ---- self-containment of the preload library ---------------------------

// The dynamic section's DT_NEEDED entries and the defined global/weak
// dynamic symbols of a 64-bit ELF shared object, read straight from the
// file so the check needs no binutils.
struct ElfDynamicInfo {
  std::vector<std::string> needed;
  std::set<std::string> exported;
};

ElfDynamicInfo read_elf_dynamic_info(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  ElfDynamicInfo info;
  if (bytes.size() < sizeof(Elf64_Ehdr)) return info;
  Elf64_Ehdr eh;
  std::memcpy(&eh, bytes.data(), sizeof eh);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shoff + std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
          bytes.size()) {
    return info;
  }
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  std::memcpy(sections.data(), bytes.data() + eh.e_shoff,
              sections.size() * sizeof(Elf64_Shdr));
  const auto string_at = [&](const Elf64_Shdr& strtab, std::uint64_t offset) {
    return std::string(bytes.data() + strtab.sh_offset + offset);
  };
  for (const Elf64_Shdr& section : sections) {
    if (section.sh_link >= sections.size()) continue;
    const Elf64_Shdr& strtab = sections[section.sh_link];
    if (section.sh_type == SHT_DYNAMIC) {
      for (std::uint64_t off = 0; off + sizeof(Elf64_Dyn) <= section.sh_size;
           off += sizeof(Elf64_Dyn)) {
        Elf64_Dyn dyn;
        std::memcpy(&dyn, bytes.data() + section.sh_offset + off, sizeof dyn);
        if (dyn.d_tag == DT_NULL) break;
        if (dyn.d_tag == DT_NEEDED) {
          info.needed.push_back(string_at(strtab, dyn.d_un.d_val));
        }
      }
    } else if (section.sh_type == SHT_DYNSYM) {
      for (std::uint64_t off = 0; off + sizeof(Elf64_Sym) <= section.sh_size;
           off += sizeof(Elf64_Sym)) {
        Elf64_Sym sym;
        std::memcpy(&sym, bytes.data() + section.sh_offset + off, sizeof sym);
        const unsigned bind = ELF64_ST_BIND(sym.st_info);
        if (sym.st_shndx == SHN_UNDEF || bind == STB_LOCAL ||
            ELF64_ST_VISIBILITY(sym.st_other) != STV_DEFAULT) {
          continue;
        }
        info.exported.insert(string_at(strtab, sym.st_name));
      }
    }
  }
  return info;
}

TEST(InterposeLibrary, NeedsNoLibstdcxxAndExportsOnlyTheHooks) {
  const ElfDynamicInfo info = read_elf_dynamic_info(CLA_INTERPOSE_LIB);
  ASSERT_FALSE(info.needed.empty()) << "no dynamic section in "
                                    << CLA_INTERPOSE_LIB;
  // The C++ runtime is linked in statically: a preloaded process pays no
  // libstdc++.so load, and the host's own C++ runtime stays its own.
  // (libgcc_s stays shared: see CancelInsideInterposedCondWait below.)
  for (const std::string& lib : info.needed) {
    EXPECT_EQ(lib.find("libstdc++"), std::string::npos) << lib;
  }
  // Exactly the interposed entry points: nothing of the private C++
  // runtime (or of CLA) is visible for a host to bind to.
  const std::set<std::string> hooks = {
      "pthread_mutex_lock",     "pthread_mutex_trylock",
      "pthread_mutex_timedlock", "pthread_mutex_unlock",
      "pthread_barrier_init",   "pthread_barrier_wait",
      "pthread_cond_wait",      "pthread_cond_timedwait",
      "pthread_cond_signal",    "pthread_cond_broadcast",
      "pthread_create",         "pthread_join",
      "_exit",                  "_Exit"};
  EXPECT_EQ(info.exported, hooks);
}

}  // namespace
