#include "cla/runtime/recorder.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <random>
#include <thread>
#include <vector>

#include "cla/trace/salvage.hpp"
#include "cla/trace/tailer.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/clock.hpp"
#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"
#include "support/recording.hpp"

namespace cla::rt {
namespace {

// Each case records one session of the process-wide recorder.
class RecorderTest : public ::testing::Test {
 protected:
  test_support::RecordingSession session_;
};

TEST_F(RecorderTest, EnsureCurrentThreadAssignsDenseIds) {
  Recorder& recorder = Recorder::instance();
  const auto tid = recorder.ensure_current_thread();
  EXPECT_EQ(tid, 0u);
  // Re-registering the same thread is a no-op.
  EXPECT_EQ(recorder.ensure_current_thread(), tid);
}

TEST_F(RecorderTest, RecordsEventsForCurrentThread) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.record(trace::EventType::MutexAcquire, 42);
  recorder.record(trace::EventType::MutexAcquired, 42, 0);
  recorder.record(trace::EventType::MutexReleased, 42);
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  EXPECT_EQ(t.event_count(), 5u);  // start + 3 + exit
  EXPECT_NO_THROW(t.validate());
  const auto events = t.thread_events(0);
  EXPECT_EQ(events.front().type, trace::EventType::ThreadStart);
  EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
}

TEST_F(RecorderTest, CollectAppendsMissingThreadExit) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.record(trace::EventType::MutexAcquire, 1);
  // no explicit thread_exit
  const trace::Trace t = session_.finish();
  EXPECT_EQ(t.thread_events(0).back().type, trace::EventType::ThreadExit);
}

TEST_F(RecorderTest, MultipleOsThreadsGetDistinctIds) {
  Recorder& recorder = Recorder::instance();
  const auto parent = recorder.ensure_current_thread();
  trace::ThreadId child_tid = trace::kNoThread;
  const trace::ThreadId reserved = recorder.allocate_thread();
  recorder.record(trace::EventType::ThreadCreate,
                  static_cast<trace::ObjectId>(reserved));
  std::thread worker([&] {
    recorder.bind_current_thread(reserved, parent);
    child_tid = reserved;
    recorder.record(trace::EventType::MutexAcquire, 7);
    recorder.thread_exit();
  });
  worker.join();
  recorder.thread_exit();
  EXPECT_EQ(child_tid, 1u);
  const trace::Trace t = session_.finish();
  EXPECT_EQ(t.thread_count(), 2u);
  // Child records its parent in ThreadStart.object.
  EXPECT_EQ(t.thread_events(1).front().object, static_cast<trace::ObjectId>(0));
}

TEST_F(RecorderTest, NamesSurviveCollection) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.name_object(42, "Qlock");
  recorder.name_thread(0, "main");
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  ASSERT_NE(t.object_name(42), nullptr);
  EXPECT_EQ(*t.object_name(42), "Qlock");
  EXPECT_EQ(t.thread_display_name(0), "main");
}

TEST_F(RecorderTest, NameRegistrationDedupesLastWriteWins) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.name_object(42, "first");
  recorder.name_object(42, "first");   // idempotent re-registration
  recorder.name_object(42, "second");  // last write wins
  recorder.name_thread(0, "a");
  recorder.name_thread(0, "b");
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  ASSERT_NE(t.object_name(42), nullptr);
  EXPECT_EQ(*t.object_name(42), "second");
  EXPECT_EQ(t.thread_display_name(0), "b");
}

TEST_F(RecorderTest, PerThreadTimestampsAreMonotone) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  for (int i = 0; i < 1000; ++i) {
    recorder.record(trace::EventType::MutexAcquire, 1);
    recorder.record(trace::EventType::MutexAcquired, 1, 0);
    recorder.record(trace::EventType::MutexReleased, 1);
  }
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  const auto events = t.thread_events(0);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts);
  }
}

// ---- streaming (crash-resilient) mode -----------------------------------
//
// These tests use their own Recorder instances (not the singleton), so
// each starts from a recorder that never recorded.

std::string temp_trace_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(RecorderStreaming, MultithreadedRoundTripThroughDisk) {
  const std::string path = temp_trace_path("cla_rec_stream.clat");
  constexpr int kWorkers = 3;
  constexpr int kEventsPerWorker = 500;
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/4096);
    ASSERT_TRUE(recorder.streaming());
    recorder.name_object(7, "hot_lock");
    recorder.name_thread(0, "main");
    const auto parent = recorder.ensure_current_thread();
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      const auto tid = recorder.allocate_thread();
      recorder.record(trace::EventType::ThreadCreate,
                      static_cast<trace::ObjectId>(tid));
      workers.emplace_back([&recorder, tid, parent] {
        recorder.bind_current_thread(tid, parent);
        for (int i = 0; i < kEventsPerWorker; ++i) {
          recorder.record(trace::EventType::MutexAcquire, 7);
          recorder.record(trace::EventType::MutexAcquired, 7, 0);
          recorder.record(trace::EventType::MutexReleased, 7);
        }
        recorder.thread_exit();
      });
    }
    for (auto& worker : workers) worker.join();
    recorder.thread_exit();
    recorder.finish_streaming();
    EXPECT_EQ(recorder.dropped_events(), 0u);
  }
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.thread_count(), 1u + kWorkers);
  // main: start + kWorkers creates + exit; workers: start + 3N + exit.
  EXPECT_EQ(t.event_count(), (2u + kWorkers) +
                                 kWorkers * (3u * kEventsPerWorker + 2u));
  ASSERT_NE(t.object_name(7), nullptr);
  EXPECT_EQ(*t.object_name(7), "hot_lock");
  EXPECT_EQ(t.thread_display_name(0), "main");
  EXPECT_EQ(t.dropped_events(), 0u);
  std::remove(path.c_str());
}

TEST(RecorderStreaming, SmallBuffersFlushIncrementallyWithoutLoss) {
  // Capacity is clamped to the 64-event minimum (a 128-slot ring): the
  // thread wraps its ring dozens of times, so this exercises append,
  // wake and drain plus the drop accounting (any drop is visible in the
  // header).
  const std::string path = temp_trace_path("cla_rec_small.clat");
  constexpr int kEvents = 3000;
  std::uint64_t dropped = 0;
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/1);  // clamps to 64
    recorder.ensure_current_thread();
    // CondSignal has no pairing invariant, so the trace stays
    // validate()-clean even when overflow drops some of these.
    for (int i = 0; i < 2 * kEvents; ++i) {
      recorder.record(trace::EventType::CondSignal, 9, i);
    }
    recorder.thread_exit();
    recorder.finish_streaming();
    dropped = recorder.dropped_events();
  }
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.dropped_events(), dropped);
  // Everything not dropped must be on disk (start + pairs + exit), and a
  // dropped Exit is re-synthesized, adding at most one event.
  EXPECT_GE(t.event_count() + dropped, 2u * kEvents + 2u);
  std::remove(path.c_str());
}

TEST(RecorderStreaming, ImplicitThreadDeathRecordsRealThreadExit) {
  // A bound thread that dies without calling thread_exit() — a
  // pthread_cancel'ed thread, or one that simply returns in a
  // non-interposed app — must still close its stream: the recorder's TSD
  // destructor records the missing ThreadExit with a fresh timestamp
  // (finish_streaming's synthesized exits reuse the last event's ts, the
  // observable difference).
  const std::string path = temp_trace_path("cla_rec_tsd_exit.clat");
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/4096);
    const auto parent = recorder.ensure_current_thread();
    const auto tid = recorder.allocate_thread();
    recorder.record(trace::EventType::ThreadCreate,
                    static_cast<trace::ObjectId>(tid));
    std::thread([&recorder, tid, parent] {
      recorder.bind_current_thread(tid, parent);
      recorder.record(trace::EventType::CondSignal, 5);
      // No thread_exit(): the TSD destructor has to cover for us.
    }).join();
    recorder.thread_exit();
    recorder.finish_streaming();
    EXPECT_EQ(recorder.dropped_events(), 0u);
  }
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  ASSERT_EQ(t.thread_count(), 2u);
  const auto events = t.thread_events(1);
  ASSERT_EQ(events.size(), 3u);  // start, signal, destructor-recorded exit
  EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
  EXPECT_GT(events.back().ts, events[1].ts);
  std::remove(path.c_str());
}

TEST(RecorderStreaming, CrashSpillLeavesSalvageableFile) {
  const std::string path = temp_trace_path("cla_rec_crash.clat");
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/4096);
    recorder.ensure_current_thread();
    recorder.record(trace::EventType::MutexAcquire, 5);
    recorder.record(trace::EventType::MutexAcquired, 5, 0);
    // Process "dies" holding lock 5: no release, no exit, no clean close.
    recorder.crash_spill();
    EXPECT_TRUE(recorder.shut_down());

    // Satellite: recording after shutdown drops and counts, never UB.
    const std::uint64_t before = recorder.dropped_events();
    recorder.record(trace::EventType::MutexReleased, 5);
    EXPECT_EQ(recorder.dropped_events(), before + 1);
  }
  cla::trace::SalvageResult got = cla::trace::salvage_trace_file(path);
  EXPECT_NO_THROW(got.trace.validate());
  EXPECT_FALSE(got.report.clean_close);
  EXPECT_TRUE(got.report.lossy());
  EXPECT_GE(got.report.events_recovered, 3u);  // start + acquire + acquired
  // The dangling critical section was closed by the repair pass.
  const auto events = got.trace.thread_events(0);
  EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
  std::remove(path.c_str());
}

TEST(RecorderStreaming, CrashSpillIsIdempotentFirstCallerWins) {
  const std::string path = temp_trace_path("cla_rec_idem.clat");
  Recorder recorder;
  recorder.start_streaming(path, 4096);
  recorder.ensure_current_thread();
  recorder.record(trace::EventType::MutexAcquire, 1);
  recorder.crash_spill();
  recorder.crash_spill();  // no double write
  recorder.finish_streaming();  // no clean-close overwrite either
  cla::trace::SalvageResult got = cla::trace::salvage_trace_file(path);
  EXPECT_FALSE(got.report.clean_close);
  EXPECT_EQ(got.report.events_recovered, 2u);  // start + acquire, once
  std::remove(path.c_str());
}

TEST(RecorderStreaming, RingWrapsUnderConcurrentDrainWithoutLossOrReorder) {
  // 64 requested events make a 128-slot ring that the flusher drains
  // every 64 appends while the worker keeps writing: each worker wraps its
  // ring hundreds of times. The worker only waits when the ring nears
  // full, so nothing drops and the disk must hold every event, in order.
  const std::string path = temp_trace_path("cla_rec_wrap.clat");
  constexpr int kWorkers = 2;
  constexpr std::uint64_t kEventsPerWorker = 60'000;
  std::uint64_t dropped = 1;
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/64);
    const auto parent = recorder.ensure_current_thread();
    // One worker at a time: event_count() then is that worker's backlog
    // (plus the two events of the idle main thread).
    for (int w = 0; w < kWorkers; ++w) {
      const auto tid = recorder.allocate_thread();
      recorder.record(trace::EventType::ThreadCreate,
                      static_cast<trace::ObjectId>(tid));
      std::thread([&recorder, tid, parent] {
        recorder.bind_current_thread(tid, parent);
        for (std::uint64_t i = 0; i < kEventsPerWorker; ++i) {
          while (recorder.event_count() > 100) std::this_thread::yield();
          recorder.record(trace::EventType::CondSignal, 9, i);
        }
        recorder.thread_exit();
      }).join();
    }
    recorder.thread_exit();
    recorder.finish_streaming();
    dropped = recorder.dropped_events();
  }
  EXPECT_EQ(dropped, 0u);
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.dropped_events(), 0u);
  ASSERT_EQ(t.thread_count(), 1u + kWorkers);
  for (trace::ThreadId tid = 1; tid <= kWorkers; ++tid) {
    const auto events = t.thread_events(tid);
    ASSERT_EQ(events.size(), kEventsPerWorker + 2);  // start, signals, exit
    EXPECT_EQ(events.front().type, trace::EventType::ThreadStart);
    EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
    for (std::uint64_t i = 0; i < kEventsPerWorker; ++i) {
      const trace::Event& e = events[i + 1];
      ASSERT_EQ(e.type, trace::EventType::CondSignal) << "thread " << tid;
      ASSERT_EQ(e.arg, i) << "thread " << tid << " out of order";
      ASSERT_LE(events[i].ts, e.ts);
    }
  }
  std::remove(path.c_str());
}

TEST(RecorderStreaming, EveryDrainPathWritesNanoseconds) {
  // The hot path stores raw ticks; the flusher, the clean-exit drain, the
  // synthesized ThreadExit and the crash spill each convert to ns, and a
  // session loaded back keeps those ns. Every timestamp they produce must
  // fall between two now_ns() readings taken around the run: an
  // unconverted tick (about 2x the ns value on a 2 GHz TSC) would land
  // far outside.
  const auto expect_between = [](const trace::Trace& t, std::uint64_t before,
                                 std::uint64_t after) {
    ASSERT_GT(t.event_count(), 0u);
    for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
      for (const trace::Event& e : t.thread_events(tid)) {
        EXPECT_GE(e.ts, before) << to_string(e.type);
        EXPECT_LE(e.ts, after) << to_string(e.type);
      }
    }
  };
  const std::string path = temp_trace_path("cla_rec_ns.clat");
  {
    const std::uint64_t before = util::now_ns();
    {
      Recorder recorder;
      // 5000 events on a 1024-slot ring: the flusher drains during the
      // run, finish_streaming drains the rest.
      recorder.start_streaming(path, /*buffer_events=*/512);
      recorder.ensure_current_thread();
      for (int i = 0; i < 5000; ++i) {
        while (recorder.event_count() > 900) std::this_thread::yield();
        recorder.record(trace::EventType::CondSignal, 3, i);
      }
      util::spin_for_ns(100'000);
      recorder.finish_streaming();  // no thread_exit(): exit is synthesized
    }
    const std::uint64_t after = util::now_ns();
    const trace::Trace t = cla::trace::read_trace_file(path);
    EXPECT_EQ(t.event_count(), 5002u);
    expect_between(t, before, after);
    // The synthesized exit reuses the last recorded event's time.
    const auto events = t.thread_events(0);
    EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
    EXPECT_EQ(events.back().ts, events[events.size() - 2].ts);
    EXPECT_LT(events.back().ts + 50'000, after);
  }
  {
    const std::uint64_t before = util::now_ns();
    {
      Recorder recorder;
      recorder.start_streaming(path, /*buffer_events=*/4096);
      recorder.ensure_current_thread();
      recorder.record(trace::EventType::MutexAcquire, 5);
      recorder.crash_spill();
    }
    const std::uint64_t after = util::now_ns();
    expect_between(cla::trace::salvage_trace_file(path).trace, before, after);
  }
  {
    // A session through the test helper, with a recorded ThreadExit: the
    // loaded trace keeps absolute ns and the spin between its events.
    constexpr std::uint64_t kSpinNs = 2'000'000;
    Recorder recorder;
    const std::uint64_t before = util::now_ns();
    trace::Trace t;
    {
      test_support::RecordingSession session(recorder);
      recorder.ensure_current_thread();
      util::spin_for_ns(kSpinNs);
      recorder.record(trace::EventType::CondSignal, 3);
      recorder.thread_exit();
      t = session.finish();
    }
    const std::uint64_t after = util::now_ns();
    expect_between(t, before, after);
    EXPECT_GE(t.end_ts() - t.start_ts(), kSpinNs);
  }
  std::remove(path.c_str());
}

TEST(RecorderCallStacks, InternsDedupesClampsAndSurvivesCollect) {
  Recorder recorder;
  test_support::RecordingSession session(recorder);
  recorder.ensure_current_thread();
  const std::uint64_t a[2] = {0x10, 0x20};
  const std::uint64_t b[2] = {0x10, 0x30};
  // Depth 0 / null chains mean "no stack".
  EXPECT_EQ(recorder.register_call_stack(nullptr, 4), 0u);
  EXPECT_EQ(recorder.register_call_stack(a, 0), 0u);
  // Ids are 1-based and stable; identical chains dedupe.
  const std::uint64_t id_a = recorder.register_call_stack(a, 2);
  EXPECT_EQ(id_a, 1u);
  EXPECT_EQ(recorder.register_call_stack(a, 2), id_a);
  EXPECT_EQ(recorder.register_call_stack(b, 2), 2u);
  // Over-deep chains clamp to the format maximum and dedupe against
  // their clamped form.
  std::vector<std::uint64_t> deep(trace::kMaxCallStackDepth + 3, 0x40);
  const std::uint64_t id_deep =
      recorder.register_call_stack(deep.data(), deep.size());
  EXPECT_EQ(id_deep, 3u);
  EXPECT_EQ(recorder.register_call_stack(deep.data(), trace::kMaxCallStackDepth),
            id_deep);

  recorder.record(trace::EventType::MutexAcquire, 7, id_a);
  recorder.record(trace::EventType::MutexAcquired, 7, 0);
  recorder.record(trace::EventType::MutexReleased, 7);
  trace::Trace trace = session.finish();
  ASSERT_EQ(trace.call_stacks().size(), 3u);
  EXPECT_EQ(trace.call_stacks().at(id_a),
            (std::vector<std::uint64_t>{0x10, 0x20}));
  EXPECT_EQ(trace.call_stacks().at(id_deep).size(), trace::kMaxCallStackDepth);
}

TEST(RecorderCallStacks, StreamingModeEmitsChunksOnFirstSighting) {
  const std::string path = temp_trace_path("cla_rec_stacks.clat");
  Recorder recorder;
  recorder.start_streaming(path, 4096);
  recorder.ensure_current_thread();
  const std::uint64_t a[1] = {0x99};
  const std::uint64_t id = recorder.register_call_stack(a, 1);
  EXPECT_EQ(recorder.register_call_stack(a, 1), id);  // no duplicate chunk
  recorder.record(trace::EventType::MutexAcquire, 7, id);
  recorder.record(trace::EventType::MutexAcquired, 7, 0);
  recorder.record(trace::EventType::MutexReleased, 7);
  recorder.finish_streaming();
  const trace::Trace loaded = cla::trace::read_trace_file(path);
  ASSERT_EQ(loaded.call_stacks().size(), 1u);
  EXPECT_EQ(loaded.call_stacks().at(id), (std::vector<std::uint64_t>{0x99}));
  std::remove(path.c_str());
}

// ---- re-recording over an existing trace -----------------------------

// Records `events` CondSignals on `object` into a fresh trace at `path`.
void record_trace(const std::string& path, trace::ObjectId object,
                  int events) {
  Recorder recorder;
  recorder.start_streaming(path, /*buffer_events=*/4096);
  recorder.ensure_current_thread();
  for (int i = 0; i < events; ++i) {
    while (recorder.event_count() > 6000) std::this_thread::yield();
    recorder.record(trace::EventType::CondSignal, object);
  }
  recorder.thread_exit();
  recorder.finish_streaming();
}

std::uint64_t file_inode(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

// Every event of `t` is on `object` (or is a thread start/exit): nothing
// of an older trace on another object leaked into it.
void expect_only_object(const trace::Trace& t, trace::ObjectId object) {
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    for (const trace::Event& e : t.thread_events(tid)) {
      if (e.type == trace::EventType::ThreadStart ||
          e.type == trace::EventType::ThreadExit) {
        continue;
      }
      EXPECT_EQ(e.object, object) << to_string(e.type);
    }
  }
}

TEST(RecorderStreaming, ReRecordReplacesALargerOldTrace) {
  // The second recording unlinks the old file and creates a new one
  // (a new inode) instead of truncating it; the old bytes never show
  // through the path, whether the new run closes cleanly or spills.
  const std::string path = temp_trace_path("cla_rec_rerecord.clat");
  for (const bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "crash spill" : "clean close");
    record_trace(path, /*object=*/111, 50'000);
    const std::uint64_t old_size = std::filesystem::file_size(path);
    const std::uint64_t old_inode = file_inode(path);
    {
      Recorder recorder;
      recorder.start_streaming(path, /*buffer_events=*/4096);
      recorder.ensure_current_thread();
      for (int i = 0; i < 10; ++i) {
        recorder.record(trace::EventType::CondSignal, 222, i);
      }
      if (spill) {
        recorder.crash_spill();  // before the flusher drained anything
      } else {
        recorder.thread_exit();
        recorder.finish_streaming();
      }
    }
    EXPECT_NE(file_inode(path), old_inode);
    EXPECT_LT(std::filesystem::file_size(path), old_size);
    const cla::trace::SalvageResult salvaged =
        cla::trace::salvage_trace_file(path);
    EXPECT_EQ(salvaged.report.clean_close, !spill);
    EXPECT_EQ(salvaged.report.bytes_dropped, 0u);
    EXPECT_EQ(salvaged.report.chunks_dropped, 0u);
    EXPECT_EQ(salvaged.report.events_recovered, spill ? 11u : 12u);
    expect_only_object(salvaged.trace, 222);
    if (!spill) {  // the strict loader wants the clean-close marker
      const trace::Trace strict = cla::trace::read_trace_file(path);
      EXPECT_EQ(strict.event_count(), 12u);
      expect_only_object(strict, 222);
    }
  }
  std::remove(path.c_str());
}

TEST(RecorderStreaming, LinkedTracePathsAreTruncatedInPlace) {
  // A symlink or a second hard link means the old file is not ours to
  // replace: the recording truncates and rewrites the same inode, so the
  // link still leads to the new trace.
  const std::string target = temp_trace_path("cla_rec_link_target.clat");
  for (const bool hard : {false, true}) {
    SCOPED_TRACE(hard ? "hard link" : "symlink");
    const std::string link = temp_trace_path("cla_rec_link.clat");
    std::remove(link.c_str());
    record_trace(target, /*object=*/111, 50'000);
    const std::uint64_t old_size = std::filesystem::file_size(target);
    const std::uint64_t old_inode = file_inode(target);
    if (hard) {
      std::filesystem::create_hard_link(target, link);
    } else {
      std::filesystem::create_symlink(target, link);
    }
    record_trace(link, /*object=*/222, 10);
    EXPECT_EQ(std::filesystem::is_symlink(link), !hard);
    EXPECT_EQ(file_inode(target), old_inode);
    EXPECT_EQ(file_inode(link), old_inode);
    EXPECT_LT(std::filesystem::file_size(target), old_size);
    const trace::Trace strict = cla::trace::read_trace_file(target);
    EXPECT_EQ(strict.event_count(), 12u);
    expect_only_object(strict, 222);
    std::remove(link.c_str());
  }
  std::remove(target.c_str());
}

// ---- ring slot codec ---------------------------------------------------
//
// A streaming ring stores 16-byte slots: one per record whose object fits
// 48 bits and whose arg is kNoArg or at most 1021, two otherwise, and one
// for a fused uncontended acquisition. Whatever the packing, every drain
// path must put exactly the recorded events on disk.

struct RingRecord {
  bool fused = false;  // record_acquired_at: MutexAcquire + MutexAcquired
  trace::EventType type = trace::EventType::CondSignal;
  std::uint64_t ticks = 0;
  trace::ObjectId object = 0;
  std::uint64_t arg = 0;
};

// The slot fields' edges: the 48-bit object limit and the small-arg codes.
constexpr trace::ObjectId kEdgeObjects[] = {
    0, 1, (1ull << 47) - 1, (1ull << 48) - 1, 1ull << 48, trace::kNoObject};
constexpr std::uint64_t kEdgeArgs[] = {0,    1,    2,          1020,
                                       1021, 1022, 1023,       1024,
                                       1ull << 48, trace::kNoArg - 1,
                                       trace::kNoArg};
constexpr trace::EventType kRingTypes[] = {
    trace::EventType::ThreadCreate,  trace::EventType::JoinBegin,
    trace::EventType::JoinEnd,       trace::EventType::MutexAcquire,
    trace::EventType::MutexAcquired, trace::EventType::MutexReleased,
    trace::EventType::BarrierArrive, trace::EventType::BarrierLeave,
    trace::EventType::CondWaitBegin, trace::EventType::CondWaitEnd,
    trace::EventType::CondSignal,    trace::EventType::CondBroadcast,
    trace::EventType::PhaseBegin,    trace::EventType::PhaseEnd};

std::vector<RingRecord> random_records(std::mt19937_64& rng, std::size_t n,
                                       std::uint64_t first_ticks) {
  std::vector<RingRecord> out(n);
  std::uint64_t ticks = first_ticks;
  for (RingRecord& r : out) {
    ticks += rng() % 1000;  // equal timestamps included
    r.ticks = ticks;
    r.fused = rng() % 4 == 0;
    r.type = kRingTypes[rng() % std::size(kRingTypes)];
    r.object = rng() % 2 == 0 ? kEdgeObjects[rng() % std::size(kEdgeObjects)]
                              : rng() >> (rng() % 64);
    r.arg = rng() % 2 == 0 ? kEdgeArgs[rng() % std::size(kEdgeArgs)]
                           : rng() >> (rng() % 64);
  }
  return out;
}

void record_one(Recorder& recorder, const RingRecord& r) {
  if (r.fused) {
    recorder.record_acquired_at(r.ticks, r.object, r.arg);
  } else {
    recorder.record_at(r.type, r.ticks, r.object, r.arg);
  }
}

// The trace events `records` must drain to, for thread `tid`.
std::vector<trace::Event> expected_events(const std::vector<RingRecord>& records,
                                          trace::ThreadId tid) {
  std::vector<trace::Event> out;
  for (const RingRecord& r : records) {
    const std::uint64_t ts = util::ticks_to_ns(r.ticks);
    if (r.fused) {
      out.push_back({ts, r.object, r.arg, trace::EventType::MutexAcquire, 0, tid});
      out.push_back({ts, r.object, 0, trace::EventType::MutexAcquired, 0, tid});
    } else {
      out.push_back({ts, r.object, r.arg, r.type, 0, tid});
    }
  }
  return out;
}

enum class DrainPath { Flusher, Finish, CrashSpill };

// Waits until at most `limit` slots are pending. False after 10 s, so a
// broken ring (a tail that overtook its head reads as always full) fails
// the test instead of hanging it.
bool wait_for_room(const Recorder& recorder, std::size_t limit) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (recorder.event_count() > limit) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(RecorderRing, SlotCodecRoundTripsOnEveryDrainPath) {
  const std::string path = temp_trace_path("cla_ring_codec.clat");
  for (const std::uint32_t version :
       {trace::kTraceVersion, trace::kTraceVersionV3}) {
    for (const DrainPath drain :
         {DrainPath::Flusher, DrainPath::Finish, DrainPath::CrashSpill}) {
      SCOPED_TRACE("v" + std::to_string(version) + " drain path " +
                   std::to_string(static_cast<int>(drain)));
      std::mt19937_64 rng(version * 10 + static_cast<int>(drain));
      std::vector<RingRecord> records;
      {
        Recorder recorder;
        // 64 requested events make a 128-slot ring, drained from 64
        // pending slots on: wide pairs keep landing across the wrap.
        recorder.start_streaming(path, /*buffer_events=*/64, version);
        recorder.ensure_current_thread();
        const auto record_all = [&](std::vector<RingRecord> batch) {
          for (const RingRecord& r : batch) {
            // Back-pressure, so the flusher drains while we append and
            // nothing is dropped.
            if (!wait_for_room(recorder, 100)) return false;
            record_one(recorder, r);
            records.push_back(r);
          }
          return true;
        };
        if (drain != DrainPath::Finish) {
          ASSERT_TRUE(record_all(random_records(rng, 20'000, util::ticks())));
        }
        if (drain == DrainPath::CrashSpill) {
          // Let the flusher's sweep empty the ring, then leave a tail
          // shorter than the drain threshold for the spill to write.
          ASSERT_TRUE(wait_for_room(recorder, 0));
        }
        ASSERT_TRUE(record_all(random_records(
            rng, 30, records.empty() ? util::ticks() : records.back().ticks)));
        if (drain == DrainPath::CrashSpill) {
          recorder.crash_spill();
        } else {
          recorder.finish_streaming();
        }
        EXPECT_EQ(recorder.dropped_events(), 0u);
      }
      // Read back raw: no clean-close requirement (the spill path) and no
      // repair of the random, protocol-free event mix.
      cla::trace::TraceTailer tailer(path);
      cla::trace::TraceTailer::Delta delta;
      ASSERT_EQ(tailer.poll(delta),
                cla::trace::TraceTailer::PollStatus::Progress);
      ASSERT_EQ(delta.chunk.thread_count(), 1u);
      const auto events = delta.chunk.thread_events(0);
      const std::vector<trace::Event> want = expected_events(records, 0);
      // ThreadStart (its object kNoObject, a wide record), the records,
      // and the synthesized ThreadExit unless the run crashed.
      const std::size_t extra = drain == DrainPath::CrashSpill ? 1 : 2;
      ASSERT_EQ(events.size(), want.size() + extra);
      EXPECT_EQ(events[0].type, trace::EventType::ThreadStart);
      EXPECT_EQ(events[0].object, trace::kNoObject);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(events[i + 1], want[i]) << "event " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(RecorderRing, DropsCountTraceEventsNotSlots) {
  // A stalled flusher lets the 128-slot ring fill: whatever does not fit
  // is dropped, a fused acquisition counting as the two events it stands
  // for, so events on disk plus drops equal the events recorded.
  const std::string path = temp_trace_path("cla_ring_drops.clat");
  ::setenv("CLA_FAULT_FLUSHER_STALL_MS", "100", 1);
  util::fault::reinit_for_tests();
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/64);
    recorder.ensure_current_thread();
    recorded = 1;  // ThreadStart
    std::mt19937_64 rng(7);
    for (const RingRecord& r : random_records(rng, 2000, util::ticks())) {
      record_one(recorder, r);
      recorded += r.fused ? 2 : 1;
    }
    // The stalled flusher empties the ring eventually; then the exit fits.
    ASSERT_TRUE(wait_for_room(recorder, 0));
    recorder.thread_exit();
    recorded += 1;
    recorder.finish_streaming();
    dropped = recorder.dropped_events();
  }
  ::unsetenv("CLA_FAULT_FLUSHER_STALL_MS");
  util::fault::reinit_for_tests();
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(t.dropped_events(), dropped);
  EXPECT_EQ(t.event_count() + dropped, recorded);
  std::remove(path.c_str());
}

// ---- one recorder, several sessions ------------------------------------

TEST(RecorderStreaming, FinishedSessionRearms) {
  // One recorder, two sessions: the second starts at thread 0 and carries
  // none of the first's object names, call stacks or drops.
  Recorder recorder;
  const std::uint64_t pcs[1] = {0x77};
  {
    // A stalled flusher and a 128-slot ring: the first session drops.
    ::setenv("CLA_FAULT_FLUSHER_STALL_MS", "100", 1);
    util::fault::reinit_for_tests();
    test_support::RecordingSession first(recorder, /*buffer_events=*/64);
    const auto parent = recorder.ensure_current_thread();
    EXPECT_EQ(parent, 0u);
    const auto child = recorder.allocate_thread();
    std::thread([&recorder, child, parent] {
      recorder.bind_current_thread(child, parent);
      recorder.thread_exit();
    }).join();
    recorder.name_object(7, "first_lock");
    recorder.name_thread(parent, "first_main");
    EXPECT_EQ(recorder.register_call_stack(pcs, 1), 1u);
    for (int i = 0; i < 1000; ++i) {
      recorder.record(trace::EventType::CondSignal, 7, i);
    }
    ASSERT_TRUE(wait_for_room(recorder, 0));
    recorder.thread_exit();
    const trace::Trace t = first.finish();
    ::unsetenv("CLA_FAULT_FLUSHER_STALL_MS");
    util::fault::reinit_for_tests();
    EXPECT_EQ(t.thread_count(), 2u);
    EXPECT_NE(t.object_name(7), nullptr);
    EXPECT_EQ(t.call_stacks().size(), 1u);
    EXPECT_GT(t.dropped_events(), 0u);
  }
  {
    test_support::RecordingSession second(recorder);
    EXPECT_EQ(recorder.dropped_events(), 0u);
    EXPECT_EQ(recorder.ensure_current_thread(), 0u);
    EXPECT_EQ(recorder.allocate_thread(), 1u);
    const std::uint64_t other[1] = {0x88};
    EXPECT_EQ(recorder.register_call_stack(other, 1), 1u);  // a fresh table
    recorder.record(trace::EventType::CondSignal, 9);
    recorder.thread_exit();
    const trace::Trace t = second.finish();
    EXPECT_NO_THROW(t.validate());
    ASSERT_EQ(t.thread_count(), 1u);
    EXPECT_EQ(t.event_count(), 3u);  // start, signal, exit
    EXPECT_EQ(t.object_name(7), nullptr);
    EXPECT_NE(t.thread_display_name(0), "first_main");
    ASSERT_EQ(t.call_stacks().size(), 1u);
    EXPECT_EQ(t.call_stacks().at(1), (std::vector<std::uint64_t>{0x88}));
    EXPECT_EQ(t.dropped_events(), 0u);
  }
  // A crash spill ends recording for good, whether it lands in a session
  // or between two.
  const std::string path = temp_trace_path("cla_rec_rearm.clat");
  recorder.start_streaming(path, 4096);
  recorder.crash_spill();
  EXPECT_THROW(recorder.start_streaming(path, 4096), cla::util::Error);
  Recorder idle;
  {
    test_support::RecordingSession session(idle);
  }
  idle.crash_spill();
  EXPECT_THROW(idle.start_streaming(path, 4096), cla::util::Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cla::rt
