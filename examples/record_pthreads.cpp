// Recording a real pthread program in-process (the library-linked
// alternative to LD_PRELOAD interposition) and running the analysis on
// the resulting trace file — the complete Fig. 3 workflow.
//
//   $ ./record_pthreads [trace.clat]
//
// The program is a small producer/consumer pipeline: one producer feeds
// work through a condvar-signalled queue to three consumers that share a
// results lock. The recorder streams the run to the trace file as it
// goes, exactly as the interposer does for a preloaded app; after the
// run the file is analyzed the way `cla-analyze` does.
#include <cstdio>
#include <deque>

#include "cla/core/cla.hpp"
#include "cla/runtime/hooks.hpp"

int main(int argc, char** argv) {
  using namespace cla;
  const std::string path = argc > 1 ? argv[1] : "record_pthreads.clat";

  rt::Recorder& recorder = rt::Recorder::instance();
  recorder.start_streaming(path, /*buffer_events=*/16384);
  recorder.ensure_current_thread();
  recorder.name_thread(0, "main");

  {
    rt::InstrumentedMutex queue_mutex("queue_mutex");
    rt::InstrumentedCond queue_cond("queue_cond");
    rt::InstrumentedMutex results_lock("results_lock");
    std::deque<int> queue;
    bool done = false;
    long results = 0;

    rt::run_instrumented_threads(4, [&](std::uint32_t me) {
      if (me == 0) {
        // Producer: 300 items, in bursts.
        for (int item = 0; item < 300; ++item) {
          queue_mutex.lock();
          queue.push_back(item);
          queue_mutex.unlock();
          queue_cond.signal();
          volatile int pace = 0;
          for (int k = 0; k < 2000; ++k) pace = pace + k;
        }
        queue_mutex.lock();
        done = true;
        queue_mutex.unlock();
        queue_cond.broadcast();
        return;
      }
      // Consumers.
      for (;;) {
        int item = -1;
        queue_mutex.lock();
        while (queue.empty() && !done) queue_cond.wait(queue_mutex);
        if (!queue.empty()) {
          item = queue.front();
          queue.pop_front();
        }
        const bool finished = item < 0 && done;
        queue_mutex.unlock();
        if (finished) break;
        if (item < 0) continue;
        // "Process" the item, then publish under the shared results lock.
        volatile int work = 0;
        for (int k = 0; k < 8000; ++k) work = work + k;
        results_lock.lock();
        results += item;
        results_lock.unlock();
      }
    });
    recorder.thread_exit();
    std::printf("pipeline result: %ld\n", results);
  }

  // Close the trace (clean-close marker, dropped-event count), then
  // analyze the file (what cla-analyze does).
  recorder.finish_streaming();
  std::printf("trace written to %s (%llu events dropped)\n", path.c_str(),
              static_cast<unsigned long long>(recorder.dropped_events()));

  Pipeline pipeline;
  pipeline.load_file(path);
  const AnalysisResult result = pipeline.take_result();
  std::printf("\n%s", analysis::render_report(result, {.top_locks = 4}).c_str());
  return 0;
}
