// Analyzer mutation fuzzer (ISSUE tentpole 4): take the valid trace of
// every bundled workload, apply randomized semantic mutations (dropped /
// duplicated / reordered events, corrupted timestamps, flipped types,
// rewritten object and thread ids, truncated tails) and feed the result
// through the full Pipeline.
//
// The contract under fuzz:
//   - the pipeline NEVER crashes: only ValidationError (strict mode) or
//     a clean report may come out, anything else is a bug;
//   - repair mode ALWAYS produces a report for every mutated input, and
//     the trace it analyzed replays clean through the validator (DESIGN
//     §9: "a repaired trace replays clean");
//   - with a generous deadline armed, no run exceeds it.
//
// Mutations are deterministic (fixed per-workload seeds via cla::util::Rng)
// so CI failures reproduce locally. CLA_FUZZ_SEED / CLA_FUZZ_ITERATIONS
// environment variables widen the search locally without a rebuild.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cla/core/cla.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/error.hpp"
#include "cla/util/rng.hpp"
#include "cla/workloads/workload.hpp"

namespace cla {
namespace {

constexpr trace::EventType kAllTypes[] = {
    trace::EventType::ThreadStart,   trace::EventType::ThreadExit,
    trace::EventType::ThreadCreate,  trace::EventType::JoinBegin,
    trace::EventType::JoinEnd,       trace::EventType::MutexAcquire,
    trace::EventType::MutexAcquired, trace::EventType::MutexReleased,
    trace::EventType::BarrierArrive, trace::EventType::BarrierLeave,
    trace::EventType::CondWaitBegin, trace::EventType::CondWaitEnd,
    trace::EventType::CondSignal,    trace::EventType::CondBroadcast,
    trace::EventType::PhaseBegin,    trace::EventType::PhaseEnd,
};

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

// Applies 1..4 random semantic mutations to a copy of the base trace.
trace::Trace mutate(const trace::Trace& base, util::Rng& rng) {
  std::vector<std::vector<trace::Event>> threads(base.thread_count());
  for (trace::ThreadId tid = 0; tid < base.thread_count(); ++tid) {
    const auto events = base.thread_events(tid);
    threads[tid].assign(events.begin(), events.end());
  }
  const std::uint64_t mutations = rng.range(1, 4);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    auto& events = threads[rng.below(threads.size())];
    if (events.empty()) continue;
    const std::size_t at = static_cast<std::size_t>(rng.below(events.size()));
    switch (rng.below(8)) {
      case 0:  // drop an event
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:  // duplicate an event in place
        events.insert(events.begin() + static_cast<std::ptrdiff_t>(at),
                      events[at]);
        break;
      case 2:  // corrupt the timestamp (including backwards jumps)
        events[at].ts = rng.next();
        break;
      case 3:  // flip the event type
        events[at].type = kAllTypes[rng.below(std::size(kAllTypes))];
        break;
      case 4:  // rewrite the object id (dangling lock/barrier/cond refs)
        events[at].object = rng.below(2) == 0 ? rng.below(64) : rng.next();
        break;
      case 5:  // rewrite the embedded thread id (tid-mismatch class)
        events[at].tid = static_cast<trace::ThreadId>(rng.below(1u << 22));
        break;
      case 6:  // truncate the tail (torn recording)
        events.resize(at + 1);
        break;
      case 7:  // swap adjacent events (local reordering)
        if (at + 1 < events.size()) std::swap(events[at], events[at + 1]);
        break;
    }
  }
  trace::Trace mutated;
  for (trace::ThreadId tid = 0; tid < threads.size(); ++tid) {
    if (!threads[tid].empty()) {
      mutated.add_thread_stream(tid, std::move(threads[tid]));
    }
  }
  return mutated;
}

// Full-pipeline run under a given strictness. Returns true iff a report
// came out; throws nothing but lets GTest record unexpected exceptions.
bool analyze_mutant(const trace::Trace& mutant, util::Strictness strictness,
                    std::string* failure) {
  Options options;
  options.strictness = strictness;
  options.limits.deadline_ms = 60000;  // generous; expiry = hang = bug
  options.execution.num_threads = 2;
  Pipeline pipeline(options);
  pipeline.use_trace(mutant);
  try {
    const std::string report = pipeline.report();
    if (report.empty()) {
      *failure = "pipeline produced an empty report";
      return false;
    }
    if (strictness == util::Strictness::Repair) {
      // Replay what was analyzed: the view. A mutant damaged only in its
      // stored per-event tids is clean (no check reads a stored tid), so
      // nothing is repaired and the view is of the borrowed mutant itself.
      util::DiagnosticSink replay;
      trace::validate_trace(pipeline.view(), replay);
      for (const util::Diagnostic& d : replay.diagnostics()) {
        // Implausibly large thread ids are deliberately not stubbed.
        if (d.code == util::DiagCode::CLA_W_UNKNOWN_THREAD_REF) continue;
        *failure = "repaired trace does not replay clean: " + d.to_string();
        return false;
      }
    }
    return true;
  } catch (const util::ResourceLimitError& e) {
    *failure = std::string("deadline exceeded: ") + e.what();
    return false;
  } catch (const util::ValidationError&) {
    if (strictness == util::Strictness::Strict) return true;  // contractual
    throw;  // repair/lenient must never refuse a non-empty trace
  }
}

class MutationFuzzTest : public testing::TestWithParam<const char*> {};

TEST_P(MutationFuzzTest, PipelineSurvivesSemanticMutations) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.1;  // small but structurally complete traces
  const trace::Trace base = workloads::run_workload(GetParam(), config).trace;
  ASSERT_GT(base.event_count(), 0u);

  // 8 workloads x 64 iterations = 512 mutated traces per suite run.
  const std::uint64_t iterations = env_u64("CLA_FUZZ_ITERATIONS", 64);
  std::uint64_t seed = env_u64("CLA_FUZZ_SEED", 0xc1a0f422u);
  for (const char c : std::string(GetParam())) {
    seed = seed * 131 + static_cast<unsigned char>(c);
  }
  util::Rng rng(seed);

  for (std::uint64_t i = 0; i < iterations; ++i) {
    const trace::Trace mutant = mutate(base, rng);
    if (mutant.event_count() == 0) continue;  // nothing left to analyze
    std::string failure;
    EXPECT_TRUE(analyze_mutant(mutant, util::Strictness::Repair, &failure))
        << GetParam() << " iteration " << i << " (seed " << seed
        << ", repair): " << failure;
    // Every 8th mutant also runs the strict and lenient legs: strict may
    // refuse (exit-5 class) but must not crash; lenient must report.
    if (i % 8 == 0) {
      EXPECT_TRUE(analyze_mutant(mutant, util::Strictness::Strict, &failure))
          << GetParam() << " iteration " << i << " (seed " << seed
          << ", strict): " << failure;
      EXPECT_TRUE(analyze_mutant(mutant, util::Strictness::Lenient, &failure))
          << GetParam() << " iteration " << i << " (seed " << seed
          << ", lenient): " << failure;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, MutationFuzzTest,
                         testing::Values("micro", "radiosity", "tsp", "uts",
                                         "water", "volrend", "raytrace",
                                         "ldap"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace cla
