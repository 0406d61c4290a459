/* taskq_target: the plain-pthread program the record-taskq workload runs,
 * once as is and once under the LD_PRELOAD recorder.
 *
 * Three workers pull task numbers from one shared queue mutex (contended),
 * do a seeded amount of integer work per task, fold the result into one of
 * 16 striped counters (each behind its own, mostly uncontended mutex) and
 * every 16th task publish to a best-result mutex. Every critical section
 * counts its own acquisitions, so the recorded trace can be checked
 * against the program's own view.
 *
 * Usage: taskq_target SEED TASKS OUT
 * Writes to OUT one line per mutex, "lock <address> <acquisitions>", and a
 * closing "checksum <value>" line. Links no CLA code.
 */
#include <inttypes.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

enum { kWorkers = 3, kStripes = 16, kPublishEvery = 16 };

/* Work per task: kWorkBase + (hash % kWorkSpread) multiply-xorshift rounds,
 * about 14 us per task on a 2 GHz x86 core; fixed here so that the same
 * seed always gives the same work, whatever the machine. At that event
 * rate a thread fills a default-sized recorder buffer half (16384 events)
 * in about 40 ms. The recorder drops, and counts, events when its flusher
 * cannot drain a half in that time; at a quarter of this work per task,
 * one recorded run in a few thousand did so on a shared 4-vCPU box. */
enum { kWorkBase = 3000, kWorkSpread = 3000 };

static pthread_mutex_t queue_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t stripe_lock[kStripes];
static pthread_mutex_t best_lock = PTHREAD_MUTEX_INITIALIZER;

static uint64_t seed;
static uint64_t task_count;
static uint64_t next_task;                      /* guarded by queue_lock */
static uint64_t queue_acquisitions;             /* guarded by queue_lock */
static uint64_t stripe_sum[kStripes];           /* guarded by stripe_lock[i] */
static uint64_t stripe_acquisitions[kStripes];  /* guarded by stripe_lock[i] */
static uint64_t best_value;                     /* guarded by best_lock */
static uint64_t best_acquisitions;              /* guarded by best_lock */

static uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

static uint64_t work(uint64_t task) {
  uint64_t x = mix(seed ^ (task * 0x2545f4914f6cdd1dull));
  const uint64_t rounds = kWorkBase + x % kWorkSpread;
  for (uint64_t i = 0; i < rounds; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  return x;
}

static void* worker(void* unused) {
  (void)unused;
  for (;;) {
    pthread_mutex_lock(&queue_lock);
    ++queue_acquisitions;
    const uint64_t task = next_task < task_count ? next_task++ : UINT64_MAX;
    pthread_mutex_unlock(&queue_lock);
    if (task == UINT64_MAX) break;

    const uint64_t value = work(task);
    const unsigned stripe = (unsigned)(value % kStripes);
    pthread_mutex_lock(&stripe_lock[stripe]);
    ++stripe_acquisitions[stripe];
    stripe_sum[stripe] += value >> 8;
    pthread_mutex_unlock(&stripe_lock[stripe]);

    if (task % kPublishEvery == kPublishEvery - 1) {
      pthread_mutex_lock(&best_lock);
      ++best_acquisitions;
      if (value > best_value) best_value = value;
      pthread_mutex_unlock(&best_lock);
    }
  }
  return NULL;
}

int main(int argc, char** argv) {
  if (argc != 4) {
    fprintf(stderr, "usage: %s SEED TASKS OUT\n", argv[0]);
    return 2;
  }
  seed = strtoull(argv[1], NULL, 10);
  task_count = strtoull(argv[2], NULL, 10);
  for (int i = 0; i < kStripes; ++i) pthread_mutex_init(&stripe_lock[i], NULL);

  pthread_t threads[kWorkers];
  for (int i = 0; i < kWorkers; ++i) {
    if (pthread_create(&threads[i], NULL, worker, NULL) != 0) {
      perror("pthread_create");
      return 1;
    }
  }
  for (int i = 0; i < kWorkers; ++i) pthread_join(threads[i], NULL);

  FILE* out = fopen(argv[3], "w");
  if (out == NULL) {
    perror(argv[3]);
    return 1;
  }
  uint64_t checksum = best_value;
  fprintf(out, "lock %" PRIuPTR " %" PRIu64 "\n", (uintptr_t)&queue_lock,
          queue_acquisitions);
  for (int i = 0; i < kStripes; ++i) {
    fprintf(out, "lock %" PRIuPTR " %" PRIu64 "\n", (uintptr_t)&stripe_lock[i],
            stripe_acquisitions[i]);
    checksum ^= stripe_sum[i];
  }
  fprintf(out, "lock %" PRIuPTR " %" PRIu64 "\n", (uintptr_t)&best_lock,
          best_acquisitions);
  fprintf(out, "checksum %" PRIu64 "\n", checksum);
  return fclose(out) == 0 ? 0 : 1;
}
