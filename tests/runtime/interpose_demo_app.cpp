// Tiny *uninstrumented* pthread application used by the LD_PRELOAD
// interposition integration test. Two locks with very different critical
// section sizes, plus a barrier — enough structure for the analyzer to
// find a critical lock.
//
// Invoked with the argument "errorcheck" it instead exercises every
// pthread_mutex_* error path on a PTHREAD_MUTEX_ERRORCHECK mutex, so the
// interposer's only-record-on-success rule has a regression scenario:
// exactly three acquisitions succeed; every failed call must leave no
// events behind or the trace stops validating.
//
// Invoked with "cancel-condwait" it cancels a thread blocked in
// pthread_cond_wait, so the forced unwind runs through the interposer's
// hook frame (and that frame's cleanups) before it reaches the thread's
// own cleanup handler. Exits 0 once the cancelled thread is joined and
// its mutex is free again.
#include <errno.h>
#include <pthread.h>
#include <time.h>

#include <cstdio>
#include <cstring>

namespace {

pthread_mutex_t g_small = PTHREAD_MUTEX_INITIALIZER;
pthread_mutex_t g_big = PTHREAD_MUTEX_INITIALIZER;
pthread_barrier_t g_barrier;
volatile long g_counter = 0;

void burn(long iterations) {
  for (long i = 0; i < iterations; ++i) g_counter = g_counter + 1;
}

}  // namespace

// External linkage on purpose: the binary links with -rdynamic so the
// interposer's CLA_STACK_DEPTH capture can symbolize this callsite by
// name (an internal-linkage function never reaches the dynamic symbol
// table and dladdr would fall back to the bare module name).
extern "C" void* demo_worker(void*) {
  pthread_barrier_wait(&g_barrier);
  for (int round = 0; round < 20; ++round) {
    pthread_mutex_lock(&g_small);
    burn(2000);
    pthread_mutex_unlock(&g_small);
    pthread_mutex_lock(&g_big);
    burn(60000);  // keep g_big clearly dominant even under scheduler noise
    pthread_mutex_unlock(&g_big);
  }
  return nullptr;
}

namespace {

int run_errorcheck() {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_settype(&attr, PTHREAD_MUTEX_ERRORCHECK);
  pthread_mutex_t m;
  pthread_mutex_init(&m, &attr);
  pthread_mutexattr_destroy(&attr);

  if (pthread_mutex_lock(&m) != 0) return 10;        // acquisition 1
  if (pthread_mutex_lock(&m) != EDEADLK) return 11;  // failed relock
  if (pthread_mutex_trylock(&m) != EBUSY) return 12; // failed trylock
  if (pthread_mutex_unlock(&m) != 0) return 13;      // release 1
  if (pthread_mutex_unlock(&m) != EPERM) return 14;  // failed unlock
  if (pthread_mutex_trylock(&m) != 0) return 15;     // acquisition 2
  if (pthread_mutex_unlock(&m) != 0) return 16;      // release 2
  timespec abstime{};
  clock_gettime(CLOCK_REALTIME, &abstime);
  abstime.tv_sec += 5;
  if (pthread_mutex_timedlock(&m, &abstime) != 0) return 17;  // acquisition 3
  if (pthread_mutex_unlock(&m) != 0) return 18;               // release 3

  pthread_mutex_destroy(&m);
  std::printf("errorcheck ok\n");
  return 0;
}

pthread_mutex_t g_wait_lock = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t g_wait_cond = PTHREAD_COND_INITIALIZER;
bool g_waiting = false;  // guarded by g_wait_lock

void unlock_wait_lock(void*) { pthread_mutex_unlock(&g_wait_lock); }

void* cond_wait_victim(void*) {
  pthread_mutex_lock(&g_wait_lock);
  pthread_cleanup_push(&unlock_wait_lock, nullptr);
  g_waiting = true;
  for (;;) pthread_cond_wait(&g_wait_cond, &g_wait_lock);  // never signalled
  pthread_cleanup_pop(1);
  return nullptr;
}

int run_cancel_condwait() {
  pthread_t victim;
  if (pthread_create(&victim, nullptr, &cond_wait_victim, nullptr) != 0) {
    return 20;
  }
  for (bool waiting = false; !waiting;) {
    pthread_mutex_lock(&g_wait_lock);  // free only once the victim waits
    waiting = g_waiting;
    pthread_mutex_unlock(&g_wait_lock);
  }
  if (pthread_cancel(victim) != 0) return 21;
  void* result = nullptr;
  if (pthread_join(victim, &result) != 0) return 22;
  if (result != PTHREAD_CANCELED) return 23;
  if (pthread_mutex_trylock(&g_wait_lock) != 0) return 24;  // cleanup ran
  pthread_mutex_unlock(&g_wait_lock);
  std::printf("cancel ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "errorcheck") == 0) {
    return run_errorcheck();
  }
  if (argc > 1 && std::strcmp(argv[1], "cancel-condwait") == 0) {
    return run_cancel_condwait();
  }
  constexpr int kThreads = 4;
  pthread_barrier_init(&g_barrier, nullptr, kThreads);
  pthread_t threads[kThreads];
  for (auto& thread : threads) {
    pthread_create(&thread, nullptr, &demo_worker, nullptr);
  }
  for (auto& thread : threads) {
    pthread_join(thread, nullptr);
  }
  pthread_barrier_destroy(&g_barrier);
  std::printf("counter=%ld\n", g_counter);
  return 0;
}
