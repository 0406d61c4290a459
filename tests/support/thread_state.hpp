// Scheduler state of a thread of this process, for tests that must know
// a thread is blocked (e.g. asleep in a mutex's futex) before they go on.
// Linux only: reads /proc/self/task/<tid>/stat.
#pragma once

#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace cla::test_support {

/// The calling thread's kernel thread id.
inline pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

/// True once thread `tid` of this process is asleep (state S).
inline bool thread_asleep(pid_t tid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%d/stat",
                static_cast<int>(tid));
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  char stat[512] = {};
  const std::size_t n = std::fread(stat, 1, sizeof stat - 1, f);
  std::fclose(f);
  stat[n] = '\0';
  const char* paren = std::strrchr(stat, ')');  // the name may hold spaces
  return paren != nullptr && paren[1] == ' ' && paren[2] == 'S';
}

}  // namespace cla::test_support
