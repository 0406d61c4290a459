#include "cla/util/faultinject.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace cla::util::fault {

std::atomic<bool> detail::g_enabled{false};

namespace {

struct Config {
  bool write_faults = false;
  int write_errno = 0;
  std::uint64_t after_bytes = 0;
  std::uint64_t every = 1;
  std::uint64_t count = 0;  // 0 = persistent
  std::size_t short_write = 0;
  std::uint64_t kill_at_bytes = 0;
  std::uint32_t stall_ms = 0;
  std::uint64_t die_at_event = 0;
  bool read_faults = false;
  int read_errno = 0;
  std::uint64_t read_every = 1;
  std::uint64_t read_count = 0;  // 0 = persistent
  std::size_t short_read = 0;
};

// Written only by init()/reinit_for_tests() (setup paths), read via the
// atomics below on hot and signal paths.
Config g_config;
std::atomic<bool> g_initialized{false};
std::atomic<std::uint64_t> g_bytes_attempted{0};
std::atomic<std::uint64_t> g_eligible_calls{0};
std::atomic<std::uint64_t> g_injected{0};
std::atomic<std::uint64_t> g_events{0};
std::atomic<std::uint64_t> g_read_calls{0};
std::atomic<std::uint64_t> g_read_injected{0};

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<std::uint64_t>(value);
}

int parse_errno_name(const char* raw) {
  if (std::strcmp(raw, "ENOSPC") == 0) return ENOSPC;
  if (std::strcmp(raw, "EINTR") == 0) return EINTR;
  if (std::strcmp(raw, "EAGAIN") == 0) return EAGAIN;
  if (std::strcmp(raw, "EIO") == 0) return EIO;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end != raw && *end == '\0' && value > 0) return static_cast<int>(value);
  return 0;
}

void parse_environment() {
  Config config;
  if (const char* raw = std::getenv("CLA_FAULT_WRITE_ERRNO");
      raw != nullptr && *raw != '\0') {
    config.write_errno = parse_errno_name(raw);
    config.write_faults = config.write_errno != 0;
  }
  config.after_bytes = env_u64("CLA_FAULT_WRITE_AFTER_BYTES", 0);
  config.every = env_u64("CLA_FAULT_WRITE_EVERY", 1);
  if (config.every == 0) config.every = 1;
  config.count = env_u64("CLA_FAULT_WRITE_COUNT", 0);
  config.short_write =
      static_cast<std::size_t>(env_u64("CLA_FAULT_SHORT_WRITE", 0));
  config.kill_at_bytes = env_u64("CLA_FAULT_WRITE_KILL_AT_BYTES", 0);
  config.stall_ms =
      static_cast<std::uint32_t>(env_u64("CLA_FAULT_FLUSHER_STALL_MS", 0));
  config.die_at_event = env_u64("CLA_FAULT_DIE_AT_EVENT", 0);
  if (const char* raw = std::getenv("CLA_FAULT_READ_ERRNO");
      raw != nullptr && *raw != '\0') {
    config.read_errno = parse_errno_name(raw);
    config.read_faults = config.read_errno != 0;
  }
  config.read_every = env_u64("CLA_FAULT_READ_EVERY", 1);
  if (config.read_every == 0) config.read_every = 1;
  config.read_count = env_u64("CLA_FAULT_READ_COUNT", 0);
  config.short_read =
      static_cast<std::size_t>(env_u64("CLA_FAULT_SHORT_READ", 0));
  g_config = config;
  detail::g_enabled.store(
      config.write_faults || config.short_write != 0 ||
          config.kill_at_bytes != 0 || config.stall_ms != 0 ||
          config.die_at_event != 0 || config.read_faults ||
          config.short_read != 0,
      std::memory_order_release);
}

}  // namespace

void init() noexcept {
  if (g_initialized.exchange(true, std::memory_order_acq_rel)) return;
  parse_environment();
}

Fault on_write(std::size_t bytes) noexcept {
  Fault fault;
  if (!enabled()) return fault;
  const std::uint64_t seen =
      g_bytes_attempted.fetch_add(bytes, std::memory_order_relaxed);
  if (g_config.kill_at_bytes != 0 && seen < g_config.kill_at_bytes &&
      seen + bytes >= g_config.kill_at_bytes) {
    // SIGKILL on purpose, mid-"write": the process dies at an exact byte
    // offset inside the attempt, the hardest torn-append/torn-compaction
    // case the recovery scans must cope with.
    ::kill(::getpid(), SIGKILL);
  }
  if (g_config.short_write != 0) fault.max_bytes = g_config.short_write;
  if (!g_config.write_faults || seen < g_config.after_bytes) return fault;
  const std::uint64_t call =
      g_eligible_calls.fetch_add(1, std::memory_order_relaxed) + 1;
  if (call % g_config.every != 0) return fault;
  if (g_config.count != 0 &&
      g_injected.fetch_add(1, std::memory_order_relaxed) >= g_config.count) {
    return fault;
  }
  fault.fail = true;
  fault.error = g_config.write_errno;
  return fault;
}

Fault on_read(std::size_t bytes) noexcept {
  Fault fault;
  if (!enabled()) return fault;
  (void)bytes;
  if (g_config.short_read != 0) fault.max_bytes = g_config.short_read;
  if (!g_config.read_faults) return fault;
  const std::uint64_t call =
      g_read_calls.fetch_add(1, std::memory_order_relaxed) + 1;
  if (call % g_config.read_every != 0) return fault;
  if (g_config.read_count != 0 &&
      g_read_injected.fetch_add(1, std::memory_order_relaxed) >=
          g_config.read_count) {
    return fault;
  }
  fault.fail = true;
  fault.error = g_config.read_errno;
  return fault;
}

std::uint32_t flusher_stall_ms() noexcept {
  return enabled() ? g_config.stall_ms : 0;
}

void on_event() noexcept {
  if (!enabled() || g_config.die_at_event == 0) return;
  if (g_events.fetch_add(1, std::memory_order_relaxed) + 1 ==
      g_config.die_at_event) {
    // SIGKILL on purpose: no handler, no spill, no atexit — the hardest
    // death the salvage path must cope with.
    ::kill(::getpid(), SIGKILL);
  }
}

void reinit_for_tests() noexcept {
  g_bytes_attempted.store(0, std::memory_order_relaxed);
  g_eligible_calls.store(0, std::memory_order_relaxed);
  g_injected.store(0, std::memory_order_relaxed);
  g_events.store(0, std::memory_order_relaxed);
  g_read_calls.store(0, std::memory_order_relaxed);
  g_read_injected.store(0, std::memory_order_relaxed);
  g_initialized.store(true, std::memory_order_release);
  parse_environment();
}

}  // namespace cla::util::fault
