#include "cla/util/grow_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>

namespace cla::util::grow_detail {

namespace {

/// The most that populate_ahead() faults in past the write position.
/// Every mapped array keeps up to a step populated past its end: at
/// 64 KiB, ldap-40's batch peak RSS rose by ≈0.4 MiB.
constexpr std::size_t kMaxStep = std::size_t{16} << 10;

std::size_t page_bytes() noexcept {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

void* map(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

}  // namespace

std::size_t storage_bytes(std::size_t bytes) noexcept {
  return bytes < kMapBytes ? bytes : (bytes + kMapBytes - 1) / kMapBytes * kMapBytes;
}

void* regrow(void* p, std::size_t used, std::size_t old_bytes,
             std::size_t new_bytes) {
  if (new_bytes < kMapBytes) {
    void* q = std::realloc(p, new_bytes);
    if (q == nullptr) throw std::bad_alloc();
    return q;
  }
#ifdef MREMAP_MAYMOVE
  if (old_bytes >= kMapBytes) {
    void* q = ::mremap(p, old_bytes, new_bytes, MREMAP_MAYMOVE);
    if (q == MAP_FAILED) throw std::bad_alloc();
    return q;
  }
#endif
  void* q = map(new_bytes);
  if (used != 0) std::memcpy(q, p, used);
  release(p, old_bytes);
  return q;
}

void release(void* p, std::size_t bytes) noexcept {
  if (bytes < kMapBytes) {
    std::free(p);
  } else {
    ::munmap(p, bytes);
  }
}

std::size_t populate_ahead(void* p, std::size_t bytes, std::size_t populated,
                           std::size_t need) noexcept {
  const std::size_t page = page_bytes();
  const std::size_t step =
      std::max(page, std::min(kMaxStep, bytes / 16 / page * page));
  const std::size_t target =
      std::min(bytes, (need + page - 1) / page * page + step);
  if (target <= populated) return populated;
#ifdef MADV_POPULATE_WRITE
  (void)::madvise(static_cast<char*>(p) + populated, target - populated,
                  MADV_POPULATE_WRITE);
#else
  (void)p;
#endif
  return target;
}

}  // namespace cla::util::grow_detail
