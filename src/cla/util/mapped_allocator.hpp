// An allocator for large arrays that grow with a trace: blocks of 64 KiB
// and more are mapped straight from the system and returned to it when
// freed. From glibc's heap, one small block cached near the heap top can
// keep every page below it resident after the array is gone.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace cla::util {

template <typename T>
struct MappedAllocator {
  using value_type = T;
  static constexpr std::size_t kMapBytes = std::size_t{64} << 10;

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) return static_cast<T*>(::operator new(bytes));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) {
      ::operator delete(p);
    } else {
      ::munmap(p, bytes);
    }
  }
  friend bool operator==(const MappedAllocator&, const MappedAllocator&) noexcept {
    return true;
  }
};

}  // namespace cla::util
