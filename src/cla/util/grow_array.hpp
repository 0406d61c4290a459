// An append-mostly array for tables that grow with a trace.
//
// Below 64 KiB an array lives on the heap. From 64 KiB up it is an
// anonymous mapping that grows with mremap(MREMAP_MAYMOVE), which moves
// page-table entries instead of bytes, so the entries already in it are
// neither copied nor faulted in again (where the flag is missing, it
// maps anew and copies). A mapping goes back to the system when freed:
// from glibc's heap, one small block cached near the heap top can keep
// every page below it resident after the array is gone. A writer
// appending to a mapping finds its pages faulted in ahead of it, with
// madvise(MADV_POPULATE_WRITE) in steps of at most 16 KiB and a
// sixteenth of the mapping, so the look-ahead stays small next to what
// the array holds. Best effort: on a kernel without the advice the
// writer takes its own faults. A failed allocation throws
// std::bad_alloc.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace cla::util {

namespace grow_detail {

/// Storage of this many bytes and more is mapped.
inline constexpr std::size_t kMapBytes = std::size_t{64} << 10;

/// The storage size that holds `bytes`: itself on the heap, a multiple of
/// kMapBytes once mapped.
std::size_t storage_bytes(std::size_t bytes) noexcept;

/// Storage of `new_bytes` (a storage_bytes() value) that starts with the
/// first `used` bytes of `p`, storage of `old_bytes` (null when 0), which
/// it replaces.
void* regrow(void* p, std::size_t used, std::size_t old_bytes,
             std::size_t new_bytes);

/// Frees `p`, storage of `bytes` (null when 0).
void release(void* p, std::size_t bytes) noexcept;

/// Faults in mapped storage `p` of `bytes` from `populated` to a step
/// past `need` (offsets in bytes); returns the new populated offset.
std::size_t populate_ahead(void* p, std::size_t bytes, std::size_t populated,
                           std::size_t need) noexcept;

}  // namespace grow_detail

/// A contiguous array of trivially copyable values with the part of the
/// std::vector interface that the trace and index tables use. Pointers
/// into it are invalidated by any call that grows it.
template <typename T>
class GrowArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "GrowArray moves entries as bytes");

 public:
  GrowArray() noexcept = default;
  GrowArray(const GrowArray& other) { append(other.begin(), other.end()); }
  GrowArray(GrowArray&& other) noexcept { swap(other); }
  GrowArray& operator=(GrowArray other) noexcept {
    swap(other);
    return *this;
  }
  ~GrowArray() { grow_detail::release(data_, bytes_); }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }
  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& front() noexcept { return data_[0]; }
  const T& front() const noexcept { return data_[0]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }

  void push_back(T value) {
    if (size_ == ready_) make_ready(size_ + 1);
    data_[size_++] = value;
  }

  /// Inserts `value` before `pos`.
  void insert(const T* pos, T value) {
    const auto at = static_cast<std::size_t>(pos - data_);
    if (size_ == ready_) make_ready(size_ + 1);
    if (at != size_) {
      std::memmove(data_ + at + 1, data_ + at, (size_ - at) * sizeof(T));
    }
    data_[at] = value;
    ++size_;
  }

  /// Appends [first, last), which must not lie in this array.
  void append(const T* first, const T* last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n == 0) return;
    if (size_ + n > ready_) make_ready(size_ + n);
    std::memcpy(data_ + size_, first, n * sizeof(T));
    size_ += n;
  }
  void append(std::span<const T> values) {
    append(values.data(), values.data() + values.size());
  }

  /// Shrinks to `n` entries, or grows with value-initialised ones.
  void resize(std::size_t n) {
    if (n > ready_) make_ready(n);
    if (n > size_) std::uninitialized_value_construct(data_ + size_, data_ + n);
    size_ = n;
  }

  /// Makes room for `n` entries without faulting any page in.
  void reserve(std::size_t n) {
    if (n > capacity()) grow(n);
  }

  /// Empties the array and keeps its storage.
  void clear() noexcept { size_ = 0; }

  std::size_t capacity() const noexcept { return bytes_ / sizeof(T); }

 private:
  void swap(GrowArray& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(ready_, other.ready_);
    std::swap(bytes_, other.bytes_);
    std::swap(populated_, other.populated_);
  }

  bool mapped() const noexcept { return bytes_ >= grow_detail::kMapBytes; }

  /// Capacity for at least `n` entries, at least double the current one.
  void grow(std::size_t n) {
    if (n > ~std::size_t{0} / (2 * sizeof(T))) throw std::bad_alloc();
    const std::size_t want = std::max({n, 2 * capacity(), std::size_t{4}});
    const std::size_t bytes = grow_detail::storage_bytes(want * sizeof(T));
    data_ = static_cast<T*>(
        grow_detail::regrow(data_, size_ * sizeof(T), bytes_, bytes));
    bytes_ = bytes;
    // A mapping keeps the pages populated before it grew; the heap is
    // always ready.
    ready_ = mapped() ? populated_ / sizeof(T) : capacity();
  }

  /// Room, with its pages faulted in, for `n` entries.
  void make_ready(std::size_t n) {
    if (n > capacity()) grow(n);
    if (!mapped() || n <= ready_) return;
    populated_ =
        grow_detail::populate_ahead(data_, bytes_, populated_, n * sizeof(T));
    ready_ = std::min(capacity(), populated_ / sizeof(T));
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  /// Entries that fit in storage faulted in already: all of them on the
  /// heap, the populated part of a mapping.
  std::size_t ready_ = 0;
  std::size_t bytes_ = 0;      ///< storage size
  std::size_t populated_ = 0;  ///< bytes of a mapping faulted in ahead
};

}  // namespace cla::util
