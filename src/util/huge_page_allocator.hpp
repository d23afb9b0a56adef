// Allocator for the sketches' big flat arrays (flat_hash slots, Space-Saving
// counter nodes).
//
// These arrays are value-initialized when a table is built - at
// construction, and again at every restore - so their first touch is the
// whole array, and at the benchmarked scale (2^17 counters per shard, a
// 2^20-slot overflow table) a restore spent more time faulting in fresh
// 4 KiB pages than decoding. On Linux, arrays of 2 MiB or more are therefore
// mapped on their own, 2 MiB-aligned, and advised as transparent-huge-page
// candidates (madvise(MADV_HUGEPAGE)): one fault per 2 MiB instead of 512,
// and fewer TLB misses on the random probes afterwards. The kernel decides
// whether the advice is honoured; either way only where the pages come from
// changes, never their contents. A private mapping also goes straight back
// to the system when the array is freed, so freed tables never linger in
// the heap. Smaller arrays, and builds for other systems, use operator new.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace memento {

template <typename T>
struct huge_page_allocator {
  using value_type = T;

  /// Arrays at least this large get their own huge-page-advised mapping.
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;

  huge_page_allocator() = default;
  template <typename U>
  huge_page_allocator(const huge_page_allocator<U>&) noexcept {}  // rebind

  [[nodiscard]] T* allocate(std::size_t n) {
#if defined(__linux__)
    if (const std::size_t len = mapped_length(n); len > 0) {
      // Over-map by one huge page, then unmap the misaligned head and tail.
      void* raw = mmap(nullptr, len + kHugePage, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (raw == MAP_FAILED) throw std::bad_alloc();
      const auto start = reinterpret_cast<std::uintptr_t>(raw);
      const std::uintptr_t aligned = (start + kHugePage - 1) & ~(kHugePage - 1);
      if (aligned > start) munmap(raw, aligned - start);
      const std::uintptr_t head_end = aligned + len;
      const std::uintptr_t raw_end = start + len + kHugePage;
      if (raw_end > head_end) munmap(reinterpret_cast<void*>(head_end), raw_end - head_end);
      void* p = reinterpret_cast<void*>(aligned);
      (void)madvise(p, len, MADV_HUGEPAGE);  // advice only: refusal is harmless
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
#if defined(__linux__)
    if (const std::size_t len = mapped_length(n); len > 0) {
      munmap(p, len);
      return;
    }
#endif
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const huge_page_allocator<U>&) const noexcept {
    return true;
  }

 private:
  /// Bytes mapped for n elements, rounded up to whole huge pages; 0 when
  /// the array is small enough for operator new.
  [[nodiscard]] static std::size_t mapped_length(std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    return bytes < kHugePage ? 0 : (bytes + kHugePage - 1) / kHugePage * kHugePage;
  }
};

}  // namespace memento
