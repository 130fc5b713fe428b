#include "gfx/buffer_pool.h"

#include <algorithm>
#include <utility>

namespace ccdem::gfx {

std::vector<Rgb888> BufferPool::take(std::size_t n) {
  ++acquires_;
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].capacity() >= n) {
      ++reuses_;
      std::vector<Rgb888> v = std::move(free_[i]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      return v;
    }
  }
  if (!free_.empty()) {
    // Undersized storage: reuse the vector object but count the inevitable
    // regrowth as an allocation.
    std::vector<Rgb888> v = std::move(free_.back());
    free_.pop_back();
    return v;
  }
  return {};
}

std::vector<Rgb888> BufferPool::acquire(std::size_t n, Rgb888 fill) {
  std::vector<Rgb888> v = take(n);
  // Released buffers keep their size, so the elements they already hold
  // are refilled in one fill_span pass (a memset for grey and black).
  // resize() value-initialises only the grown tail -- Rgb888's member
  // initialisers make that a per-pixel store loop, not a memset, and
  // assign(n, fill) is a per-pixel loop too.  The tail is black already,
  // so a black fill stops at the reused prefix.
  const std::size_t kept = std::min(v.size(), n);
  v.resize(n);
  fill_span(v.data(), fill == Rgb888{} ? kept : n, fill);
  return v;
}

std::vector<Rgb888> BufferPool::acquire_reserved(std::size_t n) {
  std::vector<Rgb888> v = take(n);
  v.clear();
  v.reserve(n);
  return v;
}

void BufferPool::release(std::vector<Rgb888>&& v) {
  if (v.capacity() == 0 || free_.size() >= max_free_) return;
  free_.push_back(std::move(v));
}

std::size_t BufferPool::free_bytes() const {
  std::size_t total = 0;
  for (const auto& v : free_) total += v.capacity() * sizeof(Rgb888);
  return total;
}

}  // namespace ccdem::gfx
