#include "common/secure_buffer.h"

#include <algorithm>
#include <atomic>

namespace medcrypt {

namespace {
// Monotonic telemetry total; readers only ever sum it, so unordered
// increments are safe.
std::atomic<std::uint64_t> g_wipe_total{0};
}  // namespace

void secure_wipe(std::span<std::uint8_t> data) {
  // Volatile stores: the compiler must assume they are observable, so it
  // cannot drop the scrub even when the buffer is freed immediately after.
  volatile std::uint8_t* p = data.data();
  for (std::size_t i = 0; i < data.size(); ++i) p[i] = 0;
  g_wipe_total.fetch_add(data.size(), std::memory_order_relaxed);
}

void secure_wipe(Bytes& data) {
  secure_wipe(std::span<std::uint8_t>(data.data(), data.size()));
  data.clear();
}

std::uint64_t secure_wipe_total() {
  return g_wipe_total.load(std::memory_order_relaxed);
}

SecureBuffer::SecureBuffer(std::size_t size, std::uint8_t fill)
    : data_(size ? new std::uint8_t[size] : nullptr), size_(size) {
  std::fill_n(data_, size_, fill);
}

SecureBuffer::SecureBuffer(BytesView data)
    : data_(data.empty() ? nullptr : new std::uint8_t[data.size()]),
      size_(data.size()) {
  std::copy(data.begin(), data.end(), data_);
}

SecureBuffer::SecureBuffer(Bytes&& data) : SecureBuffer(BytesView(data)) {
  secure_wipe(data);
}

SecureBuffer::SecureBuffer(const SecureBuffer& other)
    : SecureBuffer(other.view()) {}

SecureBuffer::SecureBuffer(SecureBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

SecureBuffer& SecureBuffer::operator=(const SecureBuffer& other) {
  if (this != &other) assign(other.view());
  return *this;
}

SecureBuffer& SecureBuffer::operator=(SecureBuffer&& other) noexcept {
  if (this != &other) {
    clear();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

SecureBuffer::~SecureBuffer() { clear(); }

void SecureBuffer::assign(BytesView data) {
  // Self-assignment from a view into our own storage would read freed
  // memory; copy via a temporary in that (unlikely) aliasing case.
  if (!empty() && !data.empty() && data.data() >= data_ &&
      data.data() < data_ + size_) {
    SecureBuffer tmp(data);
    *this = std::move(tmp);
    return;
  }
  clear();
  if (!data.empty()) {
    data_ = new std::uint8_t[data.size()];
    size_ = data.size();
    std::copy(data.begin(), data.end(), data_);
  }
}

void SecureBuffer::resize(std::size_t size) {
  if (size == size_) return;
  std::uint8_t* grown = size ? new std::uint8_t[size] : nullptr;
  const std::size_t keep = std::min(size, size_);
  std::copy_n(data_, keep, grown);
  std::fill_n(grown + keep, size - keep, 0);
  std::uint8_t* old = data_;
  const std::size_t old_size = size_;
  data_ = grown;
  size_ = size;
  secure_wipe(std::span<std::uint8_t>(old, old_size));
  delete[] old;
}

void SecureBuffer::clear() {
  secure_wipe(span());
  delete[] data_;
  data_ = nullptr;
  size_ = 0;
}

bool SecureBuffer::operator==(const SecureBuffer& other) const {
  return ct_equal(view(), other.view());
}

}  // namespace medcrypt
