#include "hash/kdf.h"

#include "hash/sha256.h"

namespace medcrypt::hash {

Bytes expand(std::string_view label, BytesView seed, std::size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  std::uint32_t counter = 0;
  while (out.size() < out_len) {
    Sha256 h;
    h.update(str_bytes(label));
    h.update(be32(counter));
    h.update(seed);
    const auto block = h.finalize();
    const std::size_t take = std::min(block.size(), out_len - out.size());
    out.insert(out.end(), block.begin(), block.begin() + take);
    ++counter;
  }
  return out;
}

Bytes mgf1(BytesView seed, std::size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  std::uint32_t counter = 0;
  while (out.size() < out_len) {
    Sha256 h;
    h.update(seed);
    h.update(be32(counter));
    const auto block = h.finalize();
    const std::size_t take = std::min(block.size(), out_len - out.size());
    out.insert(out.end(), block.begin(), block.begin() + take);
    ++counter;
  }
  return out;
}

bigint::BigInt hash_to_range(std::string_view label, BytesView data,
                             const bigint::BigInt& q) {
  const std::size_t nbytes = (q.bit_length() + 128 + 7) / 8;
  const Bytes wide = expand(label, data, nbytes);
  return bigint::BigInt::from_bytes_be(wide).mod(q);
}

}  // namespace medcrypt::hash
