#include "common/bytes.h"

#include <algorithm>

#include "common/error.h"

namespace medcrypt {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw Error("from_hex: odd-length hex string");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw Error("from_hex: invalid hex digit");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes concat(BytesView a, BytesView b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Bytes concat(BytesView a, BytesView b, BytesView c) {
  Bytes out;
  out.reserve(a.size() + b.size() + c.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

void append_framed(Bytes& out, BytesView piece) {
  const auto len = be32(static_cast<std::uint32_t>(piece.size()));
  out.insert(out.end(), len.begin(), len.end());
  out.insert(out.end(), piece.begin(), piece.end());
}

Bytes xor_bytes(BytesView a, BytesView b) {
  if (a.size() != b.size()) {
    throw Error("xor_bytes: size mismatch");
  }
  Bytes out(a.begin(), a.end());
  for (std::size_t i = 0; i < b.size(); ++i) out[i] ^= b[i];
  return out;
}

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

bool ct_equal(BytesView a, BytesView b) {
  // No early length short-circuit: a length mismatch is folded into the
  // accumulator and the scan still covers max(a.size(), b.size()) bytes,
  // so timing depends only on the (public) lengths, never the contents.
  const std::size_t n = std::max(a.size(), b.size());
  std::size_t acc = a.size() ^ b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t av = i < a.size() ? a[i] : 0;
    const std::uint8_t bv = i < b.size() ? b[i] : 0;
    acc |= static_cast<std::size_t>(av ^ bv);
  }
  return acc == 0;
}

}  // namespace medcrypt
