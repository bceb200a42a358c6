// Byte-buffer utilities shared across the library.
//
// medcrypt uses `Bytes` (a std::vector<uint8_t>) as the universal wire and
// serialization type; helpers here cover hex round-trips, concatenation,
// XOR, and constant-size big-endian integer framing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace medcrypt {

/// Owning byte buffer used for messages, ciphertext components and
/// serialized group elements throughout the library.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over bytes; the preferred parameter type for inputs.
using BytesView = std::span<const std::uint8_t>;

/// Encodes `data` as lowercase hex.
std::string to_hex(BytesView data);

/// Decodes a hex string (upper- or lowercase, even length).
/// Throws medcrypt::Error on malformed input.
Bytes from_hex(std::string_view hex);

/// Returns a || b.
Bytes concat(BytesView a, BytesView b);

/// Returns a || b || c.
Bytes concat(BytesView a, BytesView b, BytesView c);

/// XORs `b` into a copy of `a`. Requires a.size() == b.size().
Bytes xor_bytes(BytesView a, BytesView b);

/// `v` as 4 big-endian bytes: the counters and indices hashed by KDFs
/// and proofs.
constexpr std::array<std::uint8_t, 4> be32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v >> 24),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

/// Appends be32(|piece|) then `piece`, so a run of framed pieces parses
/// unambiguously.
void append_framed(Bytes& out, BytesView piece);

/// Converts a UTF-8/ASCII string to bytes (no copy of the terminator).
Bytes str_bytes(std::string_view s);

/// Constant-time equality for secret-dependent comparisons (MAC tags,
/// KEM keys, SEM tokens).
///
/// Contract:
///  - The *contents* of both buffers are treated as secret: the running
///    time never depends on where (or whether) the buffers differ — the
///    comparison always walks max(a.size(), b.size()) bytes and folds
///    every difference into one accumulator; there is no early exit, not
///    even for unequal lengths.
///  - The *lengths* are treated as public. Unequal lengths return false,
///    and the loop bound (max of the two sizes) is visible in the running
///    time. This is the right trade for this library: every caller
///    compares fixed-format values (32-byte tags, fixed-width group
///    elements) whose lengths appear on the wire anyway.
///
/// `tools/medlint` bans memcmp / operator== on secret buffers in favor
/// of this function (check `secret-memcmp` / `secret-equality`).
bool ct_equal(BytesView a, BytesView b);

}  // namespace medcrypt
