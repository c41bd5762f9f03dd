/**
 * @file
 * FNV-1a 64-bit hashing, shared by the trace-cache key hashes and the
 * run-ledger digests (config, stats, provenance). One implementation
 * so a hash printed in a ledger event can be matched byte-for-byte
 * against a report's provenance block.
 */

#ifndef CSIM_COMMON_FNV_HH
#define CSIM_COMMON_FNV_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace csim {

inline constexpr std::uint64_t fnv1aOffset = 14695981039346656037ull;
inline constexpr std::uint64_t fnv1aPrime = 1099511628211ull;

/** Fold more bytes into a running FNV-1a 64 state. */
inline std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t h = fnv1aOffset)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= fnv1aPrime;
    }
    return h;
}

/** Canonical 16-digit lower-case hex rendering of a hash. */
inline std::string
fnvHex(std::uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace csim

#endif // CSIM_COMMON_FNV_HH
