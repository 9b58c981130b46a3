/**
 * @file
 * Fuzz entry points for the byte-stream decode paths.
 *
 * Each function consumes attacker-controlled bytes and must terminate
 * without crashing, sanitizer reports, or unbounded allocation — errors
 * are only ever reported through the library's status types. The same
 * entry points back three drivers: libFuzzer targets (fuzz_*.cc), the
 * standalone mutation driver (standalone_main.cc, used when the
 * toolchain lacks libFuzzer), and the deterministic corpus replay in
 * tests/test_fuzz_regression.cc.
 */

#ifndef NXSIM_FUZZ_HARNESS_H
#define NXSIM_FUZZ_HARNESS_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace fuzz {

/** Raw DEFLATE bytes -> one-shot and streaming inflaters (differential). */
int fuzzInflate(std::span<const uint8_t> data);

/** gzip / zlib container parsing (headers, trailers, multi-member). */
int fuzzGzip(std::span<const uint8_t> data);

/** 842-class stream decode, plus compress-decompress identity. */
int fuzzE842(std::span<const uint8_t> data);

/**
 * Differential round trip: payload compressed through the software
 * encoder (one call, and as two DeflateStream writes split at a
 * fuzzer-chosen offset with a Sync between) and the NX CompressEngine
 * at a fuzzer-chosen level, inflated back, outputs asserted
 * byte-identical with matching CRC32.
 */
int fuzzRoundtrip(std::span<const uint8_t> data);

/**
 * nx::Session routing layer under a fuzzer-chosen policy (format,
 * threshold, retry budget) and fault plan (header-driven
 * FaultInjector programming against a shared JobServer). The
 * invariant: whatever the routing and fallback path taken, the
 * session's compressed output decodes to the payload through the pure
 * software oracle, and the session round-trips its own stream.
 * Format: [format][log2 threshold][retries][fault plan][payload...].
 */
int fuzzSession(std::span<const uint8_t> data);

} // namespace fuzz

#endif // NXSIM_FUZZ_HARNESS_H
