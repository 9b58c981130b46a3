/**
 * @file
 * Typestate protocol declarations for nxstate (tools/nxstate).
 *
 * A protocol names the legal call order of a class's mutating methods;
 * nxstate walks every function body in the tree and flags callers that
 * violate it (protocol-order, use-after-finish, double-finish). The
 * macro expands to a harmless static_assert so the compiler sees
 * nothing but the analyzer sees a declarative table right next to the
 * class it governs. Handles claimed exactly once (JobServer tickets)
 * are declared with the ownership macros of util/ownership.h and
 * checked by nxown.
 *
 * Grammar (full description in tools/nxstate/nxstate.h):
 *
 *     NXSIM_PROTOCOL(Class, phase -> phase -> ...)
 *         phase := method | method[Marker] | {m1|m2|...}
 *                  optionally suffixed * (zero+), + (one+), ? (0/1);
 *                  no suffix means exactly once.
 *         method[Marker] matches only calls whose argument list
 *         mentions the identifier Marker, e.g. write[Finish] matches
 *         s.write(data, Flush::Finish, out).
 *
 * Classes that must stay macro-free can use the comment form instead:
 *
 *     // nxstate: protocol(BitWriter: {writeBits|drain}* -> take)
 */

#ifndef NXSIM_UTIL_PROTOCOL_H
#define NXSIM_UTIL_PROTOCOL_H

/** Declare the legal call order for one class. Analyzer-only. */
#define NXSIM_PROTOCOL(Class, Spec) \
    static_assert(true, "nxstate protocol for " #Class)

#endif // NXSIM_UTIL_PROTOCOL_H
