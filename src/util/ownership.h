/**
 * @file
 * Resource-ownership annotations — the vocabulary nxown reads.
 *
 * The accelerator protocol modelled by this repo is a chain of
 * ownership hand-offs: a pinned buffer is acquired from the pool,
 * pasted to the device, and must be released exactly once on every
 * outcome path — including the busy-exhaustion fallback, the
 * translation-fault resubmit ladder, and early returns. JobServer
 * tickets follow the same discipline (issued by submit, consumed by
 * exactly one wait/drain), and nxown is their only checker: a copy
 * (`auto u = t;`) names the same handle, so a wait through either
 * name claims both. `tools/nxown` checks that discipline per function
 * over a path-sensitive CFG walk; these macros declare which calls
 * move a resource between states.
 *
 * Each macro takes a *tag* naming the resource class (an identifier,
 * e.g. `pool_buffer`, `job_ticket`); acquire/release pairs match only
 * within a tag.
 *
 *     class BufferPool {
 *       class Lease {
 *         ~Lease() NXSIM_RELEASES(pool_buffer);        // RAII holder
 *         void release() NXSIM_RELEASES(pool_buffer);
 *       };
 *       Lease acquire(size_t) NXSIM_ACQUIRES(pool_buffer);
 *       void releaseSlab(uint8_t *p) NXSIM_RELEASES(pool_buffer);
 *     };
 *
 * NXSIM_ACQUIRES(tag)   — the call's result holds one unit of `tag`.
 *                         Every path to function exit must release or
 *                         transfer it; a path that exits holding it is
 *                         an own-leak. When the acquiring method's
 *                         class declares a RELEASES destructor, the
 *                         returned holder is RAII and exits clean.
 * NXSIM_RELEASES(tag)   — the call consumes one unit. On a destructor
 *                         it marks the class as an RAII holder; with
 *                         no arguments on a method of an acquiring
 *                         class it drains *all* live handles of the
 *                         tag (JobServer::drainAndStop); releasing
 *                         twice is own-double-release, releasing a
 *                         handle already transferred away is
 *                         own-release-unacquired.
 * NXSIM_TRANSFERS(tag)  — the call passes ownership elsewhere (into a
 *                         queue, another thread, the caller); the
 *                         local obligation ends without a release.
 *                         Returning the handle and std::move() also
 *                         transfer, as does passing it to any function
 *                         the analyzer cannot see into — unknown
 *                         callees are conservatively sinks, never
 *                         findings.
 *
 * The macros expand to nothing: they are annotations for the analyzer
 * (and the reader), not the compiler. See DESIGN.md "Static analysis
 * stack" for the full state machine and the suppression grammar
 * (`// nxown: allow(rule): why`).
 */

#ifndef NXSIM_UTIL_OWNERSHIP_H
#define NXSIM_UTIL_OWNERSHIP_H

#define NXSIM_ACQUIRES(tag)  /* annotation consumed by tools/nxown */
#define NXSIM_RELEASES(tag)  /* annotation consumed by tools/nxown */
#define NXSIM_TRANSFERS(tag) /* annotation consumed by tools/nxown */

#endif // NXSIM_UTIL_OWNERSHIP_H
