/**
 * @file
 * Resource-ownership annotations — the vocabulary nxown reads.
 *
 * The accelerator protocol modelled by this repo is a chain of
 * ownership hand-offs: a paste into a JobServer window issues a
 * ticket, and the requester must claim it exactly once, by one wait
 * or drain, on every outcome path — the translation-fault resubmit
 * ladder and early returns included. nxown is the only checker of
 * that discipline: a copy
 * (`auto u = t;`) names the same handle, so a wait through either
 * name claims both. `tools/nxown` checks it per function over a
 * path-sensitive CFG walk; these macros declare which calls move a
 * resource between states.
 *
 * Each macro takes a *tag* naming the resource class (an identifier,
 * e.g. `job_ticket`); acquire/release pairs match only within a tag.
 *
 *     class JobServer {
 *       SubmitResult submitAsync(JobSpec spec, int window)
 *           NXSIM_ACQUIRES(job_ticket);
 *       AsyncJob wait(Ticket t) NXSIM_RELEASES(job_ticket);  // one
 *       std::vector<AsyncJob> drain() NXSIM_RELEASES(job_ticket);  // all
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
 *                         no arguments it drains the live handles of
 *                         the tag that were acquired through the same
 *                         receiver (`srv.drain()` claims what
 *                         `srv.submitAsync()` issued; a call with no
 *                         receiver drains them all); releasing twice
 *                         is own-double-release, releasing a handle
 *                         already transferred away is
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
