/**
 * @file
 * VAS window primitives shared by the analytic queueing model
 * (nx/vas.h) and the real threaded dispatch layer (core/job_server.h).
 *
 * On POWER9 a user thread memory-maps a VAS window and submits CRBs
 * with the `paste` instruction. Paste returns a condition code: the
 * switchboard either accepted the CRB onto the unit's bounded receive
 * FIFO, or the FIFO was full and the paste is *rejected* — the thread
 * is expected to back off and re-paste (there is no blocking submit in
 * hardware). Both the discrete-event model and the thread-pool server
 * implement exactly this contract, so their stats are comparable.
 */

#ifndef NXSIM_NX_WINDOW_H
#define NXSIM_NX_WINDOW_H

namespace nx {

/**
 * Condition code of one paste attempt. The hardware reports
 * busy-reject through CR0 on `paste.`; software must treat Busy as
 * retryable and anything else as terminal.
 */
enum class PasteStatus
{
    Accepted,    ///< CRB is on the receive FIFO
    Busy,        ///< FIFO full: back off and re-paste
    Closed,      ///< window is draining/closed: do not retry
};

/** Human-readable paste status name. */
inline const char *
toString(PasteStatus st)
{
    switch (st) {
      case PasteStatus::Accepted: return "Accepted";
      case PasteStatus::Busy: return "Busy";
      case PasteStatus::Closed: return "Closed";
    }
    return "?";
}

/** Receive-FIFO geometry of one VAS window. */
struct WindowConfig
{
    /**
     * CRBs the receive FIFO holds before paste is busy-rejected.
     * <= 0 models an unbounded queue (the legacy analytic mode, where
     * backpressure is not the phenomenon under study).
     */
    int fifoDepth = 16;

    bool bounded() const { return fifoDepth > 0; }
};

} // namespace nx

#endif // NXSIM_NX_WINDOW_H
