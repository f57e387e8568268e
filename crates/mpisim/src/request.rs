//! Nonblocking-operation handles (`MPI_Request` analogues).

use crate::comm::Rank;
use crate::mailbox::Pattern;
use crate::wire::Wire;
use std::marker::PhantomData;

/// Handle for a nonblocking send (`MPI_Isend`).
///
/// Sends in this substrate are buffered — the payload is copied into the
/// destination mailbox at post time — so the request is complete on
/// creation. `wait` exists so code can be written exactly like its MPI
/// counterpart.
#[derive(Debug)]
#[must_use = "an isend should be waited on (or explicitly dropped) like an MPI_Request"]
pub struct SendRequest {
    pub(crate) _private: (),
}

impl SendRequest {
    /// Complete the send. Always immediate.
    pub fn wait(self, _rank: &Rank) {}
}

/// Handle for a nonblocking receive (`MPI_Irecv`) of a `T`.
///
/// The match pattern is captured at post time; [`RecvRequest::wait`]
/// blocks until a matching message exists, then charges the receive
/// overhead at the *current* clock — so compute performed between posting
/// and waiting genuinely overlaps communication, as in the thesis's
/// Figure 8a variant.
#[derive(Debug)]
#[must_use = "an irecv must be waited on to obtain the message"]
pub struct RecvRequest<T: Wire> {
    pub(crate) pattern: Pattern,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T: Wire> RecvRequest<T> {
    /// Block until the matching message arrives and decode it.
    pub fn wait(self, rank: &Rank) -> T {
        rank.complete_recv(self.pattern)
    }

    /// Like [`wait`](Self::wait), but also reports the sending rank
    /// (useful with [`crate::ANY_SOURCE`]).
    pub fn wait_with_source(self, rank: &Rank) -> (usize, T) {
        rank.complete_recv_with_source(self.pattern)
    }
}
