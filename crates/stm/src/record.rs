//! History recording for the concurrent STMs: every TM interface action is
//! logged with a global sequence number drawn at the moment of the action,
//! yielding a linearized `tm-core` history that the offline checkers (DRF,
//! strong opacity) consume.
//!
//! The recorder is optional and designed to perturb executions as little as
//! possible: per-thread buffers, one shared fetch-and-add for ordering.
//!
//! ## Cross-thread recording into one slot
//!
//! A slot's log is normally appended to by its own thread, but not always:
//! a [`crate::fence::FenceTicket::on_complete`] resolution records the
//! issuing slot's `FEnd` from whichever thread completes the grace period
//! (under a background driver, the driver thread). Audit of that use:
//!
//! * **Safety** — [`Recorder::record`] is fully thread-safe for any
//!   `(thread, slot)` combination: the global counter is a single
//!   `fetch_add` and each slot's vector is guarded by its own mutex.
//! * **Ordering** — concurrent recorders may *push* into one slot's vector
//!   out of sequence-number order (the fetch_add and the push are not one
//!   atomic step), which is why [`Recorder::snapshot_history`] orders by
//!   sequence number globally and never relies on vector position.
//! * **The caller's obligation** is semantic, not memory-safety: the
//!   issuing slot must not record new actions until the completion
//!   callback has been observed (the `FEnd` is recorded strictly before
//!   the callback runs), or a `TxBegin` could draw a sequence number
//!   before the `FEnd` and the history would be ill-formed. See
//!   [`crate::fence`].
//! * **Snapshots** are for quiescence: a `snapshot_history` taken while a
//!   `record` is between its fetch_add and its push can miss that action
//!   (its sequence number exists, the push is not yet visible).
//!
//! ## Where `Committed` is recorded
//!
//! A writing commit records its `Committed` response at its linearization
//! point — write-back done, locks not yet released
//! ([`crate::runtime::TxCtx::linearized`]) — not after it returns. A
//! conflicting writer can only take the released locks afterwards, so per
//! register the order of `Committed` sequence numbers is the lock
//! (write-back) order, and the checker's `CompletionOrder` guess for the
//! write-write order is exact for conflicting writers. Recorded after the
//! release instead, a writer descheduled in its epilogue could see a later
//! writer — and a reader of that writer — respond first, a cycle the
//! checker would blame on the TM.
//!
//! Caveat (documented in DESIGN.md): for two *concurrent* non-transactional
//! accesses to the same register the recorded order may disagree with the
//! physical access order within a nanosecond-scale window. Such pairs only
//! arise in racy programs, which the checkers are not required to justify.

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tm_core::action::{Action, Kind};
use tm_core::ids::ThreadId;
use tm_core::trace::History;

/// A concurrent history recorder for `nthreads` slots.
pub struct Recorder {
    seq: CachePadded<AtomicU64>,
    logs: Vec<Mutex<Vec<(u64, Kind)>>>,
}

impl Recorder {
    /// A recorder with one log per thread slot.
    pub fn new(nthreads: usize) -> Self {
        Recorder {
            seq: CachePadded::new(AtomicU64::new(0)),
            logs: (0..nthreads).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Record one action for thread slot `t`. The global order of actions is
    /// the order of their sequence numbers.
    ///
    /// Safe from any thread, including a thread other than slot `t`'s
    /// owner (the cross-thread `FEnd` path — see the module docs for the
    /// audit and the ordering obligation that comes with it).
    #[inline]
    pub fn record(&self, t: usize, kind: Kind) {
        let s = self.seq.fetch_add(1, Ordering::SeqCst);
        self.logs[t].lock().unwrap().push((s, kind));
    }

    /// Record a request/response pair as *globally adjacent* actions: both
    /// sequence numbers are drawn with one `fetch_add(2)`, so no concurrent
    /// [`Self::record`] can land between them. Non-transactional accesses
    /// need this — Def A.1 clause 7 requires a direct access's response to
    /// immediately follow its request in the global order, and a direct
    /// access really is one machine op (the request/response framing is a
    /// modelling artifact). Recording them with two separate `record` calls
    /// makes clause 7 a race: any action another thread records inside the
    /// two-call window lands between the pair and the history is rejected
    /// with `NonAtomicNtxAccess` — a once-in-many-runs conformance flake
    /// under load, fixed here.
    #[inline]
    pub fn record_pair(&self, t: usize, req: Kind, resp: Kind) {
        let s = self.seq.fetch_add(2, Ordering::SeqCst);
        let mut log = self.logs[t].lock().unwrap();
        log.push((s, req));
        log.push((s + 1, resp));
    }

    /// Number of actions recorded so far.
    pub fn len(&self) -> usize {
        self.seq.load(Ordering::SeqCst) as usize
    }

    /// Has nothing been recorded yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge per-thread logs into a single history ordered by sequence
    /// number; action ids are the sequence numbers.
    pub fn snapshot_history(&self) -> History {
        let mut all: Vec<(u64, usize, Kind)> = Vec::with_capacity(self.len());
        for (t, log) in self.logs.iter().enumerate() {
            for &(s, k) in log.lock().unwrap().iter() {
                all.push((s, t, k));
            }
        }
        all.sort_unstable_by_key(|&(s, _, _)| s);
        History::new(
            all.into_iter()
                .map(|(s, t, k)| Action::new(s, ThreadId(t as u32), k))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::ids::Reg;

    #[test]
    fn single_thread_order() {
        let r = Recorder::new(1);
        r.record(0, Kind::TxBegin);
        r.record(0, Kind::Ok);
        r.record(0, Kind::TxCommit);
        r.record(0, Kind::Committed);
        let h = r.snapshot_history();
        assert_eq!(h.len(), 4);
        assert_eq!(h.actions()[0].kind, Kind::TxBegin);
        assert_eq!(h.actions()[3].kind, Kind::Committed);
        assert_eq!(h.validate(), Ok(()));
    }

    #[test]
    fn multi_thread_merge_respects_seq() {
        let r = Recorder::new(2);
        r.record(0, Kind::Read(Reg(0)));
        r.record(1, Kind::TxBegin);
        r.record(0, Kind::RetVal(0));
        r.record(1, Kind::Ok);
        let h = r.snapshot_history();
        let kinds: Vec<Kind> = h.actions().iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![Kind::Read(Reg(0)), Kind::TxBegin, Kind::RetVal(0), Kind::Ok]
        );
    }

    /// Cross-thread recording into ONE slot (the on_complete `FEnd` shape):
    /// many threads hammer slot 0 concurrently; the merged snapshot must
    /// contain every action exactly once, in strictly increasing sequence
    /// order, regardless of the order the pushes landed in the slot's
    /// vector.
    #[test]
    fn concurrent_same_slot_records_merge_in_seq_order() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new(1));
        let per_thread = 200u64;
        let nthreads = 4u64;
        std::thread::scope(|s| {
            for t in 0..nthreads {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..per_thread {
                        // Unique payloads so the count check below can
                        // detect lost or duplicated records.
                        r.record(0, Kind::RetVal((t << 32) | i));
                    }
                });
            }
        });
        let h = r.snapshot_history();
        assert_eq!(h.len(), (nthreads * per_thread) as usize, "no record lost");
        let ids: Vec<u64> = h.actions().iter().map(|a| a.id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "global seq order");
        let mut payloads: Vec<u64> = h
            .actions()
            .iter()
            .map(|a| match a.kind {
                Kind::RetVal(v) => v,
                k => panic!("unexpected kind {k:?}"),
            })
            .collect();
        payloads.sort_unstable();
        payloads.dedup();
        assert_eq!(payloads.len(), (nthreads * per_thread) as usize);
    }

    /// Clause-7 regression: a non-transactional request/response recorded
    /// via [`Recorder::record_pair`] stays *globally adjacent* no matter
    /// how much another thread records concurrently. (Recording the pair
    /// as two separate `record` calls makes this test — and, rarely, the
    /// conformance suite on direct-access scenarios — fail with an action
    /// interleaved between request and response.)
    #[test]
    fn record_pair_is_globally_adjacent_under_concurrent_traffic() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new(2));
        std::thread::scope(|s| {
            {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    // A polling rival: each RetVal is a standalone action
                    // free to land anywhere in the global order.
                    for i in 0..4000u64 {
                        r.record(1, Kind::RetVal(i));
                    }
                });
            }
            for i in 0..4000u64 {
                r.record_pair(0, Kind::Write(Reg(0), i + 1), Kind::RetUnit);
            }
        });
        let h = r.snapshot_history();
        assert_eq!(h.len(), 4000 + 2 * 4000);
        for (i, a) in h.actions().iter().enumerate() {
            if let Kind::Write(..) = a.kind {
                assert_eq!(a.thread, ThreadId(0));
                let next = &h.actions()[i + 1];
                assert_eq!(
                    (next.thread, next.kind),
                    (ThreadId(0), Kind::RetUnit),
                    "response not adjacent to its request at index {i}"
                );
            }
        }
    }

    #[test]
    fn concurrent_recording_produces_valid_history() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new(4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    r.record(t, Kind::TxBegin);
                    r.record(t, Kind::Ok);
                    r.record(t, Kind::Write(Reg(0), ((t as u64) << 32) | (i + 1)));
                    r.record(t, Kind::RetUnit);
                    r.record(t, Kind::TxCommit);
                    r.record(t, Kind::Committed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let h = r.snapshot_history();
        assert_eq!(h.len(), 4 * 100 * 6);
        assert_eq!(h.validate(), Ok(()));
    }
}
