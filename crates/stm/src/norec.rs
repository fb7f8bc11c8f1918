//! NOrec-style STM (Dalessandro, Spear, Scott — paper's related work \[10\])
//! as a [`Policy`] over the shared [`crate::runtime`]: a single global
//! sequence lock, value-based validation, no per-register ownership records.
//!
//! Included as the baseline that is *privatization-safe without fences*
//! (paper Sec 8): commits are serialized by the global lock and write-back
//! completes before the commit returns, so there is no delayed-commit
//! window; and any clock change forces readers to re-validate by value, so
//! doomed transactions abort instead of reading privatized data.
//! [`Policy::fence_mode`] is [`FenceMode::Immediate`] — `fence()` still
//! counts in [`crate::api::Stats`] and `fence_async()` returns an
//! already-resolved ticket, but nothing ever waits on the grace-period
//! engine, and no fence actions are recorded (a recorded fence would claim
//! a quiescence this TM does not perform).

use crate::api::Abort;
use crate::runtime::{FenceMode, Handle, Policy, PolicyKind, Runtime, Stm, StmConfig, TxCtx};
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tm_chaos::Site;

/// NOrec state shared by all handles: the global sequence lock
/// (even = stable, odd = a writer is committing).
pub struct NorecShared {
    global: CachePadded<AtomicU64>,
}

/// NOrec's [`PolicyKind`]. No lock table, so [`StmConfig::storage`] is
/// ignored — and so is the orec word of every [`crate::vlock::RegCell`]:
/// NOrec pays 16 bytes per register for the file it shares with TL2.
pub struct NorecKind;

impl PolicyKind for NorecKind {
    type Policy = NorecPolicy;
    type Shared = NorecShared;

    fn build_shared(_cfg: &StmConfig, _rt: &Runtime) -> NorecShared {
        NorecShared {
            global: CachePadded::new(AtomicU64::new(0)),
        }
    }

    fn build_policy(shared: &Arc<NorecShared>) -> NorecPolicy {
        NorecPolicy {
            shared: Arc::clone(shared),
            snapshot: 0,
            rset: Vec::new(),
            wset: Vec::new(),
        }
    }
}

/// The shared NOrec instance.
pub type NorecStm = Stm<NorecKind>;

/// Per-thread NOrec context.
pub type NorecHandle = Handle<NorecPolicy>;

/// NOrec concurrency control: value-based validation under one global
/// sequence lock.
pub struct NorecPolicy {
    shared: Arc<NorecShared>,
    snapshot: u64,
    /// Value-based read set: (register, value observed).
    rset: Vec<(usize, u64)>,
    wset: Vec<(usize, u64)>,
}

impl NorecPolicy {
    /// Wait for an even (stable) global and return it.
    fn wait_even(&self) -> u64 {
        let backoff = crossbeam::utils::Backoff::new();
        loop {
            let g = self.shared.global.load(Ordering::SeqCst);
            if g.is_multiple_of(2) {
                return g;
            }
            backoff.snooze();
        }
    }

    /// Re-read the read set by value; abort if anything changed. On success,
    /// the snapshot is advanced to a stable clock at which the read set was
    /// re-confirmed.
    fn validate(&mut self, ctx: &mut TxCtx<'_>) -> Result<u64, Abort> {
        // A forced abort here is indistinguishable from the value check
        // below catching an intervening writer. Injection sites live only
        // where the sequence lock is *not* held by us: a fault inside the
        // odd window could wedge every `wait_even` spinner.
        if ctx.rt.chaos_abort(ctx.slot, Site::Validate) {
            ctx.stats.aborts_validate += 1;
            return Err(Abort);
        }
        loop {
            let s = self.wait_even();
            for &(x, v) in &self.rset {
                if ctx.rt.load(x) != v {
                    ctx.stats.aborts_validate += 1;
                    return Err(Abort);
                }
            }
            if self.shared.global.load(Ordering::SeqCst) == s {
                return Ok(s);
            }
        }
    }
}

impl Policy for NorecPolicy {
    fn begin(&mut self, _ctx: &mut TxCtx<'_>) {
        self.rset.clear();
        self.wset.clear();
        self.snapshot = self.wait_even();
    }

    fn read(&mut self, ctx: &mut TxCtx<'_>, x: usize) -> Result<u64, Abort> {
        if let Ok(i) = self.wset.binary_search_by_key(&x, |&(r, _)| r) {
            return Ok(self.wset[i].1);
        }
        let mut v = ctx.rt.load(x);
        while self.shared.global.load(Ordering::SeqCst) != self.snapshot {
            self.snapshot = self.validate(ctx)?;
            v = ctx.rt.load(x);
        }
        self.rset.push((x, v));
        Ok(v)
    }

    fn write(&mut self, _ctx: &mut TxCtx<'_>, x: usize, v: u64) -> Result<(), Abort> {
        match self.wset.binary_search_by_key(&x, |&(r, _)| r) {
            Ok(i) => self.wset[i].1 = v,
            Err(i) => self.wset.insert(i, (x, v)),
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut TxCtx<'_>) -> Result<(), Abort> {
        if self.wset.is_empty() {
            return Ok(()); // read-only: the snapshot was always consistent
        }
        // A forced abort here is indistinguishable from losing the CAS race
        // below to a writer whose commit then invalidated our read set.
        if ctx.rt.chaos_abort(ctx.slot, Site::LockAcquire) {
            ctx.stats.aborts_lock += 1;
            return Err(Abort);
        }
        // Acquire the sequence lock from a validated snapshot.
        while self
            .shared
            .global
            .compare_exchange(
                self.snapshot,
                self.snapshot + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            self.snapshot = self.validate(ctx)?;
        }
        for &(x, v) in &self.wset {
            ctx.rt.store(x, v);
        }
        // Linearized while the sequence lock is held (see
        // `TxCtx::linearized`).
        ctx.linearized();
        // Release: write-back completed before commit returns — the reason
        // NOrec has no delayed-commit window.
        self.shared
            .global
            .store(self.snapshot + 2, Ordering::SeqCst);
        ctx.rt.chaos_delay(Site::CommitEpilogue);
        Ok(())
    }

    fn rollback(&mut self, _ctx: &mut TxCtx<'_>) {}

    /// NOrec is privatization-safe by design: fences need no quiescence,
    /// tickets resolve at issue, and no fence actions are recorded (a
    /// recorded fence would violate Def A.1's blocking clause whenever a
    /// transaction spans the call).
    fn fence_mode(&self) -> FenceMode {
        FenceMode::Immediate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StmHandle;

    #[test]
    fn read_write_commit() {
        let stm = NorecStm::new(2, 1);
        let mut h = stm.handle(0);
        let sum = h.atomic(|tx| {
            tx.write(0, 3)?;
            tx.write(1, 4)?;
            Ok(tx.read(0)? + tx.read(1)?)
        });
        assert_eq!(sum, 7);
        assert_eq!(stm.peek(0), 3);
    }

    #[test]
    fn concurrent_increments() {
        let stm = NorecStm::new(1, 4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(t);
                    for _ in 0..1000 {
                        h.atomic(|tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(stm.peek(0), 4000);
    }

    #[test]
    fn audit_consistency() {
        const N: usize = 6;
        let stm = NorecStm::new(N, 3);
        {
            let mut h = stm.handle(0);
            h.atomic(|tx| {
                for a in 0..N {
                    tx.write(a, 100)?;
                }
                Ok(())
            });
        }
        std::thread::scope(|s| {
            for t in 0..2 {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(t);
                    for i in 0..2000u64 {
                        let from = (i as usize + t) % N;
                        let to = (i as usize + t + 3) % N;
                        h.atomic(|tx| {
                            let a = tx.read(from)?;
                            let b = tx.read(to)?;
                            if from != to && a > 0 {
                                tx.write(from, a - 1)?;
                                tx.write(to, b + 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            let stm2 = stm.clone();
            s.spawn(move || {
                let mut h = stm2.handle(2);
                for _ in 0..500 {
                    let sum = h.atomic(|tx| {
                        let mut s = 0;
                        for a in 0..N {
                            s += tx.read(a)?;
                        }
                        Ok(s)
                    });
                    assert_eq!(sum, 600);
                }
            });
        });
    }

    #[test]
    fn privatization_without_fence_is_safe() {
        // Same stress as TL2's fenced test, but with no fence at all: NOrec
        // must still never lose the private write.
        let stm = NorecStm::new(2, 2);
        let rounds = 3000u64;
        std::thread::scope(|s| {
            let stm0 = stm.clone();
            let owner = s.spawn(move || {
                let mut h = stm0.handle(0);
                let mut lost = 0u64;
                for i in 1..=rounds {
                    h.atomic(|tx| tx.write(0, 1));
                    // no fence!
                    let marker = 0x8000_0000_0000_0000 | i;
                    h.write_direct(1, marker);
                    if h.read_direct(1) != marker {
                        lost += 1;
                    }
                    h.atomic(|tx| tx.write(0, 2));
                }
                lost
            });
            let stm1 = stm.clone();
            s.spawn(move || {
                let mut h = stm1.handle(1);
                for i in 1..=rounds {
                    h.atomic(|tx| {
                        let flag = tx.read(0)?;
                        if flag != 1 {
                            tx.write(1, i)?;
                        }
                        Ok(())
                    });
                }
            });
            assert_eq!(owner.join().unwrap(), 0, "NOrec lost a privatized write");
        });
    }

    #[test]
    fn fence_is_nonblocking_with_active_peer() {
        // A NOrec fence must not wait for other threads' epochs.
        let stm = NorecStm::new(1, 2);
        // Force slot 1 to look "mid-transaction" from the epoch table's
        // perspective; a TL2-style fence would block forever here.
        stm.runtime().epochs().enter(1);
        let mut h = stm.handle(0);
        h.fence();
        assert_eq!(h.stats().fences, 1);
        // The async path resolves at issue, never touching the engine.
        let mut t = h.fence_async();
        assert!(t.is_resolved());
        assert_eq!(t.period(), None, "no grace period claimed");
        assert!(t.poll());
        h.fence_join(t);
        assert_eq!(h.stats().fences, 2);
        assert_eq!(h.stats().fence_wait_ns, 0, "no-op fences never block");
        assert_eq!(stm.runtime().grace().scans(), 0, "engine untouched");
        stm.runtime().epochs().exit(1);
    }
}
