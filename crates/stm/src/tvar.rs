//! Typed transaction frontend: [`TVar<T>`], [`TypedHandle::atomically`],
//! and blocking [`Transaction::retry`] — over any [`PolicyKind`] backend.
//!
//! The runtime's native surface is a `u64` register file: right for litmus
//! tests and checkable histories, wrong for users with real data. This
//! module maps *typed heap values* onto that register file without touching
//! any policy:
//!
//! * A [`TVar<T>`] owns one register. The register's `u64` holds the
//!   address of a heap cell (`Box<SlotBox>`) whose payload is an
//!   `Arc<dyn Any + Send + Sync>` of the current value. Transactional reads
//!   and writes of the *pointer* go through the ordinary [`TxScope`]
//!   machinery, so every backend (TL2, NOrec, glock), clock discipline,
//!   storage layout, and the contention governor work underneath unchanged.
//! * Writes are buffered in the [`Transaction`] and flushed to the scope
//!   only when the body returns `Ok` — which is what makes
//!   [`Transaction::or`] a cheap snapshot/rollback and keeps fresh
//!   allocations out of aborted bodies entirely.
//! * A successful commit *replaces* pointers; the displaced boxes are
//!   retired through [`tm_quiesce::GraceEngine::defer_drop`] — epoch-based
//!   reclamation. An in-flight reader that still holds a displaced pointer
//!   is inside its transaction's epoch, and the grace period the retirement
//!   waits on cannot elapse until that reader exits: privatization safety
//!   *is* safe reclamation (the paper's core claim), here as the memory
//!   manager of the typed frontend.
//!
//! ## Blocking `retry`
//!
//! [`Transaction::retry`] abandons the attempt and re-runs it when one of
//! the registers it read changes. Under [`RetryStrategy::Block`] (the
//! default) the handle does not spin: it registers a
//! [`crate::runtime::RetryWaiter`] on its read set,
//! *re-validates* every watched register inside the still-open attempt
//! (any change ⇒ deregister and re-run immediately), aborts the attempt —
//! leaving the epoch, so sleeping never wedges a grace period — and parks
//! on the waiter's condvar. Every commit write-back funnels through
//! [`Runtime::store`](crate::runtime::Runtime), whose wake hook costs one
//! `SeqCst` load when no waiter exists and wakes conflicting waiters when
//! one does. Spurious wakeups re-run the body harmlessly; lost wakeups are
//! ruled out by the register-then-validate order (see `Runtime::store`).
//! Slept time lands in the `retry-sleep` latency histogram and each wake is
//! traced as [`EventKind::RetryWake`].

use crate::api::{Abort, StmHandle, TxScope};
use crate::runtime::{Handle, PolicyKind, RetryWaiter, Runtime, Stm, StmConfig};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tm_telemetry::{EventKind, LatencyClass};

/// A typed value as stored behind a register: the register's `u64` is the
/// address of one of these. The indirection through `Box` exists because
/// `Arc<dyn Any>` is a fat pointer and the register holds only 64 bits.
struct SlotBox {
    value: Arc<dyn Any + Send + Sync>,
}

impl SlotBox {
    /// Heap-allocate a cell for `value` and return its address as register
    /// bits. Never zero (a real allocation), so `0` stays the "no typed
    /// value" sentinel.
    fn publish(value: Arc<dyn Any + Send + Sync>) -> u64 {
        Box::into_raw(Box::new(SlotBox { value })) as usize as u64
    }

    /// Re-own the cell at `bits` for dropping.
    ///
    /// # Safety
    /// `bits` must be an address produced by [`SlotBox::publish`] that no
    /// register holds any more and that was not already reclaimed.
    unsafe fn reclaim(bits: u64) -> Box<SlotBox> {
        Box::from_raw(bits as usize as *mut SlotBox)
    }

    /// Clone the payload `Arc` out of the cell at `bits`.
    ///
    /// # Safety
    /// The caller must be inside a transaction epoch and have obtained
    /// `bits` from a policy-validated read in that same attempt: the cell
    /// is then pinned (its retirement's grace period waits for our epoch
    /// exit), and the cloned `Arc` keeps the payload alive past it.
    unsafe fn value_at(bits: u64) -> Arc<dyn Any + Send + Sync> {
        debug_assert!(bits != 0, "typed read of an unpublished register");
        let cell = bits as usize as *const SlotBox;
        Arc::clone(&(*cell).value)
    }
}

/// The slot space of one [`TypedStm`]: a contiguous run of registers
/// managed as typed cells. Owns the *current* box of every allocated
/// register; displaced boxes belong to the grace engine, and both free
/// their side exactly once.
pub struct VarSpace {
    rt: Arc<Runtime>,
    /// First register of the typed run.
    base: usize,
    /// Next unallocated register (`base..next` are live typed cells).
    next: AtomicUsize,
    /// One past the last register this space may allocate.
    limit: usize,
}

impl VarSpace {
    /// Allocate the next register and publish `init` into it.
    fn alloc(&self, init: Arc<dyn Any + Send + Sync>) -> usize {
        let reg = self.next.fetch_add(1, Ordering::SeqCst);
        assert!(
            reg < self.limit,
            "typed register space exhausted: {reg} >= limit {}",
            self.limit
        );
        self.rt.store(reg, SlotBox::publish(init));
        reg
    }
}

impl Drop for VarSpace {
    fn drop(&mut self) {
        // Last owner: no TVar, handle, or in-flight transaction can touch
        // these registers any more. Reset each register to 0 (so a later
        // u64-level inspection of the shared runtime sees a deterministic
        // value, not a dangling address) and free its current box. Boxes
        // this space displaced earlier are the grace engine's to free.
        let end = *self.next.get_mut();
        for reg in self.base..end {
            let bits = self.rt.load(reg);
            if bits != 0 {
                self.rt.store(reg, 0);
                drop(unsafe { SlotBox::reclaim(bits) });
            }
        }
    }
}

/// A typed transactional variable: one register of a [`TypedStm`], read and
/// written through a [`Transaction`]. Cloning shares the variable.
pub struct TVar<T> {
    space: Arc<VarSpace>,
    reg: usize,
    _marker: PhantomData<fn() -> T>,
}

// Manual impl: `#[derive(Clone)]` would demand `T: Clone` on the *handle*,
// which shares rather than copies.
impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            space: Arc::clone(&self.space),
            reg: self.reg,
            _marker: PhantomData,
        }
    }
}

impl<T> TVar<T> {
    /// The register this variable occupies (introspection/test helper).
    pub fn reg(&self) -> usize {
        self.reg
    }
}

/// Why a typed transaction body gave up this attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmError {
    /// [`Transaction::retry`]: the body cannot proceed on the values it
    /// read; re-run it when one of them changes (blocking under
    /// [`RetryStrategy::Block`]).
    Retry,
    /// A conflict abort from the underlying policy (propagated from a
    /// failed read via `?`); the loop re-runs the body immediately, with
    /// backoff.
    Conflict,
}

/// What a typed transaction body returns: the value, or the reason this
/// attempt is abandoned. Propagate with `?` — conflicts convert from
/// [`Abort`] automatically.
pub type StmResult<T> = Result<T, StmError>;

impl From<Abort> for StmError {
    fn from(_: Abort) -> Self {
        StmError::Conflict
    }
}

impl std::fmt::Display for StmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StmError::Retry => "transaction requested retry",
            StmError::Conflict => "transaction conflicted",
        })
    }
}

impl std::error::Error for StmError {}

/// How [`TypedHandle::atomically`] re-runs a body that called
/// [`Transaction::retry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RetryStrategy {
    /// Park on a wait-on-retry control block until a conflicting commit
    /// wakes the handle (the default — no spinning).
    #[default]
    Block,
    /// Re-run immediately with the ordinary abort backoff (a polling loop;
    /// the baseline the `tvar_queue` bench compares blocking against).
    Spin,
}

/// One typed transaction attempt: the view the body closure works with.
///
/// Reads go through the underlying [`TxScope`] (policy-validated) and are
/// remembered as the *watch set* for blocking retry; writes are buffered
/// here and flushed only if the body returns `Ok`.
pub struct Transaction<'a> {
    scope: &'a mut dyn TxScope,
    /// Identity of the [`VarSpace`] this transaction may touch.
    space_ptr: *const VarSpace,
    /// Policy-validated pointer reads: `(register, observed bits)`, in
    /// order. Doubles as the blocking-retry watch set.
    reads: Vec<(usize, u64)>,
    /// Buffered typed writes, in program order; later writes to the same
    /// register supersede earlier ones at flush.
    writes: Vec<(usize, Arc<dyn Any + Send + Sync>)>,
}

impl<'a> Transaction<'a> {
    fn new(scope: &'a mut dyn TxScope, space: &VarSpace) -> Self {
        Transaction {
            scope,
            space_ptr: space as *const VarSpace,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    fn check_space<T>(&self, var: &TVar<T>) {
        assert!(
            std::ptr::eq(Arc::as_ptr(&var.space), self.space_ptr),
            "TVar belongs to a different TypedStm instance"
        );
    }

    /// Read `var`'s current value (a clone of the committed payload, or of
    /// this transaction's own buffered write).
    pub fn read<T: Any + Clone + Send + Sync>(&mut self, var: &TVar<T>) -> StmResult<T> {
        self.check_space(var);
        // Read-after-write: the body must see its own buffered writes.
        if let Some((_, v)) = self.writes.iter().rev().find(|(r, _)| *r == var.reg) {
            let arc = Arc::clone(v)
                .downcast::<T>()
                .unwrap_or_else(|_| unreachable!("TVar register holds a foreign type"));
            return Ok((*arc).clone());
        }
        let bits = self.scope.read(var.reg)?;
        self.reads.push((var.reg, bits));
        // SAFETY: `bits` is a policy-validated read inside the open
        // attempt's epoch; see `SlotBox::value_at`.
        let value = unsafe { SlotBox::value_at(bits) };
        let arc = value
            .downcast::<T>()
            .unwrap_or_else(|_| unreachable!("TVar register holds a foreign type"));
        Ok((*arc).clone())
    }

    /// Buffer a write of `value` into `var`, visible to this transaction's
    /// later reads and flushed at commit.
    pub fn write<T: Any + Clone + Send + Sync>(
        &mut self,
        var: &TVar<T>,
        value: T,
    ) -> StmResult<()> {
        self.check_space(var);
        self.writes.push((var.reg, Arc::new(value)));
        Ok(())
    }

    /// Abandon this attempt and re-run it when one of the registers it read
    /// changes. Under [`RetryStrategy::Block`] the handle sleeps until a
    /// conflicting commit wakes it; retrying with an *empty* read set
    /// panics (nothing could ever wake the transaction).
    pub fn retry<T>(&mut self) -> StmResult<T> {
        Err(StmError::Retry)
    }

    /// `first` or else `second`: run `first`; if it calls
    /// [`Transaction::retry`], roll its buffered writes back and run
    /// `second` instead. Reads from both branches stay in the watch set, so
    /// a blocking retry of the *combined* body wakes when either branch
    /// could proceed. Conflicts propagate from whichever branch hit them.
    pub fn or<T>(
        &mut self,
        first: impl FnOnce(&mut Transaction<'a>) -> StmResult<T>,
        second: impl FnOnce(&mut Transaction<'a>) -> StmResult<T>,
    ) -> StmResult<T> {
        let writes_mark = self.writes.len();
        match first(self) {
            Err(StmError::Retry) => {
                self.writes.truncate(writes_mark);
                second(self)
            }
            other => other,
        }
    }

    /// Run `f`, turning its [`retry`](Transaction::retry) into `None`
    /// instead of abandoning the attempt (`optionally` of the STM papers:
    /// `or(f ↦ Some, ∅ ↦ None)`).
    pub fn optionally<T>(
        &mut self,
        f: impl FnOnce(&mut Transaction<'a>) -> StmResult<T>,
    ) -> StmResult<Option<T>> {
        self.or(|tx| f(tx).map(Some), |_| Ok(None))
    }
}

/// A [`Stm`] instance plus a typed slot space over its registers — the
/// construction surface of the typed frontend. Cloning shares the
/// instance.
pub struct TypedStm<K: PolicyKind> {
    stm: Stm<K>,
    space: Arc<VarSpace>,
}

impl<K: PolicyKind> Clone for TypedStm<K> {
    fn clone(&self) -> Self {
        TypedStm {
            stm: self.stm.clone(),
            space: Arc::clone(&self.space),
        }
    }
}

impl<K: PolicyKind> TypedStm<K> {
    /// A fresh instance whose whole register file backs typed variables.
    pub fn new(nvars: usize, nthreads: usize) -> Self {
        Self::with_config(StmConfig::new(nvars, nthreads))
    }

    /// Full construction-time control (clock, storage, governor, chaos —
    /// every [`StmConfig`] axis works under the typed layer unchanged).
    pub fn with_config(cfg: StmConfig) -> Self {
        Self::over(Stm::with_config(cfg), 0)
    }

    /// Lay a typed slot space over an existing instance, allocating typed
    /// registers upward from `base`. Registers below `base` stay plain
    /// `u64`s, usable through the instance's ordinary handles — this is how
    /// mixed scenarios (conformance) combine both surfaces.
    pub fn over(stm: Stm<K>, base: usize) -> Self {
        let rt = stm.runtime_arc();
        let limit = rt.nregs();
        assert!(
            base <= limit,
            "typed base {base} beyond register file {limit}"
        );
        let space = Arc::new(VarSpace {
            rt,
            base,
            next: AtomicUsize::new(base),
            limit,
        });
        TypedStm { stm, space }
    }

    /// Allocate a typed variable initialized to `init`.
    pub fn new_tvar<T: Any + Clone + Send + Sync>(&self, init: T) -> TVar<T> {
        let reg = self.space.alloc(Arc::new(init));
        TVar {
            space: Arc::clone(&self.space),
            reg,
            _marker: PhantomData,
        }
    }

    /// A typed handle bound to thread slot `slot` (< `nthreads`),
    /// defaulting to [`RetryStrategy::Block`].
    pub fn handle(&self, slot: usize) -> TypedHandle<K> {
        TypedHandle {
            h: self.stm.handle(slot),
            space: Arc::clone(&self.space),
            strategy: RetryStrategy::Block,
        }
    }

    /// The underlying untyped instance (plain registers, fences, peeks).
    pub fn stm(&self) -> &Stm<K> {
        &self.stm
    }
}

thread_local! {
    /// The nested-`atomically` guard: one typed transaction per thread.
    static IN_ATOMICALLY: Cell<bool> = const { Cell::new(false) };
}

/// Resets the nested-`atomically` flag even when the body panics.
struct NestGuard;

impl Drop for NestGuard {
    fn drop(&mut self) {
        IN_ATOMICALLY.with(|f| f.set(false));
    }
}

/// How one attempt of the typed loop ended, beyond the value itself.
enum Flushed {
    /// The body returned `Ok` and the pointer flush succeeded: `replaced`
    /// are the old boxes (retire on commit success), `fresh` the new ones
    /// (free if the commit itself fails — they were never published).
    Committed { replaced: Vec<u64>, fresh: Vec<u64> },
    /// The body called `retry` and validation found the watch set intact:
    /// sleep on the waiter, then re-run.
    Sleep { waiter: Arc<RetryWaiter> },
}

/// A per-thread typed handle: [`TypedHandle::atomically`] over one
/// [`Handle`]. `Send` but not `Sync`, like the handle it wraps.
pub struct TypedHandle<K: PolicyKind> {
    h: Handle<K::Policy>,
    space: Arc<VarSpace>,
    strategy: RetryStrategy,
}

impl<K: PolicyKind> TypedHandle<K> {
    /// Choose how [`Transaction::retry`] re-runs on this handle.
    pub fn set_retry_strategy(&mut self, strategy: RetryStrategy) {
        self.strategy = strategy;
    }

    /// The wrapped untyped handle (stats, fences, direct accesses to plain
    /// registers below the typed base).
    pub fn inner(&mut self) -> &mut Handle<K::Policy> {
        &mut self.h
    }

    /// Run `body` as a typed transaction, re-running it until it commits,
    /// and return its result.
    ///
    /// The body reads and writes [`TVar`]s through the [`Transaction`],
    /// propagating failures with `?`. [`StmError::Conflict`] re-runs with
    /// the shared exponential backoff; [`StmError::Retry`] re-runs when a
    /// watched register changes — parking the thread under
    /// [`RetryStrategy::Block`]. Displaced value boxes are retired through
    /// the grace engine ([`tm_quiesce::GraceEngine::defer_drop`]); boxes
    /// created by an attempt whose commit failed are freed before the
    /// re-run; a panic unwinds out with the attempt rolled back (the boxes
    /// of a mid-flush panic leak rather than risk a double-free).
    ///
    /// # Panics
    /// On nested `atomically` on one thread, on `retry` with an empty read
    /// set, and on a poisoned underlying handle.
    pub fn atomically<T>(
        &mut self,
        mut body: impl FnMut(&mut Transaction<'_>) -> StmResult<T>,
    ) -> T {
        IN_ATOMICALLY.with(|f| {
            assert!(
                !f.get(),
                "nested atomically: a typed transaction is already open on this thread"
            );
            f.set(true);
        });
        let _guard = NestGuard;

        let space = Arc::clone(&self.space);
        let strategy = self.strategy;
        let mut attempts: u32 = 0;
        loop {
            // Stashed here (not threaded through the return value) so the
            // commit-failed case still knows which fresh boxes to free.
            let mut outcome: Option<Flushed> = None;
            let result = self.h.try_atomic(|scope| {
                let mut tx = Transaction::new(scope, &space);
                match body(&mut tx) {
                    Ok(v) => {
                        outcome = Some(flush(&mut tx)?);
                        Ok(v)
                    }
                    Err(StmError::Conflict) => Err(Abort),
                    Err(StmError::Retry) => {
                        assert!(
                            !tx.reads.is_empty(),
                            "retry with an empty read set: nothing could ever wake this transaction"
                        );
                        if strategy == RetryStrategy::Block {
                            if let Some(waiter) = arm_retry_waiter(&space.rt, &mut tx) {
                                outcome = Some(Flushed::Sleep { waiter });
                            }
                        }
                        Err(Abort)
                    }
                }
            });
            match (result, outcome) {
                (Ok(v), Some(Flushed::Committed { replaced, fresh })) => {
                    // Published: the registers own `fresh` now; the
                    // displaced boxes go to the grace engine, which frees
                    // each exactly once after every reader that could hold
                    // the old pointer has left its epoch.
                    drop(fresh);
                    for bits in replaced {
                        space
                            .rt
                            .grace()
                            .defer_drop(unsafe { SlotBox::reclaim(bits) });
                    }
                    return v;
                }
                (Ok(_), _) => unreachable!("typed commit without a flush"),
                (Err(Abort), flushed) => {
                    if let Some(Flushed::Committed { fresh, .. }) = &flushed {
                        // The commit itself failed: the write-back never
                        // started (TL2/NOrec/glock fail only before it), so
                        // the fresh boxes were never published — free them
                        // here; the displaced ones still sit in their
                        // registers, untouched.
                        for &bits in fresh {
                            drop(unsafe { SlotBox::reclaim(bits) });
                        }
                    }
                    self.h.note_retry();
                    if let Some(Flushed::Sleep { waiter }) = flushed {
                        self.sleep_on(&waiter);
                        attempts = 0; // woken by a real change, not a collision
                        continue;
                    }
                    attempts = attempts.saturating_add(1);
                    self.h.backoff_pause(attempts - 1);
                }
            }
        }
    }

    /// Park on `waiter` until a conflicting commit wakes it, then
    /// deregister and record the slept time.
    fn sleep_on(&mut self, waiter: &Arc<RetryWaiter>) {
        let rt = Arc::clone(&self.space.rt);
        let t0 = rt.telemetry().enabled().then(Instant::now);
        let woke_reg = waiter.sleep();
        rt.deregister_retry_waiter(waiter);
        if let Some(t0) = t0 {
            let woke = Instant::now();
            let slept_ns = woke.duration_since(t0).as_nanos() as u64;
            let slot = self.h.slot() as u16;
            rt.telemetry()
                .record_latency(slot, LatencyClass::RetrySleep, slept_ns);
            let wake = EventKind::RetryWake {
                reg: woke_reg as u64,
                slept_ns,
            };
            rt.telemetry().record_event_at(slot, woke, wake);
        }
    }
}

/// Flush a committing body's buffered writes into the scope: per register
/// (last write wins), capture the old pointer with a validated read, then
/// write the fresh one. Any abort frees every fresh box already allocated
/// by this flush — none were published.
fn flush(tx: &mut Transaction<'_>) -> Result<Flushed, Abort> {
    let mut replaced: Vec<u64> = Vec::new();
    let mut fresh: Vec<u64> = Vec::new();
    let free_fresh = |fresh: &mut Vec<u64>| {
        for &bits in fresh.iter() {
            drop(unsafe { SlotBox::reclaim(bits) });
        }
    };
    let mut flushed_regs: Vec<usize> = Vec::new();
    let writes = std::mem::take(&mut tx.writes);
    for (i, (reg, value)) in writes.iter().enumerate() {
        // Last write to a register wins; earlier ones never materialize.
        if writes[i + 1..].iter().any(|(r, _)| r == reg) || flushed_regs.contains(reg) {
            continue;
        }
        flushed_regs.push(*reg);
        let old = match tx.scope.read(*reg) {
            Ok(bits) => bits,
            Err(Abort) => {
                free_fresh(&mut fresh);
                return Err(Abort);
            }
        };
        let new_bits = SlotBox::publish(Arc::clone(value));
        if tx.scope.write(*reg, new_bits).is_err() {
            drop(unsafe { SlotBox::reclaim(new_bits) });
            free_fresh(&mut fresh);
            return Err(Abort);
        }
        replaced.push(old);
        fresh.push(new_bits);
    }
    Ok(Flushed::Committed { replaced, fresh })
}

/// The blocking half of `retry`: register a waiter on the watch set, then
/// re-validate every watched register *inside the still-open attempt* (its
/// epoch pins the pointers, and the policy re-validates the reads). Any
/// change — or a validation abort — deregisters and returns `None`: re-run
/// immediately, something already moved. Intact watch set returns the armed
/// waiter; with registration ordered before validation, a commit that
/// changes a watched register afterwards is guaranteed to see the waiter
/// count and wake us (see `Runtime::store`).
fn arm_retry_waiter(rt: &Arc<Runtime>, tx: &mut Transaction<'_>) -> Option<Arc<RetryWaiter>> {
    let mut regs: Vec<usize> = tx.reads.iter().map(|&(r, _)| r).collect();
    regs.sort_unstable();
    regs.dedup();
    let waiter = RetryWaiter::new();
    rt.register_retry_waiter(&regs, &waiter);
    for &(reg, bits) in tx.reads.iter() {
        match tx.scope.read(reg) {
            Ok(now) if now == bits => {}
            _ => {
                rt.deregister_retry_waiter(&waiter);
                return None;
            }
        }
    }
    Some(waiter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::DriverMode;
    use crate::tl2::Tl2Kind;
    use std::sync::atomic::AtomicU64;

    type Tl2Typed = TypedStm<Tl2Kind>;

    #[test]
    fn typed_read_write_commit_roundtrip() {
        let stm = Tl2Typed::new(8, 2);
        let v = stm.new_tvar(String::from("hello"));
        let mut h = stm.handle(0);
        let got = h.atomically(|tx| {
            let s = tx.read(&v)?;
            tx.write(&v, format!("{s} world"))?;
            tx.read(&v)
        });
        assert_eq!(got, "hello world", "read-after-write sees the buffer");
        let now = h.atomically(|tx| tx.read(&v));
        assert_eq!(now, "hello world", "committed value persists");
    }

    #[test]
    fn last_write_wins_and_aborted_bodies_allocate_nothing() {
        let stm = Tl2Typed::new(8, 2);
        let v = stm.new_tvar(0u64);
        let mut h = stm.handle(0);
        h.atomically(|tx| {
            tx.write(&v, 1)?;
            tx.write(&v, 2)?;
            tx.write(&v, 3)
        });
        assert_eq!(h.atomically(|tx| tx.read(&v)), 3);
        // One register replaced once per commit: exactly one retirement.
        assert_eq!(stm.stm().runtime().grace().retired_boxes(), 1);
    }

    #[test]
    fn or_rolls_back_first_branch_writes() {
        let stm = Tl2Typed::new(8, 2);
        let a = stm.new_tvar(10u64);
        let b = stm.new_tvar(20u64);
        let mut h = stm.handle(0);
        let picked = h.atomically(|tx| {
            let a = a.clone();
            let b = b.clone();
            tx.or(
                move |tx| {
                    tx.write(&a, 99)?; // must not survive the retry
                    tx.retry()
                },
                move |tx| {
                    tx.write(&b, 21)?;
                    tx.read(&b)
                },
            )
        });
        assert_eq!(picked, 21);
        let (av, bv) = h.atomically(|tx| Ok((tx.read(&a)?, tx.read(&b)?)));
        assert_eq!((av, bv), (10, 21), "first branch's write rolled back");
    }

    #[test]
    fn optionally_turns_retry_into_none() {
        let stm = Tl2Typed::new(8, 2);
        let v = stm.new_tvar(5u64);
        let mut h = stm.handle(0);
        let out = h.atomically(|tx| {
            let v = v.clone();
            tx.optionally(move |tx| {
                let x = tx.read(&v)?;
                if x < 10 {
                    tx.retry()
                } else {
                    Ok(x)
                }
            })
        });
        assert_eq!(out, None);
    }

    #[test]
    #[should_panic(expected = "nested atomically")]
    fn nested_atomically_panics() {
        let stm = Tl2Typed::new(8, 2);
        let v = stm.new_tvar(1u64);
        let stm2 = stm.clone();
        let mut h = stm.handle(0);
        h.atomically(|tx| {
            let mut h2 = stm2.handle(1);
            let v2 = v.clone();
            h2.atomically(move |tx2| tx2.read(&v2));
            tx.read(&v)
        });
    }

    #[test]
    fn guard_resets_after_body_panic() {
        let stm = Tl2Typed::new(8, 2);
        let v = stm.new_tvar(1u64);
        let stm2 = stm.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut h = stm2.handle(0);
            h.atomically(|_tx| -> StmResult<()> { panic!("boom") });
        }));
        assert!(caught.is_err());
        // The thread-local guard was reset on unwind: a fresh atomically
        // on this thread works.
        let mut h = stm.handle(1);
        assert_eq!(h.atomically(|tx| tx.read(&v)), 1);
    }

    #[test]
    #[should_panic(expected = "empty read set")]
    fn retry_with_no_reads_panics() {
        let stm = Tl2Typed::new(8, 2);
        let mut h = stm.handle(0);
        h.atomically(|tx| -> StmResult<()> { tx.retry() });
    }

    #[test]
    #[should_panic(expected = "different TypedStm")]
    fn foreign_tvar_rejected() {
        let stm = Tl2Typed::new(8, 2);
        let other = Tl2Typed::new(8, 2);
        let foreign = other.new_tvar(1u64);
        let mut h = stm.handle(0);
        h.atomically(|tx| tx.read(&foreign));
    }

    /// Blocking retry wakes on a conflicting commit — the handoff shape.
    fn handoff(mode: DriverMode) {
        let mut cfg = StmConfig::new(8, 2);
        cfg.driver = mode;
        let stm = Tl2Typed::with_config(cfg);
        let flag = stm.new_tvar(0u64);
        let woken = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let stm2 = stm.clone();
            let flag2 = flag.clone();
            let woken2 = Arc::clone(&woken);
            s.spawn(move || {
                let mut h = stm2.handle(0);
                let seen = h.atomically(|tx| {
                    let x = tx.read(&flag2)?;
                    if x == 0 {
                        tx.retry()
                    } else {
                        Ok(x)
                    }
                });
                woken2.store(seen, Ordering::SeqCst);
            });
            // Give the waiter a chance to park (spurious early commit is
            // fine — it would just re-run and sleep again).
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut h = stm.handle(1);
            h.atomically(|tx| tx.write(&flag, 7));
        });
        assert_eq!(woken.load(Ordering::SeqCst), 7, "waiter saw the commit");
        assert_eq!(
            stm.stm().runtime().retry_waiter_entries(),
            0,
            "registry drained"
        );
    }

    #[test]
    fn blocking_retry_wakes_on_commit_cooperative() {
        handoff(DriverMode::Cooperative);
    }

    #[test]
    fn blocking_retry_wakes_on_commit_background() {
        handoff(DriverMode::Background);
    }

    #[test]
    fn spin_retry_also_sees_the_commit() {
        let stm = Tl2Typed::new(8, 2);
        let flag = stm.new_tvar(0u64);
        std::thread::scope(|s| {
            let stm2 = stm.clone();
            let flag2 = flag.clone();
            let t = s.spawn(move || {
                let mut h = stm2.handle(0);
                h.set_retry_strategy(RetryStrategy::Spin);
                h.atomically(|tx| {
                    let x = tx.read(&flag2)?;
                    if x == 0 {
                        tx.retry()
                    } else {
                        Ok(x)
                    }
                })
            });
            let mut h = stm.handle(1);
            h.atomically(|tx| tx.write(&flag, 3));
            assert_eq!(t.join().unwrap(), 3);
        });
    }

    #[test]
    fn dropping_the_instance_resets_typed_registers() {
        let stm = Tl2Typed::new(8, 2);
        let inner = stm.stm().clone();
        let v = stm.new_tvar(1u64);
        let mut h = stm.handle(0);
        h.atomically(|tx| tx.write(&v, 2));
        let reg = v.reg();
        assert_ne!(inner.peek(reg), 0, "typed register holds a live pointer");
        drop((stm, v, h));
        assert_eq!(inner.peek(reg), 0, "space drop resets the register");
    }
}
