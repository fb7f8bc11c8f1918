//! Typed transaction frontend: [`TVar<T>`], [`TypedHandle::atomically`],
//! and blocking [`Transaction::retry`] — over any [`PolicyKind`] backend.
//!
//! The runtime's native surface is a `u64` register file: right for litmus
//! tests and checkable histories, wrong for users with real data. This
//! module maps *typed heap values* onto that register file without touching
//! any policy:
//!
//! * A [`TVar<T>`] owns one register, whose `u64` is the *thin* address of
//!   a `Box<T>` — the type is known at every `TVar<T>` call site, so a read
//!   is one pointer chase and one `T::clone`, and type-erased teardown
//!   carries a monomorphised `unsafe fn(u64)` beside the address.
//!   Transactional reads and writes of the *pointer* go through the
//!   ordinary [`TxScope`] machinery, so every backend (TL2, NOrec, glock),
//!   clock discipline, storage layout, and the contention governor work
//!   underneath unchanged.
//! * Writes are buffered in the [`Transaction`], each value boxed once and
//!   the box *owned by the buffer*, and flushed to the scope only when the
//!   body returns `Ok` — which makes [`Transaction::or`] a cheap
//!   snapshot/rollback. Registers take ownership only once the commit has
//!   succeeded; an aborted, rolled-back or panicking attempt just drops its
//!   buffer. The buffers are per-handle scratch, cleared not allocated per
//!   attempt, so a commit's one allocation is the value's `Box`.
//! * A successful commit *replaces* pointers, and the displaced boxes are
//!   reclaimed by epoch: a reader still holding a displaced pointer is
//!   inside its transaction's epoch, and the grace period the retirement
//!   waits on cannot elapse until it exits — privatization safety *is* safe
//!   reclamation (the paper's core claim), here as a memory manager.
//!   Displaced cells park on the committing handle, off every shared line,
//!   and reach [`tm_quiesce::GraceEngine::defer_drop_batch`] as **one**
//!   retire entry at three flush points: [`RETIRE_BATCH`] cells parked; any
//!   fence through the handle, typed or [`TypedHandle::inner`] (the period
//!   it joins then covers every earlier displacement); the handle's drop.
//!   A later stamp only over-waits; the price is up to `RETIRE_BATCH - 1`
//!   dead values per idle handle.
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
//!
//! [`RETIRE_BATCH`]: crate::runtime::RETIRE_BATCH

use crate::api::{Abort, StmHandle, TxScope};
use crate::runtime::{Handle, Policy, PolicyKind, RetryWaiter, Runtime, Stm, StmConfig};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tm_telemetry::{EventKind, LatencyClass};

/// An owned, type-erased `Box<T>`: the thin address a register holds, plus
/// the teardown monomorphised for `T`. Dropping it frees the box.
pub(crate) struct OwnedCell {
    bits: u64,
    drop: unsafe fn(u64),
}

impl OwnedCell {
    /// Box `value`. The address is never zero (a `Box` is non-null), so `0`
    /// stays the "no typed value" sentinel of a register.
    fn new<T: Send + Sync + 'static>(value: T) -> Self {
        /// # Safety
        /// `bits` must be the address of a live `Box<T>` nothing else owns.
        unsafe fn drop_box<T>(bits: u64) {
            drop(Box::from_raw(bits as usize as *mut T));
        }
        OwnedCell {
            bits: Box::into_raw(Box::new(value)) as usize as u64,
            drop: drop_box::<T>,
        }
    }

    /// Trade boxes with a register: give this one up and own `old` instead.
    ///
    /// # Safety
    /// A register of this box's type must have taken this box over from
    /// `old`, which nothing else owns any more.
    unsafe fn exchange(mut self, old: u64) -> Self {
        self.bits = old;
        self
    }
}

impl Drop for OwnedCell {
    fn drop(&mut self) {
        // SAFETY: by construction (`new`, or `exchange`'s contract) `bits`
        // is a live `Box<T>` this cell alone owns and `drop` is `T`'s
        // teardown. A cell whose box a register took over is forgotten.
        unsafe { (self.drop)(self.bits) }
    }
}

// SAFETY: an `OwnedCell` *is* a `Box<T>` with `T: Send + Sync` (bounded by
// `new`, kept by `exchange`) spelled as an integer and a fn pointer: moving
// it moves the box, and the thread that drops it drops the `T`.
unsafe impl Send for OwnedCell {}

/// The slot space of one [`TypedStm`]: a contiguous run of registers
/// managed as typed cells. Owns the *current* box of every allocated
/// register; displaced boxes belong to the handle that displaced them and
/// then to the grace engine, and each side frees its own exactly once.
pub struct VarSpace {
    rt: Arc<Runtime>,
    /// First register of the typed run, which extends to the file's end.
    base: usize,
    /// The teardown of each allocated register's value type, in register
    /// order from `base` (so its length is the allocation count).
    teardowns: Mutex<Vec<unsafe fn(u64)>>,
}

impl Drop for VarSpace {
    fn drop(&mut self) {
        // Last owner: no TVar, handle, or in-flight transaction can touch
        // these registers any more. Reset each register to 0 (so a later
        // u64-level inspection of the shared runtime sees a deterministic
        // value, not a dangling address) and free its current box. Boxes
        // this space displaced earlier are their handle's or the grace
        // engine's to free.
        let teardowns = std::mem::take(self.teardowns.get_mut().unwrap());
        for (reg, teardown) in (self.base..).zip(teardowns) {
            let bits = self.rt.load(reg);
            if bits != 0 {
                self.rt.store(reg, 0);
                // SAFETY: `reg` was allocated with this teardown's type and
                // only `TVar<T>` commits of that type replace its box; the
                // register was its one owner and has just let go of it.
                unsafe { teardown(bits) };
            }
        }
    }
}

/// A typed transactional variable: one register of a [`TypedStm`], read and
/// written through a [`Transaction`]. Cloning shares the variable.
pub struct TVar<T> {
    space: Arc<VarSpace>,
    reg: usize,
    _marker: PhantomData<fn(T) -> T>, // invariant: read *and* written as exactly `T`
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

/// One buffered typed write.
struct Write {
    reg: usize,
    /// The new value's box — the buffer's until the commit has succeeded.
    cell: OwnedCell,
    /// Set by [`flush`] on the *winning* (last) write to `reg`: the address
    /// that write displaces if the attempt commits.
    displaced: Option<u64>,
}

/// One typed transaction attempt: the view the body closure works with.
///
/// Reads go through the underlying [`TxScope`] (policy-validated) and are
/// remembered as the *watch set* for blocking retry; writes are buffered
/// (in scratch the handle lends) and flushed only if the body returns `Ok`.
pub struct Transaction<'a> {
    scope: &'a mut dyn TxScope,
    /// The [`VarSpace`] this transaction may touch.
    space: &'a VarSpace,
    /// Policy-validated pointer reads: `(register, observed bits)`, in
    /// order. Doubles as the blocking-retry watch set.
    reads: &'a mut Vec<(usize, u64)>,
    /// Buffered typed writes, in program order; later writes to the same
    /// register supersede earlier ones at flush.
    writes: &'a mut Vec<Write>,
}

impl<'a> Transaction<'a> {
    fn check_space<T>(&self, var: &TVar<T>) {
        assert!(
            std::ptr::eq(Arc::as_ptr(&var.space), self.space),
            "TVar belongs to a different TypedStm instance"
        );
    }

    /// Read `var`'s current value (a clone of the committed payload, or of
    /// this transaction's own buffered write).
    pub fn read<T: Any + Clone + Send + Sync>(&mut self, var: &TVar<T>) -> StmResult<T> {
        self.check_space(var);
        // Read-after-write: the body must see its own buffered writes.
        let bits = match self.writes.iter().rev().find(|w| w.reg == var.reg) {
            Some(w) => w.cell.bits,
            None => {
                let bits = self.scope.read(var.reg)?;
                self.reads.push((var.reg, bits));
                bits
            }
        };
        // SAFETY: `var` (checked: of this space) fixes its register's value
        // type to `T`. `bits` is either a box this attempt's write buffer
        // owns, or what the register held at a policy-validated read inside
        // the open attempt's epoch: it was displaced, if at all, after we
        // entered, so the grace period its retirement waits on cannot
        // elapse before this attempt ends — and the clone is done by then.
        Ok(unsafe { &*(bits as usize as *const T) }.clone())
    }

    /// Buffer a write of `value` into `var`, visible to this transaction's
    /// later reads and flushed at commit.
    pub fn write<T: Any + Clone + Send + Sync>(
        &mut self,
        var: &TVar<T>,
        value: T,
    ) -> StmResult<()> {
        self.check_space(var);
        self.writes.push(Write {
            reg: var.reg,
            cell: OwnedCell::new(value),
            displaced: None,
        });
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
            teardowns: Mutex::new(Vec::new()),
        });
        TypedStm { stm, space }
    }

    /// Allocate a typed variable initialized to `init`.
    pub fn new_tvar<T: Any + Clone + Send + Sync>(&self, init: T) -> TVar<T> {
        let init = OwnedCell::new(init);
        let mut teardowns = self.space.teardowns.lock().unwrap();
        let (reg, limit) = (self.space.base + teardowns.len(), self.space.rt.nregs());
        assert!(
            reg < limit,
            "typed register space exhausted: {reg} >= limit {limit}"
        );
        teardowns.push(init.drop);
        self.space.rt.store(reg, init.bits);
        std::mem::forget(init); // the register's now
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
            reads: Vec::new(),
            writes: Vec::new(),
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

/// A per-thread typed handle: [`TypedHandle::atomically`] over one
/// [`Handle`]. `Send` but not `Sync`, like the handle it wraps.
pub struct TypedHandle<K: PolicyKind> {
    h: Handle<K::Policy>,
    space: Arc<VarSpace>,
    strategy: RetryStrategy,
    /// The buffers lent to each [`Transaction`]: cleared, not allocated,
    /// per attempt.
    reads: Vec<(usize, u64)>,
    writes: Vec<Write>,
}

impl<K: PolicyKind> Drop for TypedHandle<K> {
    fn drop(&mut self) {
        // A panic inside commit may have half applied the write-back: leak
        // the buffer rather than free a box some register already holds.
        if self.h.is_poisoned() {
            std::mem::forget(std::mem::take(&mut self.writes));
        }
    }
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
    /// [`RetryStrategy::Block`].
    ///
    /// Each `write`'s box stays the write buffer's through flush and commit.
    /// Once the commit has succeeded, every winning (last) write's box is
    /// its register's, and the box it displaced parks on this handle until
    /// a flush point — [`RETIRE_BATCH`](crate::runtime::RETIRE_BATCH) cells
    /// parked, a fence through this handle, its drop — hands the batch to
    /// the grace engine: an idle handle keeps at most `RETIRE_BATCH - 1`
    /// dead values. Superseded writes and aborted, `or`-rolled-back or
    /// panicking attempts just drop their boxes: none was ever published.
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

        let mut attempts: u32 = 0;
        loop {
            // Set when the body called `retry` and validation found the
            // watch set intact: sleep on the waiter, then re-run.
            let mut sleep: Option<Arc<RetryWaiter>> = None;
            let result = self.h.try_atomic(|scope| {
                // Emptied here, not only on exit: an attempt that unwound
                // with a panic leaves its buffers behind.
                self.reads.clear();
                self.writes.clear();
                let mut tx = Transaction {
                    scope,
                    space: &self.space,
                    reads: &mut self.reads,
                    writes: &mut self.writes,
                };
                match body(&mut tx) {
                    Ok(v) => flush(&mut tx).map(|()| v),
                    Err(StmError::Conflict) => Err(Abort),
                    Err(StmError::Retry) => {
                        assert!(
                            !tx.reads.is_empty(),
                            "retry with an empty read set: nothing could ever wake this transaction"
                        );
                        if self.strategy == RetryStrategy::Block {
                            sleep = arm_retry_waiter(&self.space.rt, &mut tx);
                        }
                        Err(Abort)
                    }
                }
            });
            match result {
                Ok(v) => {
                    for w in self.writes.drain(..) {
                        // (A superseded write was never flushed: it drops.)
                        if let Some(displaced) = w.displaced {
                            // SAFETY: the commit validated the flush's read
                            // of `displaced` in `w.reg` and replaced it with
                            // this box: no register holds it any more, and
                            // this committer alone retires it.
                            self.h.park_displaced(unsafe { w.cell.exchange(displaced) });
                        }
                    }
                    return v;
                }
                Err(Abort) => {
                    // No policy fails after its write-back: the new boxes drop.
                    self.writes.clear();
                    self.h.note_retry();
                    if let Some(waiter) = sleep {
                        sleep_on(&mut self.h, &self.space.rt, &waiter);
                        attempts = 0; // woken by a real change, not a collision
                        continue;
                    }
                    attempts = attempts.saturating_add(1);
                    self.h.backoff_pause(attempts - 1);
                }
            }
        }
    }
}

/// Park on `waiter` until a conflicting commit wakes it, then deregister
/// and record the slept time.
fn sleep_on<P: Policy>(h: &mut Handle<P>, rt: &Runtime, waiter: &Arc<RetryWaiter>) {
    let t0 = rt.telemetry().enabled().then(Instant::now);
    let woke_reg = waiter.sleep();
    rt.deregister_retry_waiter(waiter);
    if let Some(t0) = t0 {
        let woke = Instant::now();
        let slept_ns = woke.duration_since(t0).as_nanos() as u64;
        let slot = h.slot() as u16;
        rt.telemetry()
            .record_latency(slot, LatencyClass::RetrySleep, slept_ns);
        let wake = EventKind::RetryWake {
            reg: woke_reg as u64,
            slept_ns,
        };
        rt.telemetry().record_event_at(slot, woke, wake);
    }
}

/// Flush a committing body's buffered writes into the scope: per register
/// (last write wins; earlier ones never materialize), capture the pointer
/// it displaces with a validated read, then write the new one. The boxes
/// stay the buffer's — an abort here publishes and frees nothing.
fn flush(tx: &mut Transaction<'_>) -> Result<(), Abort> {
    for i in 0..tx.writes.len() {
        let reg = tx.writes[i].reg;
        if tx.writes[i + 1..].iter().any(|w| w.reg == reg) {
            continue;
        }
        tx.writes[i].displaced = Some(tx.scope.read(reg)?);
        tx.scope.write(reg, tx.writes[i].cell.bits)?;
    }
    Ok(())
}

/// The blocking half of `retry`: register a waiter on the watch set, then
/// re-validate every watched register *inside the still-open attempt* (its
/// epoch pins the pointers, and the policy re-validates the reads). Any
/// change — or a validation abort — deregisters and returns `None`: re-run
/// immediately, something already moved. Intact watch set returns the armed
/// waiter; with registration ordered before validation, a commit that
/// changes a watched register afterwards is guaranteed to see the waiter
/// count and wake us (see `Runtime::store`).
fn arm_retry_waiter(rt: &Runtime, tx: &mut Transaction<'_>) -> Option<Arc<RetryWaiter>> {
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
        // One register replaced once per commit: exactly one retirement,
        // handed over when the handle drops. The two superseded boxes were
        // the write buffer's and never reach the engine.
        drop(h);
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
