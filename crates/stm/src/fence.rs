//! Asynchronous, batched transactional fences.
//!
//! The paper's fence (Fig 7 lines 33–39) *blocks* the privatizing thread
//! for a full grace period. [`FenceTicket`] splits that into request and
//! completion: [`StmHandle::fence_async`] returns immediately with a ticket
//! stamped on the runtime's open grace period ([`tm_quiesce::GraceEngine`]),
//! and the thread overlaps useful work until it [`poll`](FenceTicket::poll)s
//! or [`wait`](FenceTicket::wait)s. Batching is the payoff: every ticket
//! issued during the same open period — by any thread — resolves on one
//! shared scan of the epoch table, the same amortization `call_rcu` gets
//! over `synchronize_rcu`.
//!
//! Recorded histories get `FBegin` at ticket issue and `FEnd` at ticket
//! resolution, so the `tm-core` checkers validate asynchronous fences with
//! the same Def A.1 clause-10 obligation as blocking ones. Two rules follow:
//!
//! * With a recorder attached, resolve a ticket before issuing further TM
//!   operations on the same handle — `FBegin` is a *request* action, and a
//!   `TxBegin` recorded before the matching `FEnd` makes the history
//!   ill-formed (nested requests, Def A.1 clause 5). The work overlapped
//!   under an open ticket must be non-transactional.
//! * Never wait on a ticket from inside a transaction on the same handle's
//!   slot: the grace period would wait for the waiter.
//!
//! An unresolved ticket resolves *at the latest when dropped* (the drop
//! blocks through the grace period), so a fence, once requested, is never
//! silently lost.
//!
//! ## Fire-and-forget liveness
//!
//! [`FenceTicket::on_complete`] consumes the ticket — nothing is left to
//! poll, wait, or drop. Under the default cooperative
//! [`DriverMode`](crate::runtime::DriverMode) the callback therefore fires
//! only when some *later* fence/poll on the same runtime drives the
//! engine; a runtime whose threads all go quiet never fires it. Build the
//! runtime with [`DriverMode::Background`](crate::runtime::DriverMode) for
//! the `call_rcu`-style guarantee: a runtime-owned
//! [`tm_quiesce::GraceDriver`] retires the period within bounded time with
//! zero pollers, and runtime drop drains outstanding callbacks.
//!
//! ## Cross-thread `FEnd` recording
//!
//! The completing thread — a cooperative driver or the background driver,
//! not necessarily the issuer — records the `FEnd` into the *issuing
//! slot's* log. [`Recorder::record`] is safe under that cross-thread use
//! (a per-slot mutex guards the log; ordering comes from the global
//! sequence counter, not vector position — see [`crate::record`]). The
//! ordering obligation is the caller's: the issuing handle must not record
//! further actions until the callback has been *observed* (the `FEnd` is
//! recorded strictly before the callback runs), otherwise a TxBegin could
//! interleave before the `FEnd` and the history would be ill-formed.

use crate::api::StmHandle;
use crate::record::Recorder;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_core::action::Kind;
use tm_quiesce::{GraceTicket, StallInfo};
use tm_telemetry::EventKind;

/// A pending (or already-elapsed) transactional fence: completes once every
/// transaction active at issue has committed or aborted.
///
/// Obtained from [`StmHandle::fence_async`]. Policies whose fence is a
/// no-op (NOrec — privatization-safe without quiescing) return tickets that
/// are already resolved at issue.
pub struct FenceTicket {
    /// The grace-period claim; `None` for no-op (immediate) fences.
    grace: Option<GraceTicket>,
    /// Recorder and thread slot for the `FEnd` emitted at resolution.
    rec: Option<(Arc<Recorder>, usize)>,
    /// Issuing slot for the `fence-retire` trace event emitted at
    /// resolution (`None` when tracing is off at issue); the telemetry hub
    /// is the grace engine's.
    tel_slot: Option<u16>,
    resolved: bool,
}

impl FenceTicket {
    /// An already-elapsed fence (no-op fence policies, e.g. NOrec).
    pub(crate) fn immediate() -> Self {
        FenceTicket {
            grace: None,
            rec: None,
            tel_slot: None,
            resolved: true,
        }
    }

    /// A pending fence over `grace`; at resolution `rec` emits `FEnd` and
    /// `tel_slot` gets the `fence-retire` trace event.
    pub(crate) fn issued(
        grace: GraceTicket,
        rec: Option<(Arc<Recorder>, usize)>,
        tel_slot: Option<u16>,
    ) -> Self {
        FenceTicket {
            grace: Some(grace),
            rec,
            tel_slot,
            resolved: false,
        }
    }

    /// Has this fence already resolved (grace period elapsed, `FEnd`
    /// recorded)?
    pub fn is_resolved(&self) -> bool {
        self.resolved
    }

    /// The grace period this ticket is stamped with (`None` for no-op
    /// fences). Tickets with equal periods on the same runtime share one
    /// epoch-table scan.
    pub fn period(&self) -> Option<u64> {
        self.grace.as_ref().map(|g| g.period())
    }

    /// Non-blocking completion check. Each call also contributes one
    /// cooperative driving step to the engine, so a polling loop makes
    /// global progress even with no other waiter.
    pub fn poll(&mut self) -> bool {
        if !self.resolved && self.grace.as_ref().is_none_or(|g| g.poll()) {
            self.resolve(None, None);
        }
        self.resolved
    }

    /// Block (cooperatively — yielding, never hard-spinning) until the
    /// fence resolves; returns the time spent blocked. Prefer
    /// [`StmHandle::fence_join`], which also charges that time to
    /// [`crate::api::Stats::fence_wait_ns`].
    pub fn wait(&mut self) -> Duration {
        self.wait_as(None)
    }

    /// [`Self::wait`] on behalf of the handle that owns thread slot
    /// `joiner` ([`StmHandle::fence_join`]): grace scans the wait completes
    /// are traced on that slot's own telemetry cell.
    pub(crate) fn wait_as(&mut self, joiner: Option<u16>) -> Duration {
        if self.resolved {
            return Duration::ZERO;
        }
        let start = Instant::now();
        if let Some(g) = &self.grace {
            g.wait_as(joiner);
        }
        let end = Instant::now();
        self.resolve(Some(end), joiner);
        end.duration_since(start)
    }

    /// [`Self::wait`], bounded: give up after `timeout`, returning a
    /// [`FenceTimeout`] naming every epoch slot the grace scan is pinned on
    /// (via the engine's stall detector) — the caller can bound a
    /// privatization wait and point at the offending thread instead of
    /// hanging forever behind a closure parked inside a transaction.
    ///
    /// A timeout bounds *this wait only*: the ticket stays pending (the
    /// grace period is still owed) and may be re-waited, polled, or given a
    /// callback. Dropping a timed-out ticket still blocks until the period
    /// elapses — a requested fence is never silently lost; hand it to
    /// [`Self::on_complete`] to walk away without blocking. On success,
    /// returns the time spent blocked, like [`Self::wait`].
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Duration, FenceTimeout> {
        self.wait_timeout_as(timeout, None)
    }

    /// [`Self::wait_timeout`] on behalf of the handle that owns thread slot
    /// `joiner` ([`StmHandle::fence_join_timeout`]).
    pub(crate) fn wait_timeout_as(
        &mut self,
        timeout: Duration,
        joiner: Option<u16>,
    ) -> Result<Duration, FenceTimeout> {
        if self.resolved {
            return Ok(Duration::ZERO);
        }
        let start = Instant::now();
        if let Some(g) = &self.grace {
            if let Err(e) = g.wait_timeout_as(timeout, joiner) {
                return Err(FenceTimeout {
                    period: e.period,
                    waited: start.elapsed(),
                    stalled: e.stalled,
                });
            }
        }
        let end = Instant::now();
        self.resolve(Some(end), joiner);
        Ok(end.duration_since(start))
    }

    /// Run `f` when the fence resolves: immediately (on this thread) if it
    /// already has, otherwise on whichever thread completes the grace
    /// period. The `FEnd` is recorded just before `f` runs (from the
    /// completing thread — see the module docs on cross-thread recording).
    ///
    /// This consumes the ticket, so nobody is left to drive the engine:
    /// under cooperative driving the callback fires only when later
    /// traffic drives the period home; under
    /// [`DriverMode::Background`](crate::runtime::DriverMode) it fires
    /// within bounded time with zero pollers.
    pub fn on_complete(mut self, f: impl FnOnce() + Send + 'static) {
        let grace = self.grace.take();
        let rec = self.rec.take();
        let tel_slot = self.tel_slot.take();
        self.resolved = true; // disarm the blocking drop
        match grace {
            None => f(),
            Some(g) => {
                let period = g.period();
                let tel = tel_slot.zip(g.engine().telemetry().cloned());
                g.on_complete(move || {
                    if let Some((r, slot)) = rec {
                        r.record(slot, Kind::FEnd);
                    }
                    if let Some((slot, t)) = tel {
                        let retire = EventKind::FenceRetire { period };
                        t.record_foreign_event_at(slot, Instant::now(), retire);
                    }
                    f();
                });
            }
        }
    }

    /// Mark the fence resolved — as observed by the clock read `at`, when
    /// the caller has one — and emit its `FEnd` and `fence-retire`. The
    /// trace event goes to the issuing slot's own telemetry cell only when
    /// the handle owning that slot is the one resolving (`joiner`); a
    /// ticket polled, waited or dropped on its own may be on any thread, so
    /// its event goes through the engine cell.
    fn resolve(&mut self, at: Option<Instant>, joiner: Option<u16>) {
        self.resolved = true;
        if let Some((r, slot)) = self.rec.take() {
            r.record(slot, Kind::FEnd);
        }
        if let (Some(slot), Some(g)) = (self.tel_slot.take(), &self.grace) {
            let Some(t) = g.engine().telemetry() else {
                return;
            };
            let retire = EventKind::FenceRetire { period: g.period() };
            let at = at.unwrap_or_else(Instant::now);
            if joiner == Some(slot) {
                t.record_event_at(slot, at, retire);
            } else {
                t.record_foreign_event_at(slot, at, retire);
            }
        }
    }
}

/// A bounded fence wait ([`FenceTicket::wait_timeout`] /
/// [`StmHandle::fence_join_timeout`]) expired before its grace period
/// completed. Names the offenders when the stall detector has them: an
/// empty `stalled` means the wait was simply shorter than an honest scan
/// (or the [stall threshold](tm_quiesce::GraceEngine::set_stall_threshold)
/// has not elapsed yet); a non-empty one names epoch slots pinned past the
/// threshold — threads parked (or dead) inside a transaction.
#[derive(Clone, Debug)]
pub struct FenceTimeout {
    /// The grace period still outstanding.
    pub period: u64,
    /// How long this wait blocked before giving up.
    pub waited: Duration,
    /// Epoch slots pinned past the stall threshold at timeout.
    pub stalled: Vec<StallInfo>,
}

impl std::fmt::Display for FenceTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fence (grace period {}) incomplete after {:?}",
            self.period, self.waited
        )?;
        if !self.stalled.is_empty() {
            let slots: Vec<String> = self
                .stalled
                .iter()
                .map(|s| format!("{} (pinned {:?})", s.slot, s.pinned))
                .collect();
            write!(f, "; stalled slots: {}", slots.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for FenceTimeout {}

impl Drop for FenceTicket {
    /// A requested fence is never lost: dropping an unresolved ticket waits
    /// the grace period out (and records the `FEnd`).
    fn drop(&mut self) {
        if !self.resolved {
            let _ = self.wait();
        }
    }
}

/// Fence a batch of handles behind (at most) one grace period: issue every
/// ticket first — they all land in the same open period unless a scan
/// intervenes — then wait them out. N privatizing handles pay one
/// epoch-table scan instead of N full grace periods.
///
/// Blocked time is charged to each handle's [`crate::api::Stats`] as with
/// [`StmHandle::fence_join`]; in the batched case the first join does the
/// waiting and the rest observe completion.
pub fn fence_all<'a, H, I>(handles: I)
where
    H: StmHandle + 'a,
    I: IntoIterator<Item = &'a mut H>,
{
    let mut handles: Vec<&'a mut H> = handles.into_iter().collect();
    let tickets: Vec<FenceTicket> = handles.iter_mut().map(|h| h.fence_async()).collect();
    for (h, t) in handles.iter_mut().zip(tickets) {
        h.fence_join(t);
    }
}
