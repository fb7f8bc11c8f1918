//! Pluggable global version clocks for timestamp-based STMs.
//!
//! TL2 (paper Fig 9) stamps every writing commit from one global version
//! clock. *How* that clock hands out stamps is an implementation axis the
//! paper's correctness argument never depends on — the recorded TM-interface
//! actions are identical — but it is the canonical scalability wall of
//! timestamp STMs: with the textbook `fetch_add` clock, every writing commit
//! in the whole system serializes on a single contended cache line. The
//! three backends here are the classic ladder out of that wall (the GV1/
//! GV4/GV5 schemes of the original TL2 implementation, plus the TL2C-style
//! slot-local refinement):
//!
//! * [`Gv1Clock`] — `fetch_add(1)` per writing commit. One shared-line RMW
//!   per commit, globally unique stamps, and the strongest fast-path
//!   information (an exclusive `rv → rv+1` bump proves no concurrent commit
//!   slipped in, enabling validation elision).
//! * [`Gv4Clock`] — CAS-with-adopt: try `CAS(g, g+1)` once; a *losing* CAS
//!   adopts the winner's value as its own write stamp instead of retrying.
//!   N contended committers perform one shared-line write between them, and
//!   sharing a stamp is sound because both hold (necessarily disjoint)
//!   write-set locks while committing, and any reader with `rv <` the
//!   shared stamp aborts on either.
//! * [`Gv5Clock`] — TL2C-style slot-local deltas: a committer stamps
//!   `max(global, last-own-stamp) + 1` *without writing the shared line at
//!   all*. Readers pay instead: a reader whose `rv` trails a fresh stamp
//!   takes one false abort, and [`VersionClock::refresh`] then advances the
//!   global clock to the observed stamp so the retry validates — at most
//!   one extra false abort per unlucky reader per stamp, zero shared-line
//!   traffic on a disjoint-write workload.
//!
//! # Why GV5 is sound without per-commit bumps
//!
//! The TL2 validation check is `rv < version → abort`. Soundness needs every
//! stamp installed *after* a reader fixed its `rv` to be `> rv`, so the
//! reader can never validate data that changed under it. Any reader's `rv`
//! is a past load of the global clock, which is monotone, so `rv ≤ global`
//! always; a GV5 stamp is `max(global, own-last) + 1 ≥ global + 1 > rv`.
//! Stamp *values* may repeat across slots (and per-orec versions need not be
//! monotone), but a repeated value can only be re-installed while it is
//! still `> global ≥` every live `rv` — no reader can validate it, so the
//! ABA window is unobservable. The privatization/fence machinery never reads
//! the clock at all, so every backend is fence- and checker-agnostic.

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tm_quiesce::{GraceEngine, GraceTicket};
use tm_telemetry::{EventKind, Telemetry};

/// Clock-backend selection for timestamp-based policies, used by
/// [`crate::runtime::StmConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ClockKind {
    /// `fetch_add` per writing commit (the TL2 baseline).
    #[default]
    Gv1,
    /// CAS-with-adopt: a losing CAS adopts the winner's stamp.
    Gv4,
    /// Slot-local deltas: commits never write the shared line; trailing
    /// readers refresh it on their (single) false abort.
    Gv5,
    /// Governor-switchable GV1 ↔ GV5: starts in the GV1 discipline and lets
    /// the contention governor hand off between disciplines online through
    /// a grace-fenced transition (see [`AutoClock`]). Selecting this kind
    /// is what arms the governor in TL2 instances.
    Auto,
}

impl ClockKind {
    /// Every *static* clock backend, for matrix tests and benches. `Auto`
    /// is deliberately excluded: its discipline is workload-dependent, so
    /// it has its own governor bench rather than a row in the static
    /// clock matrices.
    pub const ALL: [ClockKind; 3] = [ClockKind::Gv1, ClockKind::Gv4, ClockKind::Gv5];

    /// Human-readable backend label (bench/report key).
    pub fn label(self) -> &'static str {
        match self {
            ClockKind::Gv1 => "gv1",
            ClockKind::Gv4 => "gv4",
            ClockKind::Gv5 => "gv5",
            ClockKind::Auto => "auto",
        }
    }

    /// Build the clock for an instance of `nthreads` thread slots.
    pub fn build(self, nthreads: usize) -> AnyClock {
        match self {
            ClockKind::Gv1 => AnyClock::Gv1(Gv1Clock::new()),
            ClockKind::Gv4 => AnyClock::Gv4(Gv4Clock::new()),
            ClockKind::Gv5 => AnyClock::Gv5(Gv5Clock::new(nthreads)),
            ClockKind::Auto => AnyClock::Auto(AutoClock::new(nthreads)),
        }
    }
}

/// What one commit-time stamp acquisition produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteStamp {
    /// The write version to install in the orecs.
    pub wver: u64,
    /// Did acquiring this stamp write the shared clock line? (The counter
    /// behind [`crate::api::Stats::clock_bumps`].)
    pub bumped: bool,
    /// Did this thread *exclusively* advance the clock `rv → rv + 1`?
    /// If so, no other writer entered its commit bump between this
    /// transaction's begin and now — under GV1/GV4 every writing commit
    /// either bumps the clock or adopts a value some concurrent CAS
    /// installed *after* `rv`, so an untouched clock interval proves the
    /// read set is still the one validated at read time, and commit-time
    /// re-validation can be elided. GV5 never bumps, so it never proves
    /// exclusivity.
    pub exclusive: bool,
}

/// A global version clock: the timebase of a timestamp-based [`crate::runtime::Policy`].
///
/// Implementations must keep the *read* view monotone (`read_stamp` values
/// never decrease) and must hand out write stamps strictly greater than any
/// `read_stamp` value returned before the corresponding `write_stamp` call —
/// that is the whole TL2 safety obligation (see module docs).
pub trait VersionClock: Send + Sync + 'static {
    /// The read timestamp `rv` for a beginning transaction.
    fn read_stamp(&self) -> u64;

    /// Acquire the write stamp for a committing transaction on thread slot
    /// `slot` whose read timestamp was `rv`. Called *after* the write-set
    /// locks are held (the exclusivity proof in [`WriteStamp`] relies on
    /// this ordering).
    fn write_stamp(&self, slot: u16, rv: u64) -> WriteStamp;

    /// A reader observed an orec stamped `observed > rv`. Advance the
    /// global view so the retry's `rv` covers it; returns `true` if the
    /// shared line was actually written. GV1/GV4 stamps never outrun the
    /// clock, so only GV5 does real work here.
    fn refresh(&self, observed: u64) -> bool;
}

/// Closed union of the built-in clocks, same inlining pattern as
/// [`crate::storage::AnyLockTable`]: stamp acquisition sits on the commit
/// hot path and read-stamp sampling on the begin path, so this is a
/// three-arm match that inlines, not virtual dispatch.
pub enum AnyClock {
    /// The `fetch_add` baseline.
    Gv1(Gv1Clock),
    /// CAS-with-adopt.
    Gv4(Gv4Clock),
    /// Slot-local deltas.
    Gv5(Gv5Clock),
    /// Governor-switchable GV1 ↔ GV5.
    Auto(AutoClock),
}

macro_rules! delegate {
    ($self:ident, $c:ident => $e:expr) => {
        match $self {
            AnyClock::Gv1($c) => $e,
            AnyClock::Gv4($c) => $e,
            AnyClock::Gv5($c) => $e,
            AnyClock::Auto($c) => $e,
        }
    };
}

impl VersionClock for AnyClock {
    #[inline]
    fn read_stamp(&self) -> u64 {
        delegate!(self, c => c.read_stamp())
    }

    #[inline]
    fn write_stamp(&self, slot: u16, rv: u64) -> WriteStamp {
        delegate!(self, c => c.write_stamp(slot, rv))
    }

    #[inline]
    fn refresh(&self, observed: u64) -> bool {
        delegate!(self, c => c.refresh(observed))
    }
}

/// GV1: one `fetch_add` per writing commit (paper Fig 7 line 19).
pub struct Gv1Clock {
    global: CachePadded<AtomicU64>,
}

impl Gv1Clock {
    /// A clock at stamp 0.
    pub fn new() -> Self {
        Gv1Clock {
            global: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

impl Default for Gv1Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionClock for Gv1Clock {
    #[inline]
    fn read_stamp(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    #[inline]
    fn write_stamp(&self, _slot: u16, rv: u64) -> WriteStamp {
        let old = self.global.fetch_add(1, Ordering::SeqCst);
        WriteStamp {
            wver: old + 1,
            bumped: true,
            exclusive: old == rv,
        }
    }

    fn refresh(&self, _observed: u64) -> bool {
        // Stamps never exceed the clock: nothing to catch up to.
        false
    }
}

/// GV4: CAS-with-adopt. One CAS attempt; the loser adopts the value the
/// winner installed (which is `> rv` for every concurrently live `rv`, so
/// it is a valid stamp) instead of retrying — N contended bumps collapse
/// into one shared-line write.
pub struct Gv4Clock {
    global: CachePadded<AtomicU64>,
}

impl Gv4Clock {
    /// A clock at stamp 0.
    pub fn new() -> Self {
        Gv4Clock {
            global: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

impl Default for Gv4Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionClock for Gv4Clock {
    #[inline]
    fn read_stamp(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    #[inline]
    fn write_stamp(&self, _slot: u16, rv: u64) -> WriteStamp {
        let old = self.global.load(Ordering::SeqCst);
        match self
            .global
            .compare_exchange(old, old + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => WriteStamp {
                wver: old + 1,
                bumped: true,
                exclusive: old == rv,
            },
            // The CAS lost: the clock moved past `old`, so its current
            // value is a stamp some other commit just installed — adopt it.
            // (`now > old ≥ rv`, so it is still a valid stamp for us; see
            // module docs for why sharing it is sound.)
            Err(now) => WriteStamp {
                wver: now,
                bumped: false,
                exclusive: false,
            },
        }
    }

    fn refresh(&self, _observed: u64) -> bool {
        false
    }
}

/// GV5/TL2C-style: commits stamp `max(global, own-last-stamp) + 1` from a
/// slot-local (cache-padded) register and never write the shared line. The
/// global clock advances only when a trailing reader hits the resulting
/// false abort and [`VersionClock::refresh`]es it forward.
pub struct Gv5Clock {
    global: CachePadded<AtomicU64>,
    /// Last stamp each slot issued. Only its own slot writes an entry, so
    /// the load in `write_stamp` races with nothing.
    locals: Box<[CachePadded<AtomicU64>]>,
}

impl Gv5Clock {
    /// A clock at stamp 0 with one local-delta slot per thread.
    pub fn new(nthreads: usize) -> Self {
        Gv5Clock {
            global: CachePadded::new(AtomicU64::new(0)),
            locals: (0..nthreads.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }
}

impl VersionClock for Gv5Clock {
    #[inline]
    fn read_stamp(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    #[inline]
    fn write_stamp(&self, slot: u16, _rv: u64) -> WriteStamp {
        let local = &self.locals[usize::from(slot)];
        let prev = local.load(Ordering::Relaxed);
        let wver = self.global.load(Ordering::SeqCst).max(prev) + 1;
        local.store(wver, Ordering::Relaxed);
        WriteStamp {
            wver,
            bumped: false,
            exclusive: false,
        }
    }

    fn refresh(&self, observed: u64) -> bool {
        // fetch_max keeps the global view monotone under concurrent
        // refreshes; only a strict advance counts as a shared-line bump.
        self.global.fetch_max(observed, Ordering::SeqCst) < observed
    }
}

/// The stamping discipline an [`AutoClock`] is currently running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoMode {
    /// `fetch_add` per writing commit (read-mostly workloads: bumps are
    /// rare and the exclusive-bump elision fast path stays armed).
    Gv1,
    /// Slot-local deltas (write-heavy workloads: zero shared-line writes
    /// per commit, trailing readers pay the refresh instead).
    Gv5,
}

impl AutoMode {
    /// Bench/report key for the discipline.
    pub fn label(self) -> &'static str {
        match self {
            AutoMode::Gv1 => "gv1",
            AutoMode::Gv5 => "gv5",
        }
    }
}

const MODE_GV1: u64 = 0;
const MODE_GV5: u64 = 1;

/// Shared handoff state for an in-flight discipline switch: `settled`
/// gates the GV1 exclusivity fast path, `pending` is the grace ticket the
/// switch is fenced by (polled from transaction begins for cooperative
/// liveness, completed by whichever thread drives the period home).
struct Handoff {
    settled: AtomicBool,
    pending: Mutex<Option<GraceTicket>>,
}

/// Governor-switchable version clock: one monotone global line that can be
/// stamped under either the GV1 (`fetch_add`) or the GV5 (slot-local
/// delta) discipline, switched online by the contention governor.
///
/// # Why mixing disciplines over one line is sound
///
/// Both disciplines uphold the module-level obligation against the *same*
/// global register: a GV1 stamp is `fetch_add → old + 1 > global ≥ rv`,
/// and a GV5 stamp is `max(global, own-last) + 1 ≥ global + 1 > rv`, for
/// every `rv` issued before the stamp (reads always load this one global,
/// which only ever moves forward via `fetch_add`/`fetch_max`). So *any*
/// interleaving of the two disciplines — including the handoff window
/// where in-flight committers still stamp under the old mode — hands out
/// write stamps strictly above every previously issued read stamp. No
/// live `rv` can observe a regression, by construction.
///
/// What is **not** sound across a handoff is the GV1 exclusivity proof:
/// `old == rv` only proves "no concurrent commit" if every concurrent
/// writer bumps the line, which a straggler still stamping under GV5 does
/// not. The switch therefore publishes the new mode, raises the global
/// above the old discipline's ceiling (the max of the slot-local stamps,
/// so the new regime starts strictly above every stamp the old one
/// issued), and issues a grace ticket; until that period retires — i.e.
/// until every transaction that could have pinned the old mode has
/// finished — [`WriteStamp::exclusive`] is suppressed. Only the fast path
/// waits on the fence, never correctness.
pub struct AutoClock {
    global: CachePadded<AtomicU64>,
    /// Last stamp each slot issued under the GV5 discipline (the old
    /// discipline's ceiling when switching back to GV1).
    locals: Box<[CachePadded<AtomicU64>]>,
    /// Current discipline (`MODE_GV1` / `MODE_GV5`).
    mode: CachePadded<AtomicU64>,
    handoff: Arc<Handoff>,
    switches: AtomicU64,
    /// Late-attached telemetry hub: handoff settlements emit a
    /// `clock-switch-settle` trace event when present.
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl AutoClock {
    /// A clock at stamp 0, starting in the GV1 discipline.
    pub fn new(nthreads: usize) -> Self {
        AutoClock {
            global: CachePadded::new(AtomicU64::new(0)),
            locals: (0..nthreads.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            mode: CachePadded::new(AtomicU64::new(MODE_GV1)),
            handoff: Arc::new(Handoff {
                settled: AtomicBool::new(true),
                pending: Mutex::new(None),
            }),
            switches: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        }
    }

    /// Attach the runtime's telemetry hub (once; later calls are no-ops).
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// The discipline stamps are currently drawn under.
    pub fn mode(&self) -> AutoMode {
        if self.mode.load(Ordering::SeqCst) == MODE_GV1 {
            AutoMode::Gv1
        } else {
            AutoMode::Gv5
        }
    }

    /// Completed discipline switches since construction.
    pub fn switches(&self) -> u64 {
        self.switches.load(Ordering::SeqCst)
    }

    /// Has the last switch's grace period retired? While `false`, the GV1
    /// exclusivity fast path stays suppressed.
    pub fn settled(&self) -> bool {
        self.handoff.settled.load(Ordering::SeqCst)
    }

    /// Request a switch to discipline `want`, fenced by `engine`. Returns
    /// `true` if this call published the switch; `false` if the clock is
    /// already in (or still settling into) some mode — at most one handoff
    /// is in flight at a time, so a raced governor fold simply retries at
    /// its next window boundary.
    pub fn request(&self, want: AutoMode, engine: &Arc<GraceEngine>) -> bool {
        // Claim the (single) handoff slot before touching anything else.
        if self
            .handoff
            .settled
            .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        if self.mode() == want {
            self.handoff.settled.store(true, Ordering::SeqCst);
            return false;
        }
        if want == AutoMode::Gv1 {
            // Leaving GV5: raise the global above every slot-local stamp so
            // the fetch_add regime resumes strictly above the old ceiling.
            // A straggler still stamping under GV5 can exceed this snapshot;
            // that only delays elision re-arming (see type docs), never
            // stamp ordering.
            let ceiling = self
                .locals
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            self.global.fetch_max(ceiling, Ordering::SeqCst);
        }
        self.mode.store(
            match want {
                AutoMode::Gv1 => MODE_GV1,
                AutoMode::Gv5 => MODE_GV5,
            },
            Ordering::SeqCst,
        );
        self.switches.fetch_add(1, Ordering::SeqCst);
        let ticket = engine.issue();
        *self.handoff.pending.lock().unwrap() = Some(ticket.clone());
        // Registered after the pending slot is filled and its lock dropped:
        // the callback (run by whichever thread completes the period) takes
        // the same lock.
        let handoff = Arc::clone(&self.handoff);
        let tel = self.telemetry.get().filter(|t| t.enabled()).cloned();
        ticket.on_complete(move || {
            handoff.settled.store(true, Ordering::SeqCst);
            handoff.pending.lock().unwrap().take();
            if let Some(t) = tel {
                t.record_engine_event(EventKind::ClockSwitchSettle {
                    to_gv5: want == AutoMode::Gv5,
                });
            }
        });
        true
    }

    /// Give the pending handoff (if any) a non-blocking push — called from
    /// transaction begins so cooperative-mode instances settle without a
    /// background driver. `try_lock` keeps concurrent begins from piling up
    /// on the slot.
    pub fn poll_settle(&self) {
        if self.handoff.settled.load(Ordering::SeqCst) {
            return;
        }
        let ticket = match self.handoff.pending.try_lock() {
            Ok(guard) => guard.clone(),
            Err(_) => return,
        };
        if let Some(t) = ticket {
            t.poll();
        }
    }
}

impl VersionClock for AutoClock {
    #[inline]
    fn read_stamp(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    #[inline]
    fn write_stamp(&self, slot: u16, rv: u64) -> WriteStamp {
        match self.mode.load(Ordering::SeqCst) {
            MODE_GV1 => {
                let old = self.global.fetch_add(1, Ordering::SeqCst);
                WriteStamp {
                    wver: old + 1,
                    bumped: true,
                    // Exclusivity is only provable once the last handoff's
                    // grace period retired (no straggler can still stamp
                    // without bumping the line).
                    exclusive: old == rv && self.handoff.settled.load(Ordering::SeqCst),
                }
            }
            _ => {
                let local = &self.locals[usize::from(slot)];
                let prev = local.load(Ordering::Relaxed);
                let wver = self.global.load(Ordering::SeqCst).max(prev) + 1;
                local.store(wver, Ordering::Relaxed);
                WriteStamp {
                    wver,
                    bumped: false,
                    exclusive: false,
                }
            }
        }
    }

    fn refresh(&self, observed: u64) -> bool {
        // Under GV1 stamps never outrun the global, so this is a no-op
        // there; under GV5 (and across a GV5 → GV1 handoff window, where
        // orecs may still hold straggler stamps above the global) it
        // advances the reader view exactly like `Gv5Clock`.
        self.global.fetch_max(observed, Ordering::SeqCst) < observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_and_label() {
        for kind in ClockKind::ALL {
            let clock = kind.build(4);
            assert_eq!(clock.read_stamp(), 0, "{}", kind.label());
        }
        assert_eq!(ClockKind::default(), ClockKind::Gv1);
        assert_eq!(ClockKind::Gv1.label(), "gv1");
        assert_eq!(ClockKind::Gv4.label(), "gv4");
        assert_eq!(ClockKind::Gv5.label(), "gv5");
    }

    #[test]
    fn gv1_bumps_every_stamp_and_detects_exclusivity() {
        let c = Gv1Clock::new();
        let rv = c.read_stamp();
        let s = c.write_stamp(0, rv);
        assert_eq!(
            s,
            WriteStamp {
                wver: 1,
                bumped: true,
                exclusive: true
            }
        );
        // A second commit with the same (now stale) rv is not exclusive.
        let s2 = c.write_stamp(1, rv);
        assert_eq!(s2.wver, 2);
        assert!(s2.bumped && !s2.exclusive);
        assert!(!c.refresh(100), "gv1 refresh is a no-op");
        assert_eq!(c.read_stamp(), 2);
    }

    #[test]
    fn gv4_uncontended_behaves_like_gv1() {
        let c = Gv4Clock::new();
        let rv = c.read_stamp();
        let s = c.write_stamp(0, rv);
        assert_eq!(
            s,
            WriteStamp {
                wver: 1,
                bumped: true,
                exclusive: true
            }
        );
        let s2 = c.write_stamp(1, rv);
        assert!(
            s2.bumped && !s2.exclusive,
            "stale rv must not claim elision"
        );
        assert_eq!(s2.wver, 2);
    }

    #[test]
    fn gv4_contended_stamps_stay_valid() {
        // Hammer the clock from several threads: every stamp must exceed
        // the rv its thread started from (the safety obligation), and the
        // total number of bumps must not exceed the number of stamps.
        use std::sync::atomic::AtomicU64 as Counter;
        let c = std::sync::Arc::new(Gv4Clock::new());
        let bumps = Counter::new(0);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let c = std::sync::Arc::clone(&c);
                let bumps = &bumps;
                s.spawn(move || {
                    for _ in 0..1000 {
                        let rv = c.read_stamp();
                        let st = c.write_stamp(t, rv);
                        assert!(st.wver > rv, "stamp {} must exceed rv {}", st.wver, rv);
                        if st.bumped {
                            bumps.fetch_add(1, Ordering::Relaxed);
                        }
                        if st.exclusive {
                            assert_eq!(st.wver, rv + 1);
                        }
                    }
                });
            }
        });
        assert!(bumps.load(Ordering::Relaxed) <= 4000);
        assert_eq!(
            c.read_stamp(),
            bumps.load(Ordering::Relaxed),
            "the clock advances exactly once per successful CAS"
        );
    }

    #[test]
    fn gv5_commits_never_touch_the_shared_line() {
        let c = Gv5Clock::new(2);
        let rv = c.read_stamp();
        for i in 1..=5 {
            let s = c.write_stamp(0, rv);
            assert_eq!(s.wver, i, "slot-local delta advances per commit");
            assert!(!s.bumped && !s.exclusive);
        }
        assert_eq!(c.read_stamp(), 0, "the global clock never moved");
        // A second slot starts from the (still unmoved) global view: its
        // stamps may collide with slot 0's — sound, see module docs.
        assert_eq!(c.write_stamp(1, rv).wver, 1);
    }

    #[test]
    fn gv5_refresh_advances_reader_view_once() {
        let c = Gv5Clock::new(1);
        for _ in 0..3 {
            c.write_stamp(0, 0);
        }
        // A reader trailing at rv = 0 observes version 3, refreshes, and
        // its retry validates (rv ≥ observed): one false abort, not a loop.
        assert_eq!(c.read_stamp(), 0);
        assert!(c.refresh(3), "a strict advance is a shared-line write");
        assert_eq!(c.read_stamp(), 3);
        assert!(!c.refresh(2), "stale refreshes don't write");
        assert_eq!(c.read_stamp(), 3);
        // The next stamp clears the refreshed view.
        assert_eq!(c.write_stamp(0, 3).wver, 4);
    }

    #[test]
    fn auto_starts_as_gv1_and_labels() {
        let c = AutoClock::new(2);
        assert_eq!(c.mode(), AutoMode::Gv1);
        assert_eq!(c.mode().label(), "gv1");
        assert_eq!(AutoMode::Gv5.label(), "gv5");
        assert_eq!(ClockKind::Auto.label(), "auto");
        assert!(c.settled());
        assert_eq!(c.switches(), 0);
        let rv = c.read_stamp();
        let s = c.write_stamp(0, rv);
        assert_eq!(
            s,
            WriteStamp {
                wver: 1,
                bumped: true,
                exclusive: true
            },
            "settled GV1 discipline behaves exactly like Gv1Clock"
        );
    }

    #[test]
    fn auto_handoff_is_fenced_and_suppresses_elision_until_settled() {
        let engine = GraceEngine::new(2);
        let c = AutoClock::new(2);
        assert!(c.request(AutoMode::Gv5, &engine), "first switch publishes");
        assert_eq!(c.mode(), AutoMode::Gv5);
        assert_eq!(c.switches(), 1);
        assert!(!c.settled(), "the handoff period has not retired yet");
        assert!(
            !c.request(AutoMode::Gv1, &engine),
            "at most one handoff in flight"
        );
        // GV5 stamps never touch the shared line or claim exclusivity.
        let s = c.write_stamp(0, 0);
        assert!(!s.bumped && !s.exclusive);
        // No epoch is active, so a single poll drives the period home and
        // the completion callback re-arms the fast path.
        c.poll_settle();
        assert!(c.settled());
        assert!(c.request(AutoMode::Gv1, &engine), "settled: switch back");
        assert_eq!(c.switches(), 2);
        assert!(
            !c.write_stamp(0, c.read_stamp()).exclusive,
            "GV1 elision stays suppressed until the return handoff settles"
        );
        c.poll_settle();
        assert!(c.settled());
        let rv = c.read_stamp();
        assert!(c.write_stamp(0, rv).exclusive);
        assert!(
            !c.request(AutoMode::Gv1, &engine),
            "no-op requests do not burn the handoff slot"
        );
        assert!(c.settled() && c.switches() == 2);
    }

    #[test]
    fn auto_gv1_resumes_above_the_gv5_ceiling() {
        let engine = GraceEngine::new(1);
        let c = AutoClock::new(2);
        assert!(c.request(AutoMode::Gv5, &engine));
        c.poll_settle();
        // Slot-local stamps run ahead of the (unmoved) global.
        let mut top = 0;
        for _ in 0..5 {
            top = c.write_stamp(1, 0).wver;
        }
        assert_eq!(top, 5);
        assert_eq!(c.read_stamp(), 0, "GV5 commits never moved the global");
        assert!(c.request(AutoMode::Gv1, &engine));
        assert!(
            c.read_stamp() >= top,
            "switching back raises the global above the old ceiling"
        );
        let rv = c.read_stamp();
        let s = c.write_stamp(0, rv);
        assert!(s.wver > top, "new-regime stamps sit strictly above it");
    }

    #[test]
    fn auto_mixed_disciplines_uphold_stamp_ordering() {
        // Hammer the clock from 4 slots while a fifth thread keeps
        // switching disciplines: every stamp must still exceed the rv its
        // thread started from, even mid-handoff.
        let engine = GraceEngine::new(4);
        let c = std::sync::Arc::new(AutoClock::new(4));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let stampers: Vec<_> = (0..4u16)
                .map(|t| {
                    let c = std::sync::Arc::clone(&c);
                    s.spawn(move || {
                        for _ in 0..2000 {
                            let rv = c.read_stamp();
                            let st = c.write_stamp(t, rv);
                            assert!(st.wver > rv, "wver {} ≤ rv {}", st.wver, rv);
                            if st.exclusive {
                                assert_eq!(st.wver, rv + 1);
                            }
                        }
                    })
                })
                .collect();
            {
                let c = std::sync::Arc::clone(&c);
                let stop = &stop;
                let engine = std::sync::Arc::clone(&engine);
                s.spawn(move || {
                    let mut want = AutoMode::Gv5;
                    // Request before checking `stop`: on a loaded box the
                    // stampers can finish before this thread first runs.
                    loop {
                        if c.request(want, &engine) {
                            want = match want {
                                AutoMode::Gv1 => AutoMode::Gv5,
                                AutoMode::Gv5 => AutoMode::Gv1,
                            };
                        }
                        c.poll_settle();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            for h in stampers {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(c.switches() >= 1, "the toggler switched at least once");
    }

    #[test]
    fn every_backend_upholds_the_stamp_ordering_obligation() {
        // The one invariant TL2 needs from any clock: a write stamp is
        // strictly greater than every read stamp handed out before it.
        for kind in ClockKind::ALL {
            let clock = std::sync::Arc::new(kind.build(4));
            std::thread::scope(|s| {
                for t in 0..4u16 {
                    let clock = std::sync::Arc::clone(&clock);
                    s.spawn(move || {
                        for _ in 0..500 {
                            let rv = clock.read_stamp();
                            let st = clock.write_stamp(t, rv);
                            assert!(
                                st.wver > rv,
                                "{}: wver {} ≤ rv {}",
                                kind.label(),
                                st.wver,
                                rv
                            );
                        }
                    });
                }
            });
        }
    }
}
