//! # tm-quiesce — RCU-style quiescence for transactional fences
//!
//! A transactional fence (paper Sec 1, Fig 7 lines 33–39) blocks until every
//! transaction that was active when the fence was invoked has completed. This
//! is exactly an RCU grace period: transactions are read-side critical
//! sections, the fence is `synchronize_rcu`.
//!
//! Three layers are provided:
//!
//! * [`EpochTable`] — per-thread *epoch counters* (even = quiescent, odd =
//!   active). A fence snapshots the counters and waits until every
//!   odd-snapshot counter has moved. Precise: a thread that retires one
//!   transaction and immediately starts another does not re-capture the
//!   fence, so fences terminate even under continuous transaction traffic.
//! * [`GraceEngine`] — an asynchronous, *batched* grace-period engine over
//!   an [`EpochTable`]: callers obtain a [`GraceTicket`] instead of
//!   blocking, and every ticket issued during the same open period is
//!   resolved by one shared scan of the epoch table — the `call_rcu` to
//!   [`EpochTable::wait_quiescent`]'s `synchronize_rcu`. The engine is
//!   also an *epoch-based reclamation* facility:
//!   [`GraceEngine::defer_drop`] (one allocation) and
//!   [`GraceEngine::defer_drop_batch`] (one entry standing for `n` cells)
//!   retire garbage under the open period, and the completing scan drops
//!   every retirement whose period has elapsed (the `kfree_rcu` to
//!   `issue`'s `call_rcu`). Anything still retired when the engine itself
//!   drops is freed then — exactly once in every configuration.
//!
//!   A blocking [`GraceTicket::wait`] costs one held scan per join: the
//!   waiter that wins the scan lock keeps it until one scan is home — the
//!   one in progress, or one it opens for the open period — re-checking
//!   the snapshot's active slots with a yield between re-checks. It then
//!   releases the lock, runs the completed period's callbacks and
//!   collection, and if that was an older period goes straight back for
//!   the lock to open its own. Waiters that find the lock busy poll
//!   `completed` and yield; none of them sleeps on a futex. Scans stay
//!   serialized behind that one lock.
//! * [`GraceDriver`] — an *optional* background thread that retires grace
//!   periods with **zero** pollers or waiters. Without a driver the engine
//!   advances only cooperatively, so a fire-and-forget
//!   [`GraceTicket::on_complete`] callback fires only when some later
//!   caller happens to drive the engine — possibly never. The driver closes
//!   that liveness hole: it parks until [`GraceEngine::issue`] (or a
//!   callback registration) wakes it, then drives until nothing is
//!   [pending](GraceEngine::has_pending). The engine stays fully functional
//!   thread-free when no driver is attached. When idle, the driver's
//!   fallback tick backs off adaptively (up to
//!   [`GraceDriver::MAX_IDLE_TICK`]) so a quiet runtime costs almost
//!   nothing; explicit wakeups are never delayed.
//!
//! # Example
//!
//! ```
//! use tm_quiesce::GraceEngine;
//!
//! let engine = GraceEngine::new(2); // two thread slots
//! engine.epochs().enter(0);         // slot 0 opens a critical section
//! let ticket = engine.issue();      // request a grace period: no blocking
//! assert!(!ticket.poll(), "slot 0 is still inside its critical section");
//! engine.epochs().exit(0);
//! ticket.wait();                    // now elapses (one epoch-table scan)
//! assert!(engine.is_complete(ticket.period()));
//! ```

#![warn(missing_docs)]

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use tm_chaos::{Chaos, Site};
use tm_telemetry::{EventKind, Telemetry};

/// Per-thread epoch counters. Even values mean the slot is quiescent, odd
/// values mean a critical section (transaction) is in progress.
///
/// Counters rather than the paper's Fig 7 Boolean `active[t]` flags: under
/// continuous traffic a flag-based fence may over-wait, because a freshly
/// started transaction makes `active[t]` true again before the fence
/// re-reads it (it still satisfies Def 2.1's fence clause); a counter that
/// moved at all has provably left the snapshotted critical section.
pub struct EpochTable {
    epochs: Box<[CachePadded<AtomicU64>]>,
}

impl EpochTable {
    /// Create a table with `nthreads` slots, all quiescent.
    pub fn new(nthreads: usize) -> Self {
        let epochs = (0..nthreads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EpochTable { epochs }
    }

    /// Number of thread slots in the table.
    pub fn nthreads(&self) -> usize {
        self.epochs.len()
    }

    /// Mark slot `t` active. Must currently be quiescent.
    #[inline]
    pub fn enter(&self, t: usize) {
        let e = self.epochs[t].fetch_add(1, Ordering::SeqCst);
        debug_assert!(e.is_multiple_of(2), "enter() on an already-active slot");
    }

    /// Mark slot `t` quiescent. Must currently be active.
    #[inline]
    pub fn exit(&self, t: usize) {
        let e = self.epochs[t].fetch_add(1, Ordering::SeqCst);
        debug_assert!(e % 2 == 1, "exit() on a quiescent slot");
    }

    /// Is slot `t` currently active?
    #[inline]
    pub fn is_active(&self, t: usize) -> bool {
        self.epochs[t].load(Ordering::SeqCst) % 2 == 1
    }

    /// Current epoch of slot `t`.
    #[inline]
    pub fn epoch(&self, t: usize) -> u64 {
        self.epochs[t].load(Ordering::SeqCst)
    }

    /// Block until every critical section active at the time of the call has
    /// completed (an RCU grace period). `exclude` skips the caller's own
    /// slot, which would otherwise deadlock if called between `enter`/`exit`.
    pub fn wait_quiescent(&self, exclude: Option<usize>) {
        self.wait_quiescent_filtered(exclude, |_| true);
    }

    /// Like [`Self::wait_quiescent`], but only waits for slots accepted by
    /// `wait_for`. Used to model *buggy* fence placements (e.g. skipping
    /// read-only transactions, the GCC libitm bug class reproduced in E14).
    pub fn wait_quiescent_filtered(
        &self,
        exclude: Option<usize>,
        wait_for: impl Fn(usize) -> bool,
    ) {
        // Phase 1 (Fig 7 lines 35–36): snapshot.
        let snap: Vec<u64> = self
            .epochs
            .iter()
            .map(|e| e.load(Ordering::SeqCst))
            .collect();
        // Phase 2 (lines 37–39): wait for every active snapshot to move.
        for (t, &s) in snap.iter().enumerate() {
            if Some(t) == exclude || s % 2 == 0 || !wait_for(t) {
                continue;
            }
            // Yield on every re-check: the slot we are waiting on can only
            // advance if its thread gets scheduled, and on a single-core
            // host a spin-mostly loop (the previous yield-every-64 shape)
            // just burns the waiter's whole quantum against a stale epoch.
            while self.epochs[t].load(Ordering::SeqCst) == s {
                std::thread::yield_now();
            }
        }
    }
}

/// A completion callback registered on a grace period.
type Callback = Box<dyn FnOnce() + Send>;

/// Retired garbage awaiting its grace period: dropping the box is the
/// reclamation.
type Retired = Box<dyn Send>;

/// One entry of the retire list.
struct RetireEntry {
    /// The period that was open at retirement; due once it completes.
    period: u64,
    /// How many cells `garbage` stands for (1 for a plain
    /// [`GraceEngine::defer_drop`]) — the unit every retire counter uses.
    cells: u64,
    /// Held only to be dropped: its drop is the reclamation.
    _garbage: Retired,
}

/// A [`GraceDriver`] tick hook: invoked once per driver wakeup (explicit or
/// fallback tick), outside any engine lock. `Arc`ed so the driver thread
/// can call it without holding the installation mutex.
type TickHook = Arc<dyn Fn() + Send + Sync>;

/// One slot a scan is still waiting on.
struct PendingSlot {
    /// Epoch-table slot index.
    slot: usize,
    /// The slot's (odd) epoch at snapshot time; it has moved once the live
    /// counter differs.
    epoch: u64,
    /// Already named in a [`EventKind::StallReport`] for *this* scan — the
    /// once-per-slot-per-scan dedup.
    reported: bool,
}

/// State of the (at most one) epoch-table scan in progress.
struct ScanState {
    /// Period the scan will complete when `pending` drains; 0 = no scan.
    target: u64,
    /// Slots still awaited: every slot that was active when the scan's
    /// snapshot was taken and has not moved since.
    pending: Vec<PendingSlot>,
    /// When the scan opened (period closed). Always sampled — it feeds both
    /// the grace-duration histogram at completion and the stall detector's
    /// "pinned for how long" arithmetic while the scan is waiting.
    started: Instant,
}

/// The engine's hot words, on one cache line: every fence reads or writes
/// most of them, and four padded lines cost four misses where one does.
/// `open`, `completed` and `scans` are written only under the scan lock.
#[derive(Default)]
struct HotWords {
    /// Period currently accepting tickets. Starts at 1.
    open: AtomicU64,
    /// Highest completed period: every ticket with `period <= completed`
    /// has its grace period elapsed. Starts at 0.
    completed: AtomicU64,
    /// Highest period ever stamped onto an issued ticket (or a
    /// retirement). Together with `completed` this is the engine's
    /// *pending* view: work is outstanding exactly while
    /// `issued > completed` (every callback is registered through an
    /// issued ticket, so tickets subsume callbacks).
    issued: AtomicU64,
    /// Completed epoch-table scans (each scan retires one period, however
    /// many tickets were batched behind it) — the coalescing measurement.
    scans: AtomicU64,
    /// Completion callbacks listed or being registered. A completer skips
    /// the callback mutex while this is 0.
    callbacks: AtomicU64,
    /// Entries on the retire list. A completer skips the retire mutex
    /// while this is 0.
    retired: AtomicU64,
}

/// What the last stall check found, kept beside the scan lock so a bounded
/// wait can name the offenders while another waiter holds the scan.
struct StallView {
    /// The period the stalled scan is retiring; 0 = nothing published.
    period: u64,
    /// When that scan opened.
    started: Instant,
    /// `(slot, epoch at snapshot)` of every slot found pinned; a slot whose
    /// epoch has moved since is no longer stalled.
    slots: Vec<(usize, u64)>,
}

/// One epoch slot the stall detector caught pinned past the threshold while
/// a grace scan was waiting on it — the observable face of a thread parked
/// (or dead, or panicked without unwinding) inside a transaction.
#[derive(Clone, Debug)]
pub struct StallInfo {
    /// The offending epoch-table slot.
    pub slot: usize,
    /// How long the scan had been waiting on it when detected.
    pub pinned: Duration,
    /// The grace period the scan is trying to retire.
    pub period: u64,
}

/// An asynchronous, batched grace-period engine over an [`EpochTable`].
///
/// Grace periods are numbered monotonically. At any moment exactly one
/// period is *open*: [`GraceEngine::issue`] stamps a [`GraceTicket`] with
/// it and returns immediately. The first driver to make progress *closes*
/// the open period (opening the next) and snapshots the epoch table; when
/// every snapshotted-active slot has moved, the period — and every ticket
/// stamped with it or any earlier period — is complete. Coalescing is the
/// point: however many tickets were issued while a period was open, they
/// all resolve on that one scan.
///
/// There is no dedicated grace-period thread. Periods advance
/// *cooperatively*: any caller of [`GraceTicket::poll`] (or
/// [`GraceEngine::drive`] directly) performs one bounded, non-blocking
/// step of the scan, and a [`GraceTicket::wait`] that wins the scan lock
/// drives one scan home in one hold. Waiters yield between re-checks —
/// they never hard-spin — so the engine is safe on a single-core host.
///
/// Completion is a Dekker pair with registration: `on_complete` and
/// `defer_drop_batch` bump their list's count *before* they check
/// `completed` (or stamp the open period), and a completer reads the count
/// *after* it stores `completed`. So a completer that reads 0 skips the
/// list's mutex without stranding an entry that is already due. Under
/// fence-heavy load with little garbage nearly every completion does, and
/// the two mutex round trips it saves are lines shared with every other
/// completer.
///
/// A ticket's quiescence guarantee: every critical section active when
/// `issue` was called has completed by the time the ticket resolves. (The
/// completing scan's snapshot is taken after the ticket's period closes,
/// which is after the issue; waiting for the snapshot's active slots is
/// conservative — it can only over-wait, never under-wait.)
///
/// Callers must not drive a ticket from *inside* a critical section of the
/// epoch table — the scan would wait on the caller's own slot. Fences are
/// issued and awaited outside transactions, so this does not arise in the
/// STM runtime.
pub struct GraceEngine {
    epochs: EpochTable,
    /// Period numbers, scan count and list counts (see [`HotWords`]).
    hot: CachePadded<HotWords>,
    /// Serializes scans. [`Self::drive`] holds it for one bounded step; a
    /// blocking wait holds it until the scan it drives completes.
    scan: Mutex<ScanState>,
    /// Completion callbacks keyed by period, run by the completing driver.
    callbacks: Mutex<Vec<(u64, Callback)>>,
    /// Is a [`GraceDriver`] attached? Gates the wake notification so the
    /// driver-free configuration pays nothing beyond one relaxed load per
    /// issue.
    driver_attached: AtomicBool,
    /// Wake channel for the attached driver. `issue` and `on_complete`
    /// notify under the mutex, the driver re-checks `has_pending` under the
    /// same mutex before sleeping, so wakeups cannot be lost.
    wake: Mutex<()>,
    wake_cv: Condvar,
    /// Optional telemetry sink: set once by the owning runtime. When
    /// present and enabled, every completed scan records its duration into
    /// the grace histogram plus a `GraceScan` flight-recorder event. When
    /// absent, the completion path pays one `OnceLock` load.
    telemetry: OnceLock<Arc<Telemetry>>,
    /// Optional fault-injection plan: set once by the owning runtime. An
    /// armed plan may stretch scan steps ([`Site::GraceScan`] delays) —
    /// exactly the descheduled-scanner hazard the stall detector and the
    /// bounded fence waits exist for.
    chaos: OnceLock<Arc<Chaos>>,
    /// Stall threshold in nanoseconds (see [`Self::set_stall_threshold`]).
    stall_threshold_ns: AtomicU64,
    /// Total [`StallInfo`] reports raised (each slot at most once per scan).
    stall_reports: CachePadded<AtomicU64>,
    /// The slots the last stall check found pinned, readable without the
    /// scan lock ([`Self::current_stalls`]).
    stalled: Mutex<StallView>,
    /// Deferred-drop list: garbage retired via
    /// [`Self::defer_drop_batch`], each entry stamped with the period that
    /// was open at retirement. Collected by the completing scan; whatever
    /// remains drops with the engine.
    retired: Mutex<Vec<RetireEntry>>,
    /// Total cells ever retired.
    retired_total: CachePadded<AtomicU64>,
    /// Total retired cells dropped by collection passes (excludes
    /// leftovers freed at engine drop).
    collected_total: CachePadded<AtomicU64>,
    /// Collection passes that actually dropped something — with
    /// `retired_total` this is the reclamation batching factor.
    collect_passes: CachePadded<AtomicU64>,
}

impl GraceEngine {
    /// An engine over a fresh [`EpochTable`] with `nthreads` slots.
    pub fn new(nthreads: usize) -> Arc<Self> {
        let now = Instant::now();
        Arc::new(GraceEngine {
            epochs: EpochTable::new(nthreads),
            hot: CachePadded::new(HotWords {
                open: AtomicU64::new(1),
                ..HotWords::default()
            }),
            scan: Mutex::new(ScanState {
                target: 0,
                pending: Vec::new(),
                started: now,
            }),
            callbacks: Mutex::new(Vec::new()),
            driver_attached: AtomicBool::new(false),
            wake: Mutex::new(()),
            wake_cv: Condvar::new(),
            telemetry: OnceLock::new(),
            chaos: OnceLock::new(),
            stall_threshold_ns: AtomicU64::new(Self::DEFAULT_STALL_THRESHOLD.as_nanos() as u64),
            stall_reports: CachePadded::new(AtomicU64::new(0)),
            stalled: Mutex::new(StallView {
                period: 0,
                started: now,
                slots: Vec::new(),
            }),
            retired: Mutex::new(Vec::new()),
            retired_total: CachePadded::new(AtomicU64::new(0)),
            collected_total: CachePadded::new(AtomicU64::new(0)),
            collect_passes: CachePadded::new(AtomicU64::new(0)),
        })
    }

    /// Default [stall threshold](Self::set_stall_threshold): long enough
    /// that an honest scan on a loaded host never trips it, short enough
    /// that a parked transaction is named within a driver tick or two.
    pub const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_millis(100);

    /// Attach a fault-injection plan (at most once; later calls ignored):
    /// scan steps then consult it for [`Site::GraceScan`] delays.
    pub fn set_chaos(&self, chaos: Arc<Chaos>) {
        let _ = self.chaos.set(chaos);
    }

    /// Reconfigure how long a scan must wait on one unmoved slot before the
    /// slot is considered *stalled* (reported via [`Self::check_stalls`]).
    pub fn set_stall_threshold(&self, threshold: Duration) {
        self.stall_threshold_ns
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The current stall threshold.
    pub fn stall_threshold(&self) -> Duration {
        Duration::from_nanos(self.stall_threshold_ns.load(Ordering::Relaxed))
    }

    /// Total stall reports raised so far (each slot at most once per scan).
    pub fn stall_reports(&self) -> u64 {
        self.stall_reports.load(Ordering::SeqCst)
    }

    /// Attach a telemetry sink (at most once; later calls are ignored):
    /// completed scans then feed the grace-duration histogram and record
    /// `GraceScan` events on the sink's engine slot.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// The attached telemetry sink, if any (fence tickets record their
    /// retirement through it).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.get()
    }

    /// The epoch table the engine scans. Critical sections register here
    /// exactly as with a bare table.
    pub fn epochs(&self) -> &EpochTable {
        &self.epochs
    }

    /// The period currently accepting tickets.
    pub fn open_period(&self) -> u64 {
        self.hot.open.load(Ordering::SeqCst)
    }

    /// Highest completed period.
    pub fn completed(&self) -> u64 {
        self.hot.completed.load(Ordering::SeqCst)
    }

    /// Number of full epoch-table scans performed so far. One scan retires
    /// one period — and with it every ticket the period coalesced — so
    /// `tickets issued / scans` is the batching factor.
    pub fn scans(&self) -> u64 {
        self.hot.scans.load(Ordering::SeqCst)
    }

    /// Has `period` completed?
    pub fn is_complete(&self, period: u64) -> bool {
        self.completed() >= period
    }

    /// Highest period ever stamped onto an issued ticket (0 before the
    /// first issue). This is the period a background driver drives toward.
    pub fn issued(&self) -> u64 {
        self.hot.issued.load(Ordering::SeqCst)
    }

    /// Is any issued ticket's period still incomplete? The view a
    /// [`GraceDriver`] parks on: callbacks are always registered through an
    /// issued ticket, so `!has_pending()` means no ticket can be unresolved
    /// and no callback can be waiting.
    pub fn has_pending(&self) -> bool {
        self.issued() > self.completed()
    }

    /// Wake an attached driver (no-op when none is). Callers notify under
    /// the wake mutex and the driver re-checks [`Self::has_pending`] under
    /// it before sleeping, so a wakeup racing a park is never lost.
    fn notify_driver(&self) {
        if self.driver_attached.load(Ordering::Relaxed) {
            let _guard = self.wake.lock().unwrap();
            self.wake_cv.notify_all();
        }
    }

    /// Request a grace period: stamp a ticket with the open period. Never
    /// blocks; the returned ticket resolves once every critical section
    /// active now has completed. Wakes the attached [`GraceDriver`], if
    /// any, so fire-and-forget tickets retire without any poller.
    pub fn issue(self: &Arc<Self>) -> GraceTicket {
        let period = self.hot.open.load(Ordering::SeqCst);
        self.raise_issued(period);
        self.notify_driver();
        GraceTicket {
            engine: Arc::clone(self),
            period,
        }
    }

    /// Retire one heap allocation through the engine:
    /// [`Self::defer_drop_batch`] with a cell count of 1.
    pub fn defer_drop(&self, garbage: Retired) {
        self.defer_drop_batch(garbage, 1);
    }

    /// Retire `garbage`, standing for `cells` reclaimable cells (a caller
    /// that parks displaced cells locally hands them over as one box): it
    /// is stamped with the open period and dropped by the first scan to
    /// complete it — i.e. only after every critical section active *now*
    /// has exited, so in-epoch readers still dereferencing a cell stay
    /// safe. This is the epoch-based-reclamation face of the engine: the
    /// `kfree_rcu` to [`Self::issue`]'s `call_rcu`. One list entry, one
    /// lock acquisition and one counter bump per call, however many cells;
    /// every retire counter counts cells.
    ///
    /// Never blocks beyond the retire-list mutex. Retirement counts as
    /// pending work ([`Self::has_pending`]), so an attached [`GraceDriver`]
    /// collects it within bounded time with zero pollers; without a driver
    /// it is collected by whichever caller next completes a scan, and at
    /// the latest when the engine drops. Either way each retired box is
    /// dropped exactly once.
    pub fn defer_drop_batch(&self, garbage: Retired, cells: u64) {
        let period = {
            let mut retired = self.retired.lock().unwrap();
            // Count, then stamp (the Dekker order on `GraceEngine`): a
            // completer that reads the count as 0 read it before our bump,
            // so its scan had closed its period before our stamp, and the
            // stamp names a later period than the one it completed.
            self.hot.retired.fetch_add(1, Ordering::SeqCst);
            let period = self.hot.open.load(Ordering::SeqCst);
            retired.push(RetireEntry {
                period,
                cells,
                _garbage: garbage,
            });
            period
        };
        self.retired_total.fetch_add(cells, Ordering::SeqCst);
        // Mirror `issue`: raise the pending view so a driver (or drop
        // drain) knows reclamation work is outstanding, and wake it.
        self.raise_issued(period);
        self.notify_driver();
    }

    /// Raise `issued` to at least `period`. A plain load first: it is
    /// usually there already, and the RMW then costs the shared line for
    /// nothing. `fetch_max`, not store: a concurrent scan may have closed a
    /// later period since our stamp, and `issued` must never move backwards
    /// past a stamp another issuer already published.
    fn raise_issued(&self, period: u64) {
        if self.hot.issued.load(Ordering::SeqCst) < period {
            self.hot.issued.fetch_max(period, Ordering::SeqCst);
        }
    }

    /// Total cells ever retired through [`Self::defer_drop`] /
    /// [`Self::defer_drop_batch`].
    pub fn retired_boxes(&self) -> u64 {
        self.retired_total.load(Ordering::SeqCst)
    }

    /// Total retired cells dropped by collection passes so far.
    pub fn collected_boxes(&self) -> u64 {
        self.collected_total.load(Ordering::SeqCst)
    }

    /// Collection passes that dropped at least one retired entry.
    /// `retired_boxes / collect_passes` is the reclamation batching factor.
    pub fn collect_passes(&self) -> u64 {
        self.collect_passes.load(Ordering::SeqCst)
    }

    /// Retired cells still awaiting their grace period.
    pub fn retired_pending(&self) -> usize {
        let retired = self.retired.lock().unwrap();
        retired.iter().map(|e| e.cells).sum::<u64>() as usize
    }

    /// Drop every retirement whose period has completed. Runs on the scan
    /// completion path (and is cheap to call anytime): extract the due
    /// entries in place under the lock — nothing is allocated when nothing
    /// is due, and the list keeps its capacity — then drop them *outside*
    /// the lock, since a retired value's own drop may retire more.
    fn collect_retired(&self) {
        let due: Vec<RetireEntry> = {
            let mut retired = self.retired.lock().unwrap();
            let completed = self.completed();
            let due: Vec<RetireEntry> = retired.extract_if(.., |e| e.period <= completed).collect();
            if !due.is_empty() {
                self.hot
                    .retired
                    .fetch_sub(due.len() as u64, Ordering::SeqCst);
            }
            due
        };
        if due.is_empty() {
            return;
        }
        self.collected_total
            .fetch_add(due.iter().map(|e| e.cells).sum(), Ordering::SeqCst);
        self.collect_passes.fetch_add(1, Ordering::SeqCst);
        drop(due);
    }

    /// Close the open period and snapshot the epoch table into `st`. Only
    /// called with no scan in progress, under the scan lock — the one
    /// writer of `open` — so a plain store closes the period. Tickets
    /// issued from here on join the next one; the snapshot is therefore
    /// taken after every coalesced ticket's issue, as the quiescence
    /// guarantee needs.
    fn open_scan(&self, st: &mut ScanState) {
        let target = self.hot.open.load(Ordering::SeqCst);
        self.hot.open.store(target + 1, Ordering::SeqCst);
        st.target = target;
        st.pending.clear();
        // Sampled unconditionally: the stall detector needs a wall-clock
        // origin while the scan waits, not only at completion. One clock
        // read per scan, amortized over the whole table sweep.
        st.started = Instant::now();
        for t in 0..self.epochs.nthreads() {
            let e = self.epochs.epoch(t);
            if e % 2 == 1 {
                st.pending.push(PendingSlot {
                    slot: t,
                    epoch: e,
                    reported: false,
                });
            }
        }
    }

    /// Re-check the in-progress scan's pending slots once; if none is left,
    /// complete its period and return it with the scan's start. `scans`
    /// and `completed` are written only here, under the scan lock, so
    /// plain stores do.
    fn try_complete(&self, st: &mut ScanState) -> Option<(u64, Instant)> {
        st.pending.retain(|p| self.epochs.epoch(p.slot) == p.epoch);
        if !st.pending.is_empty() {
            return None;
        }
        let done = st.target;
        st.target = 0;
        let scans = self.hot.scans.load(Ordering::Relaxed);
        self.hot.scans.store(scans + 1, Ordering::SeqCst);
        self.hot.completed.store(done, Ordering::SeqCst);
        Some((done, st.started))
    }

    /// Telemetry for a completed scan: into `joiner`'s own slot cell when a
    /// handle's fence join completed it, into the engine cell otherwise.
    fn record_scan(&self, joiner: Option<u16>, (period, started): (u64, Instant)) {
        if let Some(tel) = self.telemetry.get() {
            let slot = joiner.unwrap_or_else(|| tel.engine_slot());
            tel.record_grace_scan(slot, period, started);
        }
    }

    /// The rest of a completion, after the scan lock is released: run due
    /// callbacks and collect due retirements. Each list's mutex is skipped
    /// while its count reads 0; the counts are read after the `completed`
    /// store (the Dekker order on [`GraceEngine`]).
    fn after_completion(&self) {
        if self.hot.callbacks.load(Ordering::SeqCst) != 0 {
            self.run_callbacks();
        }
        if self.hot.retired.load(Ordering::SeqCst) != 0 {
            self.collect_retired();
        }
    }

    /// One cooperative, non-blocking driving step toward completing
    /// `period`; returns whether it has completed. If no scan is in
    /// progress, this closes the open period and snapshots the epoch table;
    /// otherwise it re-checks the in-progress scan's pending slots once.
    /// Never waits: callers that need completion loop with `yield_now`
    /// between steps, or block in [`GraceTicket::wait`].
    pub fn drive(&self, period: u64) -> bool {
        if self.is_complete(period) {
            return true;
        }
        // Another driver holding the lock is making progress on our behalf;
        // don't contend, just report current completion.
        let Ok(mut st) = self.scan.try_lock() else {
            return self.is_complete(period);
        };
        // Fault injection: a scanner descheduled mid-step, with the scan
        // lock held — the hazard bounded fence waits must survive.
        if let Some(chaos) = self.chaos.get() {
            chaos.maybe_delay(Site::GraceScan);
        }
        if st.target == 0 {
            // Completed while we took the lock: opening a scan now would
            // retire a period nobody asked for.
            if self.is_complete(period) {
                return true;
            }
            self.open_scan(&mut st);
        }
        let done = self.try_complete(&mut st);
        drop(st);
        if let Some(done) = done {
            self.record_scan(None, done);
            self.after_completion();
        }
        self.is_complete(period)
    }

    /// Block until `period` completes, or until `deadline` passes; returns
    /// whether it completed. The one wait loop behind [`GraceTicket::wait`]
    /// and [`GraceTicket::wait_timeout`]: poll `completed`, and whoever
    /// wins the scan lock drives the period home ([`Self::drive_held`]).
    /// Losers yield and try again; nobody sleeps on the lock.
    fn wait_for(&self, period: u64, joiner: Option<u16>, deadline: Option<Instant>) -> bool {
        loop {
            if self.is_complete(period) {
                return true;
            }
            if let Ok(st) = self.scan.try_lock() {
                return self.drive_held(st, period, joiner, deadline);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return self.is_complete(period);
            }
            std::thread::yield_now();
        }
    }

    /// Re-checks of a held scan between stall-detector runs: rare enough
    /// that the `Instant` sample costs nothing against thousands of yields,
    /// frequent enough that a stalled wait reports within tens of
    /// milliseconds.
    const STALL_CHECK_EVERY: u32 = 1024;

    /// Drive `period` home under the held scan lock `st`: continue the scan
    /// in progress, or close the open period and snapshot; re-check the
    /// snapshot's active slots, yielding between re-checks. A completed
    /// *older* period is released at once — its telemetry, callbacks and
    /// collection run without the lock, so nothing of it waits behind a
    /// pinned later period — and the waiter goes straight back for the
    /// lock to open its own, without a yield. Every
    /// [`Self::STALL_CHECK_EVERY`] re-checks, and at the deadline, the
    /// stall detector runs on the held state, since nobody else can while
    /// we hold it. Returns whether `period` completed.
    fn drive_held(
        &self,
        mut st: MutexGuard<'_, ScanState>,
        period: u64,
        joiner: Option<u16>,
        deadline: Option<Instant>,
    ) -> bool {
        // `completed` is written only under the lock we hold. If `period`
        // is complete now, it completed between the caller's check and its
        // `try_lock`, and a scan in progress is a later, unrelated one.
        if self.is_complete(period) {
            return true;
        }
        let mut ours = None;
        let mut rechecks = 0u32;
        let reached = loop {
            if let Some(chaos) = self.chaos.get() {
                chaos.maybe_delay(Site::GraceScan);
            }
            if st.target == 0 {
                // Our scan completed on the previous pass. Leaving through
                // this one more pass, not straight from the completion,
                // measured about 20 % lower `kv_mixed` `scan_p50_us` on a
                // 2-vCPU host (four comparisons of 4-6 runs a side); the
                // cause is not understood.
                if self.is_complete(period) {
                    break true;
                }
                self.open_scan(&mut st);
            }
            if let Some(done) = self.try_complete(&mut st) {
                if done.0 < period {
                    drop(st);
                    self.record_scan(joiner, done);
                    self.after_completion();
                    return self.wait_for(period, joiner, deadline);
                }
                ours = Some(done);
                continue;
            }
            rechecks = rechecks.wrapping_add(1);
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            if expired || rechecks.is_multiple_of(Self::STALL_CHECK_EVERY) {
                self.collect_stalls(&mut st);
            }
            if expired {
                break self.is_complete(period);
            }
            std::thread::yield_now();
        };
        drop(st);
        if let Some(done) = ours {
            self.record_scan(joiner, done);
            self.after_completion();
        }
        reached
    }

    /// Stall detection: if the in-progress scan has been waiting past the
    /// [threshold](Self::set_stall_threshold), name every still-unmoved slot
    /// it is pinned on — once per slot per scan — raising an
    /// [`EventKind::StallReport`] on the telemetry engine slot for each.
    /// Returns the *newly* reported stalls. Called from the [`GraceDriver`]
    /// tick and from bounded ticket waits; cheap when no scan is open
    /// (one `try_lock`), and never blocks on a busy scan lock — a waiter
    /// holding the lock runs the same check on the state it holds.
    pub fn check_stalls(&self) -> Vec<StallInfo> {
        let Ok(mut st) = self.scan.try_lock() else {
            return Vec::new();
        };
        self.collect_stalls(&mut st)
    }

    /// The slots pinned past the stall threshold as of the last stall
    /// check, less any that have moved since, without the once-per-scan
    /// dedup or telemetry side effects — the view a timed-out fence wait
    /// embeds in its error so the caller can name the offender even when
    /// the driver tick already reported it. Does not take the scan lock,
    /// so it answers while a blocked waiter holds it.
    pub fn current_stalls(&self) -> Vec<StallInfo> {
        let view = self.stalled.lock().unwrap();
        if view.period == 0 || self.is_complete(view.period) {
            return Vec::new();
        }
        let pinned = view.started.elapsed();
        view.slots
            .iter()
            .filter(|&&(slot, epoch)| self.epochs.epoch(slot) == epoch)
            .map(|&(slot, _)| StallInfo {
                slot,
                pinned,
                period: view.period,
            })
            .collect()
    }

    /// Run the stall check on the held scan state: publish every pinned
    /// slot for [`Self::current_stalls`] and report the new ones.
    fn collect_stalls(&self, st: &mut ScanState) -> Vec<StallInfo> {
        if st.target == 0 {
            return Vec::new();
        }
        let pinned = st.started.elapsed();
        if pinned < self.stall_threshold() {
            return Vec::new();
        }
        let period = st.target;
        {
            let mut view = self.stalled.lock().unwrap();
            view.period = period;
            view.started = st.started;
            view.slots.clear();
            // A slot that moved since the snapshot is no stall — the scan
            // just has not re-checked yet.
            view.slots.extend(
                st.pending
                    .iter()
                    .filter(|p| self.epochs.epoch(p.slot) == p.epoch)
                    .map(|p| (p.slot, p.epoch)),
            );
        }
        let mut fresh = Vec::new();
        for p in st.pending.iter_mut() {
            if p.reported || self.epochs.epoch(p.slot) != p.epoch {
                continue;
            }
            p.reported = true;
            self.stall_reports.fetch_add(1, Ordering::SeqCst);
            if let Some(tel) = self.telemetry.get() {
                tel.record_engine_event(EventKind::StallReport {
                    stalled_slot: p.slot as u64,
                    pinned_ns: pinned.as_nanos() as u64,
                    period,
                });
            }
            fresh.push(StallInfo {
                slot: p.slot,
                pinned,
                period,
            });
        }
        fresh
    }

    /// Register `f` to run when `period` completes (immediately, on this
    /// thread, if it already has; otherwise on the completing driver's
    /// thread). With a [`GraceDriver`] attached the callback fires within
    /// bounded time even if nobody ever polls or waits; without one it
    /// rides whichever caller next drives the engine.
    pub fn on_complete(&self, period: u64, f: impl FnOnce() + Send + 'static) {
        if !self.is_complete(period) {
            // Count, then check (the Dekker order on `GraceEngine`): either
            // we observe completion below, or the completer reads our bump
            // after its `completed` store and drains the list — taking the
            // lock we push under, so it sees the push.
            self.hot.callbacks.fetch_add(1, Ordering::SeqCst);
            let mut cbs = self.callbacks.lock().unwrap();
            if !self.is_complete(period) {
                cbs.push((period, Box::new(f)));
                drop(cbs);
                self.notify_driver();
                return;
            }
            drop(cbs);
            self.hot.callbacks.fetch_sub(1, Ordering::SeqCst);
        }
        f();
    }

    fn run_callbacks(&self) {
        // Drain under the lock, run outside it: callbacks may issue new
        // tickets or register further callbacks.
        let due: Vec<Callback> = {
            let mut cbs = self.callbacks.lock().unwrap();
            let completed = self.completed();
            let due: Vec<Callback> = cbs
                .extract_if(.., |(p, _)| *p <= completed)
                .map(|(_, f)| f)
                .collect();
            if !due.is_empty() {
                self.hot
                    .callbacks
                    .fetch_sub(due.len() as u64, Ordering::SeqCst);
            }
            due
        };
        for f in due {
            f();
        }
    }
}

/// A claim on a numbered grace period of a [`GraceEngine`] — the
/// asynchronous fence. Obtained from [`GraceEngine::issue`]; resolves once
/// every critical section active at issue has completed.
#[derive(Clone)]
pub struct GraceTicket {
    engine: Arc<GraceEngine>,
    period: u64,
}

impl GraceTicket {
    /// The grace period this ticket is stamped with.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The engine that issued this ticket.
    pub fn engine(&self) -> &Arc<GraceEngine> {
        &self.engine
    }

    /// Non-blocking completion check that also contributes one driving
    /// step, so polling callers collectively advance the period.
    pub fn poll(&self) -> bool {
        self.engine.drive(self.period)
    }

    /// Block (cooperatively) until the grace period has elapsed. One held
    /// scan per join: if this waiter wins the scan lock it keeps it until
    /// one scan is home — the one in progress, or one it opens for the open
    /// period — and re-checks the snapshot's active slots with a yield
    /// between re-checks. If that scan retired an older period, the waiter
    /// runs its callbacks and collection and goes straight back for the
    /// lock to open its own. A waiter that finds the lock busy polls
    /// `completed` and yields; it never sleeps on the lock. Never
    /// hard-spins — on a single-core host the yield is what lets the
    /// awaited transactions run at all. The lock holder periodically runs
    /// the [stall detector](GraceEngine::check_stalls), so an unbounded
    /// wait pinned by a parked transaction at least *names* the offender in
    /// telemetry while it waits.
    ///
    /// Scans this wait completes are recorded in the telemetry engine cell;
    /// [`Self::wait_as`] records them on the waiting handle's slot.
    pub fn wait(&self) {
        self.wait_as(None);
    }

    /// [`Self::wait`] on behalf of the thread that owns telemetry slot
    /// `joiner`: the grace scans this wait completes (the `Grace` latency
    /// sample and the `GraceScan` event) go to that slot's single-writer
    /// cell instead of the mutex-guarded engine cell. Only the slot's
    /// owning thread may pass `Some`.
    pub fn wait_as(&self, joiner: Option<u16>) {
        self.engine.wait_for(self.period, joiner, None);
    }

    /// [`Self::wait`], bounded: give up after `timeout`, returning a
    /// [`WaitTimeout`] that names every slot the scan is pinned on. The
    /// ticket itself stays valid — the grace period is still outstanding
    /// and may be re-waited, polled, or handed a callback; a timeout only
    /// bounds *this* wait, it never abandons the period.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<(), WaitTimeout> {
        self.wait_timeout_as(timeout, None)
    }

    /// [`Self::wait_timeout`] on behalf of the owner of telemetry slot
    /// `joiner` (see [`Self::wait_as`]).
    pub fn wait_timeout_as(
        &self,
        timeout: Duration,
        joiner: Option<u16>,
    ) -> Result<(), WaitTimeout> {
        let deadline = Instant::now() + timeout;
        if self.engine.wait_for(self.period, joiner, Some(deadline)) {
            return Ok(());
        }
        // Report (driver may be absent) and collect the undeduped view, so
        // the error names offenders already reported by an earlier tick or
        // by the waiter holding the scan.
        self.engine.check_stalls();
        Err(WaitTimeout {
            period: self.period,
            waited: timeout,
            stalled: self.engine.current_stalls(),
        })
    }

    /// Run `f` when the grace period elapses (immediately if it already
    /// has; otherwise on whichever thread completes the period).
    ///
    /// Liveness caveat: without a [`GraceDriver`] attached to the engine,
    /// a fire-and-forget callback only runs when *some* caller later
    /// drives the engine — if nobody ever polls or waits, it never fires.
    /// Attach a driver for the `call_rcu`-style guarantee that the
    /// callback runs within bounded time regardless of pollers.
    pub fn on_complete(self, f: impl FnOnce() + Send + 'static) {
        self.engine.on_complete(self.period, f);
    }
}

/// A bounded [`GraceTicket::wait_timeout`] expired before its grace period
/// completed. Carries everything the caller needs to act on the stall:
/// which period is stuck and which epoch slots it is pinned on (empty when
/// the wait was simply too short for an honest scan — distinguish via
/// `stalled.is_empty()`).
#[derive(Clone, Debug)]
pub struct WaitTimeout {
    /// The grace period still outstanding.
    pub period: u64,
    /// How long the caller waited.
    pub waited: Duration,
    /// Slots pinned past the stall threshold at timeout (undeduped view).
    pub stalled: Vec<StallInfo>,
}

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grace period {} incomplete after {:?}",
            self.period, self.waited
        )?;
        if !self.stalled.is_empty() {
            let slots: Vec<String> = self
                .stalled
                .iter()
                .map(|s| format!("{} ({:?})", s.slot, s.pinned))
                .collect();
            write!(f, "; stalled slots: {}", slots.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for WaitTimeout {}

/// A background grace-period driver: one parked thread that owns the
/// liveness of fire-and-forget tickets on a [`GraceEngine`].
///
/// The thread sleeps on the engine's wake channel (with a `tick` timeout as
/// a belt-and-braces fallback) and, whenever any issued period is still
/// incomplete, repeatedly calls [`GraceEngine::drive`] — yielding between
/// steps, never hard-spinning — until the engine is
/// [drained](GraceEngine::has_pending). Consequences:
///
/// * [`GraceTicket::on_complete`] callbacks fire within bounded time with
///   **zero** pollers or waiters (the `call_rcu` guarantee).
/// * Every privatizer can fully overlap its post-fence work: nobody has to
///   donate cycles to the scan.
/// * Coalescing is preserved: the driver closes a period and scans exactly
///   as a cooperative caller would, so N tickets issued while one period is
///   open still retire on one epoch-table scan.
///
/// Completion callbacks run on the driver thread once it is attached; they
/// must not block indefinitely (a blocked callback blocks every later
/// period's retirement, exactly as with a cooperative completer).
///
/// Dropping the driver is a *clean shutdown*: the thread first drains —
/// drives every outstanding period to completion and runs its callbacks —
/// then exits, so no requested grace period or registered callback is ever
/// lost. The drain waits on in-flight critical sections, mirroring the
/// blocking-drop contract of an unresolved ticket.
pub struct GraceDriver {
    engine: Arc<GraceEngine>,
    stop: Arc<AtomicBool>,
    /// Fallback timeouts the thread woke from with *nothing to do* (the
    /// waste an adaptive idle tick minimizes); shared with the thread.
    idle_wakeups: Arc<AtomicU64>,
    /// Optional per-wakeup hook (see [`Self::set_tick_hook`]); shared with
    /// the thread.
    tick_hook: Arc<Mutex<Option<TickHook>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl GraceDriver {
    /// Minimum (and initial) fallback tick: how long the driver first
    /// sleeps when idle before re-checking for work it was not explicitly
    /// woken for. 1 ms keeps worst-case callback latency bounded while the
    /// engine is actually issuing.
    pub const DEFAULT_TICK: Duration = Duration::from_millis(1);

    /// Cap of the adaptive idle backoff: with no issues arriving, the
    /// fallback tick doubles from the spawn tick up to this bound, so an
    /// idle runtime takes ~20 fallback wakeups per second instead of
    /// ~1000. Real work always resets the tick — and an
    /// [`issue`](GraceEngine::issue) wakes the driver through the condvar
    /// immediately, so the backoff never delays a requested grace period.
    pub const MAX_IDLE_TICK: Duration = Duration::from_millis(50);

    /// Attach a driver to `engine` and start its thread. `tick` is the
    /// minimum fallback tick (see [`Self::DEFAULT_TICK`]); when idle the
    /// driver scales it by observed issue rate, doubling up to
    /// [`Self::MAX_IDLE_TICK`] while no work arrives. At most one driver
    /// may be attached to an engine at a time (checked): a second driver's
    /// shutdown would clear the attach flag under the first one, silently
    /// downgrading its wakeups to the timeout tick.
    pub fn spawn(engine: Arc<GraceEngine>, tick: Duration) -> Self {
        assert!(
            !engine.driver_attached.swap(true, Ordering::SeqCst),
            "a GraceDriver is already attached to this engine"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let idle_wakeups = Arc::new(AtomicU64::new(0));
        let tick_hook: Arc<Mutex<Option<TickHook>>> = Arc::new(Mutex::new(None));
        let thread = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let idle_wakeups = Arc::clone(&idle_wakeups);
            let tick_hook = Arc::clone(&tick_hook);
            std::thread::Builder::new()
                .name("tm-grace-driver".into())
                .spawn(move || Self::run(&engine, &stop, tick, &idle_wakeups, &tick_hook))
                .expect("spawn grace-period driver thread")
        };
        GraceDriver {
            engine,
            stop,
            idle_wakeups,
            tick_hook,
            thread: Some(thread),
        }
    }

    /// Install (or replace) the driver's *tick hook*: a callback the driver
    /// thread invokes once per wakeup — explicit (issue / callback
    /// registration) or fallback tick — outside every engine lock. This is
    /// the periodic-work channel the STM runtime's contention governor
    /// rides: the hook polls reconfiguration tickets (stripe migrations,
    /// clock handoffs) so they settle in bounded time even when no
    /// transaction traffic would otherwise drive the engine. The hook must
    /// not block indefinitely (a blocked hook blocks period retirement,
    /// exactly as a blocked completion callback would); it *may* issue
    /// tickets and drive the engine.
    pub fn set_tick_hook(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.tick_hook.lock().unwrap() = Some(Arc::new(f));
        // Wake the thread so the first invocation does not wait out a
        // backed-off idle tick.
        self.engine.notify_driver();
    }

    /// The engine this driver is attached to.
    pub fn engine(&self) -> &Arc<GraceEngine> {
        &self.engine
    }

    /// Fallback-tick wakeups that found nothing to do. With the adaptive
    /// idle tick this grows logarithmically-then-slowly during idle
    /// stretches (one wakeup per doubled interval, then one per
    /// [`Self::MAX_IDLE_TICK`]) instead of once per minimum tick.
    pub fn idle_wakeups(&self) -> u64 {
        self.idle_wakeups.load(Ordering::SeqCst)
    }

    /// Failed driving steps before the in-progress loop backs off from
    /// yielding to sleeping `tick` per re-check. Yields let the awaited
    /// threads run immediately (essential on a 1-core host, where a short
    /// transaction usually exits within a few yields); the sleep cap keeps
    /// a long-running straddling transaction from pinning the driver at
    /// 100% of a core — epoch exits send no notification, so the re-check
    /// must poll, but at tick granularity, not scheduler granularity.
    const YIELDS_BEFORE_SLEEP: u32 = 64;

    fn run(
        engine: &GraceEngine,
        stop: &AtomicBool,
        min_tick: Duration,
        idle_wakeups: &AtomicU64,
        tick_hook: &Mutex<Option<TickHook>>,
    ) {
        // The adaptive idle fallback: scaled by observed issue rate. While
        // work keeps arriving the tick sits at `min_tick` (snappy
        // fallback); every fallback wakeup that finds nothing doubles it,
        // up to MAX_IDLE_TICK — so an idle runtime's driver goes quiet
        // instead of spinning its minimum tick forever. Explicit wakeups
        // (issue / on_complete) go through the condvar and are never
        // delayed by the backoff.
        let mut idle_tick = min_tick;
        loop {
            // Run the tick hook once per wakeup, before draining: cloned
            // out of the mutex so a slow hook never blocks installation,
            // and outside every engine lock so it may issue tickets or
            // drive the engine itself.
            let hook = tick_hook.lock().unwrap().clone();
            if let Some(hook) = hook {
                hook();
            }
            // Retire everything outstanding. New issues during the inner
            // loop raise `issued`, and the outer re-check picks them up.
            while engine.has_pending() {
                idle_tick = min_tick; // observed work: reset the backoff
                let target = engine.issued();
                let mut steps = 0u32;
                while !engine.drive(target) {
                    if steps < Self::YIELDS_BEFORE_SLEEP {
                        steps += 1;
                        std::thread::yield_now();
                    } else {
                        // Tick granularity: the natural cadence for the
                        // stall detector — a scan that keeps the driver in
                        // this branch past the threshold is exactly a
                        // pinned-slot stall, and the driver is the one
                        // thread guaranteed to be watching.
                        engine.check_stalls();
                        std::thread::sleep(min_tick);
                    }
                }
            }
            if stop.load(Ordering::SeqCst) {
                // Drained and asked to stop: clean exit. (The drain above
                // ran first, so shutdown never strands a callback.)
                return;
            }
            let guard = engine.wake.lock().unwrap();
            // Re-check under the wake mutex: an issue that raced our drain
            // notifies under this same mutex, so either we see its ticket
            // here or its notify lands after we start waiting.
            if stop.load(Ordering::SeqCst) || engine.has_pending() {
                continue;
            }
            let (guard, timeout) = engine.wake_cv.wait_timeout(guard, idle_tick).unwrap();
            drop(guard);
            if timeout.timed_out() && !engine.has_pending() && !stop.load(Ordering::SeqCst) {
                // A fallback wakeup with nothing to do: count it and back
                // the tick off.
                idle_wakeups.fetch_add(1, Ordering::SeqCst);
                idle_tick = (idle_tick * 2).min(Self::MAX_IDLE_TICK);
            }
        }
    }

    /// Stop the driver: drain outstanding periods/callbacks, join the
    /// thread, detach from the engine. Idempotent; also run by drop.
    pub fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            self.engine.notify_driver();
            thread.join().expect("grace-period driver thread panicked");
            self.engine.driver_attached.store(false, Ordering::SeqCst);
        }
    }
}

impl Drop for GraceDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn completed_scans_feed_the_grace_histogram() {
        use tm_telemetry::{EventKind, TraceConfig};
        let eng = GraceEngine::new(2);
        let tel = Telemetry::new(2, TraceConfig::with_capacity(16));
        eng.set_telemetry(Arc::clone(&tel));
        eng.epochs().enter(0);
        let ticket = eng.issue();
        assert!(!ticket.poll(), "slot 0 still active");
        eng.epochs().exit(0);
        ticket.wait();
        let snap = tel.snapshot();
        assert_eq!(snap.hists.grace.count(), 1, "one scan, one sample");
        let scans: Vec<_> = snap
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GraceScan { .. }))
            .collect();
        assert_eq!(scans.len(), 1);
        assert_eq!(scans[0].slot, tel.engine_slot());
        match scans[0].kind {
            EventKind::GraceScan { period, .. } => assert_eq!(period, 1),
            _ => unreachable!(),
        }
        // Without telemetry (or with it disabled) nothing is recorded and
        // the engine behaves identically.
        let bare = GraceEngine::new(1);
        bare.set_telemetry(Telemetry::new(1, TraceConfig::off()));
        bare.issue().wait();
        assert_eq!(bare.scans(), 1);
    }

    #[test]
    fn epoch_enter_exit_parity() {
        let t = EpochTable::new(2);
        assert!(!t.is_active(0));
        t.enter(0);
        assert!(t.is_active(0));
        assert!(!t.is_active(1));
        t.exit(0);
        assert!(!t.is_active(0));
        assert_eq!(t.epoch(0), 2);
        assert_eq!(t.nthreads(), 2);
    }

    #[test]
    fn wait_quiescent_no_active_returns_immediately() {
        let t = EpochTable::new(8);
        t.wait_quiescent(None); // must not block
    }

    #[test]
    fn wait_quiescent_excludes_self() {
        let t = EpochTable::new(2);
        t.enter(0);
        t.wait_quiescent(Some(0)); // must not deadlock on own slot
        t.exit(0);
    }

    /// A fence started during a critical section must not return until that
    /// section exits.
    #[test]
    fn grace_period_ordering() {
        let table = Arc::new(EpochTable::new(2));
        let stage = Arc::new(AtomicUsize::new(0));

        let t2 = {
            let table = Arc::clone(&table);
            let stage = Arc::clone(&stage);
            std::thread::spawn(move || {
                // Wait until thread 0's section is open.
                while stage.load(Ordering::SeqCst) < 1 {
                    std::hint::spin_loop();
                }
                table.wait_quiescent(Some(1));
                // The critical section must have advanced the stage to 2
                // before we get here.
                assert_eq!(stage.load(Ordering::SeqCst), 2);
            })
        };

        table.enter(0);
        stage.store(1, Ordering::SeqCst);
        // Hold the section open briefly so the fence snapshots it.
        std::thread::sleep(std::time::Duration::from_millis(30));
        stage.store(2, Ordering::SeqCst);
        table.exit(0);
        t2.join().unwrap();
    }

    /// The epoch fence does NOT wait for sections that start after its
    /// snapshot: run a continuous open/close loop in another thread and check
    /// the fence still returns.
    #[test]
    fn fence_terminates_under_continuous_traffic() {
        let table = Arc::new(EpochTable::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    table.enter(0);
                    table.exit(0);
                }
            })
        };
        for _ in 0..100 {
            table.wait_quiescent(Some(1));
        }
        stop.store(true, Ordering::SeqCst);
        worker.join().unwrap();
    }

    #[test]
    fn filtered_wait_skips_slots() {
        let t = EpochTable::new(2);
        t.enter(0);
        // Filter says "don't wait for slot 0": returns despite activity.
        t.wait_quiescent_filtered(None, |s| s != 0);
        t.exit(0);
    }

    #[test]
    fn engine_quiescent_ticket_completes_in_one_scan() {
        let eng = GraceEngine::new(4);
        let t = eng.issue();
        assert_eq!(t.period(), 1);
        assert!(!eng.is_complete(1));
        t.wait();
        assert!(eng.is_complete(1));
        assert_eq!(eng.scans(), 1);
        assert_eq!(eng.completed(), 1);
        assert_eq!(eng.open_period(), 2);
    }

    /// The coalescing claim: every ticket issued while the same period is
    /// open resolves on ONE scan of the epoch table.
    #[test]
    fn engine_coalesces_tickets_behind_one_scan() {
        let eng = GraceEngine::new(8);
        let tickets: Vec<GraceTicket> = (0..16).map(|_| eng.issue()).collect();
        for t in &tickets {
            assert_eq!(t.period(), 1, "all issued in the same open period");
        }
        for t in &tickets {
            t.wait();
        }
        assert_eq!(eng.scans(), 1, "16 tickets must share one scan");
    }

    /// A ticket must not resolve while a section active at issue is open.
    #[test]
    fn engine_ticket_waits_for_active_section() {
        let eng = GraceEngine::new(2);
        let stage = Arc::new(AtomicUsize::new(0));
        eng.epochs().enter(0);
        let ticket = eng.issue();
        assert!(!ticket.poll(), "section 0 still active");
        let waiter = {
            let ticket = ticket.clone();
            let stage = Arc::clone(&stage);
            std::thread::spawn(move || {
                ticket.wait();
                assert_eq!(stage.load(Ordering::SeqCst), 1);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        stage.store(1, Ordering::SeqCst);
        eng.epochs().exit(0);
        waiter.join().unwrap();
    }

    /// Sections starting after issue are not waited for: the engine must
    /// complete tickets under continuous enter/exit traffic (regression for
    /// the fence-under-traffic liveness the runtime depends on).
    #[test]
    fn engine_completes_under_continuous_traffic() {
        let eng = GraceEngine::new(2);
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let eng = Arc::clone(&eng);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    eng.epochs().enter(0);
                    eng.epochs().exit(0);
                }
            })
        };
        for _ in 0..100 {
            eng.issue().wait();
        }
        stop.store(true, Ordering::SeqCst);
        worker.join().unwrap();
    }

    #[test]
    fn engine_on_complete_fires() {
        let eng = GraceEngine::new(2);
        let fired = Arc::new(AtomicUsize::new(0));

        // Pending period: callback runs when a driver completes it.
        let t1 = eng.issue();
        {
            let fired = Arc::clone(&fired);
            t1.clone().on_complete(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(fired.load(Ordering::SeqCst), 0, "not complete yet");
        t1.wait();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "ran on completion");

        // Already-complete period: callback runs immediately.
        {
            let fired = Arc::clone(&fired);
            t1.on_complete(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    /// Tickets issued after a scan closed their predecessor period land in
    /// the next period and need a second scan.
    #[test]
    fn engine_periods_advance_monotonically() {
        let eng = GraceEngine::new(2);
        let t1 = eng.issue();
        t1.wait();
        let t2 = eng.issue();
        assert_eq!(t2.period(), 2);
        assert!(!eng.is_complete(2));
        t2.wait();
        assert_eq!(eng.scans(), 2);
        assert!(eng.is_complete(2));
    }

    /// Concurrent waiters from many threads on the same period: exactly one
    /// scan, nobody hangs, everyone observes completion.
    #[test]
    fn engine_concurrent_waiters_share_scan() {
        let eng = GraceEngine::new(4);
        eng.epochs().enter(3);
        let tickets: Vec<GraceTicket> = (0..3).map(|_| eng.issue()).collect();
        std::thread::scope(|s| {
            for t in &tickets {
                s.spawn(move || t.wait());
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            eng.epochs().exit(3);
        });
        assert_eq!(eng.scans(), 1, "waiters must share the period's scan");
    }

    /// A wait whose period sits behind an in-progress scan finishes that
    /// scan and then runs its own: exactly two scans, whichever waiter
    /// holds the lock, and the later period is not retired early.
    #[test]
    fn a_wait_behind_an_in_progress_scan_takes_exactly_two_scans() {
        let eng = GraceEngine::new(2);
        eng.epochs().enter(0);
        let first = eng.issue();
        assert!(!first.poll(), "the period-1 scan now pends on slot 0");
        let second = eng.issue();
        assert_eq!(second.period(), 2, "period 2 opened behind it");
        std::thread::scope(|s| {
            s.spawn(|| first.wait());
            let behind = s.spawn(|| second.wait());
            std::thread::sleep(Duration::from_millis(20));
            assert!(!behind.is_finished(), "slot 0 still pins period 1");
            assert_eq!(eng.scans(), 0);
            eng.epochs().exit(0);
        });
        assert_eq!(eng.scans(), 2, "the older scan, then ours");
        assert_eq!((eng.completed(), eng.open_period()), (2, 3));
    }

    /// A wait whose period is already complete never drives a later scan,
    /// not even one it finds in progress once it holds the scan lock — the
    /// race where the period completes between the waiter's check and its
    /// `try_lock`. A pinned later scan must not hang it, and a bounded wait
    /// must not time out on it.
    #[test]
    fn a_completed_periods_wait_never_drives_a_later_scan() {
        let eng = GraceEngine::new(2);
        let done = eng.issue();
        done.wait();
        eng.epochs().enter(0);
        let later = eng.issue();
        assert!(!later.poll(), "a one-step drive opens the later scan");
        done.wait();
        assert!(done.wait_timeout(Duration::from_millis(1)).is_ok());
        // The race itself, with the lock taken as the waiter would take it.
        // Slot 0 exits first, so driving the later scan would complete it.
        eng.epochs().exit(0);
        let st = eng.scan.try_lock().unwrap();
        assert!(eng.drive_held(st, done.period(), None, None));
        assert_eq!(eng.scans(), 1, "the later scan was left alone");
        later.wait();
        assert_eq!(eng.scans(), 2);
    }

    /// A waiter that completes an older period runs that period's callbacks
    /// and collection before it opens its own scan: both happen while the
    /// waiter is still pinned on its own period, with or without a driver
    /// (a driver cannot run them while the waiter holds the scan lock).
    #[test]
    fn an_older_periods_work_runs_while_a_held_waiter_is_pinned() {
        for with_driver in [false, true] {
            let eng = GraceEngine::new(2);
            let _driver = with_driver
                .then(|| GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK));
            let drops = Arc::new(AtomicUsize::new(0));
            let fired = Arc::new(AtomicBool::new(false));
            eng.epochs().enter(0);
            let first = eng.issue();
            eng.defer_drop_batch(counted_batch(&drops, 1), 1);
            {
                let fired = Arc::clone(&fired);
                first
                    .clone()
                    .on_complete(move || fired.store(true, Ordering::SeqCst));
            }
            assert!(!first.poll(), "the period-1 scan pends on slot 0");
            let second = eng.issue();
            assert_eq!(second.period(), 2);
            eng.epochs().enter(1);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| second.wait());
                std::thread::sleep(Duration::from_millis(20));
                eng.epochs().exit(0);
                let deadline = Instant::now() + Duration::from_secs(10);
                let served = || fired.load(Ordering::SeqCst) && drops.load(Ordering::SeqCst) == 1;
                while !served() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let pinned = !waiter.is_finished();
                // Unpin before asserting, so a failure cannot hang the scope.
                eng.epochs().exit(1);
                assert!(served(), "period 1's work stranded (driver: {with_driver})");
                assert!(pinned, "slot 1 pins period 2");
            });
            assert_eq!(eng.scans(), 2);
        }
    }

    /// The Dekker pair between registration and completion: one thread
    /// keeps registering callbacks and retirements while another keeps
    /// completing periods. After a final wait every callback has fired
    /// exactly once and every retired cell has been collected — a
    /// completer that skipped a list on a zero count stranded nothing.
    #[test]
    fn registrations_racing_completions_are_never_stranded() {
        const N: usize = 2_000;
        let eng = GraceEngine::new(2);
        let fired: Arc<Vec<AtomicUsize>> = Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
        let drops = Arc::new(AtomicUsize::new(0));
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    let fired = Arc::clone(&fired);
                    eng.issue().on_complete(move || {
                        fired[i].fetch_add(1, Ordering::SeqCst);
                    });
                    eng.defer_drop_batch(counted_batch(&drops, 2), 2);
                    if i % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    eng.issue().wait();
                }
            });
        });
        eng.issue().wait();
        for (i, f) in fired.iter().enumerate() {
            assert_eq!(f.load(Ordering::SeqCst), 1, "callback {i}");
        }
        assert_eq!(eng.retired_boxes(), 2 * N as u64);
        assert_eq!(eng.collected_boxes(), eng.retired_boxes());
        assert_eq!(drops.load(Ordering::SeqCst), 2 * N);
        assert_eq!(eng.retired_pending(), 0);
    }

    /// The same pair with no final wait to sweep up: under a driver, each
    /// registration must be served by the completion it raced. A completer
    /// that skipped a list on a stale zero count would leave the driver
    /// parked (nothing pending) over a due callback or retirement.
    #[test]
    fn driver_serves_every_registration_without_a_later_wait() {
        let eng = GraceEngine::new(2);
        let _driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let drops = Arc::new(AtomicUsize::new(0));
        for i in 0..200u64 {
            // The issue wakes the driver, which closes and completes the
            // period while each registration below races it; nothing after
            // the registration wakes the driver again.
            let fired = Arc::new(AtomicBool::new(false));
            {
                let fired = Arc::clone(&fired);
                eng.issue()
                    .on_complete(move || fired.store(true, Ordering::SeqCst));
            }
            sleep_until("the raced callback", || fired.load(Ordering::SeqCst));
            let _ticket = eng.issue();
            eng.defer_drop_batch(counted_batch(&drops, 1), 1);
            sleep_until("the raced retirement", || {
                drops.load(Ordering::SeqCst) as u64 == i + 1
            });
        }
        assert_eq!(eng.collected_boxes(), eng.retired_boxes());
    }

    /// Sleep-wait (NOT poll — polling would drive the engine and defeat
    /// the zero-poller liveness regressions) until `cond`, with a generous
    /// bound so a broken driver fails fast instead of hanging CI.
    fn sleep_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// THE liveness regression: a fire-and-forget callback with zero
    /// pollers/waiters must fire within bounded time under a driver.
    /// (Without one it would never fire — nobody drives the engine.)
    #[test]
    fn driver_fires_callback_with_zero_pollers() {
        let eng = GraceEngine::new(2);
        let _driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let fired = Arc::new(AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            eng.issue().on_complete(move || {
                fired.store(true, Ordering::SeqCst);
            });
        }
        // No poll, no wait, no other traffic: only the driver can do this.
        sleep_until("fire-and-forget callback", || fired.load(Ordering::SeqCst));
        assert!(eng.is_complete(1));
    }

    /// The driver must NOT retire a period early: a critical section active
    /// at issue pins the period until it exits.
    #[test]
    fn driver_waits_for_active_section() {
        let eng = GraceEngine::new(2);
        let _driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        eng.epochs().enter(0);
        let fired = Arc::new(AtomicBool::new(false));
        let ticket = eng.issue();
        {
            let fired = Arc::clone(&fired);
            ticket.clone().on_complete(move || {
                fired.store(true, Ordering::SeqCst);
            });
        }
        // Give the driver ample time to (wrongly) retire the period.
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !fired.load(Ordering::SeqCst),
            "retired under an active section"
        );
        assert!(!eng.is_complete(ticket.period()));
        eng.epochs().exit(0);
        sleep_until("callback after exit", || fired.load(Ordering::SeqCst));
    }

    /// Coalescing survives the driver, deterministically: pin a section so
    /// the driver's first scan cannot finish — the *next* period then stays
    /// open however long we take to issue into it — and check all tickets
    /// issued meanwhile retire on one scan.
    #[test]
    fn driver_preserves_coalescing() {
        let eng = GraceEngine::new(2);
        let _driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        eng.epochs().enter(0);
        let sacrificial = eng.issue();
        assert_eq!(sacrificial.period(), 1);
        // The driver wakes, closes period 1 and starts its scan, which
        // pends on slot 0. Period 2 cannot close until that scan finishes.
        sleep_until("driver to open period 2", || eng.open_period() == 2);
        let tickets: Vec<GraceTicket> = (0..8).map(|_| eng.issue()).collect();
        for t in &tickets {
            assert_eq!(t.period(), 2, "period 2 is pinned open");
        }
        assert_eq!(eng.scans(), 0, "scan 1 still in progress");
        eng.epochs().exit(0);
        sleep_until("driver to retire period 2", || eng.is_complete(2));
        assert_eq!(eng.scans(), 2, "8 tickets coalesced behind one scan");
    }

    /// Dropping the driver drains: outstanding callbacks run before drop
    /// returns, so shutdown never loses a requested grace period.
    #[test]
    fn driver_shutdown_drains_callbacks() {
        let eng = GraceEngine::new(2);
        let driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let fired = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let fired = Arc::clone(&fired);
            eng.issue().on_complete(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(driver); // immediately — the drain must still run them
        assert_eq!(fired.load(Ordering::SeqCst), 3, "drop must drain");
        assert!(!eng.has_pending());
        // The engine keeps working thread-free after detach.
        let t = eng.issue();
        t.wait();
        assert!(t.poll());
    }

    /// The single-driver invariant is checked, and detach (shutdown)
    /// re-arms the engine for a fresh driver.
    #[test]
    fn second_driver_attach_is_rejected_until_detach() {
        let eng = GraceEngine::new(2);
        let mut first = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK)
        }));
        assert!(second.is_err(), "double attach must be rejected");
        first.shutdown();
        // After a clean detach a new driver may attach and still works.
        let _third = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let fired = Arc::new(AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            eng.issue().on_complete(move || {
                fired.store(true, Ordering::SeqCst);
            });
        }
        sleep_until("callback under the re-attached driver", || {
            fired.load(Ordering::SeqCst)
        });
    }

    /// The adaptive idle tick (ROADMAP driver follow-up): an idle driver's
    /// wake count must drop well below the fixed-minimum-tick rate — the
    /// backoff doubles the fallback interval up to `MAX_IDLE_TICK` — while
    /// explicit wakeups stay immediate (a later fire-and-forget ticket
    /// still retires in bounded time).
    #[test]
    fn idle_driver_wake_count_drops() {
        let eng = GraceEngine::new(2);
        let driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        // One real work cycle so the driver has been through its busy path
        // (which resets the backoff) before the idle stretch.
        let fired = Arc::new(AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            eng.issue().on_complete(move || {
                fired.store(true, Ordering::SeqCst);
            });
        }
        sleep_until("initial callback", || fired.load(Ordering::SeqCst));

        // Wait until the driver provably entered idle ticking (robust to
        // scheduler starvation on a loaded 1-core host), then measure a
        // fixed window against the wall time it actually spanned.
        sleep_until("first idle wakeup", || driver.idle_wakeups() >= 1);
        let before = driver.idle_wakeups();
        let started = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(300));
        let idle = driver.idle_wakeups() - before;
        let elapsed = started.elapsed();
        // A fixed DEFAULT_TICK driver would take ~one wakeup per tick over
        // the window (~300 here). The doubling backoff takes at most
        // ~log2(MAX/MIN) + elapsed/MAX_IDLE_TICK ≈ 12. Assert a 4x margin
        // under the fixed rate so scheduler noise can't flake the bound.
        let fixed_rate = (elapsed.as_millis() / GraceDriver::DEFAULT_TICK.as_millis()) as u64;
        assert!(
            idle < fixed_rate / 4,
            "adaptive idle tick must cut wakeups well below the fixed-tick \
             rate: {idle} vs ~{fixed_rate} over {elapsed:?}"
        );

        // Back-off must not cost responsiveness: an explicit issue wakes
        // the driver through the condvar immediately.
        let fired = Arc::new(AtomicBool::new(false));
        let issued_at = std::time::Instant::now();
        {
            let fired = Arc::clone(&fired);
            eng.issue().on_complete(move || {
                fired.store(true, Ordering::SeqCst);
            });
        }
        sleep_until("post-idle callback", || fired.load(Ordering::SeqCst));
        assert!(
            issued_at.elapsed() < Duration::from_secs(5),
            "a backed-off driver must still wake on issue"
        );
    }

    /// The tick hook runs on every driver wakeup — including pure fallback
    /// ticks with no engine work — and may itself drive the engine: the
    /// periodic channel the STM contention governor uses to settle
    /// reconfigurations in bounded time without transaction traffic.
    #[test]
    fn driver_tick_hook_fires_while_idle_and_may_drive() {
        let eng = GraceEngine::new(2);
        let driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let ticks = Arc::new(AtomicUsize::new(0));
        {
            let ticks = Arc::clone(&ticks);
            let eng = Arc::clone(&eng);
            driver.set_tick_hook(move || {
                ticks.fetch_add(1, Ordering::SeqCst);
                // Hooks may drive: poll whatever has been issued so far.
                eng.drive(eng.issued());
            });
        }
        // No issues, no pollers: only fallback ticks can run the hook.
        sleep_until("three idle tick-hook firings", || {
            ticks.load(Ordering::SeqCst) >= 3
        });
        // A fire-and-forget ticket still retires (the hook coexists with
        // the drain loop) and its wakeup also ticks the hook.
        let fired = Arc::new(AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            eng.issue().on_complete(move || {
                fired.store(true, Ordering::SeqCst);
            });
        }
        sleep_until("callback under a hooked driver", || {
            fired.load(Ordering::SeqCst)
        });
    }

    /// `has_pending`/`issued` track the ticket lifecycle.
    #[test]
    fn pending_view_tracks_tickets() {
        let eng = GraceEngine::new(2);
        assert!(!eng.has_pending());
        assert_eq!(eng.issued(), 0);
        let t = eng.issue();
        assert!(eng.has_pending());
        assert_eq!(eng.issued(), 1);
        t.wait();
        assert!(!eng.has_pending());
    }

    /// Driver + cooperative waiters at once: both may drive, nobody hangs,
    /// under continuous enter/exit traffic.
    #[test]
    fn driver_and_waiters_coexist_under_traffic() {
        let eng = GraceEngine::new(2);
        let _driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let eng = Arc::clone(&eng);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    eng.epochs().enter(0);
                    eng.epochs().exit(0);
                }
            })
        };
        for _ in 0..50 {
            eng.issue().wait();
        }
        stop.store(true, Ordering::SeqCst);
        worker.join().unwrap();
    }

    /// A drop-counting payload: every drop bumps the shared counter, so
    /// leaks (count short) and double drops (count high / UB caught by
    /// miri-style reasoning) are both visible.
    struct CountedDrop(Arc<AtomicUsize>);
    impl Drop for CountedDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// EBR core contract: a retirement is pinned by every critical section
    /// active at `defer_drop` and dropped exactly once after they exit.
    #[test]
    fn defer_drop_waits_for_grace_then_drops_once() {
        let eng = GraceEngine::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        eng.epochs().enter(0);
        eng.defer_drop(Box::new(CountedDrop(Arc::clone(&drops))));
        assert_eq!(eng.retired_pending(), 1);
        assert!(eng.has_pending(), "retirement counts as pending work");
        let t = eng.issue();
        assert!(!t.poll(), "slot 0 still active");
        assert_eq!(drops.load(Ordering::SeqCst), 0, "pinned by the section");
        eng.epochs().exit(0);
        t.wait();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dropped exactly once");
        assert_eq!(eng.retired_boxes(), 1);
        assert_eq!(eng.collected_boxes(), 1);
        assert!(eng.collect_passes() >= 1);
        assert_eq!(eng.retired_pending(), 0);
    }

    /// Retirements batch behind one scan exactly like tickets do.
    #[test]
    fn retirements_coalesce_behind_one_collection_pass() {
        let eng = GraceEngine::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            eng.defer_drop(Box::new(CountedDrop(Arc::clone(&drops))));
        }
        eng.issue().wait();
        assert_eq!(drops.load(Ordering::SeqCst), 16);
        assert_eq!(eng.collect_passes(), 1, "16 boxes, one pass");
    }

    /// The zero-poller liveness extends to reclamation: with a driver
    /// attached, `defer_drop` alone (no tickets, no pollers) is collected
    /// within bounded time.
    #[test]
    fn driver_collects_retirements_with_zero_pollers() {
        let eng = GraceEngine::new(2);
        let _driver = GraceDriver::spawn(Arc::clone(&eng), GraceDriver::DEFAULT_TICK);
        let drops = Arc::new(AtomicUsize::new(0));
        eng.defer_drop(Box::new(CountedDrop(Arc::clone(&drops))));
        sleep_until("driver to collect the retirement", || {
            drops.load(Ordering::SeqCst) == 1
        });
        assert_eq!(eng.collected_boxes(), 1);
    }

    /// `n` drop-counting cells as one piece of garbage.
    fn counted_batch(drops: &Arc<AtomicUsize>, n: usize) -> Retired {
        let cells: Vec<_> = (0..n).map(|_| CountedDrop(Arc::clone(drops))).collect();
        Box::new(cells)
    }

    /// Whatever is still retired when the engine drops is freed then —
    /// exactly once, never leaked — single boxes and batches alike.
    #[test]
    fn engine_drop_frees_uncollected_retirements() {
        let eng = GraceEngine::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        eng.defer_drop(Box::new(CountedDrop(Arc::clone(&drops))));
        eng.defer_drop(Box::new(CountedDrop(Arc::clone(&drops))));
        eng.defer_drop_batch(counted_batch(&drops, 3), 3);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "nobody drove a scan");
        assert_eq!(eng.retired_pending(), 5);
        drop(eng);
        assert_eq!(drops.load(Ordering::SeqCst), 5, "freed with the engine");
    }

    /// Every retire counter counts cells: a batch entry weighs its `n`, a
    /// plain `defer_drop` weighs 1, and a pass is one pass however many
    /// cells it frees.
    #[test]
    fn retire_counters_count_cells_across_mixed_entries() {
        let eng = GraceEngine::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        eng.defer_drop(Box::new(CountedDrop(Arc::clone(&drops))));
        eng.defer_drop_batch(counted_batch(&drops, 5), 5);
        eng.defer_drop_batch(counted_batch(&drops, 64), 64);
        assert_eq!(eng.retired_boxes(), 70);
        assert_eq!(eng.retired_pending(), 70);
        assert_eq!(eng.collected_boxes(), 0);
        eng.issue().wait();
        assert_eq!(drops.load(Ordering::SeqCst), 70);
        assert_eq!(eng.collected_boxes(), 70);
        assert_eq!(eng.collect_passes(), 1, "three entries, one pass");
        assert_eq!(eng.retired_pending(), 0);
    }

    /// A collection pass extracts only what is due: an entry stamped with
    /// the period *after* the completing one stays listed, uncounted and
    /// undropped, until its own period completes.
    #[test]
    fn a_not_yet_due_entry_survives_a_collection_pass() {
        let eng = GraceEngine::new(2);
        let drops = Arc::new(AtomicUsize::new(0));
        eng.epochs().enter(0);
        eng.defer_drop_batch(counted_batch(&drops, 3), 3);
        let first = eng.issue();
        // Closes period 1; its scan now pends on slot 0, so period 2 is
        // open and stamps the next retirement.
        assert!(!first.poll());
        eng.defer_drop_batch(counted_batch(&drops, 2), 2);
        eng.epochs().exit(0);
        first.wait();
        assert_eq!(drops.load(Ordering::SeqCst), 3, "only period 1 was due");
        assert_eq!(eng.collected_boxes(), 3);
        assert_eq!(eng.retired_pending(), 2, "the period-2 entry survived");
        // A pass with nothing due changes nothing.
        eng.collect_retired();
        assert_eq!((eng.collect_passes(), eng.retired_pending()), (1, 2));
        eng.issue().wait();
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        assert_eq!((eng.collected_boxes(), eng.collect_passes()), (5, 2));
        drop(eng);
        assert_eq!(drops.load(Ordering::SeqCst), 5, "nothing dropped twice");
    }

    /// Many threads hammering enter/exit while a fencer loops: smoke test
    /// for loss of signals / hangs.
    #[test]
    fn stress_many_threads() {
        let n = 8;
        let table = Arc::new(EpochTable::new(n));
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for t in 0..n - 1 {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                let mut count = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    table.enter(t);
                    count = count.wrapping_add(1);
                    std::hint::black_box(count);
                    table.exit(t);
                }
            }));
        }
        for _ in 0..200 {
            table.wait_quiescent(Some(n - 1));
        }
        stop.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().unwrap();
        }
    }
}
