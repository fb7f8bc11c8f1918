//! The shared STM runtime layer.
//!
//! Everything the paper's TM interface (Fig 4) needs but that is *not*
//! concurrency control lives here, once, instead of being copied into every
//! algorithm: the register file, epoch-table registration for transactional
//! fences, [`Recorder`] wiring for offline checking, [`Stats`] accounting,
//! uninstrumented direct access, and the `atomic` retry loop with
//! exponential backoff under contention.
//!
//! A concrete STM is a [`Policy`] — a concurrency-control strategy deciding
//! how transactional reads, writes, and commits synchronize (TL2 over a
//! [`crate::storage::LockTable`], NOrec's global sequence lock, a single
//! global lock). [`Handle`] composes a policy with the runtime and
//! implements [`StmHandle`] exactly once, so the recorded-history shape —
//! `TxBegin/Ok … TxCommit/(Committed|Aborted)`, responses recorded before
//! the epoch exit — is identical for every algorithm, and every algorithm
//! gets fences, recording, and backoff for free.

use crate::api::{Abort, Stats, StmFactory, StmHandle, TxScope};
use crate::clock::ClockKind;
use crate::fence::{FenceTicket, FenceTimeout};
use crate::record::Recorder;
use crate::storage::{splitmix64, StorageKind};
use crate::tvar::OwnedCell;
use crate::vlock::{reg_file, RegCell};
use crossbeam::utils::CachePadded;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tm_chaos::{Chaos, Site};
use tm_core::action::Kind;
use tm_core::ids::Reg;
use tm_quiesce::{EpochTable, GraceDriver, GraceEngine};
use tm_telemetry::{
    AbortCause, EventKind, LatencyClass, Telemetry, TelemetrySnapshot, TraceConfig, SAMPLE_EVERY,
};

/// Exponential-backoff tuning for the shared retry loop.
///
/// After the `a`-th consecutive abort the loop spins a uniformly jittered
/// number of iterations up to `spin_base << min(a, max_shift)`, and once
/// `a >= yield_after` it additionally yields to the scheduler. Jitter is a
/// per-slot splitmix64 hash, so contending threads fall out of lockstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffCfg {
    /// Spin iterations for the first retry (0 disables spinning).
    pub spin_base: u32,
    /// Cap on the exponential growth: spins top out at `spin_base << max_shift`.
    pub max_shift: u32,
    /// Consecutive aborts after which the loop also yields the thread.
    pub yield_after: u32,
}

impl Default for BackoffCfg {
    fn default() -> Self {
        BackoffCfg {
            spin_base: 8,
            max_shift: 8,
            yield_after: 6,
        }
    }
}

impl BackoffCfg {
    /// No spinning, no yielding: retry immediately (the seed's NOrec shape).
    pub fn none() -> Self {
        BackoffCfg {
            spin_base: 0,
            max_shift: 0,
            yield_after: u32::MAX,
        }
    }
}

/// The retry budget of the shared `atomic` loop: how many optimistic
/// attempts (and how much wall-clock) a transaction may burn before the
/// runtime stops gambling and *escalates* — takes the runtime-wide
/// escalation token, drains in-flight transactions, and re-runs the body
/// serialized and effectively irrevocable (see
/// [`Handle`]'s escalation path). The default is unlimited — the classic
/// optimistic loop — so budgets are strictly opt-in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Escalate after this many aborted attempts (`None` = never by count).
    pub max_attempts: Option<u32>,
    /// Escalate once the transaction has been retrying this long, measured
    /// from its first `begin` (`None` = never by time). Checked *before*
    /// the backoff pause, so an expired transaction escalates immediately
    /// instead of paying one last sleep first.
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// The default: retry forever, never escalate.
    pub fn unlimited() -> Self {
        RetryPolicy::default()
    }

    /// Escalate after `n` aborted attempts.
    pub fn attempts(n: u32) -> Self {
        RetryPolicy {
            max_attempts: Some(n),
            ..RetryPolicy::default()
        }
    }

    /// Escalate once `d` of wall-clock has been spent retrying.
    pub fn deadline(d: Duration) -> Self {
        RetryPolicy {
            deadline: Some(d),
            ..RetryPolicy::default()
        }
    }
}

/// How the runtime's grace-period engine advances — i.e. who retires the
/// periods behind [`crate::fence::FenceTicket`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriverMode {
    /// No background thread (the default): periods advance cooperatively,
    /// driven by whoever polls or waits on a ticket. Thread-free and
    /// 1-core friendly — but a fire-and-forget
    /// [`on_complete`](crate::fence::FenceTicket::on_complete) callback
    /// only fires when some later caller happens to drive the engine.
    #[default]
    Cooperative,
    /// A [`GraceDriver`] thread owned by the [`Runtime`] retires periods
    /// with zero pollers: `on_complete` fires within bounded time, and
    /// every privatizer fully overlaps its post-fence work. Dropping the
    /// runtime drains outstanding periods/callbacks before detaching.
    Background,
}

impl DriverMode {
    /// Both driver modes, for matrix tests and benches.
    pub const ALL: [DriverMode; 2] = [DriverMode::Cooperative, DriverMode::Background];

    /// Human-readable mode label (bench/report key).
    pub fn label(self) -> &'static str {
        match self {
            DriverMode::Cooperative => "cooperative",
            DriverMode::Background => "background",
        }
    }

    /// Process-wide default, read once: `TM_STM_DRIVER=background` opts
    /// every [`StmConfig::new`] into the background driver (how CI runs
    /// the whole suite driver-on). Anything else means cooperative.
    /// [`StmConfig::grace_driver`] overrides per instance either way.
    pub fn from_env() -> Self {
        static MODE: std::sync::OnceLock<DriverMode> = std::sync::OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("TM_STM_DRIVER").as_deref() {
            Ok("background") => DriverMode::Background,
            _ => DriverMode::Cooperative,
        })
    }
}

/// Construction-time configuration shared by all STM frontends.
#[derive(Clone)]
pub struct StmConfig {
    /// Number of registers in the instance's register file.
    pub nregs: usize,
    /// Number of thread slots (handles) the instance supports.
    pub nthreads: usize,
    /// Lock-metadata layout, for policies that use versioned locks
    /// (ignored by NOrec and the global lock).
    pub storage: StorageKind,
    /// Version-clock backend, for timestamp-based policies (ignored by
    /// NOrec and the global lock).
    pub clock: ClockKind,
    /// Who drives the grace-period engine (defaults to
    /// [`DriverMode::from_env`]).
    pub driver: DriverMode,
    /// Retry-loop backoff tuning.
    pub backoff: BackoffCfg,
    /// Retry budget before escalating to the irrevocable serial fallback
    /// (defaults to unlimited — never escalate).
    pub retry: RetryPolicy,
    /// Optional history recorder shared by every handle.
    pub recorder: Option<Arc<Recorder>>,
    /// Flight-recorder / latency-histogram configuration (defaults to
    /// [`TraceConfig::from_env`], i.e. the `TM_STM_TRACE` knob).
    pub trace: TraceConfig,
    /// Fault-injection seed (defaults to [`tm_chaos::seed_from_env`], i.e.
    /// the `TM_STM_CHAOS` knob; `None` = injection off, one relaxed load
    /// per site).
    pub chaos: Option<u64>,
}

impl StmConfig {
    /// The default configuration for `nregs` registers × `nthreads`
    /// thread slots.
    pub fn new(nregs: usize, nthreads: usize) -> Self {
        StmConfig {
            nregs,
            nthreads,
            storage: StorageKind::default(),
            clock: ClockKind::default(),
            driver: DriverMode::from_env(),
            backoff: BackoffCfg::default(),
            retry: RetryPolicy::default(),
            recorder: None,
            trace: TraceConfig::from_env(),
            chaos: tm_chaos::seed_from_env(),
        }
    }

    /// The self-tuning configuration — the recommended default when the
    /// workload is not known in advance. Selects the adaptive striped orec
    /// table with its stripe count *seeded from `nregs`*
    /// ([`crate::storage::AdaptivePolicy::default`]'s seed-from-registers
    /// sentinel) and the governor-switchable [`ClockKind::Auto`] version
    /// clock, which arms the per-instance contention governor in TL2: a
    /// control loop over commit/abort telemetry that grows *and shrinks*
    /// the stripe table and hands off between the GV1 and GV5 clock
    /// disciplines online, all through epoch-safe, grace-fenced
    /// reconfigurations (see [`crate::storage`] and [`crate::clock`]).
    pub fn auto(nregs: usize, nthreads: usize) -> Self {
        Self::new(nregs, nthreads)
            .adaptive_stripes(crate::storage::AdaptivePolicy::default())
            .clock(ClockKind::Auto)
    }

    /// Select the lock-metadata layout for versioned-lock policies.
    pub fn storage(mut self, storage: StorageKind) -> Self {
        self.storage = storage;
        self
    }

    /// Shorthand for a striped orec table with `stripes` lock words.
    pub fn striped(self, stripes: usize) -> Self {
        self.storage(StorageKind::Striped { stripes })
    }

    /// Shorthand for the contention-aware *adaptive* striped orec table:
    /// starts at `policy.start` stripes and doubles (up to `policy.max`)
    /// whenever the false-conflict rate over a `policy.window`-commit
    /// sliding window reaches `policy.threshold` percent, through an
    /// epoch-safe generation rehash retired by the runtime's grace engine
    /// (see [`crate::storage`]).
    pub fn adaptive_stripes(self, policy: crate::storage::AdaptivePolicy) -> Self {
        self.storage(StorageKind::Adaptive(policy))
    }

    /// Select the global version-clock backend (GV1 `fetch_add`, GV4
    /// CAS-with-adopt, or GV5 slot-local deltas — see [`crate::clock`]).
    pub fn clock(mut self, clock: ClockKind) -> Self {
        self.clock = clock;
        self
    }

    /// Select who drives the grace-period engine: cooperative (thread-free
    /// default) or a runtime-owned background [`GraceDriver`].
    pub fn grace_driver(mut self, driver: DriverMode) -> Self {
        self.driver = driver;
        self
    }

    /// Tune the shared retry loop's exponential backoff.
    pub fn backoff(mut self, backoff: BackoffCfg) -> Self {
        self.backoff = backoff;
        self
    }

    /// Bound the retry loop: escalate to the irrevocable serial fallback
    /// once the budget is exhausted (see [`RetryPolicy`]).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arm deterministic fault injection with `seed` (see [`tm_chaos`]),
    /// overriding the `TM_STM_CHAOS` environment default for this instance.
    pub fn chaos_seed(mut self, seed: u64) -> Self {
        self.chaos = Some(seed);
        self
    }

    /// Force fault injection off for this instance, overriding a
    /// `TM_STM_CHAOS` environment default (overhead pin tests rely on
    /// this running unperturbed under the chaos CI pass).
    pub fn chaos_off(mut self) -> Self {
        self.chaos = None;
        self
    }

    /// Attach a history [`Recorder`] shared by every handle.
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Override the telemetry [`TraceConfig`] (flight-recorder capacity /
    /// off switch) instead of inheriting the `TM_STM_TRACE` default.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

/// The shared, policy-independent state of one STM instance: register file,
/// fence epochs, and the optional history recorder.
///
/// The register file is one dense array of 16-byte [`RegCell`]s — value
/// and ownership record side by side, four registers per cache line, no
/// padding — and TL2's per-register lock table is a view over the same
/// cells (it shares the `Arc`). Adjacent registers may false-share: the
/// trade production STMs make for their data arrays, here extended to the
/// metadata (see `docs/ARCHITECTURE.md`: unmeasured at scale).
pub struct Runtime {
    cells: Arc<[RegCell]>,
    /// The grace-period engine: owns the epoch table, numbers grace
    /// periods, and batches every fence ticket issued during the same open
    /// period behind one epoch-table scan.
    grace: Arc<GraceEngine>,
    /// The optional background grace-period driver
    /// ([`DriverMode::Background`]). Dropping the runtime shuts it down
    /// cleanly: outstanding periods are drained (callbacks run) first.
    driver: Option<GraceDriver>,
    recorder: Option<Arc<Recorder>>,
    /// The instance's telemetry hub: per-slot latency histograms plus the
    /// flight-recorder rings (see [`tm_telemetry`]). Always present. When
    /// tracing is off every event site costs exactly one relaxed load;
    /// when it is on (the default) a handle times one attempt in
    /// [`SAMPLE_EVERY`] and the rest touch no clock and no telemetry word,
    /// so a steady-state transaction pays nothing either way.
    telemetry: Arc<Telemetry>,
    /// Additive per-tick hooks multiplexed onto the background driver's
    /// single hook slot (governor polls, telemetry export, ...).
    tick_hooks: Arc<Mutex<Vec<TickHook>>>,
    /// The instance's fault-injection plan (see [`tm_chaos`]). Always
    /// present; inert unless the config carried a seed, in which case
    /// policies consult it at their injection sites.
    chaos: Arc<Chaos>,
    /// The runtime-wide escalation token: 0 = free, otherwise `slot + 1` of
    /// the handle running irrevocably. While held, every other handle parks
    /// at the begin gate (before its epoch entry), so the holder can drain
    /// in-flight transactions and run alone.
    escalation: CachePadded<AtomicU64>,
    /// Blocking-retry wait registry: `(register, waiter)` pairs, one entry
    /// per watched register of every parked [`RetryWaiter`]. Commit
    /// write-backs consult it through [`Runtime::store`]'s wake hook.
    retry_waiters: Mutex<Vec<(usize, Arc<RetryWaiter>)>>,
    /// Number of live registry entries — the one load the store fast path
    /// pays. Raised *after* pushing entries (under the registry lock) and
    /// lowered after removing them; both `SeqCst`, which is what makes the
    /// validate-then-sleep protocol lost-wakeup-free (see
    /// [`Runtime::store`]).
    retry_waiter_count: CachePadded<AtomicU64>,
}

/// The wait-on-retry control block of one blocking `retry`: the parked
/// transaction sleeps on the condvar, and any commit that writes one of
/// the registers the waiter registered on marks it woken. Spurious wakeups
/// are fine (the transaction just re-runs); lost wakeups are not —
/// the registration / validation / sleep protocol in
/// `tvar::TypedHandle::atomically` guarantees a conflicting commit either
/// aborts the validation read or delivers this wakeup.
pub struct RetryWaiter {
    state: Mutex<RetryWaitState>,
    cv: Condvar,
}

struct RetryWaitState {
    woken: bool,
    /// Register whose store delivered the wakeup (`usize::MAX` until then).
    woke_reg: usize,
}

impl RetryWaiter {
    /// A fresh, unwoken control block.
    pub fn new() -> Arc<Self> {
        Arc::new(RetryWaiter {
            state: Mutex::new(RetryWaitState {
                woken: false,
                woke_reg: usize::MAX,
            }),
            cv: Condvar::new(),
        })
    }

    /// Mark the waiter woken by a store to `reg` and notify it. Idempotent;
    /// the first wake's register wins.
    fn wake(&self, reg: usize) {
        let mut st = self.state.lock().unwrap();
        if !st.woken {
            st.woken = true;
            st.woke_reg = reg;
        }
        self.cv.notify_all();
    }

    /// Block until woken; returns the register whose store woke us.
    pub fn sleep(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        while !st.woken {
            st = self.cv.wait(st).unwrap();
        }
        st.woke_reg
    }

    /// Has a conflicting store already woken this waiter?
    pub fn is_woken(&self) -> bool {
        self.state.lock().unwrap().woken
    }
}

/// One registered driver-tick hook (see [`Runtime::set_tick_hook`]).
type TickHook = Arc<dyn Fn() + Send + Sync>;

impl Runtime {
    /// Build the shared runtime for one instance (register file, grace
    /// engine, optional driver thread, optional recorder).
    pub fn new(cfg: &StmConfig) -> Arc<Self> {
        let grace = GraceEngine::new(cfg.nthreads);
        let telemetry = Telemetry::new(cfg.nthreads, cfg.trace);
        grace.set_telemetry(Arc::clone(&telemetry));
        let chaos = Chaos::new(cfg.chaos);
        grace.set_chaos(Arc::clone(&chaos));
        let driver = (cfg.driver == DriverMode::Background)
            .then(|| GraceDriver::spawn(Arc::clone(&grace), GraceDriver::DEFAULT_TICK));
        Arc::new(Runtime {
            cells: reg_file(cfg.nregs),
            grace,
            driver,
            recorder: cfg.recorder.clone(),
            telemetry,
            tick_hooks: Arc::new(Mutex::new(Vec::new())),
            chaos,
            escalation: CachePadded::new(AtomicU64::new(0)),
            retry_waiters: Mutex::new(Vec::new()),
            retry_waiter_count: CachePadded::new(AtomicU64::new(0)),
        })
    }

    /// Which [`DriverMode`] this runtime was built with.
    pub fn driver_mode(&self) -> DriverMode {
        if self.driver.is_some() {
            DriverMode::Background
        } else {
            DriverMode::Cooperative
        }
    }

    /// Number of registers in the register file.
    pub fn nregs(&self) -> usize {
        self.cells.len()
    }

    /// The register file, for policies whose metadata lives in the cells
    /// (TL2's per-register lock table).
    pub(crate) fn file(&self) -> &Arc<[RegCell]> {
        &self.cells
    }

    /// Number of thread slots.
    pub fn nthreads(&self) -> usize {
        self.epochs().nthreads()
    }

    /// The epoch table transactions register their critical sections in.
    pub fn epochs(&self) -> &EpochTable {
        self.grace.epochs()
    }

    /// The grace-period engine fences are issued through.
    pub fn grace(&self) -> &Arc<GraceEngine> {
        &self.grace
    }

    /// Install a per-tick hook on the background [`GraceDriver`], if this
    /// runtime owns one ([`DriverMode::Background`]): the driver thread
    /// then invokes `f` once per wakeup, outside every engine lock. This is
    /// how the contention governor gets its liveness under the background
    /// driver — the hook polls open reconfigurations (stripe migrations,
    /// clock handoffs) so they settle without transaction traffic — and
    /// how periodic telemetry export gets its cadence
    /// ([`Runtime::set_telemetry_export`]). Hooks are *additive*: each
    /// call registers another hook, all of which run (in registration
    /// order, outside the registry lock) once per driver wakeup. Returns
    /// whether a driver was present; under [`DriverMode::Cooperative`]
    /// nothing is installed (`false`) and the same polls ride transaction
    /// begins instead.
    pub fn set_tick_hook(&self, f: impl Fn() + Send + Sync + 'static) -> bool {
        let Some(d) = &self.driver else { return false };
        let mut hooks = self.tick_hooks.lock().unwrap();
        hooks.push(Arc::new(f));
        if hooks.len() == 1 {
            // First registration: point the driver's single hook slot at
            // the registry. Snapshot under the lock, run outside it, so a
            // hook may itself register hooks without deadlocking.
            let registry = Arc::clone(&self.tick_hooks);
            d.set_tick_hook(move || {
                let snapshot: Vec<_> = registry.lock().unwrap().clone();
                for hook in snapshot {
                    hook();
                }
            });
        }
        true
    }

    /// This instance's telemetry hub (histograms + flight recorder).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// This instance's fault-injection plan (inert unless the config
    /// carried a seed). Tests arm one-shot panics through this.
    pub fn chaos(&self) -> &Arc<Chaos> {
        &self.chaos
    }

    /// Should this visit to `site` by `slot` behave as the injected
    /// conflict? One relaxed load when injection is off. An escalated
    /// handle is exempt — its attempt is irrevocable by contract, and a
    /// forced abort there could livelock the very fallback that exists to
    /// guarantee progress.
    #[inline]
    pub fn chaos_abort(&self, slot: u16, site: Site) -> bool {
        if !self.chaos.enabled() {
            return false;
        }
        if self.escalation.load(Ordering::Relaxed) == u64::from(slot) + 1 {
            return false;
        }
        self.chaos.should_abort(site)
    }

    /// Maybe stall this visit to `site` (inert plans return after one
    /// relaxed load).
    #[inline]
    pub fn chaos_delay(&self, site: Site) {
        self.chaos.maybe_delay(site);
    }

    /// The slot currently holding the escalation token, if any.
    pub fn escalated(&self) -> Option<usize> {
        match self.escalation.load(Ordering::Acquire) {
            0 => None,
            s => Some((s - 1) as usize),
        }
    }

    /// The begin gate: park while another handle runs escalated. Sits
    /// *before* the epoch entry in [`Handle`]'s begin path, so gated
    /// threads hold no epoch slot (and no policy lock) — which is what
    /// lets the escalated handle's drain terminate.
    #[inline]
    fn escalation_gate(&self, slot: u16) {
        let me = u64::from(slot) + 1;
        loop {
            let cur = self.escalation.load(Ordering::Acquire);
            if cur == 0 || cur == me {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Take the escalation token (spins; at most one holder at a time).
    fn escalation_acquire(&self, slot: u16) {
        let me = u64::from(slot) + 1;
        while self
            .escalation
            .compare_exchange_weak(0, me, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            std::thread::yield_now();
        }
    }

    /// Release the escalation token (must hold it).
    fn escalation_release(&self, slot: u16) {
        let prev = self.escalation.swap(0, Ordering::AcqRel);
        debug_assert_eq!(prev, u64::from(slot) + 1, "released a token not held");
    }

    /// How many wakeups of the background [`GraceDriver`] found nothing to
    /// do (driver duty-cycle introspection), or `None` under
    /// [`DriverMode::Cooperative`].
    pub fn driver_idle_wakeups(&self) -> Option<u64> {
        self.driver.as_ref().map(|d| d.idle_wakeups())
    }

    /// Merge every slot's histograms and flight-recorder ring into one
    /// [`TelemetrySnapshot`], stamped with this runtime's driver mode and
    /// (under the background driver) its idle-wakeup count. Never blocks a
    /// transaction. Coherent but not atomic across slots; intended for
    /// reporting, not invariants.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        snap.driver_mode = Some(self.driver_mode().label());
        snap.driver_idle_wakeups = self.driver_idle_wakeups();
        snap
    }

    /// Periodically hand a fresh [`TelemetrySnapshot`] to `f`, exporting at
    /// most once per `every`, clocked by the background driver's tick.
    /// Returns `false` (and installs nothing) under
    /// [`DriverMode::Cooperative`] — there is no thread to clock exports;
    /// call [`Runtime::telemetry_snapshot`] at your own cadence instead.
    /// The hook holds only a weak reference, so it never keeps the runtime
    /// alive.
    pub fn set_telemetry_export(
        self: &Arc<Self>,
        every: Duration,
        f: impl Fn(TelemetrySnapshot) + Send + Sync + 'static,
    ) -> bool {
        if self.driver.is_none() {
            return false;
        }
        let rt = Arc::downgrade(self);
        let last = Mutex::new(None::<Instant>);
        self.set_tick_hook(move || {
            let Some(rt) = rt.upgrade() else { return };
            let now = Instant::now();
            let mut last = last.lock().unwrap();
            let due = last.is_none_or(|t| now.duration_since(t) >= every);
            if due {
                *last = Some(now);
                drop(last);
                f(rt.telemetry_snapshot());
            }
        })
    }

    /// Load register `x`.
    #[inline]
    pub fn load(&self, x: usize) -> u64 {
        self.cells[x].load()
    }

    /// Store register `x`.
    ///
    /// Doubles as the blocking-retry wake hook: every commit write-back
    /// (TL2, NOrec, glock) and direct write lands here, so after the value
    /// store we check — one `SeqCst` *load*, no new shared-line writes on
    /// the fast path — whether any waiter is parked, and take the cold
    /// wake path only then. Lost-wakeup freedom is an SC total-order
    /// argument: the waiter does `[raise count][validation load]`, the
    /// committer does `[value store][count load]`; if the committer reads
    /// count `0`, its store precedes the waiter's validation, which then
    /// observes the new value and refuses to sleep. If the count is
    /// nonzero the committer scans the registry under its lock, which
    /// either finds the waiter (wake) or serializes before its
    /// registration push — and the mutex hand-off then makes the store
    /// visible to the waiter's validation.
    #[inline]
    pub fn store(&self, x: usize, v: u64) {
        self.cells[x].value.store(v, Ordering::SeqCst);
        if self.retry_waiter_count.load(Ordering::SeqCst) != 0 {
            self.wake_retry_waiters(x);
        }
    }

    #[cold]
    fn wake_retry_waiters(&self, x: usize) {
        let waiters = self.retry_waiters.lock().unwrap();
        for (reg, w) in waiters.iter() {
            if *reg == x {
                w.wake(x);
            }
        }
    }

    /// Register a parked blocking-`retry` transaction on every register in
    /// its read set. Entries are pushed under the registry lock *before*
    /// the count is raised; the caller must validate its reads *after*
    /// this returns and sleep only if they are unchanged (see
    /// [`Runtime::store`] for why that ordering is lost-wakeup-free).
    pub fn register_retry_waiter(&self, regs: &[usize], w: &Arc<RetryWaiter>) {
        let mut ws = self.retry_waiters.lock().unwrap();
        for &r in regs {
            ws.push((r, Arc::clone(w)));
        }
        drop(ws);
        self.retry_waiter_count
            .fetch_add(regs.len() as u64, Ordering::SeqCst);
    }

    /// Remove every registry entry of `w` (matched by `Arc` identity) and
    /// lower the fast-path count accordingly. Idempotent.
    pub fn deregister_retry_waiter(&self, w: &Arc<RetryWaiter>) {
        let mut ws = self.retry_waiters.lock().unwrap();
        let before = ws.len();
        ws.retain(|(_, x)| !Arc::ptr_eq(x, w));
        let removed = (before - ws.len()) as u64;
        drop(ws);
        if removed > 0 {
            self.retry_waiter_count.fetch_sub(removed, Ordering::SeqCst);
        }
    }

    /// Number of live retry-registry entries (test helper).
    pub fn retry_waiter_entries(&self) -> u64 {
        self.retry_waiter_count.load(Ordering::SeqCst)
    }

    /// Unsynchronized snapshot of a register (test/report helper).
    pub fn peek(&self, x: usize) -> u64 {
        self.load(x)
    }
}

/// The loop-invariant half of [`StmHandle::read_direct`], held in locals
/// for a bulk pass ([`StmHandle::direct_reader`]): the file slice, the
/// recorder `Option` and the read count stay in registers instead of being
/// reloaded through the handle around every `SeqCst` load. Reads and
/// recorded actions are exactly `read_direct`'s; the count lands in
/// [`Stats::direct_reads`] as one `+= n` on drop.
pub struct DirectReader<'a> {
    cells: &'a [RegCell],
    recorder: Option<&'a Recorder>,
    slot: usize,
    reads: u64,
    total: &'a mut u64,
}

impl DirectReader<'_> {
    /// Uninstrumented non-transactional read of register `x`.
    #[inline]
    pub fn read(&mut self, x: usize) -> u64 {
        let v = self.cells[x].load();
        self.reads += 1;
        if let Some(r) = self.recorder {
            Self::record(r, self.slot, x, v);
        }
        v
    }

    /// Out of line so `read` stays small enough to inline into the
    /// caller's loop. One `record_pair`, not two records: clause 7
    /// requires the pair to be *globally* adjacent, which two separate
    /// sequence draws cannot guarantee against concurrent recorders.
    #[cold]
    #[inline(never)]
    fn record(r: &Recorder, slot: usize, x: usize, v: u64) {
        r.record_pair(slot, Kind::Read(Reg(x as u32)), Kind::RetVal(v));
    }
}

impl Drop for DirectReader<'_> {
    fn drop(&mut self) {
        *self.total += self.reads;
    }
}

/// Per-call context handed to [`Policy`] methods: the runtime, this
/// handle's stats, and its thread slot.
pub struct TxCtx<'a> {
    /// The shared runtime (register file, grace engine, epochs).
    pub rt: &'a Runtime,
    /// This handle's statistics.
    pub stats: &'a mut Stats,
    /// This handle's thread slot.
    pub slot: u16,
    /// Whether [`Self::linearized`] ran during this call.
    linearized: bool,
}

impl TxCtx<'_> {
    /// Mark the commit's linearization point: the write-back is complete
    /// and nothing has been released yet. This is where `Committed` is
    /// recorded, so a conflicting writer — which can only commit after the
    /// release — always records its response later: per register, the
    /// recorded commit order is the write-back order. A commit that never
    /// calls this (a read-only fast path) gets `Committed` recorded by the
    /// handle when `commit` returns.
    #[inline]
    pub fn linearized(&mut self) {
        if !self.linearized {
            self.linearized = true;
            if let Some(r) = &self.rt.recorder {
                r.record(self.slot as usize, Kind::Committed);
            }
        }
    }
}

/// A concurrency-control policy over the shared runtime.
///
/// The generic [`Handle`] drives the protocol and owns all recording, epoch
/// registration, stats bookkeeping shared between algorithms, and retries;
/// a policy only decides how reads/writes/commits synchronize. Contract:
///
/// * `begin` is called inside the fence epoch, before any ops.
/// * `read`/`write` return `Err(Abort)` for op-level aborts, after counting
///   the abort kind in `ctx.stats`.
/// * `commit` makes the transaction's writes visible atomically or fails
///   (again counting the abort kind); it must release any locks it took.
/// * `rollback` is called on *every* abort path (op-level, commit-level,
///   user) before the `Aborted` response is recorded.
pub trait Policy: Send {
    /// Start a transaction attempt (called inside the fence epoch).
    fn begin(&mut self, ctx: &mut TxCtx<'_>);
    /// Transactional read of register `x`.
    fn read(&mut self, ctx: &mut TxCtx<'_>, x: usize) -> Result<u64, Abort>;
    /// Transactional (buffered) write of register `x`.
    fn write(&mut self, ctx: &mut TxCtx<'_>, x: usize, v: u64) -> Result<(), Abort>;
    /// Make the attempt's writes visible atomically, or fail.
    fn commit(&mut self, ctx: &mut TxCtx<'_>) -> Result<(), Abort>;
    /// Discard attempt state; called on *every* abort path.
    fn rollback(&mut self, ctx: &mut TxCtx<'_>);

    /// How `fence()`/`fence_async()` resolve for this policy. The default
    /// routes through the runtime's [`GraceEngine`] — an RCU grace period
    /// over the epoch table (paper Fig 7 lines 33–39), issued as a ticket
    /// so concurrent fences batch behind one scan. Algorithms that are
    /// privatization-safe by design override this to
    /// [`FenceMode::Immediate`].
    fn fence_mode(&self) -> FenceMode {
        FenceMode::Quiesce
    }
}

/// What a fence means for a [`Policy`] — both its blocking behavior and its
/// recorded-history footprint, which must agree (a recorded fence asserts
/// Def A.1's blocking clause: no transaction spans it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceMode {
    /// Fences are grace periods: `fence_async` issues a [`GraceEngine`]
    /// ticket, `FBegin` is recorded at issue and `FEnd` at resolution.
    Quiesce,
    /// Fences are no-ops (the algorithm needs no quiescence — NOrec):
    /// tickets resolve at issue and no fence actions are recorded, since a
    /// recorded fence would claim a quiescence that never happened.
    Immediate,
}

/// How many displaced [`crate::tvar`] cells a [`Handle`] parks before
/// handing them to the grace engine as one retire entry. A constant, not a
/// knob: it bounds the dead values an idle handle keeps alive (one fewer
/// than this) and the commits that share one trip to the engine's lock.
pub const RETIRE_BATCH: usize = 64;

/// The displaced typed cells parked on one handle: the garbage of one
/// [`GraceEngine::defer_drop_batch`] entry, dropped cell by cell.
struct DisplacedBatch {
    len: usize,
    cells: [Option<OwnedCell>; RETIRE_BATCH],
}

/// A per-thread STM handle: a [`Policy`] bound to a [`Runtime`] slot.
/// Implements [`StmHandle`] for every policy at once.
pub struct Handle<P: Policy> {
    rt: Arc<Runtime>,
    slot: u16,
    /// Is a transaction attempt in flight on this handle? Cleared by every
    /// finalization (commit or abort); ops issued on a finalized attempt —
    /// a body that swallowed an `Abort` and kept going — are inert.
    active: bool,
    stats: Stats,
    backoff: BackoffCfg,
    /// Retry budget before escalation (see [`RetryPolicy`]).
    retry: RetryPolicy,
    /// Set when a panic unwound through `commit` itself: the policy's
    /// buffered state may be torn (a write-back can be half applied), so
    /// atomicity can no longer be promised on this handle. Every later
    /// `atomic`/`try_atomic` fails fast with a clear panic instead of
    /// silently running on the wreck. The *runtime* stays healthy — the
    /// unwind released every lock and the epoch slot — only this handle is
    /// condemned.
    poisoned: bool,
    /// When the in-flight attempt began, if it is a *sampled* one: the
    /// per-attempt telemetry decision, made once in `begin`. `Some` means
    /// `TxBegin` was traced and the commit will be timed and traced;
    /// `None` (63 attempts in 64, and always when telemetry is disabled)
    /// means the attempt touches no clock and no telemetry word.
    tx_started: Option<Instant>,
    /// Attempts to skip before the next sampled one; a fresh handle's
    /// first attempt is sampled.
    sample_skip: u32,
    /// Cells the typed frontend's commits on this handle displaced, not yet
    /// handed to the grace engine (see [`Self::park_displaced`]). Boxed and
    /// allocated on first use: an untyped handle never pays for it, and the
    /// 1 KiB array stays off the lines `atomic` touches.
    displaced: Option<Box<DisplacedBatch>>,
    policy: P,
}

impl<P: Policy> Drop for Handle<P> {
    fn drop(&mut self) {
        // The last flush point: nothing parked here may outlive the handle
        // unretired (the engine frees it at its own drop at the latest).
        self.flush_displaced();
    }
}

impl<P: Policy> Handle<P> {
    /// A handle binding `policy` to `slot` of the shared runtime.
    pub fn new(rt: Arc<Runtime>, slot: usize, policy: P, backoff: BackoffCfg) -> Self {
        assert!(slot < rt.nthreads(), "slot {slot} out of range");
        // The VLock owner field encodes slot + 1 in 16 bits.
        assert!(
            slot < usize::from(u16::MAX),
            "slot {slot} exceeds the 16-bit owner encoding"
        );
        Handle {
            rt,
            slot: slot as u16,
            active: false,
            stats: Stats::default(),
            backoff,
            retry: RetryPolicy::default(),
            poisoned: false,
            tx_started: None,
            sample_skip: 0,
            displaced: None,
            policy,
        }
    }

    /// Bound this handle's retry loop (normally inherited from
    /// [`StmConfig::retry`] by [`Stm::handle`]).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Did a panic unwind through this handle's commit, condemning it?
    /// (See the poisoning contract on [`StmHandle::atomic`].)
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The shared runtime this handle runs against.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// This handle's thread slot.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The policy driving this handle (for policy-specific extras, e.g.
    /// [`crate::tl2::Tl2Policy::last_commit_wver`]).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Crate-internal: the typed `atomically` loop drives `try_atomic`
    /// itself (a blocking-retry sleep has to happen between attempts, not
    /// inside one) and counts its re-runs in the same [`Stats::retries`]
    /// counter the shared `atomic` loop uses.
    pub(crate) fn note_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Crate-internal: park a cell a typed commit on this handle just
    /// displaced. Parked cells reach the grace engine as **one** retire
    /// entry at three flush points — [`RETIRE_BATCH`] cells parked, any
    /// fence issued through this handle, the handle's drop — so the commit
    /// path itself touches no shared line. The entry is stamped with the
    /// period open at the flush, later than each cell's displacement:
    /// every reader that could still hold a cell was already in its epoch
    /// then, so the later stamp only over-waits.
    pub(crate) fn park_displaced(&mut self, cell: OwnedCell) {
        let batch = self.displaced.get_or_insert_with(|| {
            Box::new(DisplacedBatch {
                len: 0,
                cells: [const { None }; RETIRE_BATCH],
            })
        });
        batch.cells[batch.len] = Some(cell);
        batch.len += 1;
        if batch.len == RETIRE_BATCH {
            self.flush_displaced();
        }
    }

    /// Hand every parked cell to the grace engine (no-op when none is).
    fn flush_displaced(&mut self) {
        if let Some(batch) = self.displaced.take() {
            let cells = batch.len as u64;
            self.rt.grace.defer_drop_batch(batch, cells);
        }
    }

    #[inline]
    fn rec(&self, kind: Kind) {
        if let Some(r) = &self.rt.recorder {
            r.record(self.slot as usize, kind);
        }
    }

    #[inline]
    fn rec_pair(&self, req: Kind, resp: Kind) {
        if let Some(r) = &self.rt.recorder {
            r.record_pair(self.slot as usize, req, resp);
        }
    }

    #[inline]
    fn ctx<'a>(rt: &'a Runtime, stats: &'a mut Stats, slot: u16) -> TxCtx<'a> {
        TxCtx {
            rt,
            stats,
            slot,
            linearized: false,
        }
    }

    fn begin(&mut self) {
        // The irrevocability gate: while another handle holds the
        // escalation token, park here — strictly *before* the epoch entry,
        // so a gated thread pins no epoch slot and the escalated handle's
        // drain (`wait_quiescent`) terminates. One relaxed-ish load when
        // nobody is escalated.
        self.rt.escalation_gate(self.slot);
        // Epoch entry strictly before the TxBegin record — the mirror of
        // the commit path (Committed recorded before the epoch exit). If
        // TxBegin were recorded first, a fence sampling the epoch table in
        // the window between the two would not wait for us, yielding a
        // recorded history with a transaction spanning a complete fence
        // (rejected by Def A.1 clause 10). With this order, a transaction
        // a fence skips is guaranteed a TxBegin sequenced after FBegin,
        // which clause 10 permits.
        self.rt.epochs().enter(self.slot as usize);
        self.active = true;
        self.rec(Kind::TxBegin);
        self.tx_started = if self.sample_skip > 0 {
            self.sample_skip -= 1;
            None
        } else {
            self.sample_skip = SAMPLE_EVERY - 1;
            self.rt.telemetry.enabled().then(|| {
                let t0 = Instant::now();
                self.rt
                    .telemetry
                    .record_event_at(self.slot, t0, EventKind::TxBegin);
                t0
            })
        };
        let mut ctx = Self::ctx(&self.rt, &mut self.stats, self.slot);
        self.policy.begin(&mut ctx);
        self.rec(Kind::Ok);
    }

    fn tx_read(&mut self, x: usize) -> Result<u64, Abort> {
        if !self.active {
            // The attempt was already finalized (an earlier abort the body
            // swallowed); don't record, don't re-finalize.
            return Err(Abort);
        }
        self.rec(Kind::Read(Reg(x as u32)));
        let mut ctx = Self::ctx(&self.rt, &mut self.stats, self.slot);
        match self.policy.read(&mut ctx, x) {
            Ok(v) => {
                self.rec(Kind::RetVal(v));
                Ok(v)
            }
            Err(Abort) => {
                self.finish_abort(AbortCause::Read);
                Err(Abort)
            }
        }
    }

    fn tx_write(&mut self, x: usize, v: u64) -> Result<(), Abort> {
        if !self.active {
            return Err(Abort);
        }
        self.rec(Kind::Write(Reg(x as u32), v));
        let mut ctx = Self::ctx(&self.rt, &mut self.stats, self.slot);
        match self.policy.write(&mut ctx, x, v) {
            Ok(()) => {
                self.rec(Kind::RetUnit);
                Ok(())
            }
            Err(Abort) => {
                self.finish_abort(AbortCause::Write);
                Err(Abort)
            }
        }
    }

    fn do_commit(&mut self) -> Result<(), Abort> {
        self.rec(Kind::TxCommit);
        let locks_before = self.stats.aborts_lock;
        // Commit runs under unwind protection: a panic inside the policy
        // (reachable via fault injection, or an allocation failure in a
        // write-back) must not leak write-set locks or the epoch slot. The
        // policy's own unwind guards release any locks it holds (TL2's
        // commit guard, glock's rollback); here we finalize the attempt and
        // condemn the handle — the write-back may be half applied, so
        // atomicity cannot be promised on it again.
        let (commit_result, linearized) = {
            let mut ctx = Self::ctx(&self.rt, &mut self.stats, self.slot);
            let policy = &mut self.policy;
            let r = catch_unwind(AssertUnwindSafe(|| policy.commit(&mut ctx)));
            (r, ctx.linearized)
        };
        match commit_result {
            Err(payload) => {
                self.poisoned = true;
                self.stats.panics_unwound += 1;
                if linearized {
                    // The write-back landed and `Committed` is recorded:
                    // the attempt committed, only its epilogue unwound.
                    self.stats.commits += 1;
                    self.finish_commit();
                } else {
                    self.finish_abort(AbortCause::Panic);
                }
                resume_unwind(payload);
            }
            Ok(Ok(())) => {
                self.stats.commits += 1;
                // Response recorded before the epoch exit, so a fence that
                // stops waiting for us is guaranteed to have our committed
                // action in the history (Def A.1 clause 10). Writing
                // commits recorded it already, at their linearization point.
                if !linearized {
                    self.rec(Kind::Committed);
                }
                self.finish_commit();
                Ok(())
            }
            Ok(Err(Abort)) => {
                // Policies count their commit-time abort kind before
                // returning; a grown lock counter distinguishes lock
                // acquisition failures from validation failures.
                let cause = if self.stats.aborts_lock > locks_before {
                    AbortCause::Lock
                } else {
                    AbortCause::Validate
                };
                self.finish_abort(cause);
                Err(Abort)
            }
        }
    }

    /// Commit epilogue, after `Committed` is recorded: commit telemetry
    /// and the epoch exit.
    fn finish_commit(&mut self) {
        if let Some(t0) = self.tx_started.take() {
            let now = Instant::now();
            let latency_ns = now.duration_since(t0).as_nanos() as u64;
            self.rt.telemetry.record_commit(self.slot, now, latency_ns);
        }
        self.rt.epochs().exit(self.slot as usize);
        self.active = false;
    }

    /// Abort epilogue shared by failed ops, failed commits, and user aborts.
    fn finish_abort(&mut self, cause: AbortCause) {
        let mut ctx = Self::ctx(&self.rt, &mut self.stats, self.slot);
        self.policy.rollback(&mut ctx);
        self.rec(Kind::Aborted);
        self.tx_started = None;
        // Aborts are never sampled away: one event per abort counter bump.
        self.rt
            .telemetry
            .record_event(self.slot, EventKind::TxAbort { cause });
        self.rt.epochs().exit(self.slot as usize);
        self.active = false;
    }

    /// One exponential-backoff pause after the `attempt`-th consecutive
    /// abort — the abort-to-retry gap, how long this handle stays out of
    /// the ring between finalizing an abort and re-entering `begin`. One
    /// measurement, two sinks: [`Stats::backoff_ns`] and the abort-gap
    /// latency histogram, so the counter is the histogram's sum.
    /// Crate-visible so the typed frontend's `atomically` loop (which
    /// drives `try_atomic` itself to interleave blocking-retry sleeps)
    /// backs off identically to [`StmHandle::atomic`].
    pub(crate) fn backoff_pause(&mut self, attempt: u32) {
        let cfg = self.backoff;
        // Widen to u64 and saturate: BackoffCfg is an unvalidated public
        // knob, and spin_base << shift must not overflow for any input.
        let shift = attempt.min(cfg.max_shift).min(32);
        let max_spins = (u64::from(cfg.spin_base) << shift).min(u64::from(u32::MAX)) as u32;
        let yields = attempt >= cfg.yield_after;
        if max_spins == 0 && !yields {
            // Backoff fully disabled: don't even sample the clock, so the
            // `BackoffCfg::none` baseline really is retry-immediately.
            return;
        }
        let start = Instant::now();
        if yields {
            std::thread::yield_now();
        }
        if max_spins > 0 {
            // Jitter: uniform in (max_spins/2, max_spins] so contending
            // threads desynchronize instead of re-colliding.
            let h = splitmix64((u64::from(self.slot) << 32) | u64::from(attempt));
            let spins = max_spins / 2 + (h % u64::from(max_spins / 2 + 1)) as u32;
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        let gap_ns = start.elapsed().as_nanos() as u64;
        self.stats.backoff_ns += gap_ns;
        self.rt
            .telemetry
            .record_latency(self.slot, LatencyClass::AbortGap, gap_ns);
    }

    /// The graceful-degradation fallback of the `atomic` loop: the retry
    /// budget is spent, so stop gambling and run serialized. Takes the
    /// runtime-wide escalation token (parking every other handle at the
    /// begin gate), drains in-flight transactions, and re-runs the body
    /// with the whole runtime to itself — the global-lock policy's
    /// guarantee, reconstructed for every policy as a fallback path.
    ///
    /// Effectively irrevocable rather than absolutely: a transaction that
    /// passed the begin gate *before* the token was taken may still slip
    /// one conflicting commit in, aborting the drained attempt once — but
    /// it then parks at its next begin, so the retry-under-token loop is
    /// bounded by that one racing window (fault injection is explicitly
    /// exempt from aborting an escalated attempt, see
    /// [`Runtime::chaos_abort`]). Heavy contention therefore degrades to
    /// serialized progress instead of livelock.
    #[cold]
    fn run_escalated<R>(
        &mut self,
        body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Abort>,
        attempts: u32,
        deadline_expired: bool,
    ) -> R {
        self.rt.escalation_acquire(self.slot);
        // Token released on *every* exit — including a panicking body
        // unwinding through the escalated attempt. Leaking it would park
        // every other handle forever, turning one bad closure into a
        // runtime-wide deadlock.
        struct TokenGuard(Arc<Runtime>, u16);
        impl Drop for TokenGuard {
            fn drop(&mut self) {
                self.0.escalation_release(self.1);
            }
        }
        let guard = TokenGuard(Arc::clone(&self.rt), self.slot);
        self.stats.escalations += 1;
        self.rt.telemetry.record_event(
            self.slot,
            EventKind::Escalation {
                attempts: u64::from(attempts),
                deadline_expired,
            },
        );
        loop {
            // Drain: wait until every other slot is quiescent. Newcomers
            // are parked at the begin gate (checked before epoch entry), so
            // this terminates; we are not inside a transaction ourselves.
            self.rt.epochs().wait_quiescent(Some(self.slot as usize));
            match self.try_atomic(&mut *body) {
                Ok(r) => {
                    drop(guard);
                    return r;
                }
                Err(Abort) => {
                    // Only the one racing window (or a user abort the body
                    // keeps returning) lands here; re-drain and go again.
                    self.stats.retries += 1;
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// An algorithm's construction recipe: how to build its instance-shared
/// state and mint per-thread [`Policy`] values from it. Implementing this
/// (plus [`Policy`]) is *all* a new algorithm needs — the [`Stm`] frontend
/// supplies `new`/`with_config`/`handle`/`peek` and the
/// [`StmFactory`] impl once, for every algorithm.
pub trait PolicyKind: 'static {
    /// The per-thread policy type.
    type Policy: Policy;
    /// The instance-shared state type.
    type Shared: Send + Sync + 'static;

    /// Build the instance-shared state from the configuration and the
    /// already-built runtime (whose register file carries the per-register
    /// orecs).
    fn build_shared(cfg: &StmConfig, rt: &Runtime) -> Self::Shared;
    /// Mint one per-thread policy over the shared state.
    fn build_policy(shared: &Arc<Self::Shared>) -> Self::Policy;
    /// Post-construction wiring between the shared state and the runtime,
    /// called once by [`Stm::with_config`] after both exist. The default
    /// does nothing; TL2 overrides it to hang the contention governor's
    /// poll loop off the runtime's background-driver tick (see
    /// [`Runtime::set_tick_hook`]).
    fn after_build(_rt: &Arc<Runtime>, _shared: &Arc<Self::Shared>) {}
}

/// The shared frontend of one STM instance: the [`Runtime`], the
/// algorithm's shared state, and the construction-time backoff tuning.
/// Concrete STMs are type aliases (`Tl2Stm`, `NorecStm`, `GlockStm`).
pub struct Stm<K: PolicyKind> {
    rt: Arc<Runtime>,
    shared: Arc<K::Shared>,
    backoff: BackoffCfg,
    retry: RetryPolicy,
}

// Manual impl: `#[derive(Clone)]` would demand `K: Clone` needlessly.
impl<K: PolicyKind> Clone for Stm<K> {
    fn clone(&self) -> Self {
        Stm {
            rt: Arc::clone(&self.rt),
            shared: Arc::clone(&self.shared),
            backoff: self.backoff,
            retry: self.retry,
        }
    }
}

impl<K: PolicyKind> Stm<K> {
    /// Default configuration: per-register lock storage (where applicable),
    /// default backoff, no recorder.
    pub fn new(nregs: usize, nthreads: usize) -> Self {
        Self::with_config(StmConfig::new(nregs, nthreads))
    }

    /// Full construction-time control: storage backend, backoff tuning,
    /// recorder.
    pub fn with_config(cfg: StmConfig) -> Self {
        let rt = Runtime::new(&cfg);
        let shared = Arc::new(K::build_shared(&cfg, &rt));
        K::after_build(&rt, &shared);
        Stm {
            rt,
            shared,
            backoff: cfg.backoff,
            retry: cfg.retry,
        }
    }

    /// A handle bound to thread slot `slot` (< `nthreads`).
    pub fn handle(&self, slot: usize) -> Handle<K::Policy> {
        let mut h = Handle::new(
            Arc::clone(&self.rt),
            slot,
            K::build_policy(&self.shared),
            self.backoff,
        );
        h.set_retry_policy(self.retry);
        h
    }

    /// Current register value (unsynchronized snapshot; test/report helper).
    pub fn peek(&self, x: usize) -> u64 {
        self.rt.peek(x)
    }

    /// The shared runtime of this instance.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The shared runtime by `Arc` (crate-internal: the typed frontend's
    /// slot space keeps the runtime alive past this `Stm`).
    pub(crate) fn runtime_arc(&self) -> Arc<Runtime> {
        Arc::clone(&self.rt)
    }

    /// The algorithm's instance-shared state (for algorithm-specific
    /// extras, e.g. TL2's lock-table introspection).
    pub fn shared(&self) -> &K::Shared {
        &self.shared
    }

    /// Merged telemetry snapshot (see [`Runtime::telemetry_snapshot`]).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.rt.telemetry_snapshot()
    }

    /// Background-driver idle wakeups (see [`Runtime::driver_idle_wakeups`]).
    pub fn driver_idle_wakeups(&self) -> Option<u64> {
        self.rt.driver_idle_wakeups()
    }

    /// Periodic snapshot export off the background driver's tick (see
    /// [`Runtime::set_telemetry_export`]).
    pub fn set_telemetry_export(
        &self,
        every: Duration,
        f: impl Fn(TelemetrySnapshot) + Send + Sync + 'static,
    ) -> bool {
        self.rt.set_telemetry_export(every, f)
    }
}

impl<K: PolicyKind> StmFactory for Stm<K> {
    type Handle = Handle<K::Policy>;

    fn handle(&self, slot: usize) -> Self::Handle {
        Stm::handle(self, slot)
    }

    fn peek(&self, x: usize) -> u64 {
        Stm::peek(self, x)
    }
}

struct HandleTx<'a, P: Policy>(&'a mut Handle<P>);

impl<P: Policy> TxScope for HandleTx<'_, P> {
    fn read(&mut self, x: usize) -> Result<u64, Abort> {
        self.0.tx_read(x)
    }
    fn write(&mut self, x: usize, v: u64) -> Result<(), Abort> {
        self.0.tx_write(x, v)
    }
}

impl<P: Policy> StmHandle for Handle<P> {
    fn atomic<R>(&mut self, mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Abort>) -> R {
        let mut attempts: u32 = 0;
        // Sample the deadline origin only when a deadline is set: the
        // unlimited default never touches the clock.
        let deadline = self.retry.deadline.map(|d| Instant::now() + d);
        loop {
            match self.try_atomic(&mut body) {
                Ok(r) => return r,
                Err(Abort) => {
                    self.stats.retries += 1;
                    attempts = attempts.saturating_add(1);
                    // Budget check strictly before the backoff pause: an
                    // exhausted transaction escalates immediately instead
                    // of paying one last sleep on its way to the fallback
                    // (the deadline case would be the worst — expired *and*
                    // sleeping the longest backoff of its run).
                    let out_of_attempts = self.retry.max_attempts.is_some_and(|m| attempts >= m);
                    let deadline_expired = deadline.is_some_and(|d| Instant::now() >= d);
                    if out_of_attempts || deadline_expired {
                        return self.run_escalated(&mut body, attempts, deadline_expired);
                    }
                    self.backoff_pause(attempts - 1);
                }
            }
        }
    }

    fn try_atomic<R>(
        &mut self,
        mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Abort>,
    ) -> Result<R, Abort> {
        assert!(
            !self.poisoned,
            "STM handle (slot {}) is poisoned: a previous attempt panicked during \
             commit, so its buffered writes may be half applied; discard this handle",
            self.slot
        );
        self.begin();
        // The body runs under unwind protection: a panicking closure must
        // not leak the epoch slot (wedging every future grace period) or,
        // under the global lock, the lock its begin acquired. On unwind the
        // attempt is finalized exactly like an abort — rollback, `Aborted`
        // recorded, epoch exited, `AbortCause::Panic` traced — and then the
        // unwind resumes to the caller untouched.
        let attempt = {
            let mut tx = HandleTx(self);
            catch_unwind(AssertUnwindSafe(|| body(&mut tx)))
        };
        match attempt {
            Err(payload) => {
                if self.active {
                    self.stats.panics_unwound += 1;
                    self.finish_abort(AbortCause::Panic);
                }
                resume_unwind(payload);
            }
            Ok(Ok(r)) => {
                // A body that swallowed an op-level abort (instead of
                // propagating it with `?`) reaches here with the attempt
                // already finalized: rolled back, `Aborted` recorded, epoch
                // exited. Committing would write back stale buffered state —
                // treat it as the abort it was.
                if !self.active {
                    return Err(Abort);
                }
                self.do_commit()?;
                Ok(r)
            }
            Ok(Err(Abort)) => {
                // Distinguish op-level aborts (already finalized in
                // tx_read/tx_write) from aborts requested by the body.
                if self.active {
                    self.stats.aborts_user += 1;
                    self.finish_abort(AbortCause::User);
                }
                Err(Abort)
            }
        }
    }

    fn read_direct(&mut self, x: usize) -> u64 {
        self.direct_reader().read(x)
    }

    fn direct_reader(&mut self) -> DirectReader<'_> {
        DirectReader {
            cells: &self.rt.cells,
            recorder: self.rt.recorder.as_deref(),
            slot: self.slot as usize,
            reads: 0,
            total: &mut self.stats.direct_reads,
        }
    }

    fn write_direct(&mut self, x: usize, v: u64) {
        self.rt.store(x, v);
        self.stats.direct_writes += 1;
        self.rec_pair(Kind::Write(Reg(x as u32), v), Kind::RetUnit);
    }

    fn fence_async(&mut self) -> FenceTicket {
        // Before the period stamp: the period this fence joins then covers
        // every cell this handle displaced earlier, so joining the fence
        // means they are collected.
        self.flush_displaced();
        self.stats.fences += 1;
        match self.policy.fence_mode() {
            FenceMode::Immediate => FenceTicket::immediate(),
            FenceMode::Quiesce => {
                // FBegin strictly before the period stamp: a transaction
                // whose TxBegin is recorded before this FBegin entered its
                // epoch even earlier (see `begin`), so the completing
                // scan's snapshot — taken after the period closes, hence
                // after the stamp — observes it, and its Committed/Aborted
                // lands before our FEnd (Def A.1 clause 10).
                self.rec(Kind::FBegin);
                let grace = self.rt.grace().issue();
                let rec = self
                    .rt
                    .recorder
                    .as_ref()
                    .map(|r| (Arc::clone(r), self.slot as usize));
                let tel_slot = self.rt.telemetry.enabled().then(|| {
                    let issue = EventKind::FenceIssue {
                        period: grace.period(),
                    };
                    self.rt.telemetry.record_event(self.slot, issue);
                    self.slot
                });
                FenceTicket::issued(grace, rec, tel_slot)
            }
        }
    }

    fn fence_join(&mut self, mut ticket: FenceTicket) {
        // One wait, two sinks: the [`Stats::fence_wait_ns`] counter and the
        // fence-wait latency histogram. With telemetry enabled the counter
        // is by construction the histogram's sum (asserted in tests).
        let wait_ns = ticket.wait_as(Some(self.slot)).as_nanos() as u64;
        self.stats.fence_wait_ns += wait_ns;
        self.rt
            .telemetry
            .record_latency(self.slot, LatencyClass::FenceWait, wait_ns);
    }

    fn fence_join_timeout(
        &mut self,
        ticket: &mut FenceTicket,
        timeout: Duration,
    ) -> Result<(), FenceTimeout> {
        match ticket.wait_timeout_as(timeout, Some(self.slot)) {
            Ok(waited) => {
                let wait_ns = waited.as_nanos() as u64;
                self.stats.fence_wait_ns += wait_ns;
                self.rt
                    .telemetry
                    .record_latency(self.slot, LatencyClass::FenceWait, wait_ns);
                Ok(())
            }
            Err(e) => {
                // The timed-out wait still blocked the handle: charge both
                // sinks, same as a completed join, so `Stats::fence_wait_ns`
                // stays exactly the fence-wait histogram's sum.
                let wait_ns = e.waited.as_nanos() as u64;
                self.stats.fence_wait_ns += wait_ns;
                self.rt
                    .telemetry
                    .record_latency(self.slot, LatencyClass::FenceWait, wait_ns);
                self.stats.stalls_detected += e.stalled.len() as u64;
                Err(e)
            }
        }
    }

    fn stats(&self) -> Stats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial always-succeeds buffered policy, to test the generic
    /// handle machinery in isolation from any real algorithm.
    #[derive(Default)]
    struct NullPolicy {
        buf: Vec<(usize, u64)>,
        /// Abort the next `n` commit attempts (to exercise the retry loop).
        fail_commits: u32,
        /// Abort the next `n` reads (to exercise op-level abort paths).
        fail_reads: u32,
    }

    impl Policy for NullPolicy {
        fn begin(&mut self, _ctx: &mut TxCtx<'_>) {
            self.buf.clear();
        }
        fn read(&mut self, ctx: &mut TxCtx<'_>, x: usize) -> Result<u64, Abort> {
            if self.fail_reads > 0 {
                self.fail_reads -= 1;
                ctx.stats.aborts_read += 1;
                return Err(Abort);
            }
            if let Some(&(_, v)) = self.buf.iter().rev().find(|&&(r, _)| r == x) {
                return Ok(v);
            }
            Ok(ctx.rt.load(x))
        }
        fn write(&mut self, _ctx: &mut TxCtx<'_>, x: usize, v: u64) -> Result<(), Abort> {
            self.buf.push((x, v));
            Ok(())
        }
        fn commit(&mut self, ctx: &mut TxCtx<'_>) -> Result<(), Abort> {
            if self.fail_commits > 0 {
                self.fail_commits -= 1;
                ctx.stats.aborts_validate += 1;
                return Err(Abort);
            }
            for &(x, v) in &self.buf {
                ctx.rt.store(x, v);
            }
            Ok(())
        }
        fn rollback(&mut self, _ctx: &mut TxCtx<'_>) {}
    }

    fn handle(fail_commits: u32) -> Handle<NullPolicy> {
        let cfg = StmConfig::new(4, 1);
        let rt = Runtime::new(&cfg);
        Handle::new(
            rt,
            0,
            NullPolicy {
                fail_commits,
                ..Default::default()
            },
            cfg.backoff,
        )
    }

    #[test]
    fn retry_loop_counts_retries_and_backoff() {
        let mut h = handle(3);
        h.atomic(|tx| tx.write(0, 7));
        let s = h.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.retries, 3);
        assert_eq!(s.aborts_validate, 3);
        assert!(s.backoff_ns > 0, "backoff time must be charged");
        assert_eq!(h.runtime().peek(0), 7);
    }

    #[test]
    fn swallowed_op_abort_does_not_commit() {
        // A body that catches an op-level abort and returns Ok anyway: the
        // attempt was already finalized, so try_atomic must report Abort,
        // leave the epoch quiescent, and commit nothing.
        let cfg = StmConfig::new(2, 1);
        let rt = Runtime::new(&cfg);
        let mut h = Handle::new(
            rt,
            0,
            NullPolicy {
                fail_reads: 1,
                ..Default::default()
            },
            cfg.backoff,
        );
        let r: Result<u64, Abort> = h.try_atomic(|tx| {
            tx.write(0, 99)?;
            // Swallow the abort instead of propagating it — and keep
            // issuing ops on the finalized attempt; they must be inert.
            let a = tx.read(1).unwrap_or(7);
            let b = tx.read(1).unwrap_or(8);
            let _ = tx.write(1, 5);
            Ok(a + b)
        });
        assert_eq!(r, Err(Abort), "a swallowed abort must not commit");
        assert!(!h.runtime().epochs().is_active(0), "no double epoch exit");
        assert_eq!(h.runtime().peek(0), 0, "stale buffered write discarded");
        assert_eq!(h.runtime().peek(1), 0, "post-abort write inert");
        assert_eq!(h.stats().aborts_read, 1, "inert ops count no new aborts");
        assert_eq!(h.stats().aborts_user, 0, "not a user abort");
        // The handle stays usable.
        h.atomic(|tx| tx.write(0, 5));
        assert_eq!(h.runtime().peek(0), 5);
    }

    #[test]
    fn user_abort_accounting_and_epoch_exit() {
        let mut h = handle(0);
        let r: Result<(), Abort> = h.try_atomic(|tx| {
            tx.write(0, 1)?;
            Err(Abort)
        });
        assert_eq!(r, Err(Abort));
        assert_eq!(h.stats().aborts_user, 1);
        assert!(!h.runtime().epochs().is_active(0), "epoch must be exited");
        assert_eq!(h.runtime().peek(0), 0);
    }

    #[test]
    fn recorder_wiring_produces_valid_histories() {
        let rec = Arc::new(Recorder::new(1));
        let cfg = StmConfig::new(2, 1).recorder(Arc::clone(&rec));
        let rt = Runtime::new(&cfg);
        let mut h = Handle::new(rt, 0, NullPolicy::default(), cfg.backoff);
        h.atomic(|tx| {
            let v = tx.read(0)?;
            tx.write(1, v + 1)
        });
        h.fence();
        h.write_direct(0, 5);
        let hist = rec.snapshot_history();
        assert_eq!(hist.validate(), Ok(()));
        // TxBegin Ok Read RetVal Write RetUnit TxCommit Committed
        // FBegin FEnd Write RetUnit
        assert_eq!(hist.len(), 12);
    }

    #[test]
    fn fence_blocked_time_is_charged() {
        use std::sync::atomic::AtomicBool;
        let cfg = StmConfig::new(1, 2);
        let rt = Runtime::new(&cfg);
        let mut h = Handle::new(Arc::clone(&rt), 0, NullPolicy::default(), cfg.backoff);
        rt.epochs().enter(1);
        let fencing = Arc::new(AtomicBool::new(false));
        let releaser = {
            let rt = Arc::clone(&rt);
            let fencing = Arc::clone(&fencing);
            std::thread::spawn(move || {
                while !fencing.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
                rt.epochs().exit(1);
            })
        };
        fencing.store(true, Ordering::SeqCst);
        h.fence();
        releaser.join().unwrap();
        assert_eq!(h.stats().fences, 1);
        assert!(
            h.stats().fence_wait_ns > 1_000_000,
            "a blocked fence must charge its wait: {:?}",
            h.stats()
        );
    }

    #[test]
    fn backoff_disabled_spins_zero() {
        let cfg = StmConfig::new(1, 1).backoff(BackoffCfg::none());
        let rt = Runtime::new(&cfg);
        let mut h = Handle::new(
            rt,
            0,
            NullPolicy {
                fail_commits: 2,
                ..Default::default()
            },
            cfg.backoff,
        );
        h.atomic(|tx| tx.write(0, 1));
        assert_eq!(h.stats().retries, 2);
    }

    #[test]
    fn config_builders_compose() {
        let cfg = StmConfig::new(8, 2)
            .striped(4)
            .clock(ClockKind::Gv5)
            .grace_driver(DriverMode::Background)
            .backoff(BackoffCfg {
                spin_base: 1,
                max_shift: 2,
                yield_after: 1,
            });
        assert_eq!(cfg.storage, StorageKind::Striped { stripes: 4 });
        assert_eq!(cfg.clock, ClockKind::Gv5);
        assert_eq!(StmConfig::new(1, 1).clock, ClockKind::Gv1, "gv1 default");
        assert_eq!(cfg.driver, DriverMode::Background);
        assert_eq!(cfg.backoff.spin_base, 1);
        let rt = Runtime::new(&cfg);
        assert_eq!(rt.nregs(), 8);
        assert_eq!(rt.nthreads(), 2);
        assert_eq!(rt.driver_mode(), DriverMode::Background);
    }

    /// `StmConfig::auto()` is the one-call governed configuration: adaptive
    /// storage with the seed-from-`nregs` start sentinel plus the
    /// governor-switchable clock.
    #[test]
    fn auto_config_selects_governed_backends() {
        let cfg = StmConfig::auto(1 << 12, 2);
        assert_eq!(cfg.clock, ClockKind::Auto);
        match cfg.storage {
            StorageKind::Adaptive(p) => {
                assert_eq!(p.start, 0, "start stays the seed-from-nregs sentinel");
            }
            other => panic!("auto() must select adaptive storage, got {other:?}"),
        }
        // Everything else stays at the plain defaults.
        let plain = StmConfig::new(1 << 12, 2);
        assert_eq!(cfg.backoff, plain.backoff);
        assert_eq!(cfg.driver, plain.driver);
    }

    /// The driver knob spawns (and on drop, drains) a runtime-owned driver;
    /// fences on a driver-backed runtime work exactly as cooperatively.
    #[test]
    fn background_driver_runtime_fences_and_drains() {
        let cfg = StmConfig::new(2, 1).grace_driver(DriverMode::Background);
        let rt = Runtime::new(&cfg);
        assert_eq!(rt.driver_mode(), DriverMode::Background);
        let mut h = Handle::new(Arc::clone(&rt), 0, NullPolicy::default(), cfg.backoff);
        h.atomic(|tx| tx.write(0, 1));
        h.fence();
        assert_eq!(h.stats().fences, 1);
        // Fire-and-forget just before drop: runtime drop must drain it.
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let fired = Arc::clone(&fired);
            h.fence_async().on_complete(move || {
                fired.store(true, Ordering::SeqCst);
            });
        }
        drop(h);
        drop(rt);
        assert!(fired.load(Ordering::SeqCst), "drop must drain callbacks");
    }

    #[test]
    fn driver_mode_defaults_and_labels() {
        assert_eq!(DriverMode::default(), DriverMode::Cooperative);
        assert_eq!(DriverMode::Cooperative.label(), "cooperative");
        assert_eq!(DriverMode::Background.label(), "background");
        assert_eq!(DriverMode::ALL.len(), 2);
        let rt = Runtime::new(&StmConfig::new(1, 1).grace_driver(DriverMode::Cooperative));
        assert_eq!(rt.driver_mode(), DriverMode::Cooperative);
    }
}
