//! The concurrent TL2 STM (paper Fig 9) as a [`Policy`] over the shared
//! [`crate::runtime`], with RCU-style transactional fences.
//!
//! Globally: a pluggable version clock ([`crate::clock`], selected via
//! [`StmConfig::clock`]: GV1 `fetch_add`, GV4 CAS-with-adopt, or GV5
//! slot-local deltas) and a pluggable [`LockTable`] of versioned
//! write-locks — one per register, in the register's own 16-byte cell
//! ([`crate::storage::PerRegisterTable`], the paper's `reg[x]`/`ver[x]`/
//! `lock[x]` side by side), or a striped orec table
//! ([`crate::storage::StripedTable`]), selected via
//! [`StmConfig::storage`]. Transactions buffer writes, validate reads
//! against their read timestamp, lock the *stripes* of their write set at
//! commit (deduplicated, in sorted order), re-validate, then write back.
//! Commit-time re-validation is *elided* when the clock proves no
//! concurrent commit intervened (an exclusive `rv → rv + 1` bump — the
//! classic TL2 fast path), counted in
//! [`crate::api::Stats::validation_elisions`]; every write to the shared
//! clock line is counted in [`crate::api::Stats::clock_bumps`].
//!
//! Striping trades metadata footprint for false conflicts: registers that
//! share a stripe conflict even when disjoint. That is always conservative —
//! the stripe version check can only abort more — so every correctness
//! claim checked on recorded histories holds for both backends (see the
//! conformance suite and the `striped_conflicts` integration test).
//!
//! Non-transactional accesses ([`read_direct`](crate::api::StmHandle::read_direct) /
//! [`write_direct`](crate::api::StmHandle::write_direct)) are single uninstrumented atomic accesses —
//! they do not touch versions or locks, exactly the setting the paper's DRF
//! discipline governs. Without fences they reproduce the delayed-commit and
//! doomed-transaction anomalies on real hardware (see `tests/` and the
//! `privatization` example).
//!
//! Memory ordering: all TM metadata and data accesses use `SeqCst`. The
//! interesting claims about this STM are checked by recording histories and
//! running the strong-opacity checker, not argued from orderings; `SeqCst`
//! keeps the recorded-order argument simple. (Benchmark comparisons between
//! fence policies are unaffected: all variants pay the same cost.)

use crate::api::Abort;
use crate::clock::{AnyClock, AutoClock, AutoMode, ClockKind, VersionClock};
use crate::runtime::{Handle, Policy, PolicyKind, Runtime, Stm, StmConfig, TxCtx};
use crate::storage::{
    AnyLockTable, AnyTables, GenStripe, LockTable, ShrinkPolicy, StripeSnap, TableGen, WriterHint,
};
use crate::vlock::VLockState;
use std::sync::Arc;
use tm_chaos::Site;
use tm_telemetry::EventKind;

/// Commits per *governor window*: each handle folds its (plain, handle-
/// local) read-only/writing commit tallies into a clock-discipline decision
/// every this many commits. The fold requests GV5 when writes are ≥ 60% of
/// the window (writing commits then stay off the shared clock line) and GV1
/// when they are ≤ 30% (readers then get fresh `rv`s and writing commits
/// can elide commit-time re-validation); the band between is hysteresis —
/// no request, so the discipline never oscillates on a mixed workload.
/// Between folds a commit touches no governor state that another thread
/// could observe: the hot path stays at the pre-governor baseline.
pub const GOVERNOR_WINDOW: u64 = 128;

/// Write share (percent of a governor window) at or above which the fold
/// requests the GV5 discipline.
const WRITE_HEAVY_PCT: u64 = 60;

/// Write share at or below which the fold requests the GV1 discipline.
const READ_HEAVY_PCT: u64 = 30;

/// TL2 state shared by all handles of one instance: the global version
/// clock and the ownership-record table(s).
pub struct Tl2Shared {
    /// Enums, not `Box<dyn …>`: lock-word sampling and stamp acquisition
    /// sit on the transactional hot paths and must stay inlinable.
    clock: AnyClock,
    tables: AnyTables,
}

impl Tl2Shared {
    /// The governor-switchable clock, when this instance runs one.
    #[inline]
    fn auto_clock(&self) -> Option<&AutoClock> {
        match &self.clock {
            AnyClock::Auto(a) => Some(a),
            _ => None,
        }
    }
}

/// TL2's [`PolicyKind`]: [`StmConfig::storage`] selects per-register vs
/// striped orec locks.
pub struct Tl2Kind;

impl PolicyKind for Tl2Kind {
    type Policy = Tl2Policy;
    type Shared = Tl2Shared;

    fn build_shared(cfg: &StmConfig, rt: &Runtime) -> Tl2Shared {
        let mut tables = cfg.storage.build_tables(rt.file());
        // Selecting the Auto clock is what arms the *full* governor: the
        // adaptive table additionally gets its shrink side (the grow
        // migration protocol in reverse, hysteresis-gapped below the grow
        // threshold), enabled here — before the table is shared, per the
        // `enable_shrink` contract.
        if cfg.clock == ClockKind::Auto {
            if let AnyTables::Adaptive(at) = &mut tables {
                at.enable_shrink(ShrinkPolicy::for_grow(at.policy()));
            }
        }
        Tl2Shared {
            clock: cfg.clock.build(cfg.nthreads),
            tables,
        }
    }

    fn build_policy(shared: &Arc<Tl2Shared>) -> Tl2Policy {
        Tl2Policy {
            shared: Arc::clone(shared),
            rv: 0,
            rset: Vec::new(),
            wset: Vec::new(),
            stripes: Vec::new(),
            shared_stripes: Vec::new(),
            pinned: None,
            wver_of_last_commit: 0,
            gov_ro: 0,
            gov_wr: 0,
        }
    }

    fn after_build(rt: &Arc<Runtime>, shared: &Arc<Tl2Shared>) {
        // Hang the governor's poll loop off the background driver's tick,
        // when the runtime owns one: open reconfigurations (stripe
        // migrations, clock handoffs) then settle in bounded time with zero
        // transaction traffic. Cooperatively-driven runtimes get the same
        // polls from transaction begins instead (`set_tick_hook` is a no-op
        // there), so liveness only needs *some* later transaction — the
        // same contract as every other cooperative grace-period user.
        // Late-attach the runtime's telemetry hub to the governed backends,
        // so their reconfiguration decisions land in the flight recorder.
        if let AnyTables::Adaptive(at) = &shared.tables {
            at.set_telemetry(Arc::clone(rt.telemetry()));
        }
        if let Some(a) = shared.auto_clock() {
            a.set_telemetry(Arc::clone(rt.telemetry()));
        }
        let adaptive = matches!(shared.tables, AnyTables::Adaptive(_));
        let auto = shared.auto_clock().is_some();
        if !adaptive && !auto {
            return;
        }
        let shared = Arc::clone(shared);
        rt.set_tick_hook(move || {
            if let AnyTables::Adaptive(at) = &shared.tables {
                at.poll_migration();
            }
            if let Some(a) = shared.auto_clock() {
                a.poll_settle();
            }
        });
    }
}

/// The shared TL2 instance. Create per-thread handles with [`Stm::handle`].
pub type Tl2Stm = Stm<Tl2Kind>;

/// Per-thread TL2 context.
pub type Tl2Handle = Handle<Tl2Policy>;

impl Stm<Tl2Kind> {
    /// Number of distinct lock words in the storage backend (the *current*
    /// generation, under adaptive storage).
    pub fn nstripes(&self) -> usize {
        match &self.shared().tables {
            AnyTables::Fixed(t) => t.nstripes(),
            AnyTables::Adaptive(at) => at.nstripes(),
        }
    }

    /// The stripe guarding register `x` (for constructing stripe-collision
    /// scenarios in tests and litmus programs). Under adaptive storage this
    /// is the current generation's mapping, which a resize invalidates.
    pub fn stripe_of(&self, x: usize) -> usize {
        match &self.shared().tables {
            AnyTables::Fixed(t) => t.stripe_of(x),
            AnyTables::Adaptive(at) => at.pin().1.table().stripe_of(x),
        }
    }

    /// Adaptive-table generations published so far across all handles
    /// (0 on fixed storage).
    pub fn stripe_resizes(&self) -> u64 {
        match &self.shared().tables {
            AnyTables::Fixed(_) => 0,
            AnyTables::Adaptive(at) => at.resizes(),
        }
    }

    /// Is an adaptive rehash migration window currently open (old
    /// generation published but not yet retired)? Always `false` on fixed
    /// storage.
    pub fn migration_pending(&self) -> bool {
        match &self.shared().tables {
            AnyTables::Fixed(_) => false,
            AnyTables::Adaptive(at) => at.migration_pending(),
        }
    }

    /// Clock-discipline switches performed by the shared [`AutoClock`] so
    /// far (0 under a static clock). The instance-wide view of
    /// [`crate::api::Stats::clock_switches`].
    pub fn clock_switches(&self) -> u64 {
        self.shared().auto_clock().map_or(0, |a| a.switches())
    }

    /// Label of the version-clock discipline currently in force:
    /// `"gv1"`/`"gv4"`/`"gv5"` for the static clocks, and under the Auto
    /// clock whichever discipline the governor last installed.
    pub fn clock_mode_label(&self) -> &'static str {
        match &self.shared().clock {
            AnyClock::Gv1(_) => ClockKind::Gv1.label(),
            AnyClock::Gv4(_) => ClockKind::Gv4.label(),
            AnyClock::Gv5(_) => ClockKind::Gv5.label(),
            AnyClock::Auto(a) => a.mode().label(),
        }
    }

    /// Is a clock-discipline handoff currently open — switched but not yet
    /// grace-settled (Auto clock only)? While open, the GV1 elision fast
    /// path stays disarmed; correctness never depends on this flag.
    pub fn clock_handoff_pending(&self) -> bool {
        self.shared().auto_clock().is_some_and(|a| !a.settled())
    }

    /// How many lock words are currently held, across every live
    /// generation — a diagnostic: with no transaction mid-commit this must
    /// be 0, however many resizes have happened (no lock may ever be
    /// stranded in a retired table).
    pub fn locked_stripes(&self) -> usize {
        fn locked(t: &dyn LockTable) -> usize {
            (0..t.nstripes())
                .filter(|&s| t.sample_stripe(s).is_locked())
                .count()
        }
        match &self.shared().tables {
            AnyTables::Fixed(t) => locked(t),
            AnyTables::Adaptive(at) => {
                let (_, gen) = at.pin();
                locked(gen.table()) + gen.prev().map_or(0, |p| locked(p))
            }
        }
    }
}

/// TL2 concurrency control (Fig 9) over a [`LockTable`] (or the adaptive
/// multi-generation table) and a [`VersionClock`].
///
/// The `rset`/`wset`/`stripes` vectors live for the life of the handle and
/// are only ever `clear()`ed (in `begin` and at commit), never reallocated:
/// a retried transaction reuses the capacity its first attempt grew.
pub struct Tl2Policy {
    shared: Arc<Tl2Shared>,
    /// Read timestamp `rver` of the current transaction.
    rv: u64,
    rset: Vec<usize>,
    /// Sorted by register index; one entry per register.
    wset: Vec<(usize, u64)>,
    /// Commit-time scratch: deduplicated (generation, stripe) lock words of
    /// the write set. Generation 0 (a retiring table, during an adaptive
    /// migration window) sorts — and therefore locks — first, giving every
    /// committer the same cross-generation acquisition order.
    stripes: Vec<GenStripe>,
    /// Commit-time scratch: lock words more than one of this commit's
    /// registers map to (usually empty). Their writer hints get the
    /// ambiguous sentinel, so later aborts there are not misclassified as
    /// false conflicts.
    shared_stripes: Vec<GenStripe>,
    /// The adaptive-table generation this handle's transactions run
    /// against, re-pinned at begin whenever the generation probe moved.
    /// `None` under fixed storage (and before the first transaction).
    pinned: Option<(u64, Arc<TableGen>)>,
    /// Write timestamp of the last committed transaction (recorder key).
    wver_of_last_commit: u64,
    /// Governor fold state: read-only commits since the last fold. Plain
    /// (non-atomic) handle-local words — a steady-state commit increments
    /// one of these and writes *nothing* another thread could contend on;
    /// the shared [`AutoClock`] is only touched at a window boundary whose
    /// fold leaves the hysteresis band.
    gov_ro: u64,
    /// Governor fold state: writing commits since the last fold.
    gov_wr: u64,
}

/// The lock-table view one transaction runs against: a fixed table, or the
/// pinned adaptive generation (with the retiring parent riding along during
/// a migration window). A free function over the two policy fields — not a
/// method — so the borrow stays field-precise and the hot paths can keep
/// mutating the read/write sets alongside it.
#[derive(Clone, Copy)]
enum Tables<'a> {
    Fixed(&'a AnyLockTable),
    Gen(&'a TableGen),
}

#[inline]
fn tables<'a>(shared: &'a Tl2Shared, pinned: &'a Option<(u64, Arc<TableGen>)>) -> Tables<'a> {
    match &shared.tables {
        AnyTables::Fixed(t) => Tables::Fixed(t),
        AnyTables::Adaptive(_) => {
            let (_, gen) = pinned.as_ref().expect("begin() pins a generation");
            Tables::Gen(gen)
        }
    }
}

impl Tables<'_> {
    /// Fig 9 lines 17–23 for register `x`: lock word(s), value, lock
    /// word(s) again. Under per-register storage all three come out of the
    /// register's own cell — one bounds check, one cache line.
    #[inline]
    fn read_sandwich(&self, rt: &Runtime, x: usize) -> (StripeSnap, u64, StripeSnap) {
        if let Tables::Fixed(AnyLockTable::PerRegister(t)) = self {
            let cell = t.cell(x);
            let snap = || StripeSnap {
                cur: cell.orec.sample(),
                prev: None,
            };
            let s1 = snap();
            return (s1, cell.load(), snap());
        }
        let s1 = self.snap(x);
        (s1, rt.load(x), self.snap(x))
    }

    /// Sample every live lock word guarding register `x`.
    #[inline]
    fn snap(&self, x: usize) -> StripeSnap {
        match self {
            Tables::Fixed(t) => StripeSnap {
                cur: t.sample(x),
                prev: None,
            },
            Tables::Gen(g) => g.sample(x),
        }
    }

    /// Push the (generation, stripe) address of every lock word guarding
    /// `x` — two during a migration window, one otherwise.
    #[inline]
    fn push_gen_stripes(&self, x: usize, out: &mut Vec<GenStripe>) {
        match self {
            Tables::Fixed(t) => out.push((1, t.stripe_of(x))),
            Tables::Gen(g) => {
                out.push((1, g.table().stripe_of(x)));
                if let Some(p) = g.prev() {
                    out.push((0, p.stripe_of(x)));
                }
            }
        }
    }

    #[inline]
    fn try_lock(&self, (gen, s): GenStripe, owner: u16) -> Result<u64, VLockState> {
        match (self, gen) {
            (Tables::Fixed(t), _) => t.try_lock_stripe(s, owner),
            (Tables::Gen(g), 1) => g.table().try_lock_stripe(s, owner),
            (Tables::Gen(g), _) => g.prev().expect("gen-0 stripe").try_lock_stripe(s, owner),
        }
    }

    #[inline]
    fn unlock(&self, (gen, s): GenStripe) {
        match (self, gen) {
            (Tables::Fixed(t), _) => t.unlock_stripe(s),
            (Tables::Gen(g), 1) => g.table().unlock_stripe(s),
            (Tables::Gen(g), _) => g.prev().expect("gen-0 stripe").unlock_stripe(s),
        }
    }

    #[inline]
    fn unlock_set_version(&self, (gen, s): GenStripe, version: u64) {
        match (self, gen) {
            (Tables::Fixed(t), _) => t.unlock_stripe_set_version(s, version),
            (Tables::Gen(g), 1) => g.table().unlock_stripe_set_version(s, version),
            (Tables::Gen(g), _) => g
                .prev()
                .expect("gen-0 stripe")
                .unlock_stripe_set_version(s, version),
        }
    }

    /// Record `x` as the last committed writer of its stripe(s) — in every
    /// live generation, so the hint survives a migration. Lock words in
    /// `ambiguous` (sorted) received writes for *several* of this commit's
    /// registers: they get the [`WriterHint::Shared`] sentinel instead, so
    /// a later abort there is never misclassified as false.
    #[inline]
    fn record_writer(&self, x: usize, ambiguous: &[GenStripe]) {
        fn record(t: &impl LockTable, gen: u8, x: usize, ambiguous: &[GenStripe]) {
            let s = t.stripe_of(x);
            if ambiguous.binary_search(&(gen, s)).is_ok() {
                t.record_writer_shared(s);
            } else {
                t.record_writer(s, x);
            }
        }
        match self {
            Tables::Fixed(t) => record(*t, 1, x, ambiguous),
            Tables::Gen(g) => {
                record(g.table(), 1, x, ambiguous);
                if let Some(p) = g.prev() {
                    record(p, 0, x, ambiguous);
                }
            }
        }
    }

    /// Advisory classification of an abort on register `x`: a *false*
    /// conflict is one where the failing stripe's last committed writer was
    /// a different *single* register — the two merely share a lock word.
    /// [`WriterHint::Shared`] (multi-register commit) and
    /// [`WriterHint::None`] never classify as false; and because hints are
    /// written at write-back, a conflict with a transaction still
    /// mid-commit is judged against the *previous* commit through the
    /// stripe — a bounded over-count the growth threshold tolerates, never
    /// a correctness issue.
    #[inline]
    fn false_conflict(&self, x: usize) -> bool {
        let hint = match self {
            Tables::Fixed(t) => t.writer_hint(t.stripe_of(x)),
            Tables::Gen(g) => {
                let t = g.table();
                match t.writer_hint(t.stripe_of(x)) {
                    WriterHint::None => g
                        .prev()
                        .map_or(WriterHint::None, |p| p.writer_hint(p.stripe_of(x))),
                    h => h,
                }
            }
        };
        matches!(hint, WriterHint::Register(h) if h != x)
    }

    /// Does lock word `gs` guard register `x`? The re-hash that attributes
    /// a commit-time lock failure back to one of our write-set registers.
    #[inline]
    fn guards(&self, (gen, s): GenStripe, x: usize) -> bool {
        match (self, gen) {
            (Tables::Fixed(t), _) => t.stripe_of(x) == s,
            (Tables::Gen(g), 1) => g.table().stripe_of(x) == s,
            (Tables::Gen(g), _) => g.prev().is_some_and(|p| p.stripe_of(x) == s),
        }
    }
}

/// Release the given lock words (abort paths).
fn release(t: &Tables<'_>, stripes: &[GenStripe]) {
    for &gs in stripes {
        t.unlock(gs);
    }
}

/// Unwind safety net for the commit's lock-holding window: releases every
/// held lock word on drop unless disarmed. Armed from the moment the full
/// write set is locked until the normal unlock loop has run, it guarantees
/// a panic anywhere in between — an injected one at the clock bump or
/// validation, or a genuine bug in write-back — leaves `locked_stripes() ==
/// 0` behind instead of wedging every future committer. Ordinary abort
/// returns ride the same drop.
struct LockGuard<'a, 'b> {
    t: Tables<'b>,
    stripes: &'a [GenStripe],
    armed: bool,
}

impl Drop for LockGuard<'_, '_> {
    fn drop(&mut self) {
        if self.armed {
            release(&self.t, self.stripes);
        }
    }
}

/// Classify an abort on register `x` and feed both the per-handle counter
/// and (under adaptive storage) the table's sliding growth window.
fn note_false_conflict(shared: &Tl2Shared, t: &Tables<'_>, ctx: &mut TxCtx<'_>, x: usize) {
    if t.false_conflict(x) {
        ctx.stats.false_conflicts += 1;
        if let AnyTables::Adaptive(at) = &shared.tables {
            at.note_false_conflict();
        }
    }
}

impl Tl2Policy {
    /// Write timestamp of the most recent committed transaction — the WW
    /// ordering key handed to the opacity checker.
    pub fn last_commit_wver(&self) -> u64 {
        self.wver_of_last_commit
    }

    /// A validation failed because an orec stamp outran this transaction's
    /// `rv`. Under GV5 that stamp may be *ahead of the shared clock* (commits
    /// don't bump it), so simply retrying would re-read the same stale `rv`
    /// and abort forever: advance the global view to the observed stamp so
    /// the retry validates — the "at most one extra false abort per unlucky
    /// reader" cost of GV5. GV1/GV4 stamps never outrun the clock, so their
    /// refresh is a no-op. A real advance writes the shared line and is
    /// counted as a clock bump.
    #[inline]
    fn refresh_on_stale_rv(&self, ctx: &mut TxCtx<'_>, observed: u64) {
        if self.shared.clock.refresh(observed) {
            ctx.stats.clock_bumps += 1;
        }
    }

    /// Commit-epilogue window bookkeeping for adaptive storage: count the
    /// commit and, at a window boundary whose false-conflict rate crosses
    /// the policy threshold, publish a doubled generation (retired through
    /// the runtime's grace engine) — or, when the governor armed the shrink
    /// side, a halved one after the required run of calm windows.
    #[inline]
    fn note_window_commit(&self, ctx: &mut TxCtx<'_>) {
        if let AnyTables::Adaptive(at) = &self.shared.tables {
            if at.note_commit(ctx.rt.grace()) {
                ctx.stats.stripe_resizes += 1;
            }
        }
    }

    /// Commit-epilogue governor bookkeeping: tally the commit's read/write
    /// class into this handle's plain fold counters and, every
    /// [`GOVERNOR_WINDOW`] commits, fold them into a clock-discipline
    /// decision on the shared [`AutoClock`] (no-op under a static clock).
    /// The fold requests GV5 on a write-heavy window and GV1 on a
    /// read-heavy one, with a no-request hysteresis band between; a granted
    /// request opens a grace-fenced handoff, counted in
    /// [`crate::api::Stats::clock_switches`].
    #[inline]
    fn note_governor_commit(&mut self, ctx: &mut TxCtx<'_>, wrote: bool) {
        if wrote {
            ctx.stats.write_commits += 1;
            self.gov_wr += 1;
        } else {
            ctx.stats.read_only_commits += 1;
            self.gov_ro += 1;
        }
        let total = self.gov_ro + self.gov_wr;
        if total < GOVERNOR_WINDOW {
            return;
        }
        let writes = self.gov_wr;
        self.gov_ro = 0;
        self.gov_wr = 0;
        let Some(auto) = self.shared.auto_clock() else {
            return;
        };
        let want = if writes * 100 >= total * WRITE_HEAVY_PCT {
            AutoMode::Gv5
        } else if writes * 100 <= total * READ_HEAVY_PCT {
            AutoMode::Gv1
        } else {
            return; // hysteresis band: keep the current discipline
        };
        if auto.request(want, ctx.rt.grace()) {
            ctx.stats.clock_switches += 1;
            // Trace the decision WITH the fold that justified it, so the
            // flight recorder can answer "why did the clock switch?".
            ctx.rt.telemetry().record_event(
                ctx.slot,
                EventKind::ClockSwitchRequest {
                    to_gv5: want == AutoMode::Gv5,
                    read_commits: total - writes,
                    write_commits: writes,
                },
            );
        }
    }
}

impl Policy for Tl2Policy {
    fn begin(&mut self, ctx: &mut TxCtx<'_>) {
        match &self.shared.tables {
            AnyTables::Fixed(t) => ctx.stats.current_stripes = t.nstripes() as u64,
            AnyTables::Adaptive(at) => {
                // If our pinned generation carries a retiring parent, give
                // the migration one (non-blocking) driving step — this is
                // what completes rehashes under plain transaction traffic,
                // with no fences and no background driver in the picture.
                if self
                    .pinned
                    .as_ref()
                    .is_some_and(|(_, g)| g.prev().is_some())
                {
                    at.poll_migration();
                }
                // Pin (or re-pin) the generation this transaction will lock
                // and validate against. The epoch slot was entered before
                // `begin` (see the runtime), so a publish we raced either
                // sees us in its grace period's snapshot or we observe its
                // new generation probe — never neither.
                at.repin(&mut self.pinned);
                ctx.stats.current_stripes =
                    self.pinned.as_ref().map_or(0, |(_, g)| g.nstripes()) as u64;
            }
        }
        // Under the Auto clock, give an open discipline handoff one
        // non-blocking driving step — the cooperative-mode mirror of the
        // migration poll above, and what re-arms the GV1 elision fast path
        // after a switch. The settled check is one atomic load, so a
        // settled clock (the steady state) pays nothing here.
        if let Some(auto) = self.shared.auto_clock() {
            if !auto.settled() {
                auto.poll_settle();
            }
        }
        self.rv = self.shared.clock.read_stamp();
        self.rset.clear();
        self.wset.clear();
    }

    fn read(&mut self, ctx: &mut TxCtx<'_>, x: usize) -> Result<u64, Abort> {
        // Read-only transactions are the common case: don't even probe the
        // write set until something has been written.
        if !self.wset.is_empty() {
            if let Ok(i) = self.wset.binary_search_by_key(&x, |&(r, _)| r) {
                return Ok(self.wset[i].1);
            }
        }
        // Fig 9 lines 17–23: ver, value, lock, ver again (at stripe
        // granularity: any commit to a stripe-sharing register aborts us —
        // conservative, never unsound). During an adaptive migration window
        // the snap spans both generations, so a commit through either
        // table is observed.
        let t = tables(&self.shared, &self.pinned);
        let (s1, val, s2) = t.read_sandwich(ctx.rt, x);
        if s2.is_locked() || s1 != s2 || self.rv < s2.version_max() {
            if self.rv < s2.version_max() {
                self.refresh_on_stale_rv(ctx, s2.version_max());
            }
            note_false_conflict(&self.shared, &t, ctx, x);
            ctx.stats.aborts_read += 1;
            return Err(Abort);
        }
        // A forced abort here is indistinguishable from the version check
        // above catching an intervening commit.
        if ctx.rt.chaos_abort(ctx.slot, Site::Validate) {
            ctx.stats.aborts_read += 1;
            return Err(Abort);
        }
        self.rset.push(x);
        Ok(val)
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
            // Read-only: every read was already validated against `rv` at
            // read time (Fig 9 lines 17–23), so the snapshot is consistent;
            // classic TL2 skips the clock bump and lock phase entirely.
            self.note_window_commit(ctx);
            self.note_governor_commit(ctx, false);
            return Ok(());
        }
        let t = tables(&self.shared, &self.pinned);
        // Lock the write set's lock words (deduplicated, sorted order;
        // trylock-or-abort per Fig 7). During an adaptive migration window
        // every register contributes its stripe in *both* generations —
        // retiring-table words sort first, so all committers acquire
        // cross-generation locks in the same order.
        self.stripes.clear();
        for &(x, _) in &self.wset {
            t.push_gen_stripes(x, &mut self.stripes);
        }
        self.stripes.sort_unstable();
        // Lock words several of our registers map to (pre-dedup
        // duplicates): their writer hints become ambiguous at write-back,
        // never a single register.
        self.shared_stripes.clear();
        for w in self.stripes.windows(2) {
            if w[0] == w[1] && self.shared_stripes.last() != Some(&w[0]) {
                self.shared_stripes.push(w[0]);
            }
        }
        self.stripes.dedup();
        for (taken, &gs) in self.stripes.iter().enumerate() {
            // A forced abort here is indistinguishable from losing the
            // trylock race below: release what we took, walk the same path.
            if ctx.rt.chaos_abort(ctx.slot, Site::LockAcquire) {
                release(&t, &self.stripes[..taken]);
                ctx.stats.aborts_lock += 1;
                return Err(Abort);
            }
            if t.try_lock(gs, ctx.slot).is_err() {
                release(&t, &self.stripes[..taken]);
                // Re-hash the failed lock word back to one of our write-set
                // registers to classify the conflict.
                if let Some(&(x, _)) = self.wset.iter().find(|&&(x, _)| t.guards(gs, x)) {
                    note_false_conflict(&self.shared, &t, ctx, x);
                }
                ctx.stats.aborts_lock += 1;
                return Err(Abort);
            }
        }
        // Every lock word is held from here on: arm the unwind safety net.
        // Abort returns below drop it armed (releasing the set); the normal
        // path disarms it right after the unlock loop.
        let mut locks = LockGuard {
            t,
            stripes: &self.stripes,
            armed: true,
        };
        // wver := the clock backend's write stamp (Fig 7 line 19 is the GV1
        // `fetch_and_increment`; GV4 may adopt a concurrent winner's stamp,
        // GV5 stamps from a slot-local delta without touching the shared
        // line). Must happen after the locks above: the exclusivity proof
        // below relies on every concurrent writer holding its locks before
        // sampling the clock.
        ctx.rt.chaos_delay(Site::ClockBump);
        let stamp = self.shared.clock.write_stamp(ctx.slot, self.rv);
        ctx.stats.clock_bumps += u64::from(stamp.bumped);
        let wver = stamp.wver;
        if stamp.exclusive {
            // Validation elision: we advanced the clock rv → rv + 1
            // ourselves, so no other writer acquired a stamp — bumped *or*
            // adopted — since our begin. Any writer already mid-commit at
            // our begin took its locks before its (≤ rv) stamp, so a read
            // that overlapped it sampled a locked orec and aborted at read
            // time. (Cross-generation commits lock every table we sample,
            // so the argument survives adaptive resizes.) The read set is
            // therefore exactly as validated at read time: skip the
            // re-validation loop.
            debug_assert_eq!(wver, self.rv + 1);
            ctx.stats.validation_elisions += 1;
        } else {
            // A forced abort here is indistinguishable from the loop below
            // finding an intervening commit; the armed guard releases the
            // whole lock set on return.
            if ctx.rt.chaos_abort(ctx.slot, Site::Validate) {
                ctx.stats.aborts_validate += 1;
                return Err(Abort);
            }
            // Validate the read set (lines 20–26). A stripe we hold
            // ourselves still fails on `rv < version` if someone committed
            // to it between our read and our lock acquisition. The armed
            // `locks` guard releases the lock set on the abort return.
            for &x in &self.rset {
                let s = t.snap(x);
                if s.is_locked_by_other(ctx.slot) || self.rv < s.version_max() {
                    if self.rv < s.version_max() {
                        self.refresh_on_stale_rv(ctx, s.version_max());
                    }
                    note_false_conflict(&self.shared, &t, ctx, x);
                    ctx.stats.aborts_validate += 1;
                    return Err(Abort);
                }
            }
        }
        // Write back, then release every lock word with the new version
        // (lines 27–30); the writer hints recorded here (while the locks
        // are still held) are what classifies later conflicts on these
        // stripes as false or real.
        for &(x, v) in &self.wset {
            ctx.rt.store(x, v);
            t.record_writer(x, &self.shared_stripes);
        }
        // Linearized while every lock is still held: no conflicting writer
        // can commit, and so record its response, before ours.
        ctx.linearized();
        for &gs in &self.stripes {
            t.unlock_set_version(gs, wver);
        }
        // Locks are released; disarm (and end) the unwind guard before the
        // epilogue below re-borrows `self` mutably.
        locks.armed = false;
        drop(locks);
        ctx.rt.chaos_delay(Site::CommitEpilogue);
        self.wver_of_last_commit = wver;
        self.note_window_commit(ctx);
        self.note_governor_commit(ctx, true);
        Ok(())
    }

    fn rollback(&mut self, _ctx: &mut TxCtx<'_>) {}
}

impl Handle<Tl2Policy> {
    /// Write timestamp of the most recent committed transaction.
    pub fn last_commit_wver(&self) -> u64 {
        self.policy().last_commit_wver()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Stats, StmHandle};
    use crate::clock::ClockKind;

    /// Run every TL2 unit scenario against all storage backends (fixed
    /// striped, adaptive — with a hair-trigger growth policy so resizes
    /// happen mid-scenario — and per-register under all three clocks): the
    /// policy must be agnostic to both axes.
    fn backends(nregs: usize, nthreads: usize) -> Vec<Tl2Stm> {
        use crate::storage::AdaptivePolicy;
        let mut stms = vec![
            Tl2Stm::with_config(StmConfig::new(nregs, nthreads).striped(4)),
            Tl2Stm::with_config(
                StmConfig::new(nregs, nthreads).adaptive_stripes(AdaptivePolicy {
                    start: 1,
                    max: 16,
                    threshold: 0,
                    window: 4,
                }),
            ),
        ];
        for clock in ClockKind::ALL {
            stms.push(Tl2Stm::with_config(
                StmConfig::new(nregs, nthreads).clock(clock),
            ));
        }
        // The fully-governed configuration: seeded adaptive storage plus
        // the switchable Auto clock. Scenarios must be oblivious to any
        // mid-run reconfiguration the governor performs.
        stms.push(Tl2Stm::with_config(StmConfig::auto(nregs, nthreads)));
        stms
    }

    #[test]
    fn single_thread_read_write() {
        for stm in backends(4, 1) {
            let mut h = stm.handle(0);
            let out = h.atomic(|tx| {
                tx.write(0, 11)?;
                tx.write(1, 22)?;
                let a = tx.read(0)?;
                let b = tx.read(1)?;
                Ok(a + b)
            });
            assert_eq!(out, 33);
            assert_eq!(stm.peek(0), 11);
            assert_eq!(stm.peek(1), 22);
            assert_eq!(h.stats().commits, 1);
        }
    }

    #[test]
    fn user_abort_discards_writes() {
        for stm in backends(1, 1) {
            let mut h = stm.handle(0);
            let r: Result<(), Abort> = h.try_atomic(|tx| {
                tx.write(0, 5)?;
                Err(Abort)
            });
            assert_eq!(r, Err(Abort));
            assert_eq!(stm.peek(0), 0);
            assert_eq!(h.stats().aborts_user, 1);
            // The handle is reusable afterwards.
            h.atomic(|tx| tx.write(0, 7));
            assert_eq!(stm.peek(0), 7);
        }
    }

    #[test]
    fn direct_access_and_fence() {
        for stm in backends(2, 1) {
            let mut h = stm.handle(0);
            h.write_direct(0, 9);
            assert_eq!(h.read_direct(0), 9);
            h.fence(); // no active transactions: immediate
            assert_eq!(h.stats().fences, 1);
            assert_eq!(h.stats().direct_reads, 1);
            assert_eq!(h.stats().direct_writes, 1);
        }
    }

    #[test]
    fn conflicting_writers_serialize() {
        for stm in backends(1, 4) {
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
    }

    #[test]
    fn duplicate_stripe_write_sets_commit() {
        // With one stripe, every register shares the lock word: commit must
        // dedup instead of self-deadlocking or double-unlocking.
        let stm = Tl2Stm::with_config(StmConfig::new(8, 1).striped(1));
        assert_eq!(stm.nstripes(), 1);
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            for x in 0..8 {
                tx.write(x, x as u64 + 1)?;
            }
            Ok(())
        });
        for x in 0..8 {
            assert_eq!(stm.peek(x), x as u64 + 1);
        }
        assert_eq!(h.stats().commits, 1);
    }

    #[test]
    fn bank_invariant_with_readers() {
        const ACCOUNTS: usize = 8;
        const TOTAL: u64 = 8000;
        for stm in backends(ACCOUNTS, 4) {
            {
                let mut h = stm.handle(0);
                h.atomic(|tx| {
                    for a in 0..ACCOUNTS {
                        tx.write(a, TOTAL / ACCOUNTS as u64)?;
                    }
                    Ok(())
                });
            }
            std::thread::scope(|s| {
                // Transfer threads.
                for t in 0..3 {
                    let stm = stm.clone();
                    s.spawn(move || {
                        let mut h = stm.handle(t);
                        let mut rng = t as u64 + 1;
                        for _ in 0..2000 {
                            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let from = (rng >> 33) as usize % ACCOUNTS;
                            let to = (rng >> 13) as usize % ACCOUNTS;
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
                // Auditor: the sum must be constant in every snapshot.
                let stm2 = stm.clone();
                s.spawn(move || {
                    let mut h = stm2.handle(3);
                    for _ in 0..500 {
                        let sum = h.atomic(|tx| {
                            let mut s = 0u64;
                            for a in 0..ACCOUNTS {
                                s += tx.read(a)?;
                            }
                            Ok(s)
                        });
                        assert_eq!(sum, TOTAL, "opacity violation: inconsistent audit");
                    }
                });
            });
        }
    }

    #[test]
    fn fence_provides_privatization_safety() {
        // Privatization stress: t0 privatizes reg 1 via flag reg 0, fences,
        // writes it non-transactionally, publishes back. t1 writes reg 1
        // transactionally while unprivatized. The fenced protocol must never
        // lose t0's non-transactional write.
        for stm in backends(2, 2) {
            let rounds = 3000;
            std::thread::scope(|s| {
                let stm0 = stm.clone();
                let owner = s.spawn(move || {
                    let mut h = stm0.handle(0);
                    let mut lost = 0u64;
                    for i in 1..=rounds {
                        h.atomic(|tx| tx.write(0, 1)); // privatize
                        h.fence();
                        let marker = 0x8000_0000_0000_0000 | i;
                        h.write_direct(1, marker);
                        if h.read_direct(1) != marker {
                            lost += 1;
                        }
                        h.atomic(|tx| tx.write(0, 2)); // publish back (flag != 1)
                        h.fence();
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
                assert_eq!(owner.join().unwrap(), 0, "fenced privatization lost writes");
            });
        }
    }

    #[test]
    fn uncontended_writer_elides_validation() {
        // Single thread, GV1/GV4: every writing commit advances the clock
        // rv → rv + 1 exclusively, so commit-time re-validation must be
        // skipped every time — even when the read set is non-empty.
        for clock in [ClockKind::Gv1, ClockKind::Gv4] {
            let stm = Tl2Stm::with_config(StmConfig::new(4, 1).clock(clock));
            let mut h = stm.handle(0);
            for i in 0..3 {
                h.atomic(|tx| {
                    let v = tx.read(0)?;
                    tx.write(1, v + i)?;
                    tx.write(0, i + 1)
                });
            }
            let s = h.stats();
            assert_eq!(s.commits, 3, "{}", clock.label());
            assert!(
                s.validation_elisions >= 1,
                "{}: wver == rv + 1 must elide validation: {s:?}",
                clock.label()
            );
            assert_eq!(
                s.validation_elisions,
                3,
                "{}: every uncontended commit is exclusive",
                clock.label()
            );
            assert_eq!(s.clock_bumps, 3, "{}: one bump per commit", clock.label());
        }
    }

    #[test]
    fn gv5_commits_do_not_bump_and_never_elide() {
        let stm = Tl2Stm::with_config(StmConfig::new(4, 1).clock(ClockKind::Gv5));
        let mut h = stm.handle(0);
        for i in 0..5 {
            h.atomic(|tx| tx.write(0, i + 1));
        }
        let s = h.stats();
        assert_eq!(s.commits, 5);
        assert_eq!(s.clock_bumps, 0, "gv5 commits stay off the shared line");
        assert_eq!(
            s.validation_elisions, 0,
            "gv5 never proves exclusivity, so it may never elide"
        );
    }

    #[test]
    fn gv5_trailing_reader_pays_one_false_abort_then_validates() {
        // Deterministic, single-threaded: slot 0 commits (stamps run ahead
        // of the never-bumped global clock), then a fresh handle's reading
        // transaction starts with a stale rv, takes exactly one false
        // abort — which refreshes the shared clock — and succeeds on retry.
        let stm = Tl2Stm::with_config(StmConfig::new(2, 2).clock(ClockKind::Gv5));
        let mut w = stm.handle(0);
        for i in 0..3 {
            w.atomic(|tx| tx.write(0, 100 + i));
        }
        let mut r = stm.handle(1);
        let v = r.atomic(|tx| tx.read(0));
        assert_eq!(v, 102);
        let s = r.stats();
        assert_eq!(
            s.aborts_read, 1,
            "exactly one false abort for the trailing reader: {s:?}"
        );
        assert_eq!(s.retries, 1);
        assert_eq!(
            s.clock_bumps, 1,
            "the false abort refreshes the shared clock once"
        );
        // The refreshed view is shared: a second reader pays nothing.
        let mut r2 = stm.handle(1);
        r2.atomic(|tx| tx.read(0));
        assert_eq!(
            r2.stats().aborts_read,
            0,
            "refresh is global, not per-handle"
        );
    }

    #[test]
    fn read_only_commits_keep_clock_untouched_under_all_clocks() {
        for clock in ClockKind::ALL {
            let stm = Tl2Stm::with_config(StmConfig::new(2, 1).clock(clock));
            let mut h = stm.handle(0);
            for _ in 0..4 {
                h.atomic(|tx| tx.read(0));
            }
            let s = h.stats();
            assert_eq!(s.commits, 4, "{}", clock.label());
            assert_eq!(
                s.clock_bumps,
                0,
                "{}: read-only commits never stamp",
                clock.label()
            );
            assert_eq!(s.aborts_total(), 0, "{}", clock.label());
        }
    }

    /// A commit writing several registers through ONE stripe must hint the
    /// ambiguous sentinel, so a conflict with any of its registers is NOT
    /// classified false — the review-grade case where hint-by-last-register
    /// would misreport a real conflict as stripe sharing.
    #[test]
    fn multi_register_commit_conflicts_are_not_false() {
        use crate::storage::WriterHint;
        use std::sync::Barrier;
        let stm = Tl2Stm::with_config(StmConfig::new(4, 2).striped(1));
        {
            // Writer commits registers 0 AND 1 through the single stripe:
            // the hint must be Shared, not Register(1).
            let mut w = stm.handle(0);
            w.atomic(|tx| {
                tx.write(0, 5)?;
                tx.write(1, 6)
            });
            match &stm.shared().tables {
                AnyTables::Fixed(t) => {
                    assert_eq!(t.writer_hint(0), WriterHint::Shared);
                }
                AnyTables::Adaptive(_) => unreachable!("fixed config"),
            }
        }
        // Force a conflict: reader samples register 0, parks; the writer
        // commits registers 0+1 again. The reader's abort is a REAL
        // conflict (register 0 was written) and must not count as false.
        let after_read = std::sync::Arc::new(Barrier::new(2));
        let after_commit = std::sync::Arc::new(Barrier::new(2));
        let stats = std::thread::scope(|s| {
            let stm1 = stm.clone();
            let (b1, b2) = (Arc::clone(&after_read), Arc::clone(&after_commit));
            let reader = s.spawn(move || {
                let mut h = stm1.handle(1);
                let mut first = true;
                h.atomic(|tx| {
                    let v = tx.read(0)?;
                    if first {
                        first = false;
                        b1.wait();
                        b2.wait();
                    }
                    tx.write(3, v + 1)
                });
                h.stats()
            });
            let mut w = stm.handle(0);
            after_read.wait();
            w.atomic(|tx| {
                tx.write(0, 50)?;
                tx.write(1, 60)
            });
            after_commit.wait();
            reader.join().unwrap()
        });
        assert_eq!(stats.retries, 1, "{stats:?}");
        assert_eq!(
            stats.false_conflicts, 0,
            "a conflict with a multi-register commit that really wrote the \
             read register must not classify as false: {stats:?}"
        );
        assert_eq!(stm.peek(3), 51);
    }

    #[test]
    fn commit_mix_counters_split_by_write_set() {
        for stm in backends(2, 1) {
            let mut h = stm.handle(0);
            h.atomic(|tx| tx.read(0)); // read-only
            h.atomic(|tx| tx.write(0, 1)); // writing
            h.atomic(|tx| {
                let v = tx.read(0)?;
                tx.write(1, v + 1) // writing (read+write)
            });
            let s = h.stats();
            assert_eq!(s.commits, 3);
            assert_eq!(s.read_only_commits, 1, "{s:?}");
            assert_eq!(s.write_commits, 2, "{s:?}");
        }
    }

    /// The governor's clock fold: a write-heavy window under the Auto clock
    /// switches the discipline to GV5 (counted in `Stats::clock_switches`),
    /// and after the grace-fenced handoff settles, a read-heavy window
    /// switches it back to GV1 — all with cooperative driving only.
    #[test]
    fn governor_switches_clock_both_ways() {
        let stm = Tl2Stm::with_config(StmConfig::auto(4, 1));
        assert_eq!(stm.clock_mode_label(), "gv1", "auto starts as GV1");
        let mut h = stm.handle(0);
        for i in 0..GOVERNOR_WINDOW {
            h.atomic(|tx| tx.write(0, i + 1));
        }
        assert_eq!(h.stats().clock_switches, 1, "write-heavy fold -> GV5");
        assert_eq!(stm.clock_mode_label(), "gv5");
        assert_eq!(stm.clock_switches(), 1);
        // Read-heavy traffic: begins poll the handoff settled, then the
        // next fold switches back.
        let mut folds = 0;
        while stm.clock_mode_label() == "gv5" {
            for _ in 0..GOVERNOR_WINDOW {
                h.atomic(|tx| tx.read(0));
            }
            folds += 1;
            assert!(folds < 64, "read-heavy folds must re-install GV1");
        }
        assert_eq!(stm.clock_mode_label(), "gv1");
        assert_eq!(h.stats().clock_switches, 2, "{:?}", h.stats());
        // Drive the second handoff settled too: once it is, the GV1
        // elision fast path is re-armed.
        while stm.clock_handoff_pending() {
            h.atomic(|tx| tx.read(0));
        }
        let before = h.stats().validation_elisions;
        h.atomic(|tx| tx.write(1, 7));
        assert_eq!(
            h.stats().validation_elisions,
            before + 1,
            "a settled GV1 discipline must elide again: {:?}",
            h.stats()
        );
    }

    /// Four registers share a cache line; they must never share a *lock*.
    /// With `x`'s orec held by another slot, reading `x` aborts and reading
    /// `x + 1` — 16 bytes away — does not: nothing samples, locks or
    /// validates at line granularity.
    #[test]
    fn locked_orec_does_not_abort_a_read_of_its_neighbour() {
        let stm = Tl2Stm::with_config(StmConfig::new(8, 2).chaos_off());
        stm.runtime().store(5, 55);
        let file = stm.runtime().file();
        assert_eq!(file[4].orec.try_lock(1), Ok(0));
        let mut h = stm.handle(0);
        assert_eq!(h.try_atomic(|tx| tx.read(5)), Ok(55), "neighbour reads");
        assert_eq!(h.try_atomic(|tx| tx.read(3)), Ok(0), "either side");
        assert_eq!(h.try_atomic(|tx| tx.read(4)), Err(Abort), "x itself aborts");
        let s = h.stats();
        assert_eq!((s.commits, s.aborts_read, s.false_conflicts), (2, 1, 0));
        // A commit writing the neighbours goes through; one writing `x`
        // loses the trylock.
        h.atomic(|tx| {
            tx.write(3, 1)?;
            tx.write(5, 2)
        });
        assert_eq!(h.try_atomic(|tx| tx.write(4, 9)), Err(Abort));
        assert_eq!(h.stats().aborts_lock, 1);
        assert_eq!(stm.locked_stripes(), 1, "only the word we took by hand");
        file[4].orec.unlock();
        h.atomic(|tx| tx.write(4, 9));
        assert_eq!((stm.peek(3), stm.peek(4), stm.peek(5)), (1, 9, 2));
    }

    #[test]
    fn retries_are_counted_on_conflict() {
        // Deterministic conflict (barriers, so it also works on one core):
        // t1 reads reg 0 and pauses; t0 commits a write to reg 0; t1's
        // commit-time validation must fail once, and the shared retry loop
        // must surface that as one counted, backed-off retry.
        use std::sync::Barrier;
        let stm = Tl2Stm::new(2, 2);
        let after_read = Arc::new(Barrier::new(2));
        let after_commit = Arc::new(Barrier::new(2));
        let stats: Stats = std::thread::scope(|s| {
            let stm1 = stm.clone();
            let (b1, b2) = (Arc::clone(&after_read), Arc::clone(&after_commit));
            let reader = s.spawn(move || {
                let mut h = stm1.handle(1);
                let mut first = true;
                h.atomic(|tx| {
                    let v = tx.read(0)?;
                    if first {
                        first = false;
                        b1.wait();
                        b2.wait();
                    }
                    tx.write(1, v + 1)
                });
                h.stats()
            });
            let mut h0 = stm.handle(0);
            after_read.wait();
            h0.atomic(|tx| tx.write(0, 99));
            after_commit.wait();
            reader.join().unwrap()
        });
        assert_eq!(stm.peek(1), 100, "retry must observe the new value");
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.retries, 1, "exactly one forced conflict: {stats:?}");
        assert_eq!(stats.aborts_validate, 1);
        assert_eq!(stats.retries, stats.aborts_total());
        assert!(stats.backoff_ns > 0, "the retry must charge backoff time");
    }
}
