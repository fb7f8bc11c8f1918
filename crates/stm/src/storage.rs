//! Pluggable ownership-record storage for versioned-lock STMs.
//!
//! TL2-style algorithms need one *versioned write-lock* per guarded unit of
//! data. How those lock words are laid out is an implementation axis the
//! paper's correctness argument never depends on (the TM-interface actions
//! are the same either way), but it dominates the memory footprint and the
//! false-conflict rate:
//!
//! * [`PerRegisterTable`] — one [`VLock`] per register, living *beside the
//!   value* in the runtime's 16-byte [`RegCell`]: no false conflicts, 8
//!   bytes of metadata per register (a million registers: 16 MiB, values
//!   included), and the orec a read must sample arrives on the cache line
//!   of the datum. Four neighbouring registers share a line, so unrelated
//!   writers can false-*share* (never false-*conflict*) — see
//!   `docs/ARCHITECTURE.md`, "unmeasured at scale".
//! * [`StripedTable`] — a fixed-size *striped orec table*: register `x` is
//!   guarded by stripe `splitmix64(x) % nstripes`. Constant metadata
//!   footprint (each word cache-padded), at the price of *false conflicts*
//!   between registers that share a stripe and a second cache line per
//!   read (production TL2 descendants make exactly this trade).
//!
//! Both present the same [`LockTable`] interface, so a concurrency-control
//! policy written against it (see [`crate::tl2`]) is storage-agnostic.
//! Striping is conservative, never unsound: sharing a stripe only makes the
//! version check *more* likely to abort, and commit-time acquisition locks
//! each distinct stripe exactly once (see [`crate::tl2`]'s stripe dedup).
//!
//! # Contention-aware adaptive striping
//!
//! A fixed stripe count is a guess: too small and disjoint-write workloads
//! drown in false conflicts, too large and a small register file pays for
//! metadata it never contends on. [`AdaptiveTable`] resolves the guess at
//! run time: it starts from a small [`StripedTable`], counts *false*
//! conflicts (aborts where the failing stripe's last committed writer is a
//! different register than the aborting one — detected by re-hashing the
//! aborting key against the stripe's writer hint), and when the observed
//! false-conflict rate over a sliding commit window crosses the
//! [`AdaptivePolicy::threshold`], publishes a doubled table as a new
//! *generation*.
//!
//! The rehash is epoch-safe, reusing the same quiescence machinery that
//! backs privatization fences: the new generation is published behind an
//! atomic generation counter, in-flight transactions keep running against
//! the generation they pinned at begin, and for one grace period of the
//! runtime's [`tm_quiesce::GraceEngine`] every *new* transaction locks and
//! validates **both** generations (the migration window), so conflicts
//! between old-generation and new-generation transactions are still
//! detected through the table they share. Once the grace period elapses —
//! no transaction that pinned the old generation alone can still be live —
//! the old table is retired and the new one becomes the sole authority. No
//! transaction ever observes a torn lock table, and no lock or version
//! update is ever lost across a resize.
//!
//! When the contention governor arms a [`ShrinkPolicy`], the same protocol
//! runs in reverse: after enough consecutive *calm* windows (false-conflict
//! rate strictly below a low-water mark sitting under the grow threshold —
//! the hysteresis dead band) the table publishes a **halved** generation
//! whose stripes merge their two parents conservatively
//! ([`StripedTable::shrunk_from`]), and retires the oversized parent
//! through the identical grace-ticket migration window. Grow and shrink
//! share every line of the migration machinery; only the direction of the
//! seeding copy differs.
//!
//! ```
//! use tm_stm::prelude::*;
//!
//! // Start tiny; double (up to 4096 stripes) whenever ≥ 2% of a
//! // 1024-commit window aborts on stripe sharing alone.
//! let stm = Tl2Stm::with_config(StmConfig::new(1 << 20, 8).adaptive_stripes(
//!     AdaptivePolicy { start: 16, max: 4096, threshold: 2, window: 1024 },
//! ));
//! let mut h = stm.handle(0);
//! h.atomic(|tx| tx.write(777, 1));
//! assert_eq!(stm.nstripes(), 16, "no contention yet: still at start");
//! assert_eq!(h.stats().current_stripes, 16);
//! ```

use crate::vlock::{RegCell, VLock, VLockState};
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tm_quiesce::{GraceEngine, GraceTicket};
use tm_telemetry::{EventKind, Telemetry};

/// Storage backend selection for versioned-lock policies, used by
/// [`crate::runtime::StmConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// One ownership record per register (the classic layout).
    #[default]
    PerRegister,
    /// A striped orec table with `stripes` lock words; registers hash onto
    /// stripes with a splitmix64 mix of the register index.
    Striped {
        /// Number of lock words (rounded up to a power of two).
        stripes: usize,
    },
    /// A contention-aware adaptive striped table: starts small and doubles
    /// (up to a cap) when the observed false-conflict rate crosses the
    /// policy threshold, via an epoch-safe generation rehash.
    Adaptive(AdaptivePolicy),
}

impl StorageKind {
    /// Build a *fixed* lock table for the register file `file`: the
    /// per-register table is a view over the file's own cells, a striped
    /// table allocates its `stripes` words beside it.
    ///
    /// # Panics
    ///
    /// Panics for [`StorageKind::Adaptive`]: the adaptive table is a
    /// multi-generation structure built through [`StorageKind::build_tables`]
    /// and driven by a generation-aware policy, not a bare [`LockTable`].
    pub fn build(self, file: &Arc<[RegCell]>) -> AnyLockTable {
        match self {
            StorageKind::PerRegister => {
                AnyLockTable::PerRegister(PerRegisterTable::over(Arc::clone(file)))
            }
            StorageKind::Striped { stripes } => AnyLockTable::Striped(StripedTable::new(stripes)),
            StorageKind::Adaptive(_) => {
                panic!("adaptive storage is built via StorageKind::build_tables")
            }
        }
    }

    /// Build the (possibly adaptive) table set for the register file
    /// `file` — what generation-aware policies consume. This is where an
    /// [`AdaptivePolicy`] with the `start == 0` sentinel gets its initial
    /// stripe count seeded from the file's length (see
    /// [`AdaptivePolicy::seeded`]).
    pub fn build_tables(self, file: &Arc<[RegCell]>) -> AnyTables {
        match self {
            StorageKind::Adaptive(policy) => {
                AnyTables::Adaptive(AdaptiveTable::new(policy.seeded(file.len())))
            }
            fixed => AnyTables::Fixed(fixed.build(file)),
        }
    }

    /// Human-readable backend label (bench/report key).
    pub fn label(self) -> String {
        match self {
            StorageKind::PerRegister => "per-register".into(),
            // The table rounds the stripe count up to a power of two; the
            // label reports what is actually built.
            StorageKind::Striped { stripes } => {
                format!("striped-{}", stripes.max(1).next_power_of_two())
            }
            StorageKind::Adaptive(p) => {
                let n = p.normalized();
                if p.start == 0 {
                    // The start is seeded from nregs at build time.
                    format!("adaptive-auto-{}", n.max)
                } else {
                    format!("adaptive-{}-{}", n.start, n.max)
                }
            }
        }
    }
}

/// Closed union of the built-in backends. Policies store this (rather than
/// `Box<dyn LockTable>`) so the per-read lock-word sampling on the hot path
/// is a two-arm match that inlines, not virtual dispatch. The open
/// [`LockTable`] trait remains the abstraction to write code against.
pub enum AnyLockTable {
    /// One orec per register.
    PerRegister(PerRegisterTable),
    /// A fixed striped orec table.
    Striped(StripedTable),
}

macro_rules! delegate {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            AnyLockTable::PerRegister($t) => $e,
            AnyLockTable::Striped($t) => $e,
        }
    };
}

impl LockTable for AnyLockTable {
    #[inline]
    fn stripe_of(&self, x: usize) -> usize {
        delegate!(self, t => t.stripe_of(x))
    }

    fn nstripes(&self) -> usize {
        delegate!(self, t => t.nstripes())
    }

    #[inline]
    fn sample_stripe(&self, s: usize) -> VLockState {
        delegate!(self, t => t.sample_stripe(s))
    }

    #[inline]
    fn try_lock_stripe(&self, s: usize, owner: u16) -> Result<u64, VLockState> {
        delegate!(self, t => t.try_lock_stripe(s, owner))
    }

    #[inline]
    fn unlock_stripe(&self, s: usize) {
        delegate!(self, t => t.unlock_stripe(s))
    }

    #[inline]
    fn unlock_stripe_set_version(&self, s: usize, version: u64) {
        delegate!(self, t => t.unlock_stripe_set_version(s, version))
    }

    #[inline]
    fn record_writer(&self, s: usize, x: usize) {
        delegate!(self, t => t.record_writer(s, x))
    }

    #[inline]
    fn record_writer_shared(&self, s: usize) {
        delegate!(self, t => t.record_writer_shared(s))
    }

    #[inline]
    fn writer_hint(&self, s: usize) -> WriterHint {
        delegate!(self, t => t.writer_hint(s))
    }
}

/// What a stripe's *writer hint* says about the last commit through it —
/// the advisory signal behind false-conflict classification. Hints are
/// written while the stripe lock is held and read racily; they can lag an
/// in-flight writer by one commit (a conflict with a transaction currently
/// mid-commit is classified against the *previous* commit's hint), which
/// bounds the classifier's error without ever affecting correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriterHint {
    /// No commit has gone through the stripe (or the table is precise).
    None,
    /// The last commit wrote exactly this register through the stripe.
    Register(usize),
    /// The last commit wrote several registers through the stripe: an
    /// abort here may be a real conflict on any of them.
    Shared,
}

/// A table of versioned write-locks guarding a register file.
///
/// Registers map many-to-one onto *stripes* (lock words). All locking and
/// validation happens at stripe granularity; `stripe_of` is total, so every
/// register is always guarded. Implementations must be sound under the TL2
/// protocol: a stripe's version only changes while the stripe is write-locked,
/// and monotonically increases.
pub trait LockTable: Send + Sync + 'static {
    /// The stripe (lock-word index) guarding register `x`.
    fn stripe_of(&self, x: usize) -> usize;

    /// Number of distinct lock words.
    fn nstripes(&self) -> usize;

    /// Read the (version, owner) pair of stripe `s`.
    fn sample_stripe(&self, s: usize) -> VLockState;

    /// Try to lock stripe `s` for `owner`; returns the version on success.
    fn try_lock_stripe(&self, s: usize, owner: u16) -> Result<u64, VLockState>;

    /// Release stripe `s`, keeping its version (abort path).
    fn unlock_stripe(&self, s: usize);

    /// Release stripe `s`, installing a new version (commit write-back).
    fn unlock_stripe_set_version(&self, s: usize, version: u64);

    /// Note that register `x` was just committed through stripe `s` — an
    /// *advisory* hint used for false-conflict telemetry. Tables that never
    /// produce false conflicts (per-register) keep the default no-op.
    fn record_writer(&self, _s: usize, _x: usize) {}

    /// Note that the last commit wrote *several* registers through stripe
    /// `s`: a later abort there may be a real conflict on any of them, so
    /// the classifier must not call it false.
    fn record_writer_shared(&self, _s: usize) {}

    /// What the last commit through stripe `s` reported (advisory;
    /// [`WriterHint::None`] for precise tables and never-written stripes).
    /// An abort on register `x` whose stripe hints a *different single*
    /// register is a *false conflict* — the two merely share a lock word.
    fn writer_hint(&self, _s: usize) -> WriterHint {
        WriterHint::None
    }

    /// Sample the lock word guarding register `x`.
    fn sample(&self, x: usize) -> VLockState {
        self.sample_stripe(self.stripe_of(x))
    }
}

fn vlock_array(n: usize) -> Box<[CachePadded<VLock>]> {
    (0..n)
        .map(|_| CachePadded::new(VLock::new()))
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

/// One [`VLock`] per register: a view over the orec words of the runtime's
/// own [`RegCell`] file, not an allocation. Precise, and 8 bytes per
/// register.
pub struct PerRegisterTable {
    cells: Arc<[RegCell]>,
}

impl PerRegisterTable {
    /// The per-register view over `cells`.
    pub fn over(cells: Arc<[RegCell]>) -> Self {
        PerRegisterTable { cells }
    }

    /// Register `x`'s cell: the orec this table locks and the value it
    /// guards, behind one bounds check.
    #[inline]
    pub(crate) fn cell(&self, x: usize) -> &RegCell {
        &self.cells[x]
    }
}

impl LockTable for PerRegisterTable {
    #[inline]
    fn stripe_of(&self, x: usize) -> usize {
        x
    }

    fn nstripes(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn sample_stripe(&self, s: usize) -> VLockState {
        self.cells[s].orec.sample()
    }

    #[inline]
    fn try_lock_stripe(&self, s: usize, owner: u16) -> Result<u64, VLockState> {
        self.cells[s].orec.try_lock(owner)
    }

    #[inline]
    fn unlock_stripe(&self, s: usize) {
        self.cells[s].orec.unlock()
    }

    #[inline]
    fn unlock_stripe_set_version(&self, s: usize, version: u64) {
        self.cells[s].orec.unlock_set_version(version)
    }
}

/// Finalizing step of the splitmix64 generator: a cheap, well-mixed hash.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-size striped orec table: metadata footprint is `stripes` lock
/// words however large the register file grows.
///
/// The stripe count is rounded up to a power of two so the per-read
/// `stripe_of` mapping is a mask (`hash & (n - 1)`) instead of a hardware
/// divide — `stripe_of` runs twice per transactional read, and splitmix64
/// mixes all 64 bits, so masking loses nothing to modulo in spread.
pub struct StripedTable {
    locks: Box<[CachePadded<VLock>]>,
    /// `locks.len() - 1`; valid because the length is a power of two.
    mask: u64,
    /// Advisory per-stripe writer hints (`register + 1`; 0 = never
    /// written; `u64::MAX` = the last commit wrote several registers
    /// through this stripe): which register the last commit through this
    /// stripe was for. Written while the stripe lock is held, read
    /// racily — the hint only feeds false-conflict *telemetry*, never
    /// correctness.
    writers: Box<[AtomicU64]>,
}

/// `writers` slot encoding for "several registers in one commit".
const HINT_SHARED: u64 = u64::MAX;

impl StripedTable {
    /// A table of `stripes` lock words (rounded up to a power of two).
    pub fn new(stripes: usize) -> Self {
        assert!(stripes > 0, "a striped table needs at least one stripe");
        let n = stripes.next_power_of_two();
        StripedTable {
            locks: vlock_array(n),
            mask: n as u64 - 1,
            writers: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A doubled table seeded from `parent`: stripe `s` of the child
    /// inherits the version (and writer hint) of the parent stripe the same
    /// registers used to hash to (`s & parent_mask`). Inherited versions
    /// keep validation conservative across a generation switch — a child
    /// stripe never reports a version *older* than what its registers
    /// already committed under the parent. (A commit racing this copy is
    /// covered by the migration window: until the retiring grace period
    /// elapses, every new-generation transaction also checks the parent.)
    pub fn grown_from(parent: &StripedTable) -> Self {
        let child = StripedTable::new(parent.nstripes() * 2);
        for s in 0..child.nstripes() {
            let p = s & parent.mask as usize;
            child.locks[s].unlock_set_version(parent.sample_stripe(p).version);
            child.writers[s].store(parent.writers[p].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        child
    }

    /// A halved table seeded from `parent` — the grow-side inheritance run
    /// in reverse. Child stripe `s` takes over the registers of parent
    /// stripes `s` and `s + half` (the two parent stripes whose hashes
    /// collapse onto `s` under the smaller mask), so it inherits the
    /// **max** of their versions — conservative: a reader validating
    /// against the merged stripe can only abort more, never miss a commit
    /// either parent stripe recorded. Writer hints merge conservatively
    /// too: agreeing or one-sided hints survive, disagreeing ones become
    /// [`WriterHint::Shared`] so the false-conflict classifier never calls
    /// a possibly-real conflict false.
    pub fn shrunk_from(parent: &StripedTable) -> Self {
        let half = parent.nstripes() / 2;
        assert!(half >= 1, "cannot shrink a single-stripe table");
        let child = StripedTable::new(half);
        for s in 0..half {
            let a = parent.sample_stripe(s).version;
            let b = parent.sample_stripe(s + half).version;
            child.locks[s].unlock_set_version(a.max(b));
            let ha = parent.writers[s].load(Ordering::Relaxed);
            let hb = parent.writers[s + half].load(Ordering::Relaxed);
            let merged = match (ha, hb) {
                (0, h) | (h, 0) => h,
                (a, b) if a == b => a,
                _ => HINT_SHARED,
            };
            child.writers[s].store(merged, Ordering::Relaxed);
        }
        child
    }
}

impl LockTable for StripedTable {
    #[inline]
    fn stripe_of(&self, x: usize) -> usize {
        (splitmix64(x as u64) & self.mask) as usize
    }

    fn nstripes(&self) -> usize {
        self.locks.len()
    }

    #[inline]
    fn sample_stripe(&self, s: usize) -> VLockState {
        self.locks[s].sample()
    }

    #[inline]
    fn try_lock_stripe(&self, s: usize, owner: u16) -> Result<u64, VLockState> {
        self.locks[s].try_lock(owner)
    }

    #[inline]
    fn unlock_stripe(&self, s: usize) {
        self.locks[s].unlock()
    }

    #[inline]
    fn unlock_stripe_set_version(&self, s: usize, version: u64) {
        self.locks[s].unlock_set_version(version)
    }

    #[inline]
    fn record_writer(&self, s: usize, x: usize) {
        // Relaxed: pure telemetry, sequenced under the stripe lock anyway.
        self.writers[s].store(x as u64 + 1, Ordering::Relaxed);
    }

    #[inline]
    fn record_writer_shared(&self, s: usize) {
        self.writers[s].store(HINT_SHARED, Ordering::Relaxed);
    }

    #[inline]
    fn writer_hint(&self, s: usize) -> WriterHint {
        match self.writers[s].load(Ordering::Relaxed) {
            0 => WriterHint::None,
            HINT_SHARED => WriterHint::Shared,
            x => WriterHint::Register((x - 1) as usize),
        }
    }
}

/// Tuning for the contention-aware [`AdaptiveTable`], surfaced as
/// [`crate::runtime::StmConfig::adaptive_stripes`].
///
/// The table evaluates one *window* at a time: after every
/// [`window`](Self::window) commits it compares the false conflicts
/// observed during that window against
/// [`threshold`](Self::threshold) (in percent of the window's commits) and
/// doubles the stripe count — up to [`max`](Self::max) — when the rate is
/// at or above it. A threshold of 0 grows unconditionally at every window
/// boundary (useful in tests that need deterministic growth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Initial stripe count (rounded up to a power of two, min 1).
    ///
    /// `0` is a sentinel meaning *seed from the register file*: at build
    /// time ([`StorageKind::build_tables`]) it is replaced by roughly one
    /// stripe per 16 registers, clamped to `[1, 64]` — a small file should
    /// not pay for metadata it cannot contend on, and a huge file still
    /// starts modest and grows on observed evidence. This is the default.
    pub start: usize,
    /// Stripe-count cap (rounded up to a power of two, min `start`).
    pub max: usize,
    /// Growth trigger: false conflicts per 100 window commits.
    pub threshold: u32,
    /// Commits per evaluation window (min 1).
    pub window: u64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            // Seed the initial stripe count from nregs at build time.
            start: 0,
            max: 1 << 16,
            threshold: 5,
            window: 1024,
        }
    }
}

impl AdaptivePolicy {
    /// The policy with its fields clamped to what the table actually
    /// builds (powers of two, `start <= max`, nonzero window). The
    /// `start == 0` seed-from-nregs sentinel clamps to 1 here; resolve it
    /// first via [`Self::seeded`] when the register count is known.
    pub fn normalized(self) -> Self {
        let start = self.start.max(1).next_power_of_two();
        AdaptivePolicy {
            start,
            max: self.max.max(start).next_power_of_two(),
            threshold: self.threshold,
            window: self.window.max(1),
        }
    }

    /// Resolve the `start == 0` sentinel against a register file of
    /// `nregs` registers: roughly one stripe per 16 registers, clamped to
    /// `[1, 64]` (and, like every start, to `max` by normalization later).
    /// An explicit nonzero `start` passes through untouched.
    pub fn seeded(self, nregs: usize) -> Self {
        if self.start != 0 {
            return self;
        }
        AdaptivePolicy {
            start: (nregs / 16).clamp(1, 64),
            ..self
        }
    }
}

/// Shrink-side tuning for the contention governor: the grow-side
/// [`AdaptivePolicy`] run in reverse, with hysteresis so the table never
/// oscillates. A shrink is published only when the windowed false-conflict
/// rate stays *strictly below* [`low_water`](Self::low_water) — which must
/// sit below the grow [`threshold`](AdaptivePolicy::threshold), leaving a
/// dead band between the two edges — for
/// [`calm_windows`](Self::calm_windows) consecutive windows. Any window at
/// or above the low-water mark, and any grow, resets the calm streak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShrinkPolicy {
    /// Shrink low-water mark: false conflicts per 100 window commits.
    pub low_water: u32,
    /// Consecutive calm windows required before halving.
    pub calm_windows: u32,
    /// Never shrink below this stripe count (rounded up to a power of
    /// two, min 1).
    pub floor: usize,
}

impl ShrinkPolicy {
    /// The hysteresis companion to a grow policy: low-water at half the
    /// grow threshold (min 1, so the dead band `[low_water, threshold)` is
    /// nonempty for every threshold ≥ 2), two calm windows, floor 1 — a
    /// workload with no false conflicts deserves a single stripe; growth
    /// brings the table back the moment contention returns.
    pub fn for_grow(p: AdaptivePolicy) -> ShrinkPolicy {
        ShrinkPolicy {
            low_water: (p.threshold / 2).max(1),
            calm_windows: 2,
            floor: 1,
        }
    }

    /// The policy with its floor clamped to what the table actually builds.
    pub fn normalized(self) -> Self {
        ShrinkPolicy {
            floor: self.floor.max(1).next_power_of_two(),
            ..self
        }
    }
}

/// A consistent snapshot of the lock word(s) guarding one register —
/// one [`VLockState`] per live generation. During a migration window the
/// old generation's word rides along, and every check is the conservative
/// union: locked if either is, version = the larger of the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeSnap {
    /// The current generation's lock word.
    pub cur: VLockState,
    /// The retiring generation's lock word, while a migration is pending.
    pub prev: Option<VLockState>,
}

impl StripeSnap {
    /// Is any generation's word locked?
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.cur.is_locked() || self.prev.is_some_and(|p| p.is_locked())
    }

    /// Is any generation's word locked by a thread other than `me`?
    #[inline]
    pub fn is_locked_by_other(&self, me: u16) -> bool {
        self.cur.is_locked_by_other(me) || self.prev.is_some_and(|p| p.is_locked_by_other(me))
    }

    /// The newest version any generation reports for this register.
    #[inline]
    pub fn version_max(&self) -> u64 {
        match self.prev {
            Some(p) => self.cur.version.max(p.version),
            None => self.cur.version,
        }
    }
}

/// One published generation of the adaptive table: the authoritative
/// [`StripedTable`] plus, during a migration window, the retiring parent.
///
/// Soundness of the two-generation overlap: a transaction that pinned the
/// *parent-only* generation locks and validates the parent table; a
/// transaction that pinned this generation locks and validates **both**
/// while `prev` is present. Any two concurrent transactions therefore
/// always share at least one table through which their conflicts are
/// detected. `prev` is dropped (the generation is re-published without it)
/// only after a [`GraceEngine`] period issued at publish has elapsed — at
/// that point no parent-only transaction can still be live, so
/// current-table-only locking is again sufficient.
pub struct TableGen {
    table: Arc<StripedTable>,
    prev: Option<Arc<StripedTable>>,
}

impl TableGen {
    /// The generation's authoritative table.
    pub fn table(&self) -> &StripedTable {
        &self.table
    }

    /// The retiring parent table, while the migration window is open.
    pub fn prev(&self) -> Option<&StripedTable> {
        self.prev.as_deref()
    }

    /// Stripe count of the authoritative table.
    pub fn nstripes(&self) -> usize {
        self.table.nstripes()
    }

    /// Sample every live generation's lock word for register `x`.
    #[inline]
    pub fn sample(&self, x: usize) -> StripeSnap {
        StripeSnap {
            cur: self.table.sample(x),
            prev: self.prev.as_ref().map(|p| p.sample(x)),
        }
    }
}

/// The (table, stripe) address of one lock word across generations:
/// `table` 0 is the retiring parent, 1 the current generation. Parent
/// addresses sort first, giving every committer the same cross-generation
/// acquisition order.
pub type GenStripe = (u8, usize);

/// Closed union of a fixed lock table and the adaptive multi-generation
/// table — what a generation-aware policy ([`crate::tl2`]) stores.
pub enum AnyTables {
    /// A fixed [`AnyLockTable`]; no pinning needed.
    Fixed(AnyLockTable),
    /// The contention-aware adaptive table; transactions pin a
    /// [`TableGen`] at begin.
    Adaptive(AdaptiveTable),
}

/// Everything one adaptive-table generation switch needs to share:
/// the authoritative generation, its id, and the grace ticket retiring the
/// previous one.
struct AdaptiveState {
    /// Monotone generation id; also mirrored in `AdaptiveInner::gen_probe`.
    id: u64,
    current: Arc<TableGen>,
    /// The grace period that must elapse before `current.prev` may be
    /// dropped (present exactly while a migration window is open).
    migration: Option<GraceTicket>,
}

/// The shared core of an [`AdaptiveTable`], behind an `Arc` so the
/// grace-ticket completion callback that retires an old generation can
/// outlive any particular borrow of the table.
struct AdaptiveInner {
    /// Lock-free mirror of [`AdaptiveState::id`], so `begin` can skip the
    /// mutex when nothing changed.
    gen_probe: CachePadded<AtomicU64>,
    state: Mutex<AdaptiveState>,
    window_commits: CachePadded<AtomicU64>,
    window_false: CachePadded<AtomicU64>,
    resizes: AtomicU64,
    /// Consecutive windows whose false-conflict rate stayed strictly below
    /// the shrink low-water mark. Written only at window boundaries.
    calm: AtomicU64,
    /// Late-attached telemetry hub: generation publishes and retirements
    /// emit `stripe-publish` / `stripe-retire` trace events when present.
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl AdaptiveInner {
    /// Retire the migration window opened by grace period `period`:
    /// re-publish the current table without its `prev`. Runs as the
    /// period's completion callback — on whichever thread drives the
    /// period home (a polling transaction begin, a fence waiter, or the
    /// background [`tm_quiesce::GraceDriver`]).
    fn retire(&self, period: u64) {
        let mut retired_stripes = None;
        {
            let mut st = self.state.lock().unwrap();
            if st.migration.as_ref().is_some_and(|m| m.period() == period) {
                st.migration = None;
                st.id += 1;
                st.current = Arc::new(TableGen {
                    table: Arc::clone(&st.current.table),
                    prev: None,
                });
                self.gen_probe.store(st.id, Ordering::SeqCst);
                retired_stripes = Some(st.current.nstripes() as u64);
            }
        }
        if let (Some(stripes), Some(tel)) = (retired_stripes, self.telemetry.get()) {
            if tel.enabled() {
                tel.record_engine_event(EventKind::StripeRetire { stripes });
            }
        }
    }
}

/// The contention-aware adaptive striped orec table (see module docs).
///
/// Hot-path cost for transactions: one atomic load per begin (the
/// generation probe), plus one shared counter increment per commit and per
/// false conflict for the sliding window. Everything else — publishing,
/// migration polling — is off the per-access path.
pub struct AdaptiveTable {
    policy: AdaptivePolicy,
    /// Shrink-side policy, present when the contention governor armed it
    /// (set once at construction time, before the table is shared).
    shrink: Option<ShrinkPolicy>,
    inner: Arc<AdaptiveInner>,
}

impl AdaptiveTable {
    /// A fresh adaptive table at `policy.start` stripes.
    pub fn new(policy: AdaptivePolicy) -> Self {
        let policy = policy.normalized();
        AdaptiveTable {
            policy,
            shrink: None,
            inner: Arc::new(AdaptiveInner {
                gen_probe: CachePadded::new(AtomicU64::new(1)),
                state: Mutex::new(AdaptiveState {
                    id: 1,
                    current: Arc::new(TableGen {
                        table: Arc::new(StripedTable::new(policy.start)),
                        prev: None,
                    }),
                    migration: None,
                }),
                window_commits: CachePadded::new(AtomicU64::new(0)),
                window_false: CachePadded::new(AtomicU64::new(0)),
                resizes: AtomicU64::new(0),
                calm: AtomicU64::new(0),
                telemetry: OnceLock::new(),
            }),
        }
    }

    /// Attach the runtime's telemetry hub (once; later calls are no-ops):
    /// every subsequent generation publish/retire emits a trace event.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.inner.telemetry.set(telemetry);
    }

    /// Arm the shrink side of the control loop (the contention governor
    /// calls this at instance construction, before the table is shared).
    /// Without it the table is grow-only, exactly as before.
    pub fn enable_shrink(&mut self, p: ShrinkPolicy) {
        self.shrink = Some(p.normalized());
    }

    /// The (normalized) growth policy this table runs.
    pub fn policy(&self) -> AdaptivePolicy {
        self.policy
    }

    /// The shrink policy, if the governor armed one.
    pub fn shrink_policy(&self) -> Option<ShrinkPolicy> {
        self.shrink
    }

    /// Generations published so far minus one — i.e. completed resizes
    /// (grows *and* shrinks).
    pub fn resizes(&self) -> u64 {
        self.inner.resizes.load(Ordering::SeqCst)
    }

    /// Stripe count of the current generation.
    pub fn nstripes(&self) -> usize {
        self.inner.state.lock().unwrap().current.nstripes()
    }

    /// Is a migration window currently open (old generation not yet
    /// retired)?
    pub fn migration_pending(&self) -> bool {
        self.inner.state.lock().unwrap().migration.is_some()
    }

    /// The current generation and its id (for introspection/tests; policies
    /// use [`Self::repin`]).
    pub fn pin(&self) -> (u64, Arc<TableGen>) {
        let st = self.inner.state.lock().unwrap();
        (st.id, Arc::clone(&st.current))
    }

    /// Refresh `cached` to the current generation if it changed. The fast
    /// path — nothing changed — is a single atomic load.
    #[inline]
    pub fn repin(&self, cached: &mut Option<(u64, Arc<TableGen>)>) {
        let probe = self.inner.gen_probe.load(Ordering::SeqCst);
        match cached {
            Some((id, _)) if *id == probe => {}
            _ => *cached = Some(self.pin()),
        }
    }

    /// Count one false conflict into the open window.
    #[inline]
    pub fn note_false_conflict(&self) {
        self.inner.window_false.fetch_add(1, Ordering::SeqCst);
    }

    /// Count one commit into the open window; at a window boundary,
    /// evaluate the false-conflict rate: grow the table when the rate is at
    /// or above the policy threshold, and — when a [`ShrinkPolicy`] is
    /// armed — shrink it after [`ShrinkPolicy::calm_windows`] consecutive
    /// windows strictly below the low-water mark. The dead band between
    /// the two edges is the hysteresis that keeps the table from
    /// oscillating. Returns whether a new generation was published by this
    /// call. `engine` supplies the grace period that retires the old
    /// generation.
    pub fn note_commit(&self, engine: &Arc<GraceEngine>) -> bool {
        let c = self.inner.window_commits.fetch_add(1, Ordering::SeqCst) + 1;
        if !c.is_multiple_of(self.policy.window) {
            return false;
        }
        let false_conflicts = self.inner.window_false.swap(0, Ordering::SeqCst);
        let why = Some((false_conflicts, self.policy.window));
        if false_conflicts * 100 >= u64::from(self.policy.threshold) * self.policy.window {
            // Contended window: any calm streak is over.
            self.inner.calm.store(0, Ordering::SeqCst);
            return self.publish_resized(engine, true, why);
        }
        if let Some(sh) = self.shrink {
            if false_conflicts * 100 < u64::from(sh.low_water) * self.policy.window {
                let calm = self.inner.calm.fetch_add(1, Ordering::SeqCst) + 1;
                if calm >= u64::from(sh.calm_windows) {
                    self.inner.calm.store(0, Ordering::SeqCst);
                    return self.publish_resized(engine, false, why);
                }
            } else {
                // Inside the dead band: neither grow nor calm.
                self.inner.calm.store(0, Ordering::SeqCst);
            }
        }
        false
    }

    /// Publish a doubled generation, if allowed: no migration may already
    /// be pending and the cap must not be reached. Returns whether a
    /// generation was published.
    pub fn try_grow(&self, engine: &Arc<GraceEngine>) -> bool {
        self.publish_resized(engine, true, None)
    }

    /// Publish a *halved* generation, if allowed: a shrink policy must be
    /// armed, no migration may already be pending, and the floor must not
    /// be reached. The migration protocol is the grow side verbatim — the
    /// two-generation overlap argument in [`TableGen`] never depends on
    /// the direction of the resize, only on every new-generation
    /// transaction checking both tables until the parent-only stragglers
    /// drain — so the same probe-before-issue publication order and the
    /// same grace-ticket retirement apply. Returns whether a generation
    /// was published.
    pub fn try_shrink(&self, engine: &Arc<GraceEngine>) -> bool {
        self.publish_resized(engine, false, None)
    }

    /// The shared publication protocol behind [`Self::try_grow`] and
    /// [`Self::try_shrink`] (they differ only in the bound check and the
    /// direction of the resize). `why` carries the window counters that
    /// justified a governor-driven resize — `(false_conflicts, window)` —
    /// and lands in the `stripe-publish` trace event; direct `try_*` calls
    /// pass `None` and trace zeros.
    fn publish_resized(
        &self,
        engine: &Arc<GraceEngine>,
        grow: bool,
        why: Option<(u64, u64)>,
    ) -> bool {
        let shrink_floor = match (grow, self.shrink) {
            (true, _) => 0,
            (false, Some(sh)) => sh.floor,
            (false, None) => return false,
        };
        let (ticket, from_stripes, to_stripes) = {
            let mut st = self.inner.state.lock().unwrap();
            let at_bound = if grow {
                st.current.nstripes() >= self.policy.max
            } else {
                st.current.nstripes() <= shrink_floor
            };
            if st.migration.is_some() || at_bound {
                return false;
            }
            let parent = Arc::clone(&st.current.table);
            let child = Arc::new(if grow {
                StripedTable::grown_from(&parent)
            } else {
                StripedTable::shrunk_from(&parent)
            });
            let (from, to) = (parent.nstripes() as u64, child.nstripes() as u64);
            st.id += 1;
            st.current = Arc::new(TableGen {
                table: child,
                prev: Some(parent),
            });
            // Publish the probe BEFORE issuing the grace period. The
            // period's epoch snapshot is taken after `issue` (a concurrent
            // driver can take it the instant `issue` returns — the state
            // lock does not serialize the engine), so with this order every
            // SeqCst chain is `probe store < issue < snapshot`: a
            // transaction the period does NOT cover entered its epoch after
            // the snapshot, hence after the probe store, and its begin-time
            // probe load must observe the new generation — it pins the
            // migration generation and checks both tables. (Issuing first
            // would let the snapshot land before the probe store, leaving a
            // transaction both uncovered and pinned parent-only: exactly
            // the missed-conflict window the migration exists to close.)
            self.inner.gen_probe.store(st.id, Ordering::SeqCst);
            self.inner.resizes.fetch_add(1, Ordering::SeqCst);
            let ticket = engine.issue();
            st.migration = Some(ticket.clone());
            (ticket, from, to)
        };
        if let Some(tel) = self.inner.telemetry.get() {
            if tel.enabled() {
                let (false_conflicts, window) = why.unwrap_or((0, 0));
                tel.record_engine_event(EventKind::StripePublish {
                    grow,
                    from_stripes,
                    to_stripes,
                    false_conflicts,
                    window,
                });
            }
        }
        // Register the retirement as the period's completion callback —
        // outside the state lock, because an already-elapsed period runs
        // the callback immediately on this thread, and `retire` re-locks.
        // Under a background GraceDriver this is exactly the
        // fire-and-forget contract: the old generation retires in bounded
        // time with zero pollers. Cooperatively, whoever drives the period
        // home (a begin-time poll, any fence waiter) runs it.
        let inner = Arc::clone(&self.inner);
        let period = ticket.period();
        ticket.on_complete(move || inner.retire(period));
        true
    }

    /// Contribute one non-blocking driving step to the pending migration's
    /// grace period (retirement itself runs as the period's completion
    /// callback). Cheap no-op when no migration is pending. Called from
    /// transaction begins, so migrations complete under plain traffic even
    /// with no fences and no background driver; never blocks.
    pub fn poll_migration(&self) {
        // Snapshot the ticket, then poll it OUTSIDE the state lock:
        // poll() drives the grace engine, which runs completion callbacks
        // (including our own `retire`) on this thread, and those re-enter
        // the table state.
        let ticket = {
            let Ok(st) = self.inner.state.try_lock() else {
                return;
            };
            match &st.migration {
                Some(t) => t.clone(),
                None => return,
            }
        };
        ticket.poll();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlock::reg_file;

    #[test]
    fn per_register_is_identity_mapped() {
        let t = PerRegisterTable::over(reg_file(8));
        assert_eq!(t.nstripes(), 8);
        for x in 0..8 {
            assert_eq!(t.stripe_of(x), x);
        }
    }

    #[test]
    fn striped_footprint_is_constant_in_register_count() {
        // The whole point: metadata for a million registers is still only
        // `stripes` lock words.
        let t = StorageKind::Striped { stripes: 256 }.build(&reg_file(1 << 20));
        assert_eq!(t.nstripes(), 256);
        let file = reg_file(1 << 10);
        let p = StorageKind::PerRegister.build(&file);
        assert_eq!(p.nstripes(), 1 << 10);
        // The per-register table allocates nothing: locking stripe 5 *is*
        // locking the file's own cell 5.
        p.try_lock_stripe(5, 0).unwrap();
        assert!(file[5].orec.sample().is_locked());
        assert!(!file[4].orec.sample().is_locked());
    }

    #[test]
    fn striped_mapping_is_total_and_stable() {
        // A non-power-of-two request rounds up: 7 → 8 lock words.
        let t = StripedTable::new(7);
        assert_eq!(t.nstripes(), 8);
        for x in 0..10_000 {
            let s = t.stripe_of(x);
            assert!(s < 8);
            assert_eq!(s, t.stripe_of(x), "mapping must be deterministic");
        }
    }

    #[test]
    fn stripe_counts_round_up_to_powers_of_two() {
        for (requested, built) in [(1usize, 1usize), (2, 2), (3, 4), (5, 8), (1000, 1024)] {
            let t = StripedTable::new(requested);
            assert_eq!(t.nstripes(), built, "requested {requested}");
            assert_eq!(
                StorageKind::Striped { stripes: requested }.label(),
                format!("striped-{built}"),
                "the label must report the rounded count"
            );
            // The mask mapping stays in range at every count.
            for x in 0..1000 {
                assert!(t.stripe_of(x) < built);
            }
        }
    }

    #[test]
    fn striped_mapping_spreads() {
        // splitmix64 should spread sequential register indices across
        // stripes roughly uniformly — no stripe may be empty or dominant.
        let t = StripedTable::new(16);
        let mut counts = [0usize; 16];
        for x in 0..16_000 {
            counts[t.stripe_of(x)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 500 && c < 1500, "stripe {s} has skewed load {c}");
        }
    }

    #[test]
    fn lock_protocol_via_table_interface() {
        for table in [
            StorageKind::PerRegister.build(&reg_file(4)),
            StorageKind::Striped { stripes: 2 }.build(&reg_file(4)),
        ] {
            let s = table.stripe_of(3);
            assert_eq!(table.try_lock_stripe(s, 5), Ok(0));
            assert!(table.sample(3).is_locked());
            assert!(table.try_lock_stripe(s, 6).is_err());
            table.unlock_stripe_set_version(s, 9);
            let st = table.sample(3);
            assert_eq!(st.version, 9);
            assert!(!st.is_locked());
            // Abort path keeps the version.
            table.try_lock_stripe(s, 1).unwrap();
            table.unlock_stripe(s);
            assert_eq!(table.sample(3).version, 9);
        }
    }

    #[test]
    fn storage_kind_labels() {
        assert_eq!(StorageKind::PerRegister.label(), "per-register");
        assert_eq!(StorageKind::Striped { stripes: 64 }.label(), "striped-64");
        assert_eq!(StorageKind::default(), StorageKind::PerRegister);
        assert_eq!(
            StorageKind::Adaptive(AdaptivePolicy {
                start: 3,
                max: 100,
                threshold: 5,
                window: 8,
            })
            .label(),
            "adaptive-4-128",
            "the label reports the normalized (power-of-two) policy"
        );
    }

    #[test]
    fn writer_hints_track_last_commit_per_stripe() {
        let t = StripedTable::new(4);
        let s = t.stripe_of(7);
        assert_eq!(
            t.writer_hint(s),
            WriterHint::None,
            "never-written stripes hint None"
        );
        t.record_writer(s, 7);
        assert_eq!(t.writer_hint(s), WriterHint::Register(7));
        t.record_writer(s, 11);
        assert_eq!(
            t.writer_hint(s),
            WriterHint::Register(11),
            "hints follow the last commit"
        );
        // A multi-register commit through one stripe is ambiguous: an
        // abort there may be a real conflict on any of its registers.
        t.record_writer_shared(s);
        assert_eq!(t.writer_hint(s), WriterHint::Shared);
        // Per-register tables never hint: every conflict there is real.
        let p = PerRegisterTable::over(reg_file(4));
        p.record_writer(2, 2);
        assert_eq!(p.writer_hint(2), WriterHint::None);
    }

    #[test]
    fn grown_table_inherits_versions_and_hints() {
        let parent = StripedTable::new(2);
        parent.try_lock_stripe(0, 1).unwrap();
        parent.unlock_stripe_set_version(0, 41);
        parent.record_writer(0, 9);
        parent.try_lock_stripe(1, 1).unwrap();
        parent.unlock_stripe_set_version(1, 7);
        let child = StripedTable::grown_from(&parent);
        assert_eq!(child.nstripes(), 4);
        // Child stripe s inherits parent stripe s & 1.
        for s in 0..4 {
            let expect = if s % 2 == 0 { 41 } else { 7 };
            assert_eq!(child.sample_stripe(s).version, expect, "stripe {s}");
            assert!(!child.sample_stripe(s).is_locked());
        }
        assert_eq!(child.writer_hint(0), WriterHint::Register(9));
        assert_eq!(child.writer_hint(2), WriterHint::Register(9));
    }

    #[test]
    fn adaptive_policy_normalizes() {
        let p = AdaptivePolicy {
            start: 0,
            max: 0,
            threshold: 10,
            window: 0,
        }
        .normalized();
        assert_eq!((p.start, p.max, p.window), (1, 1, 1));
        let p = AdaptivePolicy {
            start: 5,
            max: 3,
            threshold: 10,
            window: 16,
        }
        .normalized();
        assert_eq!((p.start, p.max), (8, 8), "max clamps up to start");
        let d = AdaptivePolicy::default();
        assert_eq!(
            d.start, 0,
            "the default start is the seed-from-nregs sentinel"
        );
        assert_eq!(d.normalized().start, 1, "the sentinel clamps to 1 unseeded");
    }

    #[test]
    fn start_seeds_from_nregs() {
        // One stripe per 16 registers, clamped to [1, 64].
        assert_eq!(AdaptivePolicy::default().seeded(8).start, 1);
        assert_eq!(AdaptivePolicy::default().seeded(16).start, 1);
        assert_eq!(AdaptivePolicy::default().seeded(512).start, 32);
        assert_eq!(AdaptivePolicy::default().seeded(1 << 20).start, 64);
        // An explicit start passes through untouched.
        let explicit = AdaptivePolicy {
            start: 2,
            ..AdaptivePolicy::default()
        };
        assert_eq!(explicit.seeded(1 << 20).start, 2);
        // The label reports the sentinel as "auto".
        assert_eq!(
            StorageKind::Adaptive(AdaptivePolicy::default()).label(),
            "adaptive-auto-65536"
        );
    }

    #[test]
    fn stripe_snap_is_the_conservative_union() {
        let locked = VLockState {
            version: 3,
            owner: Some(2),
        };
        let free = VLockState {
            version: 9,
            owner: None,
        };
        let single = StripeSnap {
            cur: free,
            prev: None,
        };
        assert!(!single.is_locked());
        assert_eq!(single.version_max(), 9);
        let dual = StripeSnap {
            cur: free,
            prev: Some(locked),
        };
        assert!(dual.is_locked(), "a locked prev generation locks the snap");
        assert!(dual.is_locked_by_other(1));
        assert!(!dual.is_locked_by_other(2), "owner 2 holds the prev lock");
        assert_eq!(dual.version_max(), 9, "version is the max across gens");
    }

    #[test]
    fn adaptive_window_grows_and_migration_retires_through_grace() {
        let engine = GraceEngine::new(2);
        let t = AdaptiveTable::new(AdaptivePolicy {
            start: 2,
            max: 8,
            threshold: 25,
            window: 4,
        });
        assert_eq!(t.nstripes(), 2);
        let (id0, gen0) = t.pin();
        assert!(gen0.prev().is_none());

        // 3 quiet commits: no boundary, no growth.
        for _ in 0..3 {
            assert!(!t.note_commit(&engine));
        }
        // 1 false conflict in a 4-commit window = 25% >= threshold.
        t.note_false_conflict();
        assert!(t.note_commit(&engine), "boundary at rate >= threshold");
        assert_eq!(t.resizes(), 1);
        assert_eq!(t.nstripes(), 4);
        assert!(t.migration_pending());
        let (id1, gen1) = t.pin();
        assert!(id1 > id0);
        assert!(gen1.prev().is_some(), "migration generation carries prev");
        assert_eq!(gen1.prev().unwrap().nstripes(), 2);

        // No concurrent growth while a migration window is open.
        t.note_false_conflict();
        for _ in 0..4 {
            t.note_commit(&engine);
        }
        assert_eq!(t.resizes(), 1, "one migration at a time");

        // With no active epochs the grace period elapses on the first
        // poll; the old generation retires and the table re-publishes.
        t.poll_migration();
        assert!(!t.migration_pending());
        let (id2, gen2) = t.pin();
        assert!(id2 > id1);
        assert!(gen2.prev().is_none(), "prev dropped after the grace period");
        assert_eq!(gen2.nstripes(), 4);
        assert!(engine.scans() >= 1, "retirement rode a real engine scan");
    }

    #[test]
    fn adaptive_growth_respects_the_cap_and_live_epochs() {
        let engine = GraceEngine::new(2);
        let t = AdaptiveTable::new(AdaptivePolicy {
            start: 4,
            max: 4,
            threshold: 0,
            window: 1,
        });
        // threshold 0 = grow at every boundary — but the cap wins.
        assert!(!t.note_commit(&engine));
        assert_eq!(t.resizes(), 0);
        assert_eq!(t.nstripes(), 4);

        // Below the cap, a pinned epoch keeps the migration window open:
        // the grace period must not elapse while a pinned-generation
        // transaction could still be live.
        let t = AdaptiveTable::new(AdaptivePolicy {
            start: 2,
            max: 8,
            threshold: 0,
            window: 1,
        });
        engine.epochs().enter(0);
        assert!(t.note_commit(&engine));
        t.poll_migration();
        assert!(
            t.migration_pending(),
            "an epoch active at publish pins the old generation"
        );
        engine.epochs().exit(0);
        t.poll_migration();
        assert!(!t.migration_pending());
    }

    #[test]
    fn repin_tracks_generation_changes() {
        let engine = GraceEngine::new(1);
        let t = AdaptiveTable::new(AdaptivePolicy {
            start: 1,
            max: 4,
            threshold: 0,
            window: 1,
        });
        let mut cached = None;
        t.repin(&mut cached);
        let first = cached.as_ref().unwrap().0;
        t.repin(&mut cached);
        assert_eq!(cached.as_ref().unwrap().0, first, "no change, no repin");
        assert!(t.note_commit(&engine));
        t.repin(&mut cached);
        let (second, gen) = cached.as_ref().unwrap();
        assert!(*second > first);
        assert_eq!(gen.nstripes(), 2);
    }

    #[test]
    fn shrunk_table_merges_versions_and_hints_conservatively() {
        let parent = StripedTable::new(4);
        // Stripe 0: v41, last writer register 9. Stripe 2 (its merge
        // partner): v7, never written.
        parent.try_lock_stripe(0, 1).unwrap();
        parent.unlock_stripe_set_version(0, 41);
        parent.record_writer(0, 9);
        parent.try_lock_stripe(2, 1).unwrap();
        parent.unlock_stripe_set_version(2, 7);
        // Stripe 1 and 3 disagree on their last writer.
        parent.record_writer(1, 5);
        parent.record_writer(3, 6);
        let child = StripedTable::shrunk_from(&parent);
        assert_eq!(child.nstripes(), 2);
        assert_eq!(
            child.sample_stripe(0).version,
            41,
            "merged version is the max of the two parents"
        );
        assert!(!child.sample_stripe(0).is_locked());
        assert_eq!(
            child.writer_hint(0),
            WriterHint::Register(9),
            "a one-sided hint survives the merge"
        );
        assert_eq!(
            child.writer_hint(1),
            WriterHint::Shared,
            "disagreeing hints merge to Shared: never classify false"
        );
    }

    #[test]
    fn calm_windows_shrink_and_retire_through_grace() {
        let engine = GraceEngine::new(2);
        let mut t = AdaptiveTable::new(AdaptivePolicy {
            start: 4,
            max: 8,
            threshold: 50,
            window: 2,
        });
        t.enable_shrink(ShrinkPolicy {
            low_water: 25,
            calm_windows: 2,
            floor: 1,
        });
        assert_eq!(t.nstripes(), 4);
        // First calm window (0 false conflicts): streak = 1, no publish.
        assert!(!t.note_commit(&engine));
        assert!(!t.note_commit(&engine));
        assert!(!t.migration_pending());
        // Second consecutive calm window: halve 4 → 2.
        assert!(!t.note_commit(&engine));
        assert!(t.note_commit(&engine), "two calm windows publish a shrink");
        assert_eq!(t.resizes(), 1);
        assert_eq!(t.nstripes(), 2);
        assert!(t.migration_pending());
        let (_, gen) = t.pin();
        assert_eq!(
            gen.prev().map(|p| p.nstripes()),
            Some(4),
            "the oversized parent rides along through the migration window"
        );
        // No second resize while the migration window is open.
        for _ in 0..4 {
            t.note_commit(&engine);
        }
        assert_eq!(t.resizes(), 1, "one migration at a time");
        t.poll_migration();
        assert!(!t.migration_pending(), "grace retires the parent");
        // Two more calm windows: 2 → 1, then the floor stops the slide.
        for _ in 0..4 {
            t.note_commit(&engine);
        }
        assert_eq!((t.resizes(), t.nstripes()), (2, 1));
        t.poll_migration();
        for _ in 0..8 {
            t.note_commit(&engine);
        }
        assert_eq!(t.nstripes(), 1, "the floor holds");
        assert_eq!(t.resizes(), 2);
    }

    #[test]
    fn hysteresis_dead_band_resets_the_calm_streak() {
        let engine = GraceEngine::new(1);
        let mut t = AdaptiveTable::new(AdaptivePolicy {
            start: 2,
            max: 2,
            threshold: 50,
            window: 2,
        });
        t.enable_shrink(ShrinkPolicy {
            low_water: 25,
            calm_windows: 2,
            floor: 1,
        });
        // One calm window starts a streak...
        assert!(!t.note_commit(&engine));
        assert!(!t.note_commit(&engine), "calm streak = 1");
        // ...then a contended window (1 false in 2 commits = 50%, the grow
        // edge; max=2 caps the grow to a no-op) must reset it.
        t.note_false_conflict();
        assert!(!t.note_commit(&engine));
        assert!(!t.note_commit(&engine), "contended window: grow capped");
        // The streak restarted: one calm window is not enough...
        assert!(!t.note_commit(&engine));
        assert!(!t.note_commit(&engine), "streak = 1 again");
        // ...but the second consecutive one shrinks.
        assert!(!t.note_commit(&engine));
        assert!(t.note_commit(&engine), "streak = 2 shrinks");
        assert_eq!(t.nstripes(), 1);
    }

    #[test]
    fn shrink_requires_an_armed_policy() {
        let engine = GraceEngine::new(1);
        let t = AdaptiveTable::new(AdaptivePolicy {
            start: 4,
            max: 8,
            threshold: 100,
            window: 1,
        });
        assert!(t.shrink_policy().is_none());
        assert!(!t.try_shrink(&engine), "grow-only tables never shrink");
        // Calm forever: still no shrink without an armed policy.
        for _ in 0..32 {
            assert!(!t.note_commit(&engine));
        }
        assert_eq!((t.resizes(), t.nstripes()), (0, 4));
    }

    #[test]
    fn shrink_policy_derives_from_grow_policy() {
        let sh = ShrinkPolicy::for_grow(AdaptivePolicy {
            start: 8,
            max: 64,
            threshold: 6,
            window: 16,
        });
        assert_eq!(sh.low_water, 3, "low-water at half the grow threshold");
        assert_eq!(sh.calm_windows, 2);
        assert_eq!(sh.floor, 1);
        let sh0 = ShrinkPolicy::for_grow(AdaptivePolicy {
            threshold: 0,
            ..AdaptivePolicy::default()
        });
        assert_eq!(sh0.low_water, 1, "threshold 0 still gets a sane mark");
        assert_eq!(
            ShrinkPolicy {
                low_water: 1,
                calm_windows: 2,
                floor: 3
            }
            .normalized()
            .floor,
            4,
            "floors round up to powers of two"
        );
    }

    #[test]
    #[should_panic(expected = "build_tables")]
    fn fixed_build_rejects_adaptive() {
        StorageKind::Adaptive(AdaptivePolicy::default()).build(&reg_file(8));
    }

    #[test]
    fn build_tables_dispatches() {
        match (StorageKind::Striped { stripes: 4 }).build_tables(&reg_file(16)) {
            AnyTables::Fixed(t) => assert_eq!(t.nstripes(), 4),
            AnyTables::Adaptive(_) => panic!("striped is fixed"),
        }
        // The default policy's start seeds from the register count: 16
        // registers deserve one stripe, a million deserve the 64 cap.
        match StorageKind::Adaptive(AdaptivePolicy::default()).build_tables(&reg_file(16)) {
            AnyTables::Adaptive(t) => assert_eq!(t.nstripes(), 1),
            AnyTables::Fixed(_) => panic!("adaptive is not fixed"),
        }
        match StorageKind::Adaptive(AdaptivePolicy::default()).build_tables(&reg_file(1 << 20)) {
            AnyTables::Adaptive(t) => assert_eq!(t.nstripes(), 64),
            AnyTables::Fixed(_) => panic!("adaptive is not fixed"),
        }
    }
}
