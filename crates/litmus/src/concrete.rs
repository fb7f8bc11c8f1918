//! Concrete litmus scenarios for the *runtime* STMs (`tm-stm`), the
//! executable counterpart of the spec-level programs in
//! [`crate::programs`]: the same idioms — bank transfer, privatization,
//! publication — driven through the shared [`StmHandle`] interface on real
//! threads, against any storage backend, with optional history recording so
//! the `tm-core` checkers can pass verdicts on what actually ran.
//!
//! Every scenario is designed to have a *deterministic final state* under
//! any correct TM (transfer deltas commute; the privatization owner settles
//! the data register last, under privatization), so a conformance suite can
//! assert bit-identical outcomes across backends that schedule completely
//! differently.
//!
//! Histories must have globally unique, non-initial write values (Def A.1
//! clause 3 — that is how the checkers infer reads-from), so scenarios that
//! rewrite the same logical state tag every write with a unique nonce and
//! report the *projected* semantic state (e.g. the balance bits) as their
//! final registers.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use tm_core::hb::is_drf;
use tm_core::opacity::{check_strong_opacity, CheckOptions};
use tm_core::trace::History;
use tm_stm::prelude::*;
use tm_stm::runtime::{PolicyKind, Stm, StmConfig};

/// A runtime STM backend to drive a scenario against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// TL2 with one ownership record per register (GV1 clock).
    Tl2PerRegister,
    /// TL2 over a striped orec table.
    Tl2Striped {
        stripes: usize,
    },
    /// TL2 over the *adaptive* striped orec table, with a hair-trigger
    /// growth policy (start 1, threshold 5%, window 8) so generation
    /// rehashes actually happen mid-scenario: the resize machinery must be
    /// invisible to every correctness verdict.
    Tl2Adaptive,
    /// TL2 (per-register orecs) under an alternative version clock —
    /// the clock axis must be invisible to every correctness verdict.
    Tl2Clock {
        clock: ClockKind,
    },
    /// TL2 fully self-tuned: the contention governor owns the table
    /// (adaptive stripes with the shrink side armed) *and* the clock
    /// ([`ClockKind::Auto`], telemetry-driven GV1 ↔ GV5 handoffs). The
    /// governor may resize and switch disciplines mid-scenario; none of it
    /// may be visible to any correctness verdict.
    Tl2Auto,
    Norec,
    Glock,
}

impl Backend {
    pub const ALL: [Backend; 8] = [
        Backend::Tl2PerRegister,
        Backend::Tl2Striped { stripes: 8 },
        Backend::Tl2Adaptive,
        Backend::Tl2Clock {
            clock: ClockKind::Gv4,
        },
        Backend::Tl2Clock {
            clock: ClockKind::Gv5,
        },
        Backend::Tl2Auto,
        Backend::Norec,
        Backend::Glock,
    ];

    /// The growth policy [`Backend::Tl2Adaptive`] runs: deliberately
    /// aggressive, so conformance scenarios cross generation rehashes.
    pub fn adaptive_policy() -> AdaptivePolicy {
        AdaptivePolicy {
            start: 1,
            max: 64,
            threshold: 5,
            window: 8,
        }
    }

    pub fn label(&self) -> String {
        match self {
            Backend::Tl2PerRegister => "tl2/per-register".into(),
            Backend::Tl2Striped { stripes } => format!("tl2/striped-{stripes}"),
            Backend::Tl2Adaptive => "tl2/adaptive".into(),
            Backend::Tl2Clock { clock } => format!("tl2/{}", clock.label()),
            Backend::Tl2Auto => "tl2/auto".into(),
            Backend::Norec => "norec".into(),
            Backend::Glock => "glock".into(),
        }
    }

    /// Does this backend's `fence()` actually quiesce (and hence appear in
    /// recorded histories)? NOrec and the global lock are
    /// privatization-safe *without* fences (NOrec by value-based
    /// validation, glock because every transaction runs entirely under the
    /// lock — no zombies, no delayed commits); their histories carry no
    /// fence actions, so the paper's DRF discipline is not obliged to
    /// classify their privatizing runs as race-free.
    pub fn fences_are_real(&self) -> bool {
        !matches!(self, Backend::Norec | Backend::Glock)
    }

    /// Can two transactions be mid-body at the same time? False only for
    /// the global lock, where a transaction parked mid-body holds the lock
    /// and any concurrent transaction would deadlock against it. Scenarios
    /// that park a transaction to stage a conflict (MapRehash) skip the
    /// parked handshake on such backends — the same operations run, just
    /// without the forced overlap.
    pub fn txns_can_overlap(&self) -> bool {
        !matches!(self, Backend::Glock)
    }
}

/// A concrete scenario over `nregs()` registers and `nthreads()` threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Unconditional ring transfers plus a running audit: purely
    /// transactional, so DRF for every backend.
    Bank,
    /// Flag-guarded privatize → fence → direct writes → publish cycles,
    /// settled by a final privatized write.
    Privatization,
    /// Fig 2: non-transactional payload write published by a transactional
    /// flag write; safe without fences via `xpo;txwr`.
    Publication,
    /// K threads privatize disjoint regions concurrently through *batched*
    /// asynchronous fences (`fence_async`): tickets issued in lockstep
    /// coalesce behind shared grace periods, guarded cross-traffic gives
    /// the fences something to wait out, and each thread settles its own
    /// region under a final privatization.
    EpochBatch,
    /// One writer stamps a whole register block per round; two read-only
    /// auditors repeatedly snapshot the block and demand a consistent
    /// round in every snapshot. The read-dominated shape that stresses
    /// read-path fast paths and the version-clock backends (a GV5 reader
    /// trails fresh stamps and must recover with one refresh).
    ReaderHeavy,
    /// The ROADMAP's *long-transaction* scenario: one transaction parks
    /// mid-body (on a side channel) while the owner privatizes and issues
    /// a fence around it. The fence — however it is driven, including by a
    /// background driver — must not retire its grace period while the
    /// straddling transaction is live, and the owner's post-fence direct
    /// writes settle the final state deterministically.
    LongTx,
    /// The ROADMAP's *map-rehash* scenario: a [`TxMap`] workload that
    /// forces the adaptive orec table to grow mid-traffic. One thread
    /// stages stripe-sharing conflicts each round (parking a reading
    /// transaction while the other thread commits a disjoint
    /// single-register bump — a guaranteed *false* conflict on a small
    /// stripe table) while both keep inserting fresh collision-free keys;
    /// it ends with a freeze + privatized snapshot. On
    /// [`Backend::Tl2Adaptive`] the forced false-conflict rate must
    /// publish at least one doubled generation.
    MapRehash,
    /// Reader/writer *handoff*: ownership of a two-register block
    /// alternates between a writer (privatize → fence → direct writes →
    /// publish) and a reader (guarded transactional snapshot → privatize →
    /// fence → direct reads → hand back), with a transactional flag
    /// carrying the phase in both directions. Both sides fence, so the
    /// discipline is exercised for reader-side privatization too.
    ReaderWriterHandoff,
    /// Bounded producer/consumer over the *typed* frontend: a
    /// `TVar<VecDeque<u64>>` queue where the producer blocks (via
    /// `Transaction::retry`) when the queue is full and the consumer
    /// blocks when it is empty — the handoff shape pure spinning cannot
    /// express. FIFO order, the item sum, and the item count are settled
    /// into plain registers after the run; displaced queue boxes flow
    /// through the grace engine's deferred reclamation on every backend.
    TVarQueue,
    /// The service harness's conformance scale: the same workload *shape*
    /// as `tm-service`'s sharded KV store (zipfian key popularity via
    /// `tm_service::Zipf`, the get/put/rmw/scan op mix via
    /// `tm_service::OpMix`), re-expressed over plain registers so every
    /// write can carry a per-attempt nonce and the history records
    /// cleanly. Two zipfian clients issue guarded mixed traffic into two
    /// register shards while an owner cycles privatize → fence →
    /// double-read scan → stamp → publish-back over them, then settles
    /// each shard under a final privatization.
    Service,
    /// The ROADMAP's *mixed publication-under-load* scenario: one writer
    /// repeatedly re-privatizes, rewrites, and republishes a payload
    /// (round 1 is the pure Fig 2 publication — fresh data, `xpo;txwr`,
    /// no fence; later rounds each cross a privatization fence), and
    /// read-privatizes it after every publish (flag → fence → verified
    /// double read → thaw), while two readers hammer the flag with guarded
    /// transactional snapshots. Any torn payload a reader observes under a
    /// published or read-frozen flag counts as lost.
    PubUnderLoad,
}

impl Scenario {
    pub const ALL: [Scenario; 11] = [
        Scenario::Bank,
        Scenario::Privatization,
        Scenario::Publication,
        Scenario::EpochBatch,
        Scenario::ReaderHeavy,
        Scenario::LongTx,
        Scenario::MapRehash,
        Scenario::ReaderWriterHandoff,
        Scenario::TVarQueue,
        Scenario::Service,
        Scenario::PubUnderLoad,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Bank => "bank",
            Scenario::Privatization => "privatization",
            Scenario::Publication => "publication",
            Scenario::EpochBatch => "epoch_batch",
            Scenario::ReaderHeavy => "reader_heavy",
            Scenario::LongTx => "long_tx",
            Scenario::MapRehash => "map_rehash",
            Scenario::ReaderWriterHandoff => "reader_writer_handoff",
            Scenario::TVarQueue => "tvar_queue",
            Scenario::Service => "service",
            Scenario::PubUnderLoad => "pub_under_load",
        }
    }

    pub fn nregs(&self) -> usize {
        match self {
            Scenario::Bank => BANK_ACCOUNTS,
            Scenario::Privatization | Scenario::Publication => 2,
            Scenario::EpochBatch => 2 * EB_THREADS,
            Scenario::ReaderHeavy => RH_REGS,
            Scenario::LongTx => 3,
            Scenario::MapRehash => MR_REGS,
            Scenario::ReaderWriterHandoff => 3,
            Scenario::TVarQueue => TQ_REGS,
            Scenario::Service => SV_REGS,
            Scenario::PubUnderLoad => 2,
        }
    }

    pub fn nthreads(&self) -> usize {
        match self {
            Scenario::Bank => 3,
            Scenario::Privatization
            | Scenario::Publication
            | Scenario::LongTx
            | Scenario::MapRehash
            | Scenario::ReaderWriterHandoff
            | Scenario::TVarQueue => 2,
            Scenario::EpochBatch => EB_THREADS,
            Scenario::ReaderHeavy => 1 + RH_READERS,
            // Owner + two zipfian clients / writer + two readers.
            Scenario::Service | Scenario::PubUnderLoad => 3,
        }
    }

    /// Does the scenario's history contain fence actions on fencing
    /// backends?
    pub fn uses_fences(&self) -> bool {
        matches!(
            self,
            Scenario::Privatization
                | Scenario::EpochBatch
                | Scenario::LongTx
                | Scenario::MapRehash
                | Scenario::ReaderWriterHandoff
                | Scenario::Service
                | Scenario::PubUnderLoad
        )
    }

    /// Can this scenario's workload satisfy Def A.1 clause 3 (globally
    /// unique, non-initial write values) in a recorded history?
    ///
    /// [`Scenario::MapRehash`] cannot: [`TxMap`] writes fixed encodings —
    /// key words (`key + KEY_BIAS`), tombstones, the freeze flag — that a
    /// retried attempt repeats verbatim, so under any abort the recorded
    /// history is structurally ill-formed whatever the TM did. The
    /// conformance suite runs it unrecorded (behavioral conformance only:
    /// deterministic finals, zero lost updates, identical across backends)
    /// and documents the exemption, like the NOrec/Glock fence exemption.
    ///
    /// [`Scenario::TVarQueue`] cannot either: the typed frontend's register
    /// writes are heap addresses — run-dependent values the checkers'
    /// reads-from inference (clause 3) cannot normalize — so it too runs
    /// unrecorded, asserting behavioral conformance only.
    ///
    /// [`Scenario::Service`] exists precisely to record what `tm-service`
    /// cannot (the full-scale harness writes `TxMap` encodings and typed
    /// heap addresses): the same workload shape over plain registers,
    /// every write — including the owner's privatized direct stamps —
    /// carrying a per-attempt nonce.
    pub fn records_cleanly(&self) -> bool {
        !matches!(self, Scenario::MapRehash | Scenario::TVarQueue)
    }
}

/// Everything one scenario run produces.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    pub backend: Backend,
    pub scenario: Scenario,
    /// Snapshot of every register after all threads joined.
    pub final_regs: Vec<u64>,
    /// Updates the scenario observed being lost (must be 0 for a correct TM).
    pub lost_updates: u64,
    /// The recorded history, when recording was requested *and* the
    /// scenario [`Scenario::records_cleanly`].
    pub history: Option<History>,
    /// Adaptive-table generations published during the run (`Some` only
    /// on [`Backend::Tl2Adaptive`] and [`Backend::Tl2Auto`]).
    pub stripe_resizes: Option<u64>,
}

/// Offline checker verdicts on a recorded history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckerVerdict {
    /// Well-formed per Def 2.1/A.1.
    pub well_formed: bool,
    /// Data-race free per Def 3.2.
    pub drf: bool,
    /// Strongly opaque with a verified witness — only checked for DRF
    /// histories (strong opacity quantifies over those, Def 4.2).
    pub opaque: Option<bool>,
}

/// Run the `tm-core` checkers over a recorded history.
pub fn check(history: &History) -> CheckerVerdict {
    let well_formed = history.validate().is_ok();
    if !well_formed {
        return CheckerVerdict {
            well_formed,
            drf: false,
            opaque: None,
        };
    }
    let drf = is_drf(history);
    let opaque = drf.then(|| check_strong_opacity(history, &CheckOptions::default()).is_ok());
    CheckerVerdict {
        well_formed,
        drf,
        opaque,
    }
}

/// Run `scenario` on `backend`, recording a history if `record`, under
/// the process default [`DriverMode`] (see [`DriverMode::from_env`]).
pub fn run_scenario(scenario: Scenario, backend: Backend, record: bool) -> ScenarioRun {
    run_scenario_mode(scenario, backend, record, DriverMode::from_env())
}

/// Run `scenario` on `backend` under an explicit grace-period
/// [`DriverMode`] — the conformance axis: every scenario must behave and
/// check out identically whether the engine is driven cooperatively or by
/// a runtime-owned background driver.
pub fn run_scenario_mode(
    scenario: Scenario,
    backend: Backend,
    record: bool,
    mode: DriverMode,
) -> ScenarioRun {
    let chaos = tm_stm::chaos::seed_from_env();
    run_scenario_seeded(scenario, backend, record, mode, chaos)
}

/// [`run_scenario_mode`] under the fault-injection seed `chaos` (`None` =
/// no injection) instead of the process default.
pub fn run_scenario_seeded(
    scenario: Scenario,
    backend: Backend,
    record: bool,
    mode: DriverMode,
    chaos: Option<u64>,
) -> ScenarioRun {
    let nregs = scenario.nregs();
    let nthreads = scenario.nthreads();
    let record = record && scenario.records_cleanly();
    let recorder = record.then(|| Arc::new(Recorder::new(nthreads)));
    let mut cfg = StmConfig::new(nregs, nthreads).grace_driver(mode);
    cfg.recorder = recorder.clone();
    cfg.chaos = chaos;
    let mut stripe_resizes = None;
    let (final_regs, lost_updates) = match backend {
        Backend::Tl2PerRegister => drive(scenario, &Tl2Stm::with_config(cfg), backend),
        Backend::Tl2Striped { stripes } => drive(
            scenario,
            &Tl2Stm::with_config(cfg.striped(stripes)),
            backend,
        ),
        Backend::Tl2Adaptive => {
            let stm = Tl2Stm::with_config(cfg.adaptive_stripes(Backend::adaptive_policy()));
            let out = drive(scenario, &stm, backend);
            stripe_resizes = Some(stm.stripe_resizes());
            out
        }
        Backend::Tl2Clock { clock } => {
            drive(scenario, &Tl2Stm::with_config(cfg.clock(clock)), backend)
        }
        Backend::Tl2Auto => {
            // The governed backend: same hair-trigger adaptive policy as
            // `Tl2Adaptive` (so the grow side still fires mid-scenario),
            // plus the auto clock — which arms shrink and lets the
            // governor switch disciplines under live traffic.
            let stm = Tl2Stm::with_config(
                cfg.adaptive_stripes(Backend::adaptive_policy())
                    .clock(ClockKind::Auto),
            );
            let out = drive(scenario, &stm, backend);
            stripe_resizes = Some(stm.stripe_resizes());
            out
        }
        Backend::Norec => drive(scenario, &NorecStm::with_config(cfg), backend),
        Backend::Glock => drive(scenario, &GlockStm::with_config(cfg), backend),
    };
    ScenarioRun {
        backend,
        scenario,
        final_regs,
        lost_updates,
        history: recorder.map(|r| r.snapshot_history()),
        stripe_resizes,
    }
}

fn drive<K: PolicyKind>(scenario: Scenario, stm: &Stm<K>, backend: Backend) -> (Vec<u64>, u64) {
    let lost = match scenario {
        Scenario::Bank => bank(stm),
        Scenario::Privatization => privatization(stm),
        Scenario::Publication => publication(stm),
        Scenario::EpochBatch => epoch_batch(stm),
        Scenario::ReaderHeavy => reader_heavy(stm),
        Scenario::LongTx => long_tx(stm, backend.fences_are_real()),
        Scenario::MapRehash => map_rehash(stm, backend.txns_can_overlap()),
        Scenario::ReaderWriterHandoff => reader_writer_handoff(stm),
        Scenario::TVarQueue => tvar_queue(stm),
        Scenario::Service => service(stm),
        Scenario::PubUnderLoad => pub_under_load(stm),
    };
    let final_regs = (0..scenario.nregs())
        .map(|x| project(scenario, x, stm.peek(x)))
        .collect();
    (final_regs, lost)
}

/// Project a raw register value to its semantic content (strip nonces).
fn project(scenario: Scenario, x: usize, v: u64) -> u64 {
    match scenario {
        Scenario::Bank => v & BAL_MASK,
        Scenario::Privatization if x == PRIV_FLAG => v & PRIV_PHASE_MASK,
        Scenario::Privatization | Scenario::Publication => v,
        // Even registers are region flags (keep the phase), odd are the
        // settled region data (keep the value).
        Scenario::EpochBatch if x.is_multiple_of(2) => v & EB_PHASE_MASK,
        Scenario::EpochBatch => v,
        // The round lives in the low bits; the rest is a per-write nonce.
        Scenario::ReaderHeavy => v & RH_ROUND_MASK,
        Scenario::LongTx if x == LT_FLAG => v & LT_PHASE_MASK,
        Scenario::LongTx if x == LT_SIDE => v & LT_SIDE_MASK,
        Scenario::LongTx => v,
        // The scratch registers carry per-attempt/per-round nonces whose
        // counts are backend-dependent (they exist to give the staged
        // conflict a write set and the bump a single-register commit);
        // everything else — map layout, freeze flag — is exact.
        Scenario::MapRehash if x == MR_SCRATCH || x == MR_SCRATCH_B => 0,
        Scenario::MapRehash => v,
        Scenario::ReaderWriterHandoff if x == RW_FLAG => v & RW_PHASE_MASK,
        Scenario::ReaderWriterHandoff => v,
        // The settle registers are exact; the typed register was reset to
        // the 0 sentinel when the `TypedStm` instance dropped.
        Scenario::TVarQueue => v,
        // Shard flags carry the phase under a nonce; settled shard data is
        // exact.
        Scenario::Service if x.is_multiple_of(SV_SHARD_REGS) => v & SV_PHASE_MASK,
        Scenario::Service => v,
        // The flag's semantic content is phase + round; the payload is
        // exact.
        Scenario::PubUnderLoad if x == PU_FLAG => v & PU_SEM_MASK,
        Scenario::PubUnderLoad => v,
    }
}

const BANK_ACCOUNTS: usize = 4;
const BANK_INIT: u64 = 1_000;
const BANK_ITERS: u64 = 12;
/// Balances live in the low bits; the rest of the word is a unique nonce
/// (Def A.1 clause 3 requires globally unique write values).
const BAL_MASK: u64 = (1 << 24) - 1;

#[inline]
fn bal(v: u64) -> u64 {
    v & BAL_MASK
}

#[inline]
fn with_nonce(balance: u64, nonce: u64) -> u64 {
    debug_assert!(balance <= BAL_MASK && nonce > 0);
    (nonce << 24) | balance
}

/// Expected deterministic final balances: thread `t` moves `BANK_ITERS`
/// units from account `t` to account `t + 1`.
pub fn bank_expected_finals() -> Vec<u64> {
    let mut regs = vec![BANK_INIT; BANK_ACCOUNTS];
    for t in 0..3 {
        regs[t] -= BANK_ITERS;
        regs[t + 1] += BANK_ITERS;
    }
    regs
}

fn bank<F: StmFactory>(stm: &F) -> u64 {
    {
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            for a in 0..BANK_ACCOUNTS {
                tx.write(a, with_nonce(BANK_INIT, 1 + a as u64))?;
            }
            Ok(())
        });
    }
    std::thread::scope(|s| {
        for t in 0..3usize {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(t);
                let (from, to) = (t, t + 1);
                // Per-thread disjoint nonce space, above the init nonces.
                // Advanced *inside* the body: an aborted attempt's writes
                // stay in the history, so a retry may not repeat values.
                let mut nonce = 100 + ((t as u64 + 1) << 32);
                for i in 0..BANK_ITERS {
                    h.atomic(|tx| {
                        nonce += 2;
                        let a = bal(tx.read(from)?);
                        let b = bal(tx.read(to)?);
                        tx.write(from, with_nonce(a - 1, nonce))?;
                        tx.write(to, with_nonce(b + 1, nonce + 1))
                    });
                    // Transfers commute, so the audit sum is invariant in
                    // every consistent snapshot.
                    if i % 6 == 0 {
                        let sum = h.atomic(|tx| {
                            let mut s = 0u64;
                            for a in 0..BANK_ACCOUNTS {
                                s += bal(tx.read(a)?);
                            }
                            Ok(s)
                        });
                        assert_eq!(sum, BANK_INIT * BANK_ACCOUNTS as u64, "inconsistent audit");
                    }
                }
            });
        }
    });
    0
}

const PRIV_FLAG: usize = 0;
const PRIV_DATA: usize = 1;
const PRIV_ROUNDS: u64 = 6;
/// Low flag bits carry the phase (1 = privatized, 2 = open); the bits above
/// are a unique per-write nonce. `v_init = 0` reads as phase 0 = open.
const PRIV_PHASE_MASK: u64 = 3;
const PRIV_PRIVATE: u64 = 1;
const PRIV_OPEN: u64 = 2;
/// The value the owner settles the (still privatized) data register to.
pub const PRIV_FINAL: u64 = 0xF1A1;

/// Expected deterministic final registers: privatized (flag phase 1),
/// settled data.
pub fn privatization_expected_finals() -> Vec<u64> {
    vec![PRIV_PRIVATE, PRIV_FINAL]
}

fn privatization<F: StmFactory>(stm: &F) -> u64 {
    std::thread::scope(|s| {
        let owner = {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(0);
                let mut lost = 0u64;
                // Unique flag values per attempt (aborted attempts keep
                // their writes in the history).
                let mut flag_nonce = 0u64;
                let mut set_flag = |h: &mut F::Handle, phase: u64| {
                    h.atomic(|tx| {
                        flag_nonce += 1;
                        tx.write(PRIV_FLAG, (flag_nonce << 2) | phase)
                    });
                };
                for i in 1..=PRIV_ROUNDS {
                    set_flag(&mut h, PRIV_PRIVATE);
                    h.fence();
                    let marker = 0x4000_0000_0000_0000 | i;
                    h.write_direct(PRIV_DATA, marker);
                    if h.read_direct(PRIV_DATA) != marker {
                        lost += 1;
                    }
                    set_flag(&mut h, PRIV_OPEN);
                    h.fence();
                }
                // Settle: privatize once more and leave the data register at
                // a known value — guarded workers can never overwrite it.
                set_flag(&mut h, PRIV_PRIVATE);
                h.fence();
                h.write_direct(PRIV_DATA, PRIV_FINAL);
                lost
            })
        };
        {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(1);
                let mut data_nonce = 0x2000_0000_0000_0000u64;
                for _ in 0..2 * PRIV_ROUNDS {
                    h.atomic(|tx| {
                        data_nonce += 1;
                        let flag = tx.read(PRIV_FLAG)?;
                        if flag & PRIV_PHASE_MASK != PRIV_PRIVATE {
                            tx.write(PRIV_DATA, data_nonce)?;
                        }
                        Ok(())
                    });
                }
            });
        }
        owner.join().unwrap()
    })
}

const PUB_FLAG: usize = 0;
const PUB_DATA: usize = 1;
/// The published payload.
pub const PUB_PAYLOAD: u64 = 0xFEED;

/// Expected deterministic final registers: published flag, intact payload.
pub fn publication_expected_finals() -> Vec<u64> {
    vec![1, PUB_PAYLOAD]
}

fn publication<F: StmFactory>(stm: &F) -> u64 {
    std::thread::scope(|s| {
        let consumer = {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(1);
                loop {
                    let seen = h.atomic(|tx| {
                        if tx.read(PUB_FLAG)? != 0 {
                            Ok(Some(tx.read(PUB_DATA)?))
                        } else {
                            Ok(None)
                        }
                    });
                    if let Some(data) = seen {
                        return data;
                    }
                    std::thread::yield_now();
                }
            })
        };
        let mut h = stm.handle(0);
        h.write_direct(PUB_DATA, PUB_PAYLOAD); // ν: non-transactional
        h.atomic(|tx| tx.write(PUB_FLAG, 1)); // publish (xpo;txwr edge)
        let seen = consumer.join().unwrap();
        u64::from(seen != PUB_PAYLOAD)
    })
}

const EB_THREADS: usize = 3;
const EB_ROUNDS: u64 = 4;
/// Low flag bits carry the phase, mirroring the privatization scenario.
const EB_PHASE_MASK: u64 = 3;
const EB_PRIVATE: u64 = 1;
const EB_OPEN: u64 = 2;
/// Thread `t` settles its region's data register to `EB_SETTLE_BASE + t`.
pub const EB_SETTLE_BASE: u64 = 0xEB00;

/// Region `t`'s privatization flag register.
fn eb_flag(t: usize) -> usize {
    2 * t
}

/// Region `t`'s data register.
fn eb_data(t: usize) -> usize {
    2 * t + 1
}

/// Expected deterministic final registers: every region privatized (flag
/// phase 1) with settled data.
pub fn epoch_batch_expected_finals() -> Vec<u64> {
    (0..EB_THREADS)
        .flat_map(|t| [EB_PRIVATE, EB_SETTLE_BASE + t as u64])
        .collect()
}

/// K threads each own a disjoint region (flag + data register) and cycle
/// privatize → batched fence → direct write → publish, while also sending
/// guarded transactional traffic into every *other* region. Barriers keep
/// the rounds in lockstep so all K fence tickets of a round are issued in
/// the same open grace period — the batched path resolves them all on one
/// epoch-table scan. Each thread ends by privatizing its region once more
/// and settling the data register to a known value, so the final state is
/// deterministic under any correct TM.
///
/// Write-value uniqueness (Def A.1 clause 3) is by disjoint value spaces:
/// flag writes carry `(t+1) << 40`, guarded data writes `(t+1) << 48`,
/// direct markers bit 62, settle values live below 2^16; nonces advance
/// per *attempt* so aborted attempts never repeat a value.
fn epoch_batch<F: StmFactory>(stm: &F) -> u64 {
    use std::sync::Barrier;
    let privatize = Barrier::new(EB_THREADS);
    let issued = Barrier::new(EB_THREADS);
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..EB_THREADS {
            let stm = stm.clone();
            let privatize = &privatize;
            let issued = &issued;
            workers.push(s.spawn(move || {
                let mut h = stm.handle(t);
                let tt = t as u64;
                let mut lost = 0u64;
                let mut flag_nonce = 0u64;
                let mut data_nonce = 0u64;
                for round in 1..=EB_ROUNDS {
                    // Lockstep privatization: every thread sets its flag and
                    // issues its fence ticket before any thread joins, so
                    // the K tickets coalesce behind one grace period.
                    privatize.wait();
                    h.atomic(|tx| {
                        flag_nonce += 1;
                        tx.write(
                            eb_flag(t),
                            ((tt + 1) << 40) | (flag_nonce << 2) | EB_PRIVATE,
                        )
                    });
                    let ticket = h.fence_async();
                    issued.wait();
                    h.fence_join(ticket);
                    // The region is private: uninstrumented access is safe.
                    let marker = (1u64 << 62) | (tt << 8) | round;
                    h.write_direct(eb_data(t), marker);
                    if h.read_direct(eb_data(t)) != marker {
                        lost += 1;
                    }
                    h.atomic(|tx| {
                        flag_nonce += 1;
                        tx.write(eb_flag(t), ((tt + 1) << 40) | (flag_nonce << 2) | EB_OPEN)
                    });
                    // Guarded cross-traffic into the other regions — the
                    // transactions the other threads' fences wait out.
                    for j in (0..EB_THREADS).filter(|&j| j != t) {
                        h.atomic(|tx| {
                            data_nonce += 1;
                            let flag = tx.read(eb_flag(j))?;
                            if flag & EB_PHASE_MASK != EB_PRIVATE {
                                tx.write(eb_data(j), ((tt + 1) << 48) | data_nonce)?;
                            }
                            Ok(())
                        });
                    }
                }
                // Settle: privatize once more and leave the data register at
                // a known value guarded writers can never overwrite.
                privatize.wait();
                h.atomic(|tx| {
                    flag_nonce += 1;
                    tx.write(
                        eb_flag(t),
                        ((tt + 1) << 40) | (flag_nonce << 2) | EB_PRIVATE,
                    )
                });
                let ticket = h.fence_async();
                issued.wait();
                h.fence_join(ticket);
                h.write_direct(eb_data(t), EB_SETTLE_BASE + tt);
                lost
            }));
        }
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

const RH_REGS: usize = 4;
const RH_READERS: usize = 2;
const RH_ROUNDS: u64 = 6;
const RH_READS: u64 = 20;
/// Rounds live in the low 16 bits; the bits above are a unique per-write
/// nonce (Def A.1 clause 3).
const RH_ROUND_MASK: u64 = (1 << 16) - 1;

/// Expected deterministic final registers: every register carries the last
/// round the writer stamped.
pub fn reader_heavy_expected_finals() -> Vec<u64> {
    vec![RH_ROUNDS; RH_REGS]
}

/// One writer stamps the whole block with the round number each round; two
/// read-only auditors snapshot the block `RH_READS` times each and demand
/// every snapshot shows one single round across all registers — the
/// read-mostly opacity workload. Auditors never write, so the final state
/// is the writer's last round, deterministically. Returns the number of
/// torn (mixed-round) snapshots observed: 0 for any opaque TM.
fn reader_heavy<F: StmFactory>(stm: &F) -> u64 {
    std::thread::scope(|s| {
        let mut auditors = Vec::new();
        for r in 0..RH_READERS {
            let stm = stm.clone();
            auditors.push(s.spawn(move || {
                let mut h = stm.handle(1 + r);
                let mut torn = 0u64;
                for _ in 0..RH_READS {
                    let rounds = h.atomic(|tx| {
                        let first = tx.read(0)? & RH_ROUND_MASK;
                        for x in 1..RH_REGS {
                            if tx.read(x)? & RH_ROUND_MASK != first {
                                return Ok(None);
                            }
                        }
                        Ok(Some(first))
                    });
                    if rounds.is_none() {
                        torn += 1;
                    }
                    std::thread::yield_now();
                }
                torn
            }));
        }
        let writer = {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(0);
                // Nonces advance per write *inside* the body: aborted
                // attempts keep their writes in the history, so a retry may
                // not repeat values.
                let mut nonce = 0u64;
                for round in 1..=RH_ROUNDS {
                    h.atomic(|tx| {
                        for x in 0..RH_REGS {
                            nonce += 1;
                            tx.write(x, (nonce << 16) | round)?;
                        }
                        Ok(())
                    });
                    std::thread::yield_now();
                }
            })
        };
        writer.join().unwrap();
        auditors.into_iter().map(|a| a.join().unwrap()).sum()
    })
}

const LT_FLAG: usize = 0;
const LT_DATA: usize = 1;
const LT_SIDE: usize = 2;
/// Low flag bits carry the phase, mirroring the privatization scenario.
const LT_PHASE_MASK: u64 = 3;
const LT_PRIVATE: u64 = 1;
/// The value the owner settles the privatized data register to.
pub const LT_FINAL: u64 = 0x17F1;
/// The semantic payload of the straddler's side-register write (low 16
/// bits; the bits above are a per-attempt nonce).
pub const LT_SIDE_MARK: u64 = 0x51DE;
const LT_SIDE_MASK: u64 = (1 << 16) - 1;

/// Expected deterministic final registers: privatized flag, owner-settled
/// data, straddler-written side register.
pub fn long_tx_expected_finals() -> Vec<u64> {
    vec![LT_PRIVATE, LT_FINAL, LT_SIDE_MARK]
}

/// The long-transaction scenario: a fence must not retire while a
/// transaction that was active at issue is still (slowly) running.
///
/// Shape: the owner privatizes `LT_DATA` (flag transaction) *first*; the
/// straddler then opens a transaction on the unprivatized `LT_SIDE`
/// register and parks mid-body on a side channel. The owner issues its
/// fence while the straddler is parked — so the straddling transaction
/// brackets the whole fence — and on quiescing backends asserts the
/// ticket stays unresolved (against every driver: cooperative pollers AND
/// the background driver must not retire the period early). Only then is
/// the straddler released; the joined fence guarantees its commit, after
/// which the owner settles `LT_DATA` directly.
///
/// Ordering discipline (why the owner's flag transaction commits before
/// the straddler begins): under the global-lock backend a transaction
/// parked mid-body holds the lock, so any later transaction by another
/// thread would deadlock against it — the scenario therefore does all its
/// transactional work on the owner *before* parking the straddler, which
/// also makes the straddler's flag read deterministic.
fn long_tx<F: StmFactory>(stm: &F, real_fences: bool) -> u64 {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let stage = AtomicUsize::new(0);
    let go = AtomicBool::new(false);
    std::thread::scope(|s| {
        let straddler = {
            let stm = stm.clone();
            let stage = &stage;
            let go = &go;
            s.spawn(move || {
                // Begin only after the owner's flag transaction committed.
                while stage.load(Ordering::SeqCst) < 1 {
                    std::thread::yield_now();
                }
                let mut h = stm.handle(1);
                // Nonce advances per attempt: an aborted attempt's write
                // stays in the history and may not repeat its value.
                let mut nonce = 0u64;
                h.atomic(|tx| {
                    nonce += 1;
                    // Guarded read: the region is privatized, so the
                    // discipline routes this transaction to the side
                    // register only. Deterministic by the stage ordering.
                    let flag = tx.read(LT_FLAG)?;
                    assert_eq!(flag & LT_PHASE_MASK, LT_PRIVATE, "began before the flag?");
                    // Tell the owner we are mid-transaction…
                    stage.store(2, Ordering::SeqCst);
                    // …and stay there until released: the slow part the
                    // fence has to wait out.
                    while !go.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    tx.write(LT_SIDE, (nonce << 16) | LT_SIDE_MARK)
                });
            })
        };
        let mut h = stm.handle(0);
        let mut flag_nonce = 1u64;
        h.atomic(|tx| {
            flag_nonce += 1;
            tx.write(LT_FLAG, (flag_nonce << 2) | LT_PRIVATE)
        });
        stage.store(1, Ordering::SeqCst);
        while stage.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let mut ticket = h.fence_async();
        if real_fences {
            // Ample time for a buggy driver to retire the period early.
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(
                !ticket.poll(),
                "fence retired with the straddling transaction still live"
            );
        }
        go.store(true, Ordering::SeqCst);
        h.fence_join(ticket);
        // The straddler has committed; the privatized register is ours.
        h.write_direct(LT_DATA, LT_FINAL);
        let lost = u64::from(h.read_direct(LT_DATA) != LT_FINAL);
        straddler.join().unwrap();
        lost
    })
}

const MR_CAP: usize = 32;
const MR_ROUNDS: usize = 12;
/// Scratch register the staged conflict transaction writes (outside the
/// map region; projected out of the finals).
const MR_SCRATCH: usize = TxMap::regs_needed(MR_CAP);
/// The bumper thread's scratch register: its round bump must be a
/// *single-register* commit so the stripe's writer hint names exactly one
/// register and the staged abort classifies as a false conflict (a
/// multi-register commit hints `Shared`, which conservatively does not).
const MR_SCRATCH_B: usize = MR_SCRATCH + 1;
const MR_REGS: usize = MR_SCRATCH_B + 1;
/// Value of the pre-seeded probe key.
pub const MR_VAL_SEED: u64 = 0xA000_0000;

/// Base value of inserter `who`'s round keys (`who` 0 = the conflict
/// thread, 1 = the bumper thread).
fn mr_val(who: usize, round: usize) -> u64 {
    (0xA000_0000 + 0x1000_0000 * who as u64) | round as u64
}

/// The scenario's key set: `2 * MR_ROUNDS + 1` keys with pairwise-distinct
/// home slots, so the final map layout is deterministic whatever order the
/// inserts commit in. `keys[0]` is the seed/probe key; `keys[r]` is thread
/// A's round-`r` key; `keys[MR_ROUNDS + r]` thread B's.
fn mr_keys() -> Vec<u64> {
    let m = TxMap::new(0, MR_CAP);
    let mut used = [false; MR_CAP];
    let mut keys = Vec::with_capacity(2 * MR_ROUNDS + 1);
    let mut k = 1u64;
    while keys.len() < 2 * MR_ROUNDS + 1 {
        let s = m.home_slot(k);
        if !used[s] {
            used[s] = true;
            keys.push(k);
        }
        k += 1;
    }
    keys
}

/// Expected deterministic final registers: the map frozen (flag 1), every
/// key in its home slot with its fixed value, scratch projected to 0.
pub fn map_rehash_expected_finals() -> Vec<u64> {
    let m = TxMap::new(0, MR_CAP);
    let mut regs = vec![0u64; MR_REGS];
    regs[0] = 1; // left frozen by the final snapshot
    let keys = mr_keys();
    let mut put = |key: u64, val: u64| {
        // The documented TxMap layout: [flag][slot0 key][slot0 val]…, keys
        // stored biased by KEY_BIAS; collision-free keys sit in their home
        // slots.
        let s = m.home_slot(key);
        regs[1 + 2 * s] = key + tm_stm::map::KEY_BIAS;
        regs[2 + 2 * s] = val;
    };
    put(keys[0], MR_VAL_SEED);
    for r in 1..=MR_ROUNDS {
        put(keys[r], mr_val(0, r));
        put(keys[MR_ROUNDS + r], mr_val(1, r));
    }
    regs
}

/// The map-rehash scenario: [`TxMap`] traffic engineered to force adaptive
/// orec-table growth mid-stream, settled by a freeze + privatized snapshot.
///
/// Per round, thread A opens a transaction that reads the seed key (flag +
/// home slot in its read set) and writes a scratch register, then *parks*
/// mid-body; thread B commits a single-register bump of its own scratch
/// register. On a small stripe table that commit bumps a stripe A read, so
/// A's commit-time validation fails — and since the stripe's last
/// committed writer is B's scratch register, not A's, the abort is
/// classified *false*, feeding the adaptive growth window. A's retry
/// commits; both threads then insert their round keys (collision-free,
/// fixed values) and the staging advances. On backends where a parked
/// transaction would block everyone (`!park_ok`: the global lock) the same
/// operations run without the forced overlap.
///
/// Ends with `freeze` + `iter_frozen`: the privatized snapshot must
/// contain every key with its exact value (anything missing counts as a
/// lost update), and the map is left frozen so the final state is
/// deterministic.
fn map_rehash<F: StmFactory>(stm: &F, park_ok: bool) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    let m = TxMap::new(0, MR_CAP);
    let keys = mr_keys();
    let seed_key = keys[0];
    let stage = AtomicU64::new(0);
    const SEEDED: u64 = 1;
    let parked = |r: usize| 10 * r as u64 + 1;
    let bumped = |r: usize| 10 * r as u64 + 2;
    let done = |r: usize| 10 * r as u64 + 3;
    // B has committed its last round insert; A may freeze.
    let b_done = 10 * MR_ROUNDS as u64 + 4;
    // Stage values increase monotonically over the run, so waits are
    // `>=`, never `==`: the producer may have advanced past the awaited
    // value before the consumer ever observes it.
    let await_stage = |v: u64| {
        while stage.load(Ordering::SeqCst) < v {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        // Thread B: the stripe bumper. Waits until A is parked (or has
        // committed its conflict transaction, when parking is disabled),
        // commits a single-register bump — the stripe-sharing write whose
        // hint classifies A's abort as false — releases A, then inserts
        // its own round key once A's round is settled.
        {
            let stm = stm.clone();
            let (stage, keys) = (&stage, &keys);
            s.spawn(move || {
                let mut h = stm.handle(1);
                let mut bump_nonce = 0u64;
                await_stage(SEEDED);
                for r in 1..=MR_ROUNDS {
                    await_stage(parked(r));
                    h.atomic(|tx| {
                        bump_nonce += 1;
                        tx.write(MR_SCRATCH_B, (2 << 50) | bump_nonce)
                    });
                    stage.store(bumped(r), Ordering::SeqCst);
                    await_stage(done(r));
                    h.atomic(|tx| m.insert(tx, keys[MR_ROUNDS + r], mr_val(1, r)).map(|_| ()));
                }
                stage.store(b_done, Ordering::SeqCst);
            });
        }
        // Thread A: conflict stager, inserter, and finally the freezer.
        let mut h = stm.handle(0);
        h.atomic(|tx| m.insert(tx, seed_key, MR_VAL_SEED).map(|_| ()));
        stage.store(SEEDED, Ordering::SeqCst);
        let mut scratch_nonce = 0u64;
        // `r` is the round number (staging values, key index, value tag),
        // not a plain iteration index.
        #[allow(clippy::needless_range_loop)]
        for r in 1..=MR_ROUNDS {
            let mut first = true;
            h.atomic(|tx| {
                scratch_nonce += 1;
                let v = m.get(tx, seed_key)?;
                debug_assert_eq!(v, Some(MR_VAL_SEED));
                tx.write(MR_SCRATCH, (1 << 50) | scratch_nonce)?;
                if park_ok && first {
                    first = false;
                    stage.store(parked(r), Ordering::SeqCst);
                    await_stage(bumped(r));
                }
                Ok(())
            });
            if !park_ok {
                stage.store(parked(r), Ordering::SeqCst);
                await_stage(bumped(r));
            }
            h.atomic(|tx| m.insert(tx, keys[r], mr_val(0, r)).map(|_| ()));
            stage.store(done(r), Ordering::SeqCst);
        }
        // Wait for B's last insert before freezing: a frozen map aborts
        // transactional inserts forever (that is its contract), so the
        // freeze must be quiescent.
        await_stage(b_done);
        // Privatized snapshot: freeze (one flag write + fence), then bulk
        // reads; every key must be present with its exact value. The map
        // stays frozen, so the finals are deterministic.
        m.freeze(&mut h, FreezeMode::Read);
        let snap = m.iter_frozen(&mut h);
        let mut lost = 0u64;
        let mut expect = |key: u64, val: u64| {
            if !snap.iter().any(|&(k, v)| k == key && v == val) {
                lost += 1;
            }
        };
        expect(seed_key, MR_VAL_SEED);
        for r in 1..=MR_ROUNDS {
            expect(keys[r], mr_val(0, r));
            expect(keys[MR_ROUNDS + r], mr_val(1, r));
        }
        lost
    })
}

const RW_FLAG: usize = 0;
const RW_D0: usize = 1;
const RW_D1: usize = 2;
const RW_ROUNDS: u64 = 4;
/// Low flag bits carry the phase; the bits above are a per-write nonce
/// (per thread: bit 40/41 discriminates the two nonce spaces).
const RW_PHASE_MASK: u64 = 7;
const RW_W_OWNS: u64 = 1;
const RW_SHARED: u64 = 2;
const RW_R_OWNS: u64 = 3;
const RW_W_TURN: u64 = 4;
/// The values the writer settles the block to under its final ownership.
pub const RW_FINAL0: u64 = 0x30D0;
/// Companion settle value for the second data register.
pub const RW_FINAL1: u64 = 0x30D1;

/// The writer's round-`r` marker for data register `i`.
fn rw_mark(round: u64, i: u64) -> u64 {
    (1 << 62) | (round << 8) | i
}

/// Expected deterministic final registers: writer-owned flag, settled
/// block.
pub fn reader_writer_handoff_expected_finals() -> Vec<u64> {
    vec![RW_W_OWNS, RW_FINAL0, RW_FINAL1]
}

/// The reader/writer handoff scenario: ownership of the data block passes
/// writer → reader → writer every round, each direction crossing its own
/// privatization fence.
///
/// Writer rounds: privatize (flag := W_OWNS) → fence → direct-write both
/// data registers → publish (flag := SHARED) → await W_TURN. Reader
/// rounds: await SHARED with a *consistent* guarded snapshot of the block
/// (both registers must carry the same round — a torn pair counts as
/// lost) → privatize (flag := R_OWNS) → fence → verify by direct reads →
/// hand back (flag := W_TURN). After the last round the writer privatizes
/// once more and settles the block, so the finals are deterministic.
fn reader_writer_handoff<F: StmFactory>(stm: &F) -> u64 {
    /// Pause between two polls of a wait loop whose polls are *recorded*
    /// transactions: yield at first, then sleep, doubling from 50 µs to
    /// 1.6 ms. A waiter whose peer is descheduled for 100 ms then adds a
    /// few hundred actions to the history, not the 100 000 a bare yield
    /// loop records — `check` is superlinear in history length and spun
    /// for minutes on such a history.
    fn poll_pause(polls: &mut u32) {
        *polls += 1;
        match polls.checked_sub(32) {
            None => std::thread::yield_now(),
            Some(n) => std::thread::sleep(Duration::from_micros(50 << n.min(5))),
        }
    }
    fn set_phase<H: StmHandle>(h: &mut H, who: u64, nonce: &mut u64, phase: u64) {
        h.atomic(|tx| {
            *nonce += 1;
            tx.write(RW_FLAG, (1 << (40 + who)) | (*nonce << 3) | phase)
        });
    }
    fn phase_of<H: StmHandle>(h: &mut H) -> u64 {
        h.atomic(|tx| tx.read(RW_FLAG)) & RW_PHASE_MASK
    }
    std::thread::scope(|s| {
        let reader = {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(1);
                let mut nonce = 0u64;
                let mut lost = 0u64;
                for r in 1..=RW_ROUNDS {
                    // Await this round's shared phase with a consistent
                    // guarded snapshot (data is only read under the flag).
                    let mut polls = 0;
                    let (d0, d1) = loop {
                        let snap = h.atomic(|tx| {
                            if tx.read(RW_FLAG)? & RW_PHASE_MASK == RW_SHARED {
                                Ok(Some((tx.read(RW_D0)?, tx.read(RW_D1)?)))
                            } else {
                                Ok(None)
                            }
                        });
                        if let Some(pair) = snap {
                            break pair;
                        }
                        poll_pause(&mut polls);
                    };
                    if d0 != rw_mark(r, 0) || d1 != rw_mark(r, 1) {
                        lost += 1; // torn or stale snapshot
                    }
                    // Reader-side privatization: own the block, verify it
                    // with uninstrumented reads, hand it back.
                    set_phase(&mut h, 1, &mut nonce, RW_R_OWNS);
                    h.fence();
                    if h.read_direct(RW_D0) != rw_mark(r, 0) {
                        lost += 1;
                    }
                    if h.read_direct(RW_D1) != rw_mark(r, 1) {
                        lost += 1;
                    }
                    set_phase(&mut h, 1, &mut nonce, RW_W_TURN);
                }
                lost
            })
        };
        let mut h = stm.handle(0);
        let mut nonce = 0u64;
        let mut lost = 0u64;
        for r in 1..=RW_ROUNDS {
            set_phase(&mut h, 0, &mut nonce, RW_W_OWNS);
            h.fence();
            for i in 0..2u64 {
                let reg = [RW_D0, RW_D1][i as usize];
                h.write_direct(reg, rw_mark(r, i));
                if h.read_direct(reg) != rw_mark(r, i) {
                    lost += 1;
                }
            }
            set_phase(&mut h, 0, &mut nonce, RW_SHARED);
            let mut polls = 0;
            while phase_of(&mut h) != RW_W_TURN {
                poll_pause(&mut polls);
            }
        }
        // Settle under one last writer-side privatization.
        set_phase(&mut h, 0, &mut nonce, RW_W_OWNS);
        h.fence();
        h.write_direct(RW_D0, RW_FINAL0);
        h.write_direct(RW_D1, RW_FINAL1);
        if h.read_direct(RW_D0) != RW_FINAL0 || h.read_direct(RW_D1) != RW_FINAL1 {
            lost += 1;
        }
        lost + reader.join().unwrap()
    })
}

/// Settled sum of everything the consumer popped.
const TQ_SUM: usize = 0;
/// Settled count of items the consumer popped.
const TQ_COUNT: usize = 1;
/// The typed register backing the queue `TVar` (holds a boxed pointer
/// while the scenario runs; reset to the 0 sentinel on instance drop).
const TQ_VAR: usize = 2;
const TQ_REGS: usize = 3;
/// Queue capacity — small, so the producer actually blocks on full.
const TQ_CAP: usize = 4;
/// Items pushed; more than `TQ_CAP` so the consumer also blocks on empty.
const TQ_ITEMS: u64 = 24;

/// Expected deterministic final registers: `sum(1..=TQ_ITEMS)`, the item
/// count, and the reset typed register.
pub fn tvar_queue_expected_finals() -> Vec<u64> {
    vec![TQ_ITEMS * (TQ_ITEMS + 1) / 2, TQ_ITEMS, 0]
}

/// Bounded producer/consumer over the typed frontend: a
/// `TVar<VecDeque<u64>>` queue of capacity [`TQ_CAP`], a producer pushing
/// `1..=TQ_ITEMS` that blocks via [`Transaction::retry`] when the queue is
/// full, and a consumer that blocks on empty. Both sides sleep on their
/// read set and are woken by the other side's conflicting commit — a lost
/// wakeup deadlocks the scenario outright, so mere termination is load-
/// bearing. FIFO-order violations and a non-empty residual queue count as
/// lost updates; the popped sum/count settle into plain registers so the
/// finals are deterministic.
fn tvar_queue<K: PolicyKind>(stm: &Stm<K>) -> u64 {
    let typed = TypedStm::over(stm.clone(), TQ_VAR);
    let queue = typed.new_tvar(VecDeque::<u64>::new());
    let (sum, count, mut lost) = std::thread::scope(|s| {
        let producer = {
            let typed = typed.clone();
            let queue = queue.clone();
            s.spawn(move || {
                let mut h = typed.handle(0);
                for item in 1..=TQ_ITEMS {
                    h.atomically(|tx| {
                        let mut q = tx.read(&queue)?;
                        if q.len() >= TQ_CAP {
                            return tx.retry(); // block until the consumer pops
                        }
                        q.push_back(item);
                        tx.write(&queue, q)
                    });
                }
            })
        };
        let mut h = typed.handle(1);
        let mut sum = 0u64;
        let mut count = 0u64;
        let mut lost = 0u64;
        let mut expect = 1u64;
        for _ in 0..TQ_ITEMS {
            let item = h.atomically(|tx| {
                let mut q = tx.read(&queue)?;
                match q.pop_front() {
                    None => tx.retry(), // block until the producer pushes
                    Some(item) => {
                        tx.write(&queue, q)?;
                        Ok(item)
                    }
                }
            });
            if item != expect {
                lost += 1; // FIFO order violated
            }
            expect = item + 1;
            sum += item;
            count += 1;
        }
        producer.join().unwrap();
        let residual = h.atomically(|tx| Ok(tx.read(&queue)?.len() as u64));
        (sum, count, lost + residual)
    });
    // Settle the observations into plain registers, then drop the typed
    // instance so `TQ_VAR` resets to the 0 sentinel (deterministic finals).
    let mut h = stm.handle(0);
    h.write_direct(TQ_SUM, sum);
    h.write_direct(TQ_COUNT, count);
    drop((queue, typed));
    if h.read_direct(TQ_VAR) != 0 {
        lost += 1; // the typed register failed to reset
    }
    lost
}

/// Shards in the conformance-scale service.
const SV_SHARDS: usize = 2;
/// Keys (data registers) per shard.
const SV_KEYS: usize = 3;
/// Registers per shard: one freeze flag + the keys.
const SV_SHARD_REGS: usize = 1 + SV_KEYS;
const SV_REGS: usize = SV_SHARDS * SV_SHARD_REGS;
/// Requests each zipfian client issues.
const SV_OPS: u64 = 40;
/// Owner privatize → scan → publish cycles over the whole store.
const SV_CYCLES: u64 = 3;
/// Low flag bits carry the phase (1 = privatized, 2 = open, 3 =
/// read-privatized: gets go through, writes wait); bits above are a
/// per-write nonce.
const SV_PHASE_MASK: u64 = 3;
const SV_PRIVATE: u64 = 1;
const SV_OPEN: u64 = 2;
const SV_READ_FROZEN: u64 = 3;
/// Key `i`'s settled value (`SV_SETTLE_BASE + i`, below every nonce
/// space).
pub const SV_SETTLE_BASE: u64 = 0x5E00;

/// Shard `s`'s freeze-flag register.
fn sv_flag(s: usize) -> usize {
    s * SV_SHARD_REGS
}

/// Shard `s`'s data register for in-shard key `k`.
fn sv_data(s: usize, k: usize) -> usize {
    s * SV_SHARD_REGS + 1 + k
}

/// Expected deterministic final registers: every shard left privatized
/// (flag phase 1) with its keys settled to `SV_SETTLE_BASE + global key`.
pub fn service_expected_finals() -> Vec<u64> {
    let mut regs = vec![0u64; SV_REGS];
    for s in 0..SV_SHARDS {
        regs[sv_flag(s)] = SV_PRIVATE;
        for k in 0..SV_KEYS {
            regs[sv_data(s, k)] = SV_SETTLE_BASE + (s * SV_KEYS + k) as u64;
        }
    }
    regs
}

/// The conformance-scale service: the `tm-service` workload shape —
/// zipfian key popularity ([`tm_service::Zipf`] + [`tm_service::spread`]),
/// the mixed op class ([`tm_service::OpMix`]), a store owner running
/// privatize-and-scan / publish-back maintenance — over plain registers
/// with per-attempt nonced values, so the recorded history satisfies
/// Def A.1 clause 3 under any retry schedule (including chaos).
///
/// Clients issue flag-guarded transactional ops (get / put / rmw /
/// whole-shard scan — writes skipped while the shard is privatized in
/// either mode, reads skipped only while it is write-privatized). Each
/// owner cycle first read-privatizes both shards in one flag transaction
/// → fence → two full uninstrumented passes over every key (mismatch =
/// lost) while client reads keep going → one thaw transaction; then
/// cycles over both shards (privatize → fence → uninstrumented
/// double-read of every key, mismatch = lost → unique direct stamp,
/// read-back mismatch = lost → nonced publish-back). Finally it joins the
/// clients and settles every shard under one final privatization each.
///
/// Value spaces (disjoint, all non-initial): owner stamps carry bit 62,
/// client writes bit `52 + client`, flag nonces bit 44, settle constants
/// sit below 2^16.
fn service<F: StmFactory>(stm: &F) -> u64 {
    use tm_service::{spread, OpMix, SplitMix64, Zipf};
    use tm_stm::telemetry::OpClass;

    let key_space = (SV_SHARDS * SV_KEYS) as u64;
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .map(|t| {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(1 + t as usize);
                    let zipf = Zipf::new(key_space as usize, 0.9);
                    let mix = OpMix::read_heavy();
                    let mut rng = SplitMix64::new(0xC0FFEE ^ ((t + 1) * 0x9E37));
                    // Per-attempt nonce, disjoint per client (bit 52 + t).
                    let mut nonce = 0u64;
                    let tag = 1u64 << (52 + t);
                    for _ in 0..SV_OPS {
                        let class = mix.pick(rng.next_u64());
                        let key = spread(zipf.sample(rng.next_u64()) as u64, key_space) as usize;
                        let (shard, slot) = (key / SV_KEYS, key % SV_KEYS);
                        h.atomic(|tx| {
                            nonce += 1;
                            let phase = tx.read(sv_flag(shard))? & SV_PHASE_MASK;
                            let readable = phase != SV_PRIVATE;
                            let open = phase == SV_OPEN;
                            match class {
                                OpClass::Get => {
                                    if readable {
                                        tx.read(sv_data(shard, slot))?;
                                    }
                                }
                                OpClass::Put => {
                                    if open {
                                        tx.write(sv_data(shard, slot), tag | nonce)?;
                                    }
                                }
                                OpClass::Rmw => {
                                    if open {
                                        tx.read(sv_data(shard, slot))?;
                                        tx.write(sv_data(shard, slot), tag | nonce)?;
                                    }
                                }
                                OpClass::Scan => {
                                    // Client-side scan is transactional (only
                                    // the owner privatizes): one consistent
                                    // guarded snapshot of the whole shard.
                                    if readable {
                                        for k in 0..SV_KEYS {
                                            tx.read(sv_data(shard, k))?;
                                        }
                                    }
                                }
                                OpClass::Publish => unreachable!("never issued directly"),
                            }
                            Ok(())
                        });
                    }
                })
            })
            .collect();

        let mut h = stm.handle(0);
        let mut lost = 0u64;
        let mut flag_nonce = 0u64;
        // One transaction sets the flags of `shards` to `phase`, each write
        // with a nonce of its own.
        let mut set_flags = |h: &mut F::Handle, shards: std::ops::Range<usize>, phase: u64| {
            h.atomic(|tx| {
                for s in shards.clone() {
                    flag_nonce += 1;
                    tx.write(sv_flag(s), (1 << 44) | (flag_nonce << 2) | phase)?;
                }
                Ok(())
            });
        };
        let mut first = [0u64; SV_KEYS];
        for cycle in 0..SV_CYCLES {
            // Read-only privatization of the whole store, the shape of
            // `ShardedKv::snapshot_all`: client gets keep committing on the
            // data the owner reads uninstrumented, and both passes are whole
            // passes, the second started after the first ends.
            set_flags(&mut h, 0..SV_SHARDS, SV_READ_FROZEN);
            h.fence();
            for shard in 0..SV_SHARDS {
                for (k, v) in first.iter_mut().enumerate() {
                    *v = h.read_direct(sv_data(shard, k));
                }
                std::thread::yield_now();
                for (k, v) in first.iter().enumerate() {
                    if h.read_direct(sv_data(shard, k)) != *v {
                        lost += 1;
                    }
                }
            }
            set_flags(&mut h, 0..SV_SHARDS, SV_OPEN);
            for shard in 0..SV_SHARDS {
                set_flags(&mut h, shard..shard + 1, SV_PRIVATE);
                h.fence();
                for k in 0..SV_KEYS {
                    let reg = sv_data(shard, k);
                    // The privatized snapshot must be stable: two
                    // uninstrumented reads that disagree mean a zombie
                    // writer crossed the fence.
                    if h.read_direct(reg) != h.read_direct(reg) {
                        lost += 1;
                    }
                    let id = 1 + (cycle * key_space) + (shard * SV_KEYS + k) as u64;
                    let stamp = (1 << 62) | id;
                    h.write_direct(reg, stamp);
                    if h.read_direct(reg) != stamp {
                        lost += 1;
                    }
                }
                set_flags(&mut h, shard..shard + 1, SV_OPEN);
            }
        }
        for c in clients {
            c.join().unwrap();
        }
        // Settle: privatize each shard once more and leave its keys at
        // known constants — the clients are gone, so the finals are exact.
        for shard in 0..SV_SHARDS {
            set_flags(&mut h, shard..shard + 1, SV_PRIVATE);
            h.fence();
            for k in 0..SV_KEYS {
                let reg = sv_data(shard, k);
                let settle = SV_SETTLE_BASE + (shard * SV_KEYS + k) as u64;
                h.write_direct(reg, settle);
                if h.read_direct(reg) != settle {
                    lost += 1;
                }
            }
        }
        lost
    })
}

const PU_FLAG: usize = 0;
const PU_DATA: usize = 1;
/// Publication rounds; round 1 is fence-free (fresh data), later rounds
/// re-privatize first.
const PU_ROUNDS: u64 = 4;
/// Low flag bits: phase (1 = privatized, 2 = published, 3 =
/// read-privatized: readers keep reading, nobody writes); next ten bits:
/// the round; everything above: a per-write nonce.
const PU_PHASE_MASK: u64 = 3;
const PU_PRIVATE: u64 = 1;
const PU_PUBLISHED: u64 = 2;
const PU_READ_FROZEN: u64 = 3;
const PU_ROUND_SHIFT: u64 = 2;
const PU_SEM_MASK: u64 = (1 << 12) - 1;

/// Round `r`'s payload (bit 62 keeps the space disjoint from flags).
fn pu_pay(r: u64) -> u64 {
    (1 << 62) | r
}

/// Expected deterministic final registers: flag published at the last
/// round (nonce stripped), payload intact.
pub fn pub_under_load_expected_finals() -> Vec<u64> {
    vec![
        (PU_ROUNDS << PU_ROUND_SHIFT) | PU_PUBLISHED,
        pu_pay(PU_ROUNDS),
    ]
}

/// Publication races under sustained reader traffic: the writer
/// alternates the payload between published and re-privatized states —
/// round 1 is the paper's Fig 2 publication exactly (non-transactional
/// fresh write, then the publishing flag transaction, no fence); every
/// later round privatizes (flag → fence), verifies the old payload with
/// an uninstrumented read, rewrites it directly, and republishes. After
/// each publish the writer read-privatizes the payload (flag → fence →
/// two uninstrumented reads that must agree with each other and with the
/// round's payload → thaw back to published), the shape of
/// `ShardedKv::snapshot_all`. Two readers poll with guarded transactional
/// snapshots the whole time, reading through a read-freeze as through a
/// publish: a snapshot that pairs a readable flag for round `r` with
/// anything but round `r`'s payload is torn and counts as lost.
fn pub_under_load<F: StmFactory>(stm: &F) -> u64 {
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2usize)
            .map(|t| {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(1 + t);
                    let mut lost = 0u64;
                    let mut seen = 0u64;
                    while seen < PU_ROUNDS {
                        let snap = h.atomic(|tx| {
                            let f = tx.read(PU_FLAG)?;
                            if matches!(f & PU_PHASE_MASK, PU_PUBLISHED | PU_READ_FROZEN) {
                                Ok(Some((
                                    (f & PU_SEM_MASK) >> PU_ROUND_SHIFT,
                                    tx.read(PU_DATA)?,
                                )))
                            } else {
                                Ok(None)
                            }
                        });
                        if let Some((r, d)) = snap {
                            if d != pu_pay(r) {
                                lost += 1; // torn publication
                            }
                            seen = seen.max(r);
                        }
                        std::thread::yield_now();
                    }
                    lost
                })
            })
            .collect();

        let mut h = stm.handle(0);
        let mut lost = 0u64;
        let mut nonce = 0u64;
        let mut set_flag = |h: &mut F::Handle, phase: u64, round: u64| {
            h.atomic(|tx| {
                nonce += 1;
                tx.write(PU_FLAG, (nonce << 12) | (round << PU_ROUND_SHIFT) | phase)
            });
        };
        for r in 1..=PU_ROUNDS {
            if r == 1 {
                // Fig 2: fresh payload, never yet accessible — publication
                // is safe by `xpo;txwr`, no fence.
                h.write_direct(PU_DATA, pu_pay(1));
            } else {
                set_flag(&mut h, PU_PRIVATE, r);
                h.fence();
                if h.read_direct(PU_DATA) != pu_pay(r - 1) {
                    lost += 1; // the privatized payload went stale
                }
                h.write_direct(PU_DATA, pu_pay(r));
                if h.read_direct(PU_DATA) != pu_pay(r) {
                    lost += 1;
                }
            }
            set_flag(&mut h, PU_PUBLISHED, r);
            // Read privatization: readers go on reading, the writer reads
            // uninstrumented behind the fence; the thaw republishes.
            set_flag(&mut h, PU_READ_FROZEN, r);
            h.fence();
            let first = h.read_direct(PU_DATA);
            let second = h.read_direct(PU_DATA);
            if first != second || first != pu_pay(r) {
                lost += 1;
            }
            set_flag(&mut h, PU_PUBLISHED, r);
        }
        readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>() + lost
    })
}

/// Expected deterministic final registers for a scenario.
pub fn expected_finals(scenario: Scenario) -> Vec<u64> {
    match scenario {
        Scenario::Bank => bank_expected_finals(),
        Scenario::Privatization => privatization_expected_finals(),
        Scenario::Publication => publication_expected_finals(),
        Scenario::EpochBatch => epoch_batch_expected_finals(),
        Scenario::ReaderHeavy => reader_heavy_expected_finals(),
        Scenario::LongTx => long_tx_expected_finals(),
        Scenario::MapRehash => map_rehash_expected_finals(),
        Scenario::ReaderWriterHandoff => reader_writer_handoff_expected_finals(),
        Scenario::TVarQueue => tvar_queue_expected_finals(),
        Scenario::Service => service_expected_finals(),
        Scenario::PubUnderLoad => pub_under_load_expected_finals(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_have_deterministic_finals_on_tl2() {
        for sc in Scenario::ALL {
            let run = run_scenario(sc, Backend::Tl2PerRegister, false);
            assert_eq!(run.lost_updates, 0, "{}", sc.label());
            assert_eq!(run.final_regs, expected_finals(sc), "{}", sc.label());
        }
    }

    #[test]
    fn recorded_epoch_batch_history_is_drf_and_opaque() {
        let run = run_scenario(Scenario::EpochBatch, Backend::Tl2PerRegister, true);
        assert_eq!(run.lost_updates, 0);
        assert_eq!(run.final_regs, epoch_batch_expected_finals());
        let v = check(run.history.as_ref().unwrap());
        assert!(
            v.well_formed,
            "batched async fences must record well-formed"
        );
        assert!(v.drf);
        assert_eq!(v.opaque, Some(true));
    }

    /// The long-transaction scenario must hold under BOTH driver modes: a
    /// background driver is exactly the component that could wrongly
    /// retire the straddled period early.
    #[test]
    fn recorded_long_tx_history_holds_under_both_driver_modes() {
        for mode in DriverMode::ALL {
            let run = run_scenario_mode(Scenario::LongTx, Backend::Tl2PerRegister, true, mode);
            assert_eq!(run.lost_updates, 0, "{}", mode.label());
            assert_eq!(
                run.final_regs,
                long_tx_expected_finals(),
                "{}",
                mode.label()
            );
            let v = check(run.history.as_ref().unwrap());
            assert!(
                v.well_formed,
                "{}: straddling txn must not make the history ill-formed",
                mode.label()
            );
            assert!(v.drf, "{}", mode.label());
            assert_eq!(v.opaque, Some(true), "{}", mode.label());
        }
    }

    #[test]
    fn recorded_bank_history_is_drf_and_opaque() {
        let run = run_scenario(Scenario::Bank, Backend::Tl2Striped { stripes: 4 }, true);
        let v = check(run.history.as_ref().unwrap());
        assert!(v.well_formed);
        assert!(v.drf);
        assert_eq!(v.opaque, Some(true));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = Backend::ALL.iter().map(|b| b.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(Backend::Norec.label() == "norec");
        assert!(!Backend::Norec.fences_are_real());
        assert!(
            !Backend::Glock.fences_are_real(),
            "glock fence is immediate"
        );
        assert!(Backend::Tl2PerRegister.fences_are_real());
    }
}
