//! Cross-backend conformance: the same concrete litmus scenarios (bank
//! transfer, privatization, publication, epoch-batch, reader-heavy,
//! long-transaction, map-rehash, reader-writer-handoff —
//! `tm_litmus::concrete`) run against TL2-per-register, TL2-striped,
//! TL2-adaptive, TL2 under the GV4 and GV5 version clocks, TL2-auto (the
//! contention governor owning both the table and the clock), NOrec, and
//! Glock through the shared `StmHandle`/`StmFactory` interface, asserting
//! identical final states and identical checker verdicts on the recorded
//! histories. Two axes must be invisible to every verdict:
//!
//! * the storage/clock axis (GV4's stamp sharing, GV5's shared-line-free
//!   stamping, and the adaptive table's mid-run generation rehashes may
//!   change scheduling and abort counts, never finals, DRF, or opacity),
//!   and
//! * the grace-period **driver** axis: every scenario runs under both
//!   `DriverMode::Cooperative` (waiters drive the engine) and
//!   `DriverMode::Background` (a runtime-owned driver thread retires
//!   periods with zero pollers) and must behave — and check out —
//!   bit-identically.
//!
//! Two documented exemptions: NOrec's and Glock's fences are no-ops (both
//! are privatization-safe *without* quiescing — NOrec by value-based
//! validation, paper Sec 8; Glock because every transaction runs entirely
//! under the global lock, admitting no zombies and no delayed commits), so
//! their histories carry no fence actions and the DRF discipline is not
//! obliged to classify their privatizing runs as race-free. Their
//! *behavior* (final state, no lost updates) must still match the fencing
//! backends exactly. And `Scenario::MapRehash` runs unrecorded on every
//! backend (`Scenario::records_cleanly`): `TxMap`'s fixed key/flag
//! encodings cannot satisfy Def A.1 clause 3 (globally unique write
//! values) under retries, so only behavioral conformance is asserted
//! there. `Scenario::TVarQueue` is unrecorded for the same structural
//! reason — the typed frontend's register writes are heap addresses, not
//! normalizable values — and additionally stakes a liveness claim: both
//! sides block via `Transaction::retry`, so a lost wakeup on any backend
//! deadlocks the suite instead of merely failing an assert.
//!
//! `Scenario::Service` is the suite's largest recorded scenario: the
//! `tm-service` workload shape (zipfian mixed traffic, an owner running
//! privatize-and-scan / publish-back maintenance) re-expressed over plain
//! registers with per-attempt nonced values precisely so it *can* record
//! cleanly where the full-scale harness cannot. `Scenario::PubUnderLoad`
//! covers the remaining ROADMAP scenario-space item: repeated
//! publication/re-privatization races under sustained reader traffic, with
//! a read-privatization (read-freeze → fence → verified double read →
//! thaw) after every publish.

use tm_core::action::Kind;
use tm_core::trace::History;
use tm_litmus::concrete::{
    check, expected_finals, run_scenario, run_scenario_mode, run_scenario_seeded, Backend,
    CheckerVerdict, Scenario, ScenarioRun,
};
use tm_stm::chaos::SLEEP_DELAYS;
use tm_stm::prelude::DriverMode;

/// [`check`], printing the whole history (`tm_core::textio` form) to the
/// test's output when the verdict is not well-formed, DRF and strongly
/// opaque — so a failure can be read from the failing run itself.
fn check_or_dump(history: &History, what: &str) -> CheckerVerdict {
    let v = check(history);
    if !(v.well_formed && v.drf && v.opaque == Some(true)) {
        eprintln!(
            "{what}: verdict {v:?}; history:\n{}",
            tm_core::textio::to_text(history)
        );
    }
    v
}

fn conforming_runs(scenario: Scenario, mode: DriverMode) -> Vec<ScenarioRun> {
    Backend::ALL
        .iter()
        .map(|&b| run_scenario_mode(scenario, b, true, mode))
        .collect()
}

fn assert_conformance_mode(scenario: Scenario, mode: DriverMode) {
    let runs = conforming_runs(scenario, mode);

    // Behavioral conformance: no lost updates, bit-identical (projected)
    // final states, equal to the scenario's deterministic expectation.
    let expected = expected_finals(scenario);
    for run in &runs {
        let label = run.backend.label();
        assert_eq!(
            run.lost_updates,
            0,
            "{}/{label}/{}: lost updates",
            scenario.label(),
            mode.label()
        );
        assert_eq!(
            run.final_regs,
            expected,
            "{}/{label}/{}: final state diverges",
            scenario.label(),
            mode.label()
        );
    }
    for pair in runs.windows(2) {
        assert_eq!(
            pair[0].final_regs,
            pair[1].final_regs,
            "{}/{}: {} and {} disagree",
            scenario.label(),
            mode.label(),
            pair[0].backend.label(),
            pair[1].backend.label()
        );
    }

    // Checker conformance: every obligated backend's recorded history must
    // be well-formed, DRF, and strongly opaque — the same verdict triple.
    // (Scenarios that cannot record cleanly — MapRehash — were run
    // unrecorded; behavioral conformance above is their whole contract.)
    if !scenario.records_cleanly() {
        for run in &runs {
            assert!(run.history.is_none(), "unrecordable scenario recorded?");
        }
        return;
    }
    let mut obligated_verdicts = Vec::new();
    for run in &runs {
        let label = run.backend.label();
        let what = format!("{}/{label}/{}", scenario.label(), mode.label());
        let v = check_or_dump(run.history.as_ref().expect("recorded run"), &what);
        assert!(
            v.well_formed,
            "{}/{label}/{}: ill-formed history",
            scenario.label(),
            mode.label()
        );
        if scenario.uses_fences() && !run.backend.fences_are_real() {
            // NOrec/Glock on a privatizing scenario: behavior already
            // checked; the DRF contract does not cover fence-free
            // privatization.
            continue;
        }
        assert!(
            v.drf,
            "{}/{label}/{}: history must be DRF",
            scenario.label(),
            mode.label()
        );
        assert_eq!(
            v.opaque,
            Some(true),
            "{}/{label}/{}: DRF history must be strongly opaque",
            scenario.label(),
            mode.label()
        );
        obligated_verdicts.push((label, v));
    }
    for pair in obligated_verdicts.windows(2) {
        assert_eq!(
            pair[0].1,
            pair[1].1,
            "{}/{}: verdicts diverge between {} and {}",
            scenario.label(),
            mode.label(),
            pair[0].0,
            pair[1].0
        );
    }
}

/// Every scenario × every backend × both driver modes.
fn assert_conformance(scenario: Scenario) {
    for mode in DriverMode::ALL {
        assert_conformance_mode(scenario, mode);
    }
}

#[test]
fn bank_transfer_conforms_across_backends() {
    assert_conformance(Scenario::Bank);
}

#[test]
fn privatization_conforms_across_backends() {
    assert_conformance(Scenario::Privatization);
}

#[test]
fn publication_conforms_across_backends() {
    assert_conformance(Scenario::Publication);
}

/// The batched-fence scenario: K threads privatizing disjoint regions
/// through coalesced `fence_async` tickets must behave — and check out —
/// identically on every backend.
#[test]
fn epoch_batch_conforms_across_backends() {
    assert_conformance(Scenario::EpochBatch);
}

/// The read-dominated scenario: two auditors snapshotting a block one
/// writer keeps re-stamping. Exercises the read-path fast paths and, under
/// GV5, the trailing-reader refresh (the auditors' `rv` chases stamps that
/// never bump the shared clock).
#[test]
fn reader_heavy_conforms_across_backends() {
    assert_conformance(Scenario::ReaderHeavy);
}

/// The long-transaction scenario (ROADMAP): one transaction parks
/// mid-body while the owner fences around it. No driver — cooperative
/// pollers or the background thread — may retire the straddled grace
/// period early, on any backend.
#[test]
fn long_tx_conforms_across_backends() {
    assert_conformance(Scenario::LongTx);
}

/// The map-rehash scenario (ROADMAP): a `TxMap` workload whose staged
/// stripe-sharing conflicts force the adaptive orec table to grow
/// mid-traffic, settled by a freeze + privatized snapshot. Behavioral
/// conformance across every backend × driver mode (the scenario is
/// exempt from recording — see the module docs).
#[test]
fn map_rehash_conforms_across_backends() {
    assert_conformance(Scenario::MapRehash);
}

/// The reader-writer-handoff scenario (ROADMAP): block ownership
/// alternates writer → reader → writer each round, with privatization
/// fences in both directions.
#[test]
fn reader_writer_handoff_conforms_across_backends() {
    assert_conformance(Scenario::ReaderWriterHandoff);
}

/// The typed-frontend scenario: a bounded producer/consumer queue over a
/// `TVar<VecDeque<u64>>` with blocking `retry` on both full and empty.
/// Every backend must deliver all items exactly once, in FIFO order, with
/// an empty residual queue — and must *wake* the blocked side after every
/// conflicting commit (termination is part of the assertion).
#[test]
fn tvar_queue_conforms_across_backends() {
    assert_conformance(Scenario::TVarQueue);
}

/// The service scenario (tentpole): the end-to-end sharded KV workload
/// shape at conformance scale — two zipfian clients issuing the mixed op
/// class under flag guards while the owner cycles privatize-and-scan /
/// publish-back over both register shards and settles them under final
/// privatizations. The largest recorded scenario in the suite: checker
/// verdicts (well-formed, DRF, strongly opaque) must agree across all 8
/// backends × both driver modes, and the per-attempt nonce discipline
/// must hold under any retry schedule (the chaos CI pass reruns this
/// with forced aborts).
#[test]
fn service_conforms_across_backends() {
    assert_conformance(Scenario::Service);
}

/// Reads-from edges that run backwards in recorded `Committed` order: a
/// committed transaction that read a value another committed transaction
/// wrote, yet responded first. Recorded at the writer's linearization
/// point, before its locks are released, `Committed` always precedes the
/// read of its value, so there are none.
fn backward_reads_from(h: &History) -> usize {
    use std::collections::HashMap;
    // Per thread: the open attempt's written and read values (inside an
    // attempt every `RetVal` answers a transactional read).
    let mut open: HashMap<u32, (Vec<u64>, Vec<u64>)> = HashMap::new();
    let mut written_at = HashMap::new();
    let mut readers = Vec::new();
    for (i, a) in h.actions().iter().enumerate() {
        let t = a.thread.0;
        match a.kind {
            Kind::TxBegin => {
                open.insert(t, Default::default());
            }
            Kind::Aborted => {
                open.remove(&t);
            }
            Kind::Committed => {
                let (writes, reads) = open.remove(&t).expect("commit of an open attempt");
                for &v in &writes {
                    written_at.insert(v, i);
                }
                readers.push((i, reads, writes));
            }
            Kind::Write(_, v) => {
                if let Some(o) = open.get_mut(&t) {
                    o.0.push(v);
                }
            }
            Kind::RetVal(v) => {
                if let Some(o) = open.get_mut(&t) {
                    o.1.push(v);
                }
            }
            _ => {}
        }
    }
    readers
        .iter()
        .flat_map(|(at, reads, own)| {
            reads
                .iter()
                .filter(move |v| !own.contains(v))
                .filter(|v| written_at.get(*v).is_some_and(|w| w > at))
        })
        .count()
}

/// The recorded commit order is the write-back order: every writing
/// commit records `Committed` at its linearization point, before its
/// locks are released. Bite test: under a seed whose commit-epilogue
/// delays are sleeps, a writer often sleeps after its release
/// (`Site::CommitEpilogue`) while other transactions read its value and
/// commit. Had `Committed` been recorded after that sleep, those reads
/// would precede their writer's response in the recorded order — and
/// some histories would be judged not opaque.
#[test]
fn service_opaque_under_commit_epilogue_sleeps() {
    for i in 0..20u64 {
        let run = run_scenario_seeded(
            Scenario::Service,
            Backend::Tl2PerRegister,
            true,
            DriverMode::Cooperative,
            Some(SLEEP_DELAYS | (0xC0 + i)),
        );
        assert_eq!(run.lost_updates, 0, "run {i}");
        assert_eq!(
            run.final_regs,
            expected_finals(Scenario::Service),
            "run {i}"
        );
        let history = run.history.as_ref().unwrap();
        let v = check_or_dump(history, &format!("sleep run {i}"));
        assert!(v.well_formed && v.drf, "run {i}: {v:?}");
        assert_eq!(v.opaque, Some(true), "run {i}: not opaque");
        assert_eq!(backward_reads_from(history), 0, "run {i}");
    }
}

/// The publication-under-load scenario (ROADMAP): fresh publication, then
/// privatize → rewrite → republish cycles, with two readers continuously
/// taking guarded snapshots. A reader pairing a published flag with the
/// wrong round's payload is a torn publication and fails the suite.
#[test]
fn pub_under_load_conforms_across_backends() {
    assert_conformance(Scenario::PubUnderLoad);
}

/// The adaptive acceptance bar: on `Backend::Tl2Adaptive`, MapRehash's
/// forced false-conflict rate must publish at least one doubled
/// generation — under both driver modes — while behaving exactly like
/// every fixed backend (asserted by the matrix test above), and the
/// fixed backends must never resize.
#[test]
fn map_rehash_grows_the_adaptive_table() {
    for mode in DriverMode::ALL {
        let run = run_scenario_mode(Scenario::MapRehash, Backend::Tl2Adaptive, false, mode);
        assert_eq!(run.lost_updates, 0, "{}", mode.label());
        let resizes = run
            .stripe_resizes
            .expect("adaptive backend reports resizes");
        assert!(
            resizes >= 1,
            "{}: the forced false-conflict rate must grow the table",
            mode.label()
        );
        let fixed = run_scenario_mode(Scenario::MapRehash, Backend::Tl2PerRegister, false, mode);
        assert_eq!(fixed.stripe_resizes, None, "fixed backends never resize");
        assert_eq!(run.final_regs, fixed.final_regs, "{}", mode.label());
    }
}

/// Recorded histories of the *recordable* scenarios must stay well-formed,
/// DRF, and opaque on the adaptive backend even though generation rehashes
/// happen mid-run — the resize machinery is invisible to the checkers.
#[test]
fn adaptive_backend_verdicts_match_fixed_tl2() {
    for scenario in [Scenario::Bank, Scenario::ReaderWriterHandoff] {
        let adaptive = run_scenario(scenario, Backend::Tl2Adaptive, true);
        let fixed = run_scenario(scenario, Backend::Tl2PerRegister, true);
        assert_eq!(
            adaptive.final_regs,
            fixed.final_regs,
            "{}",
            scenario.label()
        );
        let va = check_or_dump(
            adaptive.history.as_ref().unwrap(),
            &format!("{}/tl2-adaptive", scenario.label()),
        );
        let vf = check_or_dump(
            fixed.history.as_ref().unwrap(),
            &format!("{}/tl2-per-register", scenario.label()),
        );
        assert_eq!(
            va,
            vf,
            "{}: verdicts must match fixed TL2",
            scenario.label()
        );
        assert!(va.well_formed && va.drf, "{}", scenario.label());
        assert_eq!(va.opaque, Some(true), "{}", scenario.label());
    }
}

/// The fence-mode decision for the global lock (see
/// `GlockPolicy::fence_mode`): glock is privatization-safe without
/// quiescing, so — like NOrec — it is exempt from the fence-based DRF
/// argument, and its privatizing histories must carry **no** fence
/// actions while still matching the fencing backends' behavior exactly.
#[test]
fn glock_fence_is_immediate_and_exempt_like_norec() {
    assert!(!Backend::Glock.fences_are_real());
    assert!(!Backend::Norec.fences_are_real());
    for scenario in [Scenario::Privatization, Scenario::LongTx] {
        let run = run_scenario(scenario, Backend::Glock, true);
        assert_eq!(run.lost_updates, 0, "{}", scenario.label());
        assert_eq!(
            run.final_regs,
            expected_finals(scenario),
            "{}",
            scenario.label()
        );
        let hist = run.history.as_ref().unwrap();
        assert!(
            hist.actions()
                .iter()
                .all(|a| !matches!(a.kind, Kind::FBegin | Kind::FEnd)),
            "{}: immediate fences must record no fence actions",
            scenario.label()
        );
    }
}

/// The striped backend must conform at extreme stripe counts too: a single
/// stripe (maximal false conflicts) and a large table.
#[test]
fn striped_extreme_stripe_counts_conform() {
    for (stripes, scenario) in [
        (1usize, Scenario::Bank),
        (1, Scenario::Privatization),
        (1024, Scenario::Bank),
    ] {
        {
            let run = run_scenario(scenario, Backend::Tl2Striped { stripes }, true);
            assert_eq!(
                run.lost_updates,
                0,
                "stripes={stripes} {}",
                scenario.label()
            );
            assert_eq!(
                run.final_regs,
                expected_finals(scenario),
                "stripes={stripes} {}",
                scenario.label()
            );
            let v = check_or_dump(
                run.history.as_ref().unwrap(),
                &format!("stripes={stripes} {}", scenario.label()),
            );
            assert!(
                v.well_formed && v.drf,
                "stripes={stripes} {}",
                scenario.label()
            );
            assert_eq!(
                v.opaque,
                Some(true),
                "stripes={stripes} {}",
                scenario.label()
            );
        }
    }
}
