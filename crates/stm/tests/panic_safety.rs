//! Hardening conformance: a panic unwinding out of a transaction body or
//! commit must leave the runtime fully healthy — every write-set lock
//! released, the epoch slot exited, the abort recorded — on **every**
//! backend under **both** driver modes. Plus the poisoning contract (only
//! an unwind through commit condemns the handle) and the retry-budget
//! escalation fallback.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use tm_stm::chaos::Site;
use tm_stm::prelude::*;
use tm_stm::runtime::DriverMode;
use tm_stm::storage::AdaptivePolicy;

/// After `f` panicked out of `atomic` on slot 0 of a runtime reachable via
/// `rt`, assert the invariants the hardening layer promises: the panic
/// really propagated, the epoch slot is free (a leaked slot would wedge
/// every later grace period), and a fence completes in bounded time.
fn assert_unwound_clean<H: StmHandle>(rt: &tm_stm::runtime::Runtime, h: &mut H) {
    assert!(
        !rt.epochs().is_active(0),
        "a panicking transaction must exit its epoch slot"
    );
    // The follow-up transaction must commit — nothing is wedged.
    let v = h.atomic(|tx| {
        tx.write(1, 77)?;
        tx.read(1)
    });
    assert_eq!(v, 77);
    // And a fence must complete: no stranded epoch entry, no stuck period.
    h.fence();
}

/// Drive one backend through the body-panic scenario. `locked` samples the
/// backend's held-lock diagnostic (TL2 variants) or returns 0 (NOrec and
/// glock hold no lock words outside their commit window).
fn body_panic_scenario<F, H>(make: F, locked: impl Fn(&F) -> usize, label: &str)
where
    F: StmFactory<Handle = H>,
    H: StmHandle,
{
    let mut h = make.handle(0);
    // A committed transaction first, so the panic lands on a warm handle.
    h.atomic(|tx| tx.write(0, 5));
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        h.atomic(|tx| -> Result<(), Abort> {
            tx.write(0, 999)?;
            panic!("injected body panic");
        })
    }));
    assert!(unwound.is_err(), "[{label}] the panic must propagate");
    assert_eq!(
        locked(&make),
        0,
        "[{label}] a panicking body must leave zero lock words held"
    );
    assert_eq!(
        make.peek(0),
        5,
        "[{label}] the panicked attempt's buffered write must not land"
    );
    let stats_panics = h.stats().panics_unwound;
    assert_eq!(stats_panics, 1, "[{label}] the unwind is counted");
    // A body-panicked handle is NOT poisoned: further attempts run (a
    // poisoned handle would panic on entry, not retry). `atomic` rather
    // than `try_atomic` because GV5 legitimately aborts one stale reader.
    let v = h.atomic(|tx| tx.read(0));
    assert_eq!(v, 5, "[{label}] reads the committed value");
}

/// The tentpole conformance matrix: a panicking closure on every backend ×
/// both driver modes releases everything and the runtime stays usable.
#[test]
fn body_panic_releases_everything_all_backends_both_modes() {
    for mode in DriverMode::ALL {
        // `chaos_off`: this matrix asserts exact counters (one unwind, no
        // spurious try_atomic failure), so it pins injection off even when
        // the CI chaos pass sets `TM_STM_CHAOS` for the whole suite.
        let tl2_cfgs: Vec<(&str, StmConfig)> = vec![
            ("tl2/per-register", StmConfig::new(8, 2)),
            ("tl2/striped", StmConfig::new(8, 2).striped(4)),
            (
                "tl2/adaptive",
                StmConfig::new(8, 2).adaptive_stripes(AdaptivePolicy::default()),
            ),
            ("tl2/gv4", StmConfig::new(8, 2).clock(ClockKind::Gv4)),
            ("tl2/gv5", StmConfig::new(8, 2).clock(ClockKind::Gv5)),
            ("tl2/auto", StmConfig::auto(8, 2)),
        ];
        for (label, cfg) in tl2_cfgs {
            let stm = Tl2Stm::with_config(cfg.grace_driver(mode).chaos_off());
            let rt_epoch_free = {
                body_panic_scenario(stm.clone(), |s: &Tl2Stm| s.locked_stripes(), label);
                !stm.runtime().epochs().is_active(0)
            };
            assert!(rt_epoch_free, "[{label}] epoch slot must be exited");
            let mut h = stm.handle(0);
            assert_unwound_clean(stm.runtime(), &mut h);
        }
        let norec = NorecStm::with_config(StmConfig::new(8, 2).grace_driver(mode).chaos_off());
        body_panic_scenario(norec.clone(), |_| 0, "norec");
        let mut h = norec.handle(0);
        assert_unwound_clean(norec.runtime(), &mut h);

        let glock = GlockStm::with_config(StmConfig::new(8, 2).grace_driver(mode).chaos_off());
        body_panic_scenario(glock.clone(), |_| 0, "glock");
        let mut h = glock.handle(0);
        assert_unwound_clean(glock.runtime(), &mut h);
    }
}

/// Glock is the sharpest body-panic case: `begin` takes the global spin
/// lock, so a leaked unwind would deadlock the whole runtime, not just a
/// stripe. The follow-up commit in the scenario proves the lock was
/// released; this narrows it to "released by the unwind path, promptly".
#[test]
fn glock_body_panic_releases_the_global_lock() {
    let stm = GlockStm::with_config(StmConfig::new(4, 2).chaos_off());
    let mut h = stm.handle(0);
    let r = catch_unwind(AssertUnwindSafe(|| {
        h.atomic(|tx| -> Result<(), Abort> {
            tx.write(0, 1)?;
            panic!("under the global lock");
        })
    }));
    assert!(r.is_err());
    // Another handle commits immediately — the global lock is free.
    let mut h2 = stm.handle(1);
    h2.atomic(|tx| tx.write(0, 2));
    assert_eq!(stm.peek(0), 2);
}

/// The poisoning contract: a panic injected *inside commit, after the
/// write-set locks are taken* (armed at the clock-bump site) unwinds with
/// every lock released and the epoch slot exited — but the handle is
/// condemned, because its write-back may be half applied. Run over the
/// per-register cells and a striped table: the lock words live in different
/// places, the guard that frees them (`LockGuard` in `tl2.rs`) is one.
#[test]
fn panic_through_commit_poisons_the_handle_but_not_the_runtime() {
    for storage in [
        StorageKind::PerRegister,
        StorageKind::Striped { stripes: 4 },
    ] {
        let label = storage.label();
        let stm = Tl2Stm::with_config(StmConfig::new(8, 2).storage(storage).chaos_off());
        let mut h = stm.handle(0);
        h.atomic(|tx| tx.write(0, 1));
        assert!(!h.is_poisoned());
        // The next writing commit panics at the clock bump — strictly after
        // lock acquisition, strictly before write-back.
        stm.runtime().chaos().arm_panic(Site::ClockBump, 1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            h.atomic(|tx| {
                tx.write(0, 2)?;
                tx.write(5, 2)
            })
        }));
        assert!(r.is_err(), "[{label}] the armed panic must propagate");
        assert!(
            h.is_poisoned(),
            "[{label}] an unwind through commit condemns the handle"
        );
        assert_eq!(h.stats().panics_unwound, 1);
        assert_eq!(
            stm.locked_stripes(),
            0,
            "[{label}] the commit guard must release every lock word on unwind"
        );
        assert!(!stm.runtime().epochs().is_active(0), "epoch slot exited");
        // The runtime is untouched: another handle commits and fences.
        let mut h2 = stm.handle(1);
        h2.atomic(|tx| tx.write(0, 3));
        h2.fence();
        assert_eq!(stm.peek(0), 3);
        // Using the condemned handle is a clear error, not UB.
        let reuse = catch_unwind(AssertUnwindSafe(|| h.try_atomic(|tx| tx.read(0))));
        assert!(
            reuse.is_err(),
            "[{label}] a poisoned handle refuses further attempts"
        );
    }
}

/// A panic after the linearization point — in the commit epilogue, once
/// the locks are released — unwinds a transaction that *committed*: its
/// writes are visible and `Committed` is already recorded, so the handle
/// closes it as a commit (no `Aborted` after it; the history stays
/// well-formed), exits its epoch slot and is still poisoned.
#[test]
fn panic_after_linearization_closes_a_committed_attempt() {
    let rec = std::sync::Arc::new(Recorder::new(2));
    let mut cfg = StmConfig::new(8, 2).chaos_off();
    cfg.recorder = Some(std::sync::Arc::clone(&rec));
    let stm = Tl2Stm::with_config(cfg);
    let mut h = stm.handle(0);
    stm.runtime().chaos().arm_panic(Site::CommitEpilogue, 1);
    let r = catch_unwind(AssertUnwindSafe(|| h.atomic(|tx| tx.write(0, 5))));
    assert!(r.is_err(), "the armed panic must propagate");
    assert!(h.is_poisoned());
    assert_eq!((h.stats().commits, h.stats().panics_unwound), (1, 1));
    assert_eq!(stm.peek(0), 5, "the write-back landed");
    assert_eq!(stm.locked_stripes(), 0);
    assert!(!stm.runtime().epochs().is_active(0), "epoch slot exited");
    let history = rec.snapshot_history();
    assert!(history.validate().is_ok(), "{history:?}");
    let kinds: Vec<_> = history.actions().iter().map(|a| a.kind).collect();
    assert_eq!(kinds.last(), Some(&tm_core::action::Kind::Committed));
    let mut h2 = stm.handle(1);
    h2.atomic(|tx| tx.write(0, 6));
    h2.fence();
}

/// The retry budget: a transaction that keeps losing escalates to the
/// irrevocable serial fallback after `max_attempts`, then commits. The
/// interference runs from *inside the victim's own closure* (the 1-core
/// deterministic technique) and stops once escalation is reached — an
/// escalated body must never start a nested transaction on a gated handle.
#[test]
fn retry_budget_escalates_and_commits() {
    let stm = Tl2Stm::with_config(StmConfig::new(4, 2).chaos_off());
    let mut victim = stm.handle(0);
    victim.set_retry_policy(RetryPolicy::attempts(2));
    let mut rival = stm.handle(1);
    let mut calls = 0u32;
    victim.atomic(|tx| {
        calls += 1;
        let v = tx.read(0)?;
        if calls <= 2 {
            // Invalidate the read the victim just made.
            rival.atomic(|tx2| {
                let w = tx2.read(0)?;
                tx2.write(0, w + 10)
            });
        }
        tx.write(0, v + 1)
    });
    assert_eq!(calls, 3, "two doomed attempts, one escalated");
    assert_eq!(victim.stats().escalations, 1, "counted once");
    assert_eq!(victim.stats().commits, 1);
    assert_eq!(stm.peek(0), 21, "2 interferences + 1 increment");
    assert!(
        stm.runtime().escalated().is_none(),
        "the token is released after the escalated commit"
    );
    // The runtime serves everyone again.
    rival.atomic(|tx| tx.write(1, 5));
    assert_eq!(stm.peek(1), 5);
}

/// NOrec escalates through the same machinery (the budget lives in the
/// shared retry loop, not in any one policy).
#[test]
fn norec_escalates_too() {
    let stm = NorecStm::with_config(StmConfig::new(4, 2).chaos_off());
    let mut victim = stm.handle(0);
    victim.set_retry_policy(RetryPolicy::attempts(1));
    let mut rival = stm.handle(1);
    let mut calls = 0u32;
    victim.atomic(|tx| {
        calls += 1;
        let v = tx.read(0)?;
        if calls == 1 {
            rival.atomic(|tx2| {
                let w = tx2.read(0)?;
                tx2.write(0, w + 10)
            });
        }
        tx.write(0, v + 1)
    });
    assert_eq!(victim.stats().escalations, 1);
    assert_eq!(stm.peek(0), 11);
}

/// The satellite fix: an exhausted budget escalates *without* paying one
/// final backoff pause. With `max_attempts = 1` the single abort goes
/// straight to the fallback, so `backoff_ns` stays exactly zero even with
/// spinning configured.
#[test]
fn exhausted_budget_skips_the_final_backoff_pause() {
    let stm = Tl2Stm::with_config(StmConfig::new(4, 2).chaos_off());
    let mut victim = stm.handle(0);
    victim.set_retry_policy(RetryPolicy::attempts(1));
    let mut rival = stm.handle(1);
    let mut calls = 0u32;
    victim.atomic(|tx| {
        calls += 1;
        let v = tx.read(0)?;
        if calls == 1 {
            rival.atomic(|tx2| {
                let w = tx2.read(0)?;
                tx2.write(0, w + 1)
            });
        }
        tx.write(0, v + 1)
    });
    assert_eq!(victim.stats().escalations, 1);
    assert_eq!(
        victim.stats().backoff_ns,
        0,
        "no backoff pause may run between exhaustion and escalation"
    );
}

/// A deadline-based budget escalates as well, and the escalation is traced
/// with `deadline_expired = true`.
#[test]
fn deadline_budget_escalates_with_trace() {
    let stm = Tl2Stm::with_config(
        StmConfig::new(4, 2)
            .chaos_off()
            .trace(tm_stm::telemetry::TraceConfig::with_capacity(64)),
    );
    let mut victim = stm.handle(0);
    victim.set_retry_policy(RetryPolicy::deadline(Duration::ZERO));
    let mut rival = stm.handle(1);
    let mut calls = 0u32;
    victim.atomic(|tx| {
        calls += 1;
        let v = tx.read(0)?;
        if calls == 1 {
            rival.atomic(|tx2| {
                let w = tx2.read(0)?;
                tx2.write(0, w + 1)
            });
        }
        tx.write(0, v + 1)
    });
    assert_eq!(victim.stats().escalations, 1);
    let snap = stm.telemetry_snapshot();
    let esc: Vec<_> = snap
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Escalation {
                attempts,
                deadline_expired,
            } => Some((attempts, deadline_expired)),
            _ => None,
        })
        .collect();
    assert_eq!(esc, vec![(1, true)], "traced with the expired deadline");
}

/// Escalation under real multi-thread contention: tiny budgets on every
/// thread force the token to bounce, yet every increment lands and the
/// token ends free. (Yield-based gates and drains keep this 1-core safe.)
#[test]
fn escalation_token_bounces_safely_under_contention() {
    const THREADS: usize = 3;
    const TXNS: u64 = 200;
    let stm = Tl2Stm::with_config(StmConfig::new(2, THREADS).striped(2).chaos_off());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(t);
                h.set_retry_policy(RetryPolicy::attempts(1));
                for _ in 0..TXNS {
                    h.atomic(|tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(stm.peek(0), THREADS as u64 * TXNS);
    assert!(stm.runtime().escalated().is_none());
}

/// A panicking *escalated* body must release the runtime-wide token on its
/// way out — leaking it would park every other handle forever.
#[test]
fn panic_inside_escalated_body_releases_the_token() {
    let stm = Tl2Stm::with_config(StmConfig::new(4, 2).chaos_off());
    let mut victim = stm.handle(0);
    victim.set_retry_policy(RetryPolicy::attempts(1));
    let mut rival = stm.handle(1);
    let mut calls = 0u32;
    let r = catch_unwind(AssertUnwindSafe(|| {
        victim.atomic(|tx| {
            calls += 1;
            let v = tx.read(0)?;
            if calls == 1 {
                rival.atomic(|tx2| {
                    let w = tx2.read(0)?;
                    tx2.write(0, w + 1)
                });
            } else {
                panic!("panic while escalated");
            }
            tx.write(0, v + 1)
        })
    }));
    assert!(r.is_err());
    assert!(
        stm.runtime().escalated().is_none(),
        "the token guard must release on unwind"
    );
    // Everyone else proceeds.
    rival.atomic(|tx| tx.write(1, 9));
    assert_eq!(stm.peek(1), 9);
}
