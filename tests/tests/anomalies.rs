//! E1, E2, E4, E14 — the paper's anomalies, demonstrated end to end — and
//! the read-freeze pair: a read through a read-privatization is DRF, a
//! write through one is a race.
//!
//! Racy or unfenced programs must exhibit exactly the published failures
//! under the weak TM, while the strongly atomic reference and the fenced
//! variants stay clean.

use tm_core::hb::is_drf;
use tm_core::opacity::{check_strong_opacity, CheckOptions};
use tm_lang::explorer::{explore_traces, Limits, PathStatus};
use tm_lang::prelude::*;
use tm_litmus::{check_drf_atomic, programs, run, Divergence, TmKind};

fn limits() -> Limits {
    Limits::default()
}

/// E1 — Fig 1(a): delayed commit. Unfenced: TL2 violates the postcondition;
/// the history that does so is racy (so the TM contract does not cover it).
/// Fenced: safe under every TM.
#[test]
fn delayed_commit_fig1a() {
    let unfenced = programs::fig1a(false);
    let atomic = run(
        &unfenced,
        TmKind::Atomic {
            spurious_aborts: true,
        },
        &limits(),
    );
    assert!(atomic.passed(unfenced.divergence));
    let tl2 = run(
        &unfenced,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        &limits(),
    );
    assert!(
        tl2.violations > 0,
        "delayed commit must be observable: {tl2:?}"
    );
    assert!(!check_drf_atomic(&unfenced, &limits()).drf);

    let fenced = programs::fig1a(true);
    assert!(check_drf_atomic(&fenced, &limits()).drf);
    for tm in [
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        TmKind::Glock,
        TmKind::Atomic {
            spurious_aborts: true,
        },
    ] {
        let r = run(&fenced, tm, &limits());
        assert!(r.passed(fenced.divergence), "{tm:?}: {r:?}");
    }
}

/// E2 — Fig 1(b): doomed transaction. Unfenced TL2 diverges (zombie loop);
/// fenced TL2 and strong atomicity do not.
#[test]
fn doomed_transaction_fig1b() {
    let unfenced = programs::fig1b(false);
    let tl2 = run(
        &unfenced,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        &limits(),
    );
    assert!(tl2.diverged, "zombie loop expected: {tl2:?}");
    let atomic = run(
        &unfenced,
        TmKind::Atomic {
            spurious_aborts: true,
        },
        &limits(),
    );
    assert!(!atomic.diverged);

    let fenced = programs::fig1b(true);
    let tl2f = run(
        &fenced,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        &limits(),
    );
    assert!(!tl2f.diverged && tl2f.violations == 0, "{tl2f:?}");
}

/// E4 — Fig 3: the racy program. The DRF checker flags it (fences or not),
/// TL2 exhibits a non-strongly-atomic outcome, and at least one TL2 history
/// fails strong opacity — which the TM contract permits, because the history
/// is racy.
#[test]
fn racy_fig3() {
    for with_fence in [false, true] {
        let l = programs::fig3(with_fence);
        let drf = check_drf_atomic(&l, &limits());
        assert!(!drf.drf, "{}: must be racy (fences cannot help)", l.name);
    }
    let l = programs::fig3(false);
    let atomic = run(
        &l,
        TmKind::Atomic {
            spurious_aborts: true,
        },
        &limits(),
    );
    assert!(atomic.passed(Divergence::Forbidden));
    let tl2 = run(
        &l,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        &limits(),
    );
    assert!(tl2.violations > 0, "weak atomicity must show: {tl2:?}");

    // Among TL2 traces there is a racy history that is not strongly opaque,
    // and every non-opaque history is indeed racy (TM contract, Def 4.2).
    let p = &l.program;
    let mut racy_non_opaque = 0usize;
    let mut drf_non_opaque = 0usize;
    let lim = Limits {
        max_traces: 2_000,
        ..Limits::default()
    };
    explore_traces(
        p,
        Tl2Spec::new(p.nregs, p.nthreads(), Tl2Config::default()),
        &lim,
        &mut |tr, status| {
            if status != PathStatus::Terminal {
                return;
            }
            let h = tr.history();
            let opaque = check_strong_opacity(&h, &CheckOptions::default()).is_ok();
            match (is_drf(&h), opaque) {
                (false, false) => racy_non_opaque += 1,
                (true, false) => drf_non_opaque += 1,
                _ => {}
            }
        },
    );
    assert!(
        racy_non_opaque > 0,
        "expected racy non-opaque TL2 histories"
    );
    assert_eq!(drf_non_opaque, 0, "every DRF TL2 history must be opaque");
}

/// E14 — the GCC read-only fence elision bug class. With implicit
/// quiescence after every transaction the program is safe even without
/// explicit fences; skipping quiescence after read-only transactions
/// reintroduces the delayed-commit violation.
#[test]
fn gcc_readonly_fence_elision() {
    let l = programs::gcc_bug(false);
    // Correct implicit fencing: safe.
    let safe = run(
        &l,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::AfterEvery,
        },
        &limits(),
    );
    assert!(
        safe.violations == 0,
        "implicit quiescence must protect: {safe:?}"
    );
    // Buggy elision after read-only transactions: the violation appears.
    let buggy = run(
        &l,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::SkipReadOnly,
        },
        &limits(),
    );
    assert!(buggy.violations > 0, "the GCC bug must manifest: {buggy:?}");
    // No implicit fencing at all: also unsafe.
    let none = run(
        &l,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        &limits(),
    );
    assert!(none.violations > 0, "{none:?}");
    // The paper's discipline: an explicit fence after the read-only observer
    // makes the program DRF and safe under plain TL2.
    let fenced = programs::gcc_bug(true);
    assert!(check_drf_atomic(&fenced, &limits()).drf);
    let r = run(
        &fenced,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        &limits(),
    );
    assert!(r.passed(fenced.divergence), "{r:?}");
}

/// E6 — privatize–modify–publish (Sec 2.2): fenced variant safe everywhere;
/// unfenced variant racy and violated by TL2.
#[test]
fn privatize_modify_publish() {
    let unfenced = programs::privatize_modify_publish(false);
    assert!(!check_drf_atomic(&unfenced, &limits()).drf);
    let tl2 = run(
        &unfenced,
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        &limits(),
    );
    assert!(tl2.violations > 0, "{tl2:?}");

    let fenced = programs::privatize_modify_publish(true);
    assert!(check_drf_atomic(&fenced, &limits()).drf);
    for tm in [
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        TmKind::Glock,
    ] {
        let r = run(&fenced, tm, &limits());
        assert!(r.passed(fenced.divergence), "{tm:?}: {r:?}");
    }
}

/// E5 — Fig 6: privatization by agreement outside transactions is DRF and
/// safe under every TM, with no fences at all.
#[test]
fn agreement_fig6() {
    let l = programs::fig6();
    assert!(check_drf_atomic(&l, &limits()).drf);
    for tm in [
        TmKind::Atomic {
            spurious_aborts: true,
        },
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        TmKind::Glock,
    ] {
        let r = run(&l, tm, &limits());
        assert!(r.passed(l.divergence), "{tm:?}: {r:?}");
    }
}

/// E3 — Fig 2: publication is DRF and safe everywhere (xpo;txwr edge).
#[test]
fn publication_fig2() {
    let l = programs::fig2();
    assert!(check_drf_atomic(&l, &limits()).drf);
    for tm in [
        TmKind::Atomic {
            spurious_aborts: true,
        },
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::SkipReadOnly,
        },
        TmKind::Glock,
    ] {
        let r = run(&l, tm, &limits());
        assert!(r.passed(l.divergence), "{tm:?}: {r:?}");
    }
}

/// Read-only privatization, the licence for `TxMap`'s read-freeze: a
/// transactional *read* overlapping the owner's fenced uninstrumented
/// double read is DRF and safe under every TM, while its twin — a
/// transactional *write* going through the same read-freeze — is judged
/// racy, and strong atomicity itself shows the torn double read.
#[test]
fn read_privatization_admits_reads_not_writes() {
    let reads = programs::read_privatize(false);
    assert!(check_drf_atomic(&reads, &limits()).drf);
    for tm in [
        TmKind::Atomic {
            spurious_aborts: true,
        },
        TmKind::Tl2 {
            implicit_fence: ImplicitFence::None,
        },
        TmKind::Glock,
    ] {
        let r = run(&reads, tm, &limits());
        assert!(r.passed(reads.divergence), "{tm:?}: {r:?}");
    }

    let writes = programs::read_privatize(true);
    assert!(
        !check_drf_atomic(&writes, &limits()).drf,
        "a write through a read-freeze must be racy"
    );
    let atomic = run(
        &writes,
        TmKind::Atomic {
            spurious_aborts: true,
        },
        &limits(),
    );
    assert!(
        atomic.violations > 0,
        "the racy twin tears the double read even under strong atomicity: {atomic:?}"
    );
}
