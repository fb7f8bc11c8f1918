//! Stall detection: the grace engine notices an epoch slot pinned past a
//! wall-clock threshold, surfaces it as telemetry and through bounded
//! fence waits, and the runtime survives the stall ending.

use std::time::{Duration, Instant};
use tm_stm::prelude::*;
use tm_stm::runtime::DriverMode;

/// A pinned epoch slot makes a bounded fence wait time out with the
/// offender *named*; unpinning lets the same ticket resolve.
#[test]
fn stalled_slot_is_detected_named_and_survivable() {
    let stm = Tl2Stm::with_config(
        StmConfig::new(4, 4)
            .grace_driver(DriverMode::Cooperative)
            .trace(TraceConfig::with_capacity(64))
            .chaos_off(),
    );
    let rt = stm.runtime();
    rt.grace().set_stall_threshold(Duration::from_millis(5));
    // Park slot 3 "inside a transaction": a manual epoch entry is exactly
    // what a thread parked (or dead) mid-transaction looks like.
    rt.epochs().enter(3);
    let mut h = stm.handle(0);
    h.atomic(|tx| tx.write(0, 1));
    let mut ticket = h.fence_async();
    let err = h
        .fence_join_timeout(&mut ticket, Duration::from_millis(40))
        .expect_err("the fence cannot complete over a pinned slot");
    assert!(
        err.stalled.iter().any(|s| s.slot == 3),
        "the report names the pinned slot: {err}"
    );
    assert!(
        err.stalled
            .iter()
            .all(|s| s.pinned >= Duration::from_millis(5)),
        "pinned time is at least the threshold"
    );
    assert!(err.to_string().contains("stalled slots"));
    assert!(
        h.stats().stalls_detected >= 1,
        "the timed-out join counts the offenders it saw"
    );
    assert!(rt.grace().stall_reports() >= 1, "engine-side dedup counter");
    // The stall is traced (once per slot per scan, on the engine slot).
    let snap = stm.telemetry_snapshot();
    assert!(
        snap.events.iter().any(|e| matches!(
            e.kind,
            EventKind::StallReport { stalled_slot, .. } if stalled_slot == 3
        )),
        "a StallReport event reaches the flight recorder"
    );
    // A timeout bounds the wait, not the fence: the ticket is still
    // pending, and once the stall ends it resolves normally.
    assert!(!ticket.is_resolved());
    rt.epochs().exit(3);
    h.fence_join(ticket);
}

/// The success path: with nothing pinned, `fence_join_timeout` completes
/// well inside a generous bound and resolves the ticket.
#[test]
fn fence_join_timeout_ok_path_resolves() {
    let stm = Tl2Stm::with_config(
        StmConfig::new(4, 2)
            .grace_driver(DriverMode::Cooperative)
            .chaos_off(),
    );
    let mut h = stm.handle(0);
    h.atomic(|tx| tx.write(0, 1));
    let mut ticket = h.fence_async();
    h.fence_join_timeout(&mut ticket, Duration::from_secs(5))
        .expect("no contention: the fence completes");
    assert!(ticket.is_resolved());
}

/// Immediate-fence backends (NOrec) resolve at issue; the bounded join is
/// trivially `Ok` and charges nothing.
#[test]
fn immediate_fences_never_time_out() {
    let stm = NorecStm::with_config(StmConfig::new(4, 1).chaos_off());
    let mut h = stm.handle(0);
    h.atomic(|tx| tx.write(0, 1));
    let mut ticket = h.fence_async();
    assert!(ticket.is_resolved());
    h.fence_join_timeout(&mut ticket, Duration::from_millis(1))
        .expect("an already-resolved ticket cannot time out");
}

/// Driver-side detection: under [`DriverMode::Background`] the stall is
/// reported by the driver thread itself — no waiter anywhere — so a
/// fire-and-forget fence behind a wedged slot still becomes visible.
#[test]
fn background_driver_reports_stalls_with_zero_pollers() {
    let stm = Tl2Stm::with_config(
        StmConfig::new(4, 2)
            .grace_driver(DriverMode::Background)
            .chaos_off(),
    );
    let rt = stm.runtime();
    rt.grace().set_stall_threshold(Duration::from_millis(5));
    rt.epochs().enter(1);
    let mut h = stm.handle(0);
    h.atomic(|tx| tx.write(0, 1));
    // Fire and forget: nobody waits, nobody polls; only the driver runs.
    h.fence_async().on_complete(|| {});
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.grace().stall_reports() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        rt.grace().stall_reports() > 0,
        "the background driver's tick must notice the pinned slot"
    );
    // End the stall so runtime drop can drain the outstanding period.
    rt.epochs().exit(1);
}

/// Stall detection survives a waiter that holds the scan lock: handle A is
/// parked inside a transaction, handle B is blocked in `fence_join` (its
/// wait holds the scan until the period completes), and handle C's bounded
/// join on the same period still comes back naming A's slot — in both
/// driver modes, since neither a driver tick nor C can take the lock B
/// holds.
#[test]
fn a_bounded_join_names_the_stall_while_a_blocked_joiner_holds_the_scan() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    for mode in DriverMode::ALL {
        let stm = Tl2Stm::with_config(
            StmConfig::new(4, 3)
                .grace_driver(mode)
                .trace(TraceConfig::with_capacity(64))
                .chaos_off(),
        );
        let rt = stm.runtime();
        rt.grace().set_stall_threshold(Duration::from_millis(5));
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let b_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let a = {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut ha = stm.handle(0);
                    let mut park = Some((parked_tx, release_rx));
                    ha.atomic(|tx| {
                        if let Some((parked, release)) = park.take() {
                            parked.send(()).unwrap();
                            release.recv().unwrap();
                        }
                        tx.write(0, 1)
                    });
                    ha.slot()
                })
            };
            parked_rx.recv().unwrap();
            let mut hb = stm.handle(1);
            let mut hc = stm.handle(2);
            // Issued back to back: both land in the open period (under the
            // background driver a close may fall between them; C then waits
            // behind B's period, which changes nothing checked here).
            let tb = hb.fence_async();
            let mut tc = hc.fence_async();
            let b = {
                let b_done = &b_done;
                s.spawn(move || {
                    hb.fence_join(tb);
                    b_done.store(true, Ordering::SeqCst);
                })
            };
            std::thread::sleep(Duration::from_millis(20));
            let joined = hc.fence_join_timeout(&mut tc, Duration::from_millis(200));
            let b_blocked = !b_done.load(Ordering::SeqCst);
            // Unpark A before judging, so a failed assertion cannot leave
            // the scope waiting on a transaction that never ends.
            release_tx.send(()).unwrap();
            assert_eq!(a.join().unwrap(), 0);
            b.join().unwrap();
            let err = joined.expect_err("A pins the period");
            assert!(b_blocked, "{mode:?}: B was still blocked in fence_join");
            assert!(
                err.stalled.iter().any(|st| st.slot == 0),
                "{mode:?}: the timeout names A's slot: {err}"
            );
            assert!(hc.stats().stalls_detected >= 1);
            assert!(rt.grace().stall_reports() >= 1, "{mode:?}: reported");
            hc.fence_join(tc);
        });
    }
}
