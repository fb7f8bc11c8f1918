//! Integration tests for asynchronous, batched fences on the real STMs:
//! ticket coalescing (the acceptance criterion: N tickets issued in one
//! open grace period resolve on ONE epoch-table scan), overlap with
//! transaction traffic, recorded-history validity, and the batch helper.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tm_stm::prelude::*;

/// A TL2 instance pinned to cooperative driving: the exact-scan-count
/// assertions below are deterministic only when no background driver can
/// close a period between our issues (`TM_STM_DRIVER=background` makes
/// `Tl2Stm::new` spawn one). The driver-mode batching counterpart lives in
/// `fence_driver.rs`.
fn cooperative_stm(nregs: usize, nthreads: usize) -> Tl2Stm {
    Tl2Stm::with_config(StmConfig::new(nregs, nthreads).grace_driver(DriverMode::Cooperative))
}

/// The coalescing acceptance test: N tickets, one scan.
#[test]
fn tickets_in_same_open_period_share_one_scan() {
    let stm = cooperative_stm(4, 4);
    let mut handles: Vec<_> = (0..4).map(|t| stm.handle(t)).collect();
    assert_eq!(stm.runtime().grace().scans(), 0);
    let tickets: Vec<FenceTicket> = handles.iter_mut().map(|h| h.fence_async()).collect();
    for t in &tickets {
        assert_eq!(t.period(), Some(1), "all tickets share the open period");
    }
    for (h, t) in handles.iter_mut().zip(tickets) {
        h.fence_join(t);
    }
    assert_eq!(
        stm.runtime().grace().scans(),
        1,
        "4 concurrent fences must be batched behind a single scan"
    );
    for h in &handles {
        assert_eq!(h.stats().fences, 1);
    }
}

/// Sequential blocking fences pay one scan each — the baseline the batch
/// path beats.
#[test]
fn sequential_fences_pay_one_scan_each() {
    let stm = cooperative_stm(4, 4);
    let mut handles: Vec<_> = (0..4).map(|t| stm.handle(t)).collect();
    for h in handles.iter_mut() {
        h.fence();
    }
    assert_eq!(stm.runtime().grace().scans(), 4);
}

/// `fence_all` batches a whole handle set behind one grace period.
#[test]
fn fence_all_batches_handle_sets() {
    let stm = cooperative_stm(4, 8);
    let mut handles: Vec<_> = (0..8).map(|t| stm.handle(t)).collect();
    fence_all(handles.iter_mut());
    assert_eq!(stm.runtime().grace().scans(), 1);
    for h in &handles {
        assert_eq!(h.stats().fences, 1);
    }
}

/// A ticket must not resolve while a transaction active at issue is still
/// running, and must resolve once it commits.
#[test]
fn ticket_waits_for_inflight_transaction() {
    let stm = Tl2Stm::new(2, 2);
    let in_txn = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let stm = stm.clone();
            let in_txn = Arc::clone(&in_txn);
            let release = Arc::clone(&release);
            s.spawn(move || {
                let mut h = stm.handle(1);
                h.atomic(|tx| {
                    tx.write(0, 7)?;
                    in_txn.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Ok(())
                });
            });
        }
        while !in_txn.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut h = stm.handle(0);
        let mut ticket = h.fence_async();
        assert!(
            !ticket.poll(),
            "ticket resolved with a pre-issue transaction in flight"
        );
        release.store(true, Ordering::SeqCst);
        h.fence_join(ticket);
    });
    assert_eq!(stm.peek(0), 7, "the awaited transaction committed");
}

/// Polling alone must drive the grace period to completion (cooperative
/// advance without any blocking waiter).
#[test]
fn polling_drives_completion() {
    let stm = Tl2Stm::new(1, 2);
    stm.runtime().epochs().enter(1);
    let mut h = stm.handle(0);
    let mut ticket = h.fence_async();
    assert!(!ticket.poll(), "peer slot is active");
    stm.runtime().epochs().exit(1);
    let mut polls = 0;
    while !ticket.poll() {
        polls += 1;
        assert!(polls < 100, "polling must converge once the peer exits");
    }
    assert!(ticket.is_resolved());
}

/// `on_complete` fires exactly once, from whichever thread completes the
/// period.
#[test]
fn on_complete_callback_fires() {
    let stm = cooperative_stm(1, 2);
    let fired = Arc::new(AtomicUsize::new(0));
    let mut h0 = stm.handle(0);
    let mut h1 = stm.handle(1);
    let ticket = h0.fence_async();
    {
        let fired = Arc::clone(&fired);
        ticket.on_complete(move || {
            fired.fetch_add(1, Ordering::SeqCst);
        });
    }
    // h1's blocking fence shares the open period and drives it home.
    h1.fence();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert_eq!(stm.runtime().grace().scans(), 1, "callback rode h1's scan");
}

/// Dropping an unresolved ticket waits the fence out — with a recorder
/// attached, the FEnd is still emitted and the history stays well-formed.
#[test]
fn dropped_ticket_resolves_and_records() {
    let rec = Arc::new(Recorder::new(1));
    let stm = Tl2Stm::with_config(StmConfig::new(2, 1).recorder(Arc::clone(&rec)));
    let mut h = stm.handle(0);
    h.atomic(|tx| tx.write(0, 1));
    {
        let _ticket = h.fence_async();
        // dropped unresolved: resolves (and records FEnd) here
    }
    h.write_direct(1, 2);
    let hist = rec.snapshot_history();
    assert_eq!(hist.validate(), Ok(()));
    assert_eq!(h.stats().fences, 1);
}

/// An async fence recorded around real transaction traffic produces a
/// well-formed history: FBegin at issue, FEnd at resolution, and every
/// transaction recorded before FBegin completes before FEnd.
#[test]
fn recorded_async_fence_history_validates() {
    let rec = Arc::new(Recorder::new(2));
    let stm = Tl2Stm::with_config(StmConfig::new(4, 2).recorder(Arc::clone(&rec)));
    let mut h0 = stm.handle(0);
    let mut h1 = stm.handle(1);
    h1.atomic(|tx| tx.write(0, 1));
    let ticket = h0.fence_async();
    // Overlapped work under an open ticket must be non-transactional on
    // this handle; plain local computation stands in for it here.
    let overlap: u64 = (1..=10).sum();
    assert_eq!(overlap, 55);
    h0.fence_join(ticket);
    h0.write_direct(1, 2);
    h1.atomic(|tx| tx.write(2, 3));
    let hist = rec.snapshot_history();
    assert_eq!(hist.validate(), Ok(()));
}

/// Fences keep completing while transaction traffic never stops — the
/// liveness property the engine's precise epoch snapshots buy (regression
/// test for the yield-based wait loop on single-core hosts).
#[test]
fn fences_complete_under_continuous_traffic() {
    let stm = Tl2Stm::new(2, 2);
    let stop = Arc::new(AtomicBool::new(false));
    let mut h = stm.handle(0);
    std::thread::scope(|s| {
        {
            let stm = stm.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut w = stm.handle(1);
                while !stop.load(Ordering::SeqCst) {
                    w.atomic(|tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            });
        }
        for _ in 0..50 {
            let t = h.fence_async();
            h.fence_join(t);
        }
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(h.stats().fences, 50);
}
