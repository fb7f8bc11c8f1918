//! Integration tests for the telemetry subsystem: the flight recorder and
//! latency histograms threaded through the runtime, the governor's traced
//! decisions, the `Stats` ↔ histogram sum identity, snapshot JSON shape,
//! the periodic export hook, and the disabled-path cost contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_stm::prelude::*;
use tm_stm::runtime::DriverMode;
use tm_stm::telemetry::SAMPLE_EVERY;
use tm_stm::tl2::{Tl2Kind, GOVERNOR_WINDOW};

/// The tentpole promise of the flight recorder: a governor decision is
/// recorded *with the counters that justified it*. One write-heavy fold
/// must trace a GV1→GV5 switch request carrying the fold's read/write
/// commit split.
#[test]
fn governor_switch_event_carries_the_fold_counters() {
    let stm = Tl2Stm::with_config(
        StmConfig::new(16, 1)
            .clock(ClockKind::Auto)
            .trace(TraceConfig::with_capacity(1024)),
    );
    let mut h = stm.handle(0);
    for i in 0..GOVERNOR_WINDOW {
        h.atomic(|tx| tx.write(0, i + 1));
    }
    assert_eq!(h.stats().clock_switches, 1);
    let snap = stm.telemetry_snapshot();
    let requests: Vec<_> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ClockSwitchRequest { .. }))
        .collect();
    assert_eq!(requests.len(), 1, "one granted request, one trace event");
    assert_eq!(requests[0].slot, 0, "attributed to the deciding handle");
    match requests[0].kind {
        EventKind::ClockSwitchRequest {
            to_gv5,
            read_commits,
            write_commits,
        } => {
            assert!(to_gv5, "a write-heavy fold requests GV5");
            assert_eq!(read_commits, 0);
            assert_eq!(write_commits, GOVERNOR_WINDOW);
        }
        _ => unreachable!(),
    }
    // The decision is also reachable through the dedicated iterator.
    assert!(snap.governor_decisions().count() >= 1);
}

/// The grace-fenced handoff's *settlement* is traced too (engine slot),
/// and under the background driver the settle event appears with zero
/// transaction traffic after the request.
#[test]
fn clock_switch_settle_is_traced_in_both_driver_modes() {
    for mode in DriverMode::ALL {
        let stm = Tl2Stm::with_config(
            StmConfig::auto(16, 1)
                .grace_driver(mode)
                .trace(TraceConfig::with_capacity(1024)),
        );
        let mut h = stm.handle(0);
        for i in 0..GOVERNOR_WINDOW {
            h.atomic(|tx| tx.write(0, i + 1));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while stm.clock_handoff_pending() {
            assert!(Instant::now() < deadline, "{}: handoff stuck", mode.label());
            match mode {
                DriverMode::Background => std::thread::sleep(Duration::from_millis(1)),
                DriverMode::Cooperative => {
                    h.atomic(|tx| tx.read(1));
                }
            }
        }
        let snap = stm.telemetry_snapshot();
        let settled = snap.events.iter().any(|e| {
            matches!(e.kind, EventKind::ClockSwitchSettle { to_gv5: true })
                && e.slot == stm.runtime().telemetry().engine_slot()
        });
        assert!(settled, "{}: no settle event in {:?}", mode.label(), snap);
        assert_eq!(snap.driver_mode, Some(mode.label()));
    }
}

/// Satellite (f): `Stats::fence_wait_ns` is the fence-wait histogram's sum
/// — `fence_join` feeds the same measured wait to both sinks.
#[test]
fn fence_wait_counter_equals_histogram_sum() {
    let stm = Tl2Stm::with_config(StmConfig::new(2, 2).trace(TraceConfig::with_capacity(256)));
    let mut h = stm.handle(0);
    // One uncontended fence, then one genuinely blocked fence.
    h.fence();
    let rt = stm.runtime();
    rt.epochs().enter(1);
    let release = {
        let grace = Arc::clone(rt.grace());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            grace.epochs().exit(1);
        })
    };
    h.fence();
    release.join().unwrap();
    let s = h.stats();
    let snap = stm.telemetry_snapshot();
    assert_eq!(s.fences, 2);
    assert_eq!(snap.hists.fence_wait.count(), 2, "one sample per join");
    assert_eq!(
        snap.hists.fence_wait.sum(),
        s.fence_wait_ns,
        "the Stats counter must be exactly the histogram's sum"
    );
    assert!(
        s.fence_wait_ns > 1_000_000,
        "the blocked fence charged time"
    );
    // The ring carries the issue/retire pair for each fence, with matching
    // grace periods.
    for kind in ["fence-issue", "fence-retire"] {
        let n = snap
            .events
            .iter()
            .filter(|e| e.kind.label() == kind)
            .count();
        assert_eq!(n, 2, "expected 2 {kind} events");
    }
    // Grace scans completed by those fences feed the grace histogram.
    assert!(snap.hists.grace.count() >= 1, "{:?}", snap.hists.grace);
    assert!(snap
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::GraceScan { .. })));
}

/// How many of `snap`'s events satisfy `pred`.
fn count_events(snap: &TelemetrySnapshot, pred: impl Fn(&TraceEvent) -> bool) -> u64 {
    snap.events.iter().filter(|e| pred(e)).count() as u64
}

/// Sampled commits, every abort (with cause), and retry gaps all land in
/// the snapshot: the commit histogram holds one sample per `SAMPLE_EVERY`
/// attempts of a handle starting with its first (exact counts stay in
/// `Stats`), a body-requested abort is traced as `user` although its
/// attempt was not a sampled one, and a failed-validation retry records an
/// abort-gap sample.
#[test]
fn commit_abort_and_retry_telemetry_lands_in_the_snapshot() {
    // chaos_off: exact attempt counts, which a forced abort would shift.
    let stm = Tl2Stm::with_config(
        StmConfig::new(8, 2)
            .chaos_off()
            .trace(TraceConfig::with_capacity(1024)),
    );
    let mut h = stm.handle(0);
    for i in 0..10u64 {
        h.atomic(|tx| tx.write(0, i));
    }
    let _ = h.try_atomic(|tx| {
        tx.read(0)?;
        Err::<(), Abort>(Abort)
    });
    let snap = stm.telemetry_snapshot();
    assert_eq!(h.stats().commits, 10, "Stats counts every commit");
    assert_eq!(snap.sample_every, SAMPLE_EVERY);
    assert_eq!(
        snap.hists.commit.count(),
        1,
        "11 attempts < SAMPLE_EVERY: only the handle's first was timed"
    );
    assert!(snap.hists.commit.quantiles().p999 >= snap.hists.commit.quantiles().p50);
    let user_aborts = count_events(&snap, |e| {
        matches!(
            e.kind,
            EventKind::TxAbort {
                cause: AbortCause::User
            }
        )
    });
    assert_eq!(user_aborts, h.stats().aborts_user);
    assert_eq!(user_aborts, 1);
    // Force exactly one validation abort: handle `b` commits a conflicting
    // write between `a`'s read and `a`'s commit (first attempt only), so
    // `a` retries once and the retry loop records one abort-gap sample.
    let mut a = stm.handle(0);
    let mut b = stm.handle(1);
    let mut interfered = false;
    a.atomic(|tx| {
        let v = tx.read(1)?;
        if !interfered {
            interfered = true;
            b.atomic(|t| t.write(1, v + 100));
        }
        tx.write(2, v + 1)
    });
    assert_eq!(a.stats().retries, 1, "the interference forces one retry");
    let snap = stm.telemetry_snapshot();
    assert_eq!(
        snap.hists.abort_gap.count(),
        1,
        "one abort-gap sample per retry-loop pass"
    );
    assert_eq!(
        snap.hists.commit.count(),
        2,
        "`a`'s first attempt was sampled but aborted; `b`'s committed"
    );
    assert!(snap.events.iter().any(|e| {
        e.slot == 0
            && matches!(
                e.kind,
                EventKind::TxAbort {
                    cause: AbortCause::Validate
                }
            )
    }));
}

/// Sampling is exact and deterministic: a handle times its attempts
/// number 0, `SAMPLE_EVERY`, `2 * SAMPLE_EVERY`, ... and nothing else, so
/// after `k * SAMPLE_EVERY` commits the commit histogram holds exactly `k`
/// samples and the ring exactly `k` `TxBegin`/`TxCommit` pairs — while
/// every abort, sampled attempt or not, is still traced one-for-one with
/// the `Stats` abort counters.
#[test]
fn sampling_is_exact_and_deterministic() {
    const K: u64 = 3;
    // chaos_off: exact attempt counts, which a forced abort would shift.
    let stm = Tl2Stm::with_config(
        StmConfig::new(4, 1)
            .chaos_off()
            .trace(TraceConfig::with_capacity(1024)),
    );
    let mut h = stm.handle(0);
    for i in 0..K * u64::from(SAMPLE_EVERY) {
        h.atomic(|tx| tx.write(0, i));
    }
    let snap = stm.telemetry_snapshot();
    assert_eq!(snap.sample_every, SAMPLE_EVERY);
    assert_eq!(h.stats().commits, K * u64::from(SAMPLE_EVERY));
    assert_eq!(snap.hists.commit.count(), K);
    let begins = |s: &TelemetrySnapshot| count_events(s, |e| e.kind == EventKind::TxBegin);
    let commits =
        |s: &TelemetrySnapshot| count_events(s, |e| matches!(e.kind, EventKind::TxCommit { .. }));
    assert_eq!((begins(&snap), commits(&snap)), (K, K));
    assert_eq!(snap.events.len() as u64, 2 * K, "and nothing else");
    assert_eq!(snap.dropped, 0);
    // Seven user aborts: the first is attempt number `K * SAMPLE_EVERY`, a
    // sampled one (TxBegin, no TxCommit); the other six are not.
    for _ in 0..7 {
        let _ = h.try_atomic(|tx| {
            tx.read(0)?;
            Err::<(), Abort>(Abort)
        });
    }
    let snap = stm.telemetry_snapshot();
    assert_eq!(h.stats().aborts_user, 7);
    let aborts = count_events(&snap, |e| {
        matches!(
            e.kind,
            EventKind::TxAbort {
                cause: AbortCause::User
            }
        )
    });
    assert_eq!(aborts, 7, "aborts are never sampled away");
    assert_eq!((begins(&snap), commits(&snap)), (K + 1, K));
    assert_eq!(snap.hists.commit.count(), K);
}

/// `Stats::backoff_ns` is the abort-gap histogram's sum — `backoff_pause`
/// feeds one measurement to both sinks — for the shared `atomic` loop and
/// for the typed `atomically` loop alike (twin of
/// `fence_wait_counter_equals_histogram_sum`).
#[test]
fn backoff_counter_equals_abort_gap_histogram_sum() {
    // chaos_off: exact retry counts, which a forced abort would shift.
    let typed = TypedStm::<Tl2Kind>::with_config(
        StmConfig::new(4, 2)
            .chaos_off()
            .trace(TraceConfig::with_capacity(64)),
    );
    let var = typed.new_tvar(0u64);
    let mut h = typed.handle(0);
    // Three conflicts, then success: three backoff pauses in `atomically`.
    let mut conflicts = 3;
    h.atomically(|tx| {
        let v = tx.read(&var)?;
        if conflicts > 0 {
            conflicts -= 1;
            return Err(StmError::Conflict);
        }
        tx.write(&var, v + 1)
    });
    let typed_stats = h.inner().stats();
    assert_eq!(typed_stats.retries, 3);
    let snap = typed.stm().telemetry_snapshot();
    assert_eq!(snap.hists.abort_gap.count(), 3, "one sample per pause");
    assert_eq!(snap.hists.abort_gap.sum(), typed_stats.backoff_ns);
    assert!(typed_stats.backoff_ns > 0);
    // Two more through the untyped `atomic` loop, on the other slot.
    let mut raw = typed.stm().handle(1);
    let mut aborts = 2;
    raw.atomic(|tx| {
        tx.read(0)?;
        if aborts > 0 {
            aborts -= 1;
            return Err(Abort);
        }
        Ok(())
    });
    let snap = typed.stm().telemetry_snapshot();
    assert_eq!(snap.hists.abort_gap.count(), 5);
    assert_eq!(
        snap.hists.abort_gap.sum(),
        typed_stats.backoff_ns + raw.stats().backoff_ns,
        "the Stats counters must be exactly the histogram's sum"
    );
}

/// Satellite (c): structural validation of the snapshot JSON under both
/// driver modes — balanced objects/arrays/strings/numbers, the
/// `bench_telemetry/v2` schema stamp, the sampling rate, and the driver
/// block.
#[test]
fn snapshot_json_is_structurally_valid_in_both_driver_modes() {
    for mode in DriverMode::ALL {
        let stm = Tl2Stm::with_config(
            StmConfig::auto(32, 2)
                .grace_driver(mode)
                .trace(TraceConfig::with_capacity(64)),
        );
        let mut h = stm.handle(0);
        for i in 0..GOVERNOR_WINDOW {
            h.atomic(|tx| tx.write((i % 8) as usize, i + 1));
        }
        h.fence();
        let snap = stm.telemetry_snapshot();
        let json = snap.to_json();
        assert_valid_json(&json);
        assert!(
            json.contains("\"schema\": \"bench_telemetry/v2\""),
            "schema stamp missing:\n{json}"
        );
        assert!(
            json.contains(&format!("\"sample_every\": {SAMPLE_EVERY}")),
            "sampling rate missing:\n{json}"
        );
        assert!(
            json.contains(&format!("\"mode\": \"{}\"", mode.label())),
            "driver mode missing:\n{json}"
        );
        match mode {
            DriverMode::Background => {
                assert!(json.contains("\"idle_wakeups\""), "{json}");
                assert!(snap.driver_idle_wakeups.is_some());
            }
            DriverMode::Cooperative => {
                assert!(!json.contains("\"idle_wakeups\""), "{json}");
                assert_eq!(snap.driver_idle_wakeups, None);
            }
        }
        // Every histogram class renders a row.
        for label in ["commit", "abort-gap", "fence-wait", "grace"] {
            assert!(json.contains(&format!("\"class\": \"{label}\"")), "{json}");
        }
    }
}

/// Satellite (a) + tentpole export hook: `driver_idle_wakeups` surfaces
/// through the runtime, and `set_telemetry_export` clocks snapshots off
/// the background driver's tick (and refuses cooperatively, where no
/// thread exists to clock it).
#[test]
fn export_hook_fires_on_the_driver_tick() {
    let coop = Tl2Stm::with_config(StmConfig::new(4, 1).grace_driver(DriverMode::Cooperative));
    assert_eq!(coop.driver_idle_wakeups(), None);
    assert!(
        !coop.set_telemetry_export(Duration::ZERO, |_| {}),
        "cooperative runtimes have no tick to export on"
    );

    let stm = Tl2Stm::with_config(
        StmConfig::new(4, 1)
            .grace_driver(DriverMode::Background)
            .trace(TraceConfig::with_capacity(64)),
    );
    let mut h = stm.handle(0);
    h.atomic(|tx| tx.write(0, 7));
    let exports = Arc::new(AtomicU64::new(0));
    let seen_commits = Arc::new(AtomicU64::new(0));
    {
        let exports = Arc::clone(&exports);
        let seen = Arc::clone(&seen_commits);
        assert!(stm.set_telemetry_export(Duration::ZERO, move |snap| {
            exports.fetch_add(1, Ordering::SeqCst);
            seen.fetch_max(snap.hists.commit.count(), Ordering::SeqCst);
        }));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while exports.load(Ordering::SeqCst) == 0 {
        assert!(
            Instant::now() < deadline,
            "the export hook must fire on the driver tick"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        seen_commits.load(Ordering::SeqCst),
        1,
        "exported snapshots carry the merged histograms"
    );
    // The driver's duty cycle is visible through the same runtime.
    assert!(stm.driver_idle_wakeups().is_some());
}

/// Satellite (b): the `TM_STM_TRACE`-shaped capacity knob bounds each
/// slot's ring — overflow overwrites the oldest events and is accounted in
/// `dropped`, never grows memory.
#[test]
fn ring_capacity_bounds_the_flight_recorder() {
    // chaos_off: exact event counts, which a forced abort would shift.
    let stm = Tl2Stm::with_config(
        StmConfig::new(4, 1)
            .chaos_off()
            .trace(TraceConfig::with_capacity(4)),
    );
    let mut h = stm.handle(0);
    let sampled = 16u64;
    for i in 0..sampled * u64::from(SAMPLE_EVERY) {
        h.atomic(|tx| tx.write(0, i));
    }
    let snap = stm.telemetry_snapshot();
    assert!(snap.enabled);
    assert_eq!(snap.capacity, 4);
    // 16 sampled commits × (TxBegin + TxCommit) = 32 events pushed at slot
    // 0; only the newest `capacity` survive.
    let slot0 = snap.events.iter().filter(|e| e.slot == 0).count();
    assert_eq!(slot0, 4);
    assert_eq!(snap.dropped, 2 * sampled - 4);
    assert_eq!(snap.hists.commit.count(), sampled, "histograms never drop");
    // The survivors are the *newest* events (ring overwrites oldest): the
    // last sampled commit of the loop must still be there.
    assert!(matches!(
        snap.events.last().map(|e| e.kind),
        Some(EventKind::TxCommit { .. })
    ));
}

/// Snapshots never block a transaction and never tear: two handles commit
/// and fence in a loop while a third thread spins on
/// `telemetry_snapshot()`. The run completes; every event a snapshot
/// returns is one a handle recorded (valid kind and payload), each slot's
/// events are in recording order, and `dropped` never decreases.
#[test]
fn concurrent_snapshots_never_block_and_never_tear() {
    const ROUNDS: u64 = 4_000;
    let stm = Tl2Stm::with_config(StmConfig::new(8, 2).trace(TraceConfig::with_capacity(16)));
    let done = AtomicU64::new(0);
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for slot in 0..2 {
            let mut h = stm.handle(slot);
            let (done, start) = (&done, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    h.atomic(|tx| tx.write(slot, i));
                    if i % 8 == 0 {
                        h.fence();
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        start.wait();
        let mut last_dropped = 0;
        let mut snapshots = 0u64;
        while done.load(Ordering::SeqCst) < 2 {
            let snap = stm.telemetry_snapshot();
            snapshots += 1;
            assert!(snap.dropped >= last_dropped, "dropped went backwards");
            last_dropped = snap.dropped;
            let mut last_period = [0u64; 2];
            for e in &snap.events {
                match e.kind {
                    EventKind::TxBegin | EventKind::TxAbort { .. } => {}
                    EventKind::TxCommit { latency_ns } => {
                        assert!(latency_ns < 60_000_000_000, "torn latency: {e:?}")
                    }
                    EventKind::FenceIssue { period } | EventKind::FenceRetire { period } => {
                        // Periods only grow, and a slot issues and retires
                        // them in order: a torn or stale entry would not.
                        let slot = usize::from(e.slot);
                        assert!(period >= last_period[slot], "out of order: {e:?}");
                        assert!(period <= 2 * ROUNDS, "torn period: {e:?}");
                        last_period[slot] = period;
                    }
                    EventKind::GraceScan { period, .. } => {
                        assert!(period <= 2 * ROUNDS, "torn period: {e:?}")
                    }
                    other => panic!("an event nobody recorded: {other:?}"),
                }
            }
            assert!(
                snap.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
                "events are timestamp-sorted"
            );
        }
        assert!(snapshots > 0);
    });
    let snap = stm.telemetry_snapshot();
    let fences = 2 * ROUNDS.div_ceil(8);
    assert_eq!(snap.hists.fence_wait.count(), fences, "quiescent: exact");
}

/// With two threads driving grace periods, every completed scan is in the
/// histogram and the ring (each on the cell of the thread that completed
/// it).
#[test]
fn grace_scans_from_two_threads_are_all_recorded() {
    let stm = Tl2Stm::with_config(StmConfig::new(2, 2).trace(TraceConfig::with_capacity(4096)));
    std::thread::scope(|s| {
        for slot in 0..2 {
            let mut h = stm.handle(slot);
            s.spawn(move || {
                for i in 0..500 {
                    h.atomic(|tx| tx.write(slot, i));
                    h.fence();
                }
            });
        }
    });
    let scans = stm.runtime().grace().scans();
    assert!(
        scans >= 500,
        "fences may share scans, not skip them: {scans}"
    );
    let snap = stm.telemetry_snapshot();
    assert_eq!(snap.hists.grace.count(), scans);
    assert_eq!(
        count_events(&snap, |e| matches!(e.kind, EventKind::GraceScan { .. })),
        scans
    );
    assert_eq!(snap.dropped, 0);
}

/// Fence-driven grace scans are traced on the joiner's own slot: with
/// fences joined on two handles, every scan is in the merged grace
/// histogram exactly once, every `GraceScan` event carries the slot of a
/// joining handle (none lands on the engine slot — nothing else completes
/// a scan under the cooperative driver), and each handle's
/// `Stats::fence_wait_ns` still sums to the fence-wait histogram.
#[test]
fn fence_driven_grace_scans_land_on_the_joiners_slot() {
    let stm = Tl2Stm::with_config(
        StmConfig::new(2, 2)
            .grace_driver(DriverMode::Cooperative)
            .trace(TraceConfig::with_capacity(4096)),
    );
    let stats: Vec<Stats> = std::thread::scope(|s| {
        let joiners: Vec<_> = (0..2)
            .map(|slot| {
                let mut h = stm.handle(slot);
                s.spawn(move || {
                    for i in 0..300 {
                        h.atomic(|tx| tx.write(slot, i));
                        h.fence();
                    }
                    h.stats()
                })
            })
            .collect();
        joiners.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let scans = stm.runtime().grace().scans();
    let snap = stm.telemetry_snapshot();
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.hists.grace.count(), scans);
    let grace_slots: Vec<u16> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GraceScan { .. }))
        .map(|e| e.slot)
        .collect();
    assert_eq!(grace_slots.len() as u64, scans);
    assert!(
        grace_slots.iter().all(|&slot| slot < 2),
        "a fence-driven scan went to the engine slot: {grace_slots:?}"
    );
    assert_eq!(
        snap.hists.fence_wait.sum(),
        stats.iter().map(|s| s.fence_wait_ns).sum::<u64>(),
        "the Stats counters must be exactly the histogram's sum"
    );
    assert_eq!(snap.hists.fence_wait.count(), 600, "one sample per join");
}

/// The disabled-path cost contract (the telemetry twin of
/// `governor.rs::steady_state_commits_touch_no_governor_shared_state`):
/// with tracing off, a steady-state commit performs ZERO shared-line
/// writes on behalf of telemetry — every event site is exactly one relaxed
/// load of the `enabled` flag, after which nothing is locked, pushed, or
/// counted. Pinned observably: no slot cell is ever locked for writing, so
/// the snapshot stays identically empty, and the begin path never samples
/// the clock (`Instant::now`) for a commit-latency it would never record.
#[test]
fn disabled_telemetry_costs_one_relaxed_load_per_event_site() {
    let stm = Tl2Stm::with_config(
        StmConfig::auto(16, 1)
            .grace_driver(DriverMode::Cooperative)
            .trace(TraceConfig::off()),
    );
    assert!(!stm.runtime().telemetry().enabled());
    let mut h = stm.handle(0);
    // A busy, governor-active workload: commits, a fold boundary, fences.
    for i in 0..GOVERNOR_WINDOW {
        h.atomic(|tx| tx.write(0, i + 1));
    }
    h.fence();
    let snap = stm.telemetry_snapshot();
    assert!(!snap.enabled);
    assert_eq!(snap.capacity, 0);
    assert_eq!(snap.dropped, 0, "disabled rings never even count drops");
    assert!(snap.events.is_empty(), "no event reached any ring");
    for class in LatencyClass::ALL {
        assert_eq!(
            snap.hists.get(class).count(),
            0,
            "{}: no sample reached any histogram",
            class.label()
        );
        assert_eq!(snap.hists.get(class).sum(), 0);
    }
    // The runtime stays fully functional — the counters the paper's
    // experiments rely on are untouched by the off switch.
    assert_eq!(h.stats().commits, GOVERNOR_WINDOW);
    assert_eq!(h.stats().fences, 1);
}

/// Minimal structural JSON check (no serde in this build): validates
/// balanced objects/arrays, quoted strings, and bare numbers — the same
/// validator the bench crate runs over its reports, so the telemetry JSON
/// stays consumable by the same tooling (no `true`/`false`/`null` tokens).
fn assert_valid_json(s: &str) {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        let i = skip_ws(b, i);
        match b.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Ok(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Ok(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_digit() || b"+-.eE".contains(&b[j])) {
                    j += 1;
                }
                Ok(j)
            }
            _ => Err(format!("unexpected byte at {i}")),
        }
    }
    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected '\"' at {i}"));
        }
        let mut i = i + 1;
        while let Some(&c) = b.get(i) {
            match c {
                b'"' => return Ok(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        Err("unterminated string".into())
    }
    let b = s.as_bytes();
    let end = value(b, 0).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{s}"));
    assert_eq!(skip_ws(b, end), b.len(), "trailing garbage:\n{s}");
}
