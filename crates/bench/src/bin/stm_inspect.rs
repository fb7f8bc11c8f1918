//! stm_inspect — render the runtime's own explanation of a live run.
//!
//! Drives the conformance-style phase-shift workload (a write-heavy
//! privatizing phase, then a read-only phase) on a fully governed TL2
//! instance (`StmConfig::auto`: adaptive stripes + auto clock) under BOTH
//! driver modes, then renders what the telemetry subsystem recorded:
//! latency distributions (count, p50/p90/p99/p999, sparkline) for commit /
//! abort-gap / fence-wait / grace-scan, the commit histogram's sampling
//! rate next to the exact commit count from `Stats`, the background
//! driver's duty cycle, and the last governor decisions *with the
//! counters that justified them* straight from the flight recorder.
//!
//! Usage: `stm_inspect [txns_per_phase]` (default: 2048)
//!
//! With `--json`, additionally writes the background-mode snapshot as
//! `BENCH_telemetry.json` (schema `bench_telemetry/v2`) and prints it to
//! stdout; the human report moves to stderr.

use std::sync::Mutex;
use std::time::Duration;
use tm_stm::prelude::*;
use tm_stm::runtime::DriverMode;
use tm_stm::telemetry::LatencyHistogram;
use tm_stm::tl2::GOVERNOR_WINDOW;

/// How many trailing governor decisions the report shows.
const LAST_N: usize = 10;

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Unicode sparkline over the histogram's occupied bucket range.
fn sparkline(h: &LatencyHistogram) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let buckets = h.buckets();
    let occupied: Vec<usize> = (0..buckets.len()).filter(|&i| buckets[i] > 0).collect();
    let (Some(&lo), Some(&hi)) = (occupied.first(), occupied.last()) else {
        return "(empty)".into();
    };
    let peak = buckets[lo..=hi].iter().copied().max().unwrap_or(1).max(1);
    let bars: String = buckets[lo..=hi]
        .iter()
        .map(|&c| {
            if c == 0 {
                ' '
            } else {
                RAMP[((c * (RAMP.len() as u64 - 1)).div_ceil(peak)) as usize]
            }
        })
        .collect();
    format!(
        "[{}..{}] {bars}",
        fmt_ns(if lo == 0 { 0 } else { 1 << lo }),
        fmt_ns(LatencyHistogram::bucket_upper_edge(hi)),
    )
}

/// The conformance-style phase-shift workload: a write-heavy phase with
/// periodic privatizing fences (drives the governor toward GV5 and feeds
/// the fence/grace histograms), then a read-only phase (drives it back to
/// GV1). Two worker threads over overlapping registers; returns their
/// merged `Stats`.
fn run_workload(stm: &Tl2Stm, txns_per_phase: u64) -> Stats {
    const NREGS: u64 = 1024;
    let stats = Mutex::new(Stats::default());
    std::thread::scope(|scope| {
        for slot in 0..2usize {
            let mut h = stm.handle(slot);
            let stats = &stats;
            scope.spawn(move || {
                // Phase 1: write-heavy, fence every 256 commits.
                for i in 0..txns_per_phase {
                    let r = ((i * 7 + slot as u64) % NREGS) as usize;
                    h.atomic(|tx| {
                        let v = tx.read(r)?;
                        tx.write(r, v + 1)
                    });
                    if (i + 1) % 256 == 0 {
                        h.fence();
                    }
                }
                // Phase 2: read-only.
                for i in 0..txns_per_phase {
                    let r = ((i * 11 + slot as u64) % NREGS) as usize;
                    h.atomic(|tx| tx.read(r));
                }
                stats.lock().expect("a worker panicked").merge(&h.stats());
            });
        }
    });
    // Let open reconfigurations (clock handoffs, stripe migrations) settle
    // so the settle/retire events land in the rings too.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while stm.clock_handoff_pending() && std::time::Instant::now() < deadline {
        let mut h = stm.handle(0);
        h.atomic(|tx| tx.read(0));
        std::thread::yield_now();
    }
    stats.into_inner().expect("a worker panicked")
}

fn render(
    out: &mut impl std::io::Write,
    snap: &TelemetrySnapshot,
    stats: &Stats,
) -> std::io::Result<()> {
    let mode = snap.driver_mode.unwrap_or("?");
    writeln!(out, "== driver mode: {mode} ==")?;
    match snap.driver_idle_wakeups {
        Some(idle) => writeln!(out, "driver duty: {idle} idle wakeups")?,
        None => writeln!(out, "driver duty: (no background driver)")?,
    }
    writeln!(
        out,
        "flight recorder: {} events captured, {} overwritten (capacity {}/slot)",
        snap.events.len(),
        snap.dropped,
        snap.capacity
    )?;
    writeln!(
        out,
        "commit latency sampled 1/{}: {} samples of {} commits (exact, from Stats)",
        snap.sample_every,
        snap.hists.commit.count(),
        stats.commits
    )?;
    writeln!(
        out,
        "\n{:<11} {:>8} {:>9} {:>9} {:>9} {:>9}  distribution",
        "latency", "count", "p50", "p90", "p99", "p999"
    )?;
    for class in LatencyClass::ALL {
        let h = snap.hists.get(class);
        let q = h.quantiles();
        writeln!(
            out,
            "{:<11} {:>8} {:>9} {:>9} {:>9} {:>9}  {}",
            class.label(),
            h.count(),
            fmt_ns(q.p50),
            fmt_ns(q.p90),
            fmt_ns(q.p99),
            fmt_ns(q.p999),
            sparkline(h),
        )?;
    }
    let decisions: Vec<_> = snap.governor_decisions().collect();
    writeln!(
        out,
        "\ngovernor decisions ({} total, last {}):",
        decisions.len(),
        decisions.len().min(LAST_N)
    )?;
    for e in decisions.iter().rev().take(LAST_N).rev() {
        let fields: Vec<String> = e
            .kind
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        writeln!(
            out,
            "  t+{:<10} slot {:<2} {:<21} {}",
            fmt_ns(e.at_ns),
            e.slot,
            e.kind.label(),
            fields.join(" ")
        )?;
    }
    if decisions.is_empty() {
        writeln!(out, "  (none recorded)")?;
    }
    writeln!(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let txns_per_phase: u64 = args
        .iter()
        .filter(|a| *a != "--json")
        .find_map(|a| a.parse().ok())
        .unwrap_or(16 * GOVERNOR_WINDOW);

    let mut background_json = None;
    for mode in DriverMode::ALL {
        eprintln!(
            "running phase-shift workload ({} txns/phase, 2 threads, {})…",
            txns_per_phase,
            mode.label()
        );
        let stm = Tl2Stm::with_config(
            StmConfig::auto(1024, 2)
                .chaos_off()
                .grace_driver(mode)
                .trace(TraceConfig::with_capacity(4096)),
        );
        let stats = run_workload(&stm, txns_per_phase);
        let snap = stm.telemetry_snapshot();
        if mode == DriverMode::Background {
            background_json = Some(snap.to_json());
        }
        if json {
            render(&mut std::io::stderr(), &snap, &stats).expect("render to stderr");
        } else {
            render(&mut std::io::stdout().lock(), &snap, &stats).expect("render to stdout");
        }
    }
    if json {
        let payload = background_json.expect("background mode always runs");
        let path = "BENCH_telemetry.json";
        std::fs::write(path, &payload).expect("write BENCH_telemetry.json");
        println!("{payload}");
        eprintln!("wrote {path}");
    }
}
