//! The cost ladder: thirteen single-thread rungs from a raw atomic up to a
//! privatize-and-scan, each timed from outside as ns per op next to the
//! `Stats` counts it incurred per op. Differences of rungs attribute cost
//! to the layer between them, so every handle-based rung runs with
//! telemetry off except the one that measures telemetry. This is the only
//! place the benchmark sets a configuration knob.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_service::ShardedKv;
use tm_stm::prelude::*;
use tm_stm::tl2::Tl2Kind;

use crate::workload::{counts, sub, Counts, Stat, NSTAT};

pub struct Rung {
    pub name: &'static str,
    /// Median, min and max ns/op of the repeats.
    pub ns: [f64; 3],
    /// `Stats` counts per op over the median repeat's config.
    pub per_op: [f64; NSTAT],
}

const REPEATS: usize = 3;
/// Ops between clock reads, so the clock is < 1 % of the cheapest rung.
const BATCH: u64 = 64;

/// Run `op` for about `dur`; ns per op.
fn time(dur: Duration, mut op: impl FnMut()) -> (f64, u64) {
    let start = Instant::now();
    let mut ops = 0;
    loop {
        for _ in 0..BATCH {
            op();
        }
        ops += BATCH;
        let elapsed = start.elapsed();
        if elapsed >= dur {
            return (elapsed.as_nanos() as f64 / ops as f64, ops);
        }
    }
}

fn summarize(name: &'static str, mut runs: Vec<(f64, [f64; NSTAT])>) -> Rung {
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    Rung {
        name,
        ns: [runs[runs.len() / 2].0, runs[0].0, runs[runs.len() - 1].0],
        per_op: runs[runs.len() / 2].1,
    }
}

/// A rung over `target` (a handle, or what wraps one): `REPEATS` timed runs
/// with the `Stats` delta per op.
fn rung<T>(
    name: &'static str,
    dur: Duration,
    target: &mut T,
    stats: impl Fn(&mut T) -> Stats,
    mut op: impl FnMut(&mut T),
) -> Rung {
    let runs = (0..REPEATS)
        .map(|_| {
            let before = counts(&stats(target));
            let (ns, ops) = time(dur, || op(target));
            let delta: Counts = sub(&counts(&stats(target)), &before);
            (ns, delta.map(|c| c as f64 / ops as f64))
        })
        .collect();
    summarize(name, runs)
}

fn handle_rung<H: StmHandle>(
    name: &'static str,
    dur: Duration,
    h: &mut H,
    op: impl FnMut(&mut H),
) -> Rung {
    rung(name, dur, h, |h| h.stats(), op)
}

fn plain_rung(name: &'static str, dur: Duration, mut op: impl FnMut()) -> Rung {
    let runs = (0..REPEATS)
        .map(|_| (time(dur, &mut op).0, [0.0; NSTAT]))
        .collect();
    summarize(name, runs)
}

fn quiet(nregs: usize) -> StmConfig {
    StmConfig::new(nregs, 1).trace(TraceConfig::off())
}

/// Keys per shard of the ladder's store: `scan_64` scans one such shard.
const SHARD_KEYS: u64 = 64;

pub fn run(dur: Duration) -> Vec<Rung> {
    let mut rungs = Vec::new();

    let cell = AtomicU64::new(0);
    rungs.push(plain_rung("ladder.atomic_u64", dur, || {
        cell.store(cell.load(Ordering::SeqCst) + 1, Ordering::SeqCst);
    }));

    let stm = Tl2Stm::with_config(quiet(4));
    let rt = stm.runtime();
    rungs.push(plain_rung("ladder.runtime_raw", dur, || {
        rt.store(0, rt.load(0) + 1);
    }));

    let mut h = stm.handle(0);
    rungs.push(handle_rung("ladder.handle_ro1", dur, &mut h, |h| {
        black_box(h.atomic(|tx| tx.read(1)));
    }));
    let mut v = 0;
    let mut write1 = |h: &mut Tl2Handle| {
        v += 1;
        h.atomic(|tx| tx.write(2, v));
    };
    rungs.push(handle_rung("ladder.handle_w1", dur, &mut h, &mut write1));

    // As shipped: whatever `StmConfig::new` makes the telemetry default.
    let shipped = Tl2Stm::with_config(StmConfig::new(4, 1));
    let mut hs = shipped.handle(0);
    rungs.push(handle_rung(
        "ladder.handle_w1_trace",
        dur,
        &mut hs,
        &mut write1,
    ));

    // A recorder keeps every action, so this rung is bounded by count.
    const RECORDED: u64 = 20_000;
    let runs = (0..REPEATS)
        .map(|_| {
            let rec = Arc::new(Recorder::new(1));
            let stm = Tl2Stm::with_config(quiet(4).recorder(rec));
            let mut h = stm.handle(0);
            let start = Instant::now();
            for _ in 0..RECORDED {
                write1(&mut h);
            }
            let ns = start.elapsed().as_nanos() as f64 / RECORDED as f64;
            (ns, counts(&h.stats()).map(|c| c as f64 / RECORDED as f64))
        })
        .collect();
    rungs.push(summarize("ladder.handle_w1_record", runs));

    let typed = TypedStm::<Tl2Kind>::with_config(quiet(1));
    let var = typed.new_tvar([0u64; 5]);
    let mut th = typed.handle(0);
    let session_bump = |th: &mut TypedHandle<Tl2Kind>| {
        th.atomically(|tx| {
            let mut v = tx.read(&var)?;
            v[0] += 1;
            tx.write(&var, v)
        })
    };
    rungs.push(rung(
        "ladder.tvar_rw",
        dur,
        &mut th,
        |th| th.inner().stats(),
        session_bump,
    ));

    // A bare TxMap and a two-shard store, both at 50 % occupancy (even
    // keys present), like every workload.
    let cap = SHARD_KEYS as usize;
    let stm = Tl2Stm::with_config(quiet(TxMap::regs_needed(cap)));
    let map = TxMap::new(0, cap);
    let mut h = stm.handle(0);
    for key in (0..SHARD_KEYS).step_by(2) {
        h.atomic(|tx| map.insert(tx, key, key));
    }
    let mut key = 0;
    let mut next_even = move || {
        key = (key + 2) % SHARD_KEYS;
        key
    };
    rungs.push(handle_rung("ladder.map_get", dur, &mut h, |h| {
        let k = next_even();
        black_box(h.atomic(|tx| map.get(tx, k)));
    }));
    rungs.push(handle_rung("ladder.map_insert", dur, &mut h, |h| {
        let k = next_even();
        black_box(h.atomic(|tx| map.insert(tx, k, k + 7)));
    }));

    let stm = Tl2Stm::with_config(quiet(ShardedKv::regs_needed(2, SHARD_KEYS)));
    let kv = ShardedKv::new(0, 2, SHARD_KEYS);
    let mut h = stm.handle(0);
    for key in (0..kv.key_space()).step_by(2) {
        kv.put(&mut h, key, key);
    }
    rungs.push(handle_rung("ladder.store_get", dur, &mut h, |h| {
        black_box(kv.get(h, next_even()));
    }));
    rungs.push(handle_rung("ladder.store_rmw", dur, &mut h, |h| {
        black_box(kv.rmw(h, next_even(), 1));
    }));
    rungs.push(handle_rung("ladder.fence_idle", dur, &mut h, |h| h.fence()));
    rungs.push(handle_rung("ladder.scan_64", dur, &mut h, |h| {
        let (frozen, entries, _) = kv.privatize_and_scan(h, 0);
        black_box(entries);
        frozen.publish_back(h);
    }));
    rungs
}

/// ns/op of one `Instant::now()`, the tax on every timed op.
pub fn clock_read_ns() -> f64 {
    time(Duration::from_millis(20), || {
        black_box(Instant::now());
    })
    .0
}

impl Rung {
    /// The counts worth printing next to the time: what an op of this
    /// rung commits, bumps, fences and reads or writes directly.
    pub fn headline_counts(&self) -> [(&'static str, f64); 6] {
        let c = |s: Stat| self.per_op[s as usize];
        [
            ("commits", c(Stat::Commits)),
            ("clock_bumps", c(Stat::ClockBumps)),
            ("validation_elisions", c(Stat::ValidationElisions)),
            ("fences", c(Stat::Fences)),
            ("direct_reads", c(Stat::DirectReads)),
            ("direct_writes", c(Stat::DirectWrites)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_rungs_with_the_counts_each_layer_implies() {
        let rungs = run(Duration::from_millis(2));
        assert_eq!(rungs.len(), 13);
        let by_name = |n: &str| rungs.iter().find(|r| r.name == n).unwrap();
        for r in &rungs {
            assert!(r.ns[1] <= r.ns[0] && r.ns[0] <= r.ns[2] && r.ns[1] > 0.0);
        }
        let commits = |n: &str| by_name(n).per_op[Stat::Commits as usize];
        assert_eq!(commits("ladder.atomic_u64"), 0.0);
        assert_eq!(commits("ladder.handle_ro1"), 1.0);
        assert_eq!(commits("ladder.handle_w1_record"), 1.0);
        assert_eq!(commits("ladder.tvar_rw"), 1.0);
        assert_eq!(commits("ladder.store_rmw"), 1.0);
        let scan = by_name("ladder.scan_64");
        assert_eq!(scan.per_op[Stat::Fences as usize], 1.0);
        // Two passes over 64 key registers plus the 32 present values.
        assert_eq!(scan.per_op[Stat::DirectReads as usize], 192.0);
        assert_eq!(
            by_name("ladder.fence_idle").per_op[Stat::Fences as usize],
            1.0
        );
    }
}
