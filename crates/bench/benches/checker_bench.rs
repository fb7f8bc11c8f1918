//! E17 — checker scalability: cost of DRF analysis and strong-opacity
//! checking (graph construction + witness verification) vs history length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use tm_core::hb::is_drf;
use tm_core::opacity::{check_strong_opacity, CheckOptions};
use tm_core::trace::History;
use tm_stm::prelude::*;

/// Produce a recorded TL2 history with roughly `txns` transactions across 3
/// threads (disjoint write sets + shared reads: DRF and opaque).
fn recorded_history(txns: u64) -> History {
    let rec = Arc::new(Recorder::new(3));
    let stm = Tl2Stm::with_config(StmConfig::new(16, 3).recorder(Arc::clone(&rec)));
    std::thread::scope(|s| {
        for t in 0..3usize {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(t);
                for i in 0..txns / 3 {
                    let _ = h.try_atomic(|tx| {
                        let a = tx.read((i % 13) as usize)?;
                        tx.write(t, ((t as u64 + 1) << 40) | (i + 1))?;
                        Ok(a)
                    });
                }
            });
        }
    });
    rec.snapshot_history()
}

fn checker(c: &mut Criterion) {
    let mut g = c.benchmark_group("checker");
    g.sample_size(10);
    for txns in [30u64, 90, 300, 900] {
        let h = recorded_history(txns);
        g.throughput(Throughput::Elements(h.len() as u64));
        g.bench_with_input(BenchmarkId::new("drf", h.len()), &h, |b, h| {
            b.iter(|| is_drf(h));
        });
        g.bench_with_input(BenchmarkId::new("strong_opacity", h.len()), &h, |b, h| {
            b.iter(|| check_strong_opacity(h, &CheckOptions::default()).is_ok());
        });
    }
    g.finish();
}

criterion_group!(benches, checker);
criterion_main!(benches);
