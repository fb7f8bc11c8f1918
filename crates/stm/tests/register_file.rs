//! The 16-byte register cell packs four registers' values *and* orecs into
//! one cache line. That may cost false **sharing** (a performance question,
//! see `docs/ARCHITECTURE.md`); it must never cost a false **conflict**.

use tm_stm::prelude::*;

/// Four threads, each incrementing its *own* register among four adjacent
/// ones — the same cache line, under the default per-register storage.
/// Every count must be conserved and nobody may abort, ever: an abort here
/// can only come from locking, sampling or validating something wider than
/// the register's own orec.
#[test]
fn neighbours_in_one_line_never_conflict() {
    const THREADS: usize = 4;
    const INCS: u64 = 20_000;
    // Registers 4..8: cells are 16 bytes and 16-aligned, so whatever the
    // allocation's offset at least two of them share a line, and on any
    // 64-byte-aligned base all four do.
    const BASE: usize = 4;
    let stm = Tl2Stm::with_config(StmConfig::new(16, THREADS).chaos_off());
    assert_eq!(
        StmConfig::new(16, THREADS).storage,
        StorageKind::PerRegister
    );
    let stats: Vec<Stats> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(t);
                    for _ in 0..INCS {
                        h.atomic(|tx| {
                            let v = tx.read(BASE + t)?;
                            tx.write(BASE + t, v + 1)
                        });
                    }
                    h.stats()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for t in 0..THREADS {
        assert_eq!(
            stm.peek(BASE + t),
            INCS,
            "register {} lost updates",
            BASE + t
        );
    }
    let mut total = Stats::default();
    for s in &stats {
        total.merge(s);
    }
    assert_eq!(total.commits, THREADS as u64 * INCS);
    assert_eq!(
        total.aborts_read + total.aborts_lock + total.aborts_validate,
        0,
        "disjoint registers conflicted: {total:?}"
    );
    assert_eq!(total.false_conflicts, 0);
    assert_eq!(total.retries, 0);
    assert_eq!(total.current_stripes, 16, "one orec per register");
    assert_eq!(stm.locked_stripes(), 0);
}
