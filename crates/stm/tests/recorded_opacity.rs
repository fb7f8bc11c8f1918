//! Record real concurrent TL2 executions and validate them against the
//! paper's theory: well-formedness (Def 2.1), DRF (Def 3.2), and strong
//! opacity with a verified atomic witness (Theorem 6.5 / Lemma 6.4).

use std::sync::Arc;
use tm_core::hb::is_drf;
use tm_core::opacity::{check_strong_opacity, CheckOptions};
use tm_core::textio;
use tm_stm::prelude::*;

/// Unique nonzero value: slot in the high bits, counter below.
fn val(slot: usize, counter: u64) -> u64 {
    ((slot as u64 + 1) << 40) | (counter + 1)
}

fn check_history(rec: &Recorder, expect_drf: bool) {
    let h = rec.snapshot_history();
    assert_eq!(
        h.validate(),
        Ok(()),
        "recorded history ill-formed:\n{}",
        textio::to_text(&h)
    );
    let drf = is_drf(&h);
    assert_eq!(
        drf,
        expect_drf,
        "DRF verdict mismatch:\n{}",
        textio::to_text(&h)
    );
    if drf {
        if let Err(e) = check_strong_opacity(&h, &CheckOptions::default()) {
            panic!(
                "recorded TL2 history not strongly opaque: {e:?}\n{}",
                textio::to_text(&h)
            );
        }
    }
}

/// Purely transactional workload: always DRF (no non-transactional
/// accesses), must be strongly opaque.
#[test]
fn transactional_only_history_is_opaque() {
    let rec = Arc::new(Recorder::new(3));
    let stm = Tl2Stm::with_config(StmConfig::new(6, 3).recorder(Arc::clone(&rec)));
    std::thread::scope(|s| {
        for t in 0..3 {
            let stm = stm.clone();
            s.spawn(move || {
                let mut h = stm.handle(t);
                for i in 0..4u64 {
                    let _ = h.try_atomic(|tx| {
                        let a = tx.read(i as usize % 6)?;
                        tx.write(t, val(t, i * 2))?;
                        tx.write(3 + t % 3, val(t, i * 2 + 1))?;
                        Ok(a)
                    });
                }
            });
        }
    });
    check_history(&rec, true);
}

/// Fenced privatization (Fig 1(a) discipline) on the real STM: recorded
/// histories are DRF and strongly opaque.
#[test]
fn fenced_privatization_history_is_drf_and_opaque() {
    const FLAG: usize = 0;
    const DATA: usize = 1;
    let rec = Arc::new(Recorder::new(2));
    let stm = Tl2Stm::with_config(StmConfig::new(2, 2).recorder(Arc::clone(&rec)));
    std::thread::scope(|s| {
        let stm0 = stm.clone();
        s.spawn(move || {
            let mut h = stm0.handle(0);
            for i in 0..3u64 {
                h.atomic(|tx| tx.write(FLAG, val(0, i * 3)));
                h.fence();
                // Private phase: uninstrumented accesses.
                h.write_direct(DATA, val(0, i * 3 + 1));
                let _ = h.read_direct(DATA);
                // Publish back: flag value with low bit pattern 2 ≠ "private".
                h.atomic(|tx| tx.write(FLAG, val(0, i * 3 + 2)));
                h.fence();
            }
        });
        let stm1 = stm.clone();
        s.spawn(move || {
            let mut h = stm1.handle(1);
            for i in 0..6u64 {
                h.atomic(|tx| {
                    let flag = tx.read(FLAG)?;
                    // "Private" iff the owner's last flag write has
                    // counter ≡ 1 (mod 3) — i.e. value v with (v-1) % 3 == 0.
                    let private = flag != 0 && (flag & 0xFF_FFFF_FFFF) % 3 == 1;
                    if !private {
                        tx.write(DATA, val(1, i))?;
                    }
                    Ok(())
                });
            }
        });
    });
    check_history(&rec, true);
}

/// Unfenced mixed access: the recorded history is racy (the DRF checker must
/// flag it), and strong opacity is then not required of the TM.
#[test]
fn unfenced_mixed_access_history_is_racy() {
    let rec = Arc::new(Recorder::new(2));
    let stm = Tl2Stm::with_config(StmConfig::new(1, 2).recorder(Arc::clone(&rec)));
    std::thread::scope(|s| {
        let stm0 = stm.clone();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let b0 = Arc::clone(&barrier);
        s.spawn(move || {
            let mut h = stm0.handle(0);
            b0.wait();
            for i in 0..5u64 {
                h.write_direct(0, val(0, i)); // uninstrumented, unguarded
            }
        });
        let stm1 = stm.clone();
        let b1 = Arc::clone(&barrier);
        s.spawn(move || {
            let mut h = stm1.handle(1);
            b1.wait();
            for i in 0..5u64 {
                let _ = h.try_atomic(|tx| tx.write(0, val(1, i)));
            }
        });
    });
    let h = rec.snapshot_history();
    assert_eq!(h.validate(), Ok(()));
    assert!(!is_drf(&h), "concurrent tx/non-tx writes must race");
}

/// Read-only auditors over transactional writers: DRF, opaque, and the
/// recorder round-trips through the text format.
#[test]
fn audit_history_roundtrip() {
    let rec = Arc::new(Recorder::new(2));
    let stm = Tl2Stm::with_config(StmConfig::new(4, 2).recorder(Arc::clone(&rec)));
    std::thread::scope(|s| {
        let stm0 = stm.clone();
        s.spawn(move || {
            let mut h = stm0.handle(0);
            for i in 0..5u64 {
                h.atomic(|tx| {
                    tx.write(i as usize % 4, val(0, i))?;
                    Ok(())
                });
            }
        });
        let stm1 = stm.clone();
        s.spawn(move || {
            let mut h = stm1.handle(1);
            for _ in 0..5 {
                let _ = h.try_atomic(|tx| {
                    let mut acc = 0u64;
                    for x in 0..4 {
                        acc ^= tx.read(x)?;
                    }
                    Ok(acc)
                });
            }
        });
    });
    let h = rec.snapshot_history();
    let h2 = textio::from_text(&textio::to_text(&h)).unwrap();
    assert_eq!(h.actions(), h2.actions());
    check_history(&rec, true);
}
