//! Pins what the typed commit path asks of the allocator: one `Box` per
//! `write` (the value's own) plus one displaced-cell batch per
//! [`RETIRE_BATCH`] commits — and that every exit from an attempt gives
//! back exactly what it took. Its own test binary, because the counting
//! `#[global_allocator]` is process-wide; the counters are per thread, so
//! tests running side by side do not see each other.
//!
//! Every instance here pins the cooperative driver (a background driver
//! would free this thread's boxes on its own thread) and switches fault
//! injection off (an injected abort re-runs the body, `write`s included).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use tm_stm::prelude::*;
use tm_stm::runtime::RETIRE_BATCH;
use tm_stm::tl2::Tl2Kind;
use tm_stm::tvar::TypedStm;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local `Cell`s
// without destructors, so touching them allocates nothing and cannot
// recurse. (`realloc` defaults to `alloc` + `dealloc`: one of each.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's `(allocations, frees)` so far.
fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

/// `(allocations, frees)` this thread performed inside `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a0, f0) = counts();
    f();
    let (a1, f1) = counts();
    (a1 - a0, f1 - f0)
}

fn instance() -> TypedStm<Tl2Kind> {
    TypedStm::with_config(
        StmConfig::new(4, 1)
            .grace_driver(DriverMode::Cooperative)
            .chaos_off(),
    )
}

type Session = [u64; 5];

fn bump(h: &mut TypedHandle<Tl2Kind>, var: &TVar<Session>) {
    h.atomically(|tx| {
        let mut s = tx.read(var)?;
        s[0] += 1;
        tx.write(var, s)
    });
}

/// The steady state: after warm-up (scratch buffers grown, first batch
/// allocated, lazy statics touched), 10 000 read-modify-write commits cost
/// one allocation each plus a batch per `RETIRE_BATCH` — nothing else; and
/// once handle and instance are gone, everything allocated was freed.
#[test]
fn a_commit_allocates_its_value_box_and_a_share_of_one_batch() {
    const COMMITS: u64 = 10_000;
    drop(instance()); // process-wide lazies, outside the balance
    let (allocs, frees) = counted(|| {
        let stm = instance();
        let var = stm.new_tvar([0u64; 5]);
        let mut h = stm.handle(0);
        for _ in 0..1_000 {
            bump(&mut h, &var);
        }
        let (steady, _) = counted(|| {
            for _ in 0..COMMITS {
                bump(&mut h, &var);
            }
        });
        let bound = COMMITS + COMMITS / RETIRE_BATCH as u64 + 8;
        assert!(
            (COMMITS..=bound).contains(&steady),
            "{steady} allocations for {COMMITS} commits (bound {bound})"
        );
        assert_eq!(h.atomically(|tx| Ok(tx.read(&var)?[0])), 1_000 + COMMITS);
    });
    assert_eq!(allocs, frees, "handle and instance gone: all of it freed");
}

/// An attempt that does not commit costs exactly its own `write`s, and
/// gives them back on the spot: an aborted body (`Err(Conflict)` after a
/// `write`) and an `or`-rolled-back branch each add one allocation and one
/// free to the clean commit's single allocation.
#[test]
fn aborted_and_rolled_back_attempts_cost_exactly_their_writes() {
    let stm = instance();
    let var = stm.new_tvar([0u64; 5]);
    let mut h = stm.handle(0);
    // Warm up every path measured below; ends mid-batch, so no flush (and
    // no fresh batch) falls inside a measurement.
    for _ in 0..4 {
        bump(&mut h, &var);
        let mut failed = false;
        h.atomically(|tx| {
            tx.write(&var, [1; 5])?;
            if !std::mem::replace(&mut failed, true) {
                return Err(StmError::Conflict);
            }
            Ok(())
        });
    }

    assert_eq!(counted(|| bump(&mut h, &var)), (1, 0), "a clean commit");

    let mut failed = false;
    let aborted_once = counted(|| {
        h.atomically(|tx| {
            tx.write(&var, [2; 5])?;
            if !std::mem::replace(&mut failed, true) {
                return Err(StmError::Conflict);
            }
            Ok(())
        })
    });
    assert_eq!(aborted_once, (2, 1), "the aborted attempt's write, freed");

    let rolled_back = counted(|| {
        h.atomically(|tx| {
            let (first, second) = (var.clone(), var.clone());
            tx.or(
                move |tx| {
                    tx.write(&first, [3; 5])?;
                    tx.retry()
                },
                move |tx| tx.write(&second, [4; 5]),
            )
        })
    });
    // (`TVar::clone` is a refcount bump, not an allocation.)
    assert_eq!(rolled_back, (2, 1), "the rolled-back branch's write, freed");
    assert_eq!(h.atomically(|tx| tx.read(&var)), [4; 5]);
}

/// Type-erased teardown frees heap-owning values of several types through
/// every exit — superseded writes, `or` rollback, a body panic after its
/// writes, clean commits — and the books balance once everything is gone.
#[test]
fn every_exit_balances_across_value_types() {
    drop(instance());
    let (allocs, frees) = counted(|| {
        let stm = instance();
        let text = stm.new_tvar(String::from("a"));
        let queue = stm.new_tvar(VecDeque::from([1u64]));
        let mut h = stm.handle(0);
        for round in 0..3 * RETIRE_BATCH as u64 {
            h.atomically(|tx| {
                let mut t = tx.read(&text)?;
                tx.write(&text, String::from("superseded"))?;
                t.push('b');
                tx.write(&text, t)?;
                let mut q = tx.read(&queue)?;
                q.push_back(round);
                tx.write(&queue, q)
            });
            h.atomically(|tx| {
                let (t, q) = (text.clone(), queue.clone());
                tx.or(
                    move |tx| {
                        tx.write(&t, String::from("rolled back"))?;
                        tx.write(&q, VecDeque::from([9, 9, 9]))?;
                        tx.retry()
                    },
                    |_| Ok(()),
                )
            });
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                h.atomically(|tx| -> StmResult<()> {
                    tx.write(&text, String::from("doomed"))?;
                    tx.write(&queue, VecDeque::from([6, 6]))?;
                    // A panic minus the hook, whose message would grow the
                    // harness's capture buffer inside the measurement.
                    resume_unwind(Box::new("injected body panic"));
                })
            }));
            assert!(unwound.is_err());
        }
        h.inner().fence(); // collects mid-life, not only at engine drop
        let (t, q) = h.atomically(|tx| Ok((tx.read(&text)?, tx.read(&queue)?)));
        let rounds = 3 * RETIRE_BATCH;
        assert_eq!((t.len(), q.len()), (1 + rounds, 1 + rounds));
    });
    assert_eq!(allocs, frees);
}
