//! EBR correctness for the typed frontend: every `TVar` payload instance
//! ever created — initial values, committed replacements, buffered writes
//! of aborted or panicking bodies, boxes freed on failed commits — is
//! dropped exactly once, under both driver modes. A leak leaves
//! `created > dropped`; a double-drop overshoots (or crashes outright).
//! (`tvar_alloc.rs` checks the same balance at the allocator, for value
//! types that cannot count themselves.)

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use tm_stm::prelude::*;
use tm_stm::tl2::Tl2Kind;
use tm_stm::tvar::TypedStm;

/// A payload that counts its instances: `new` and `Clone` bump `created`,
/// `Drop` bumps `dropped`. Balanced counters at the end mean no instance
/// leaked and none was freed twice.
#[derive(Debug)]
struct Counted {
    n: u64,
    created: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Counted {
    fn new(n: u64, created: &Arc<AtomicU64>, dropped: &Arc<AtomicU64>) -> Self {
        created.fetch_add(1, Ordering::SeqCst);
        Counted {
            n,
            created: Arc::clone(created),
            dropped: Arc::clone(dropped),
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(self.n, &self.created, &self.dropped)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

fn config(mode: DriverMode) -> StmConfig {
    let mut cfg = StmConfig::new(16, 3);
    cfg.driver = mode;
    cfg
}

/// The full lifecycle mix: contended increments (commit-time aborts retire
/// and free boxes on both paths), explicit conflict re-runs, and bodies
/// that panic before and after buffering writes. Every `Counted` instance
/// must come back.
fn lifecycle_drops_every_instance_once(mode: DriverMode) {
    let created = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    {
        let stm: TypedStm<Tl2Kind> = TypedStm::with_config(config(mode));
        let var = stm.new_tvar(Counted::new(0, &created, &dropped));
        let other = stm.new_tvar(Counted::new(100, &created, &dropped));

        std::thread::scope(|s| {
            for slot in 0..2 {
                let stm = stm.clone();
                let var = var.clone();
                let created = Arc::clone(&created);
                let dropped = Arc::clone(&dropped);
                s.spawn(move || {
                    let mut h = stm.handle(slot);
                    for i in 0..200u64 {
                        h.atomically(|tx| {
                            let cur = tx.read(&var)?;
                            tx.write(&var, Counted::new(cur.n + 1, &created, &dropped))
                        });
                        // A few bodies unwind mid-flight: before any write
                        // (no buffered payloads) and after one (the
                        // buffered `Counted` must still be dropped).
                        if i % 50 == 7 {
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                h.atomically(|tx| -> StmResult<()> {
                                    if i % 100 == 7 {
                                        let cur = tx.read(&var)?;
                                        tx.write(&var, Counted::new(cur.n, &created, &dropped))?;
                                    }
                                    panic!("injected body panic");
                                })
                            }));
                            assert!(r.is_err(), "the body panic must surface");
                        }
                    }
                });
            }
            // A third thread exercises the read/retry path against `other`.
            let stm2 = stm.clone();
            let other2 = other.clone();
            s.spawn(move || {
                let mut h = stm2.handle(2);
                h.set_retry_strategy(RetryStrategy::Spin);
                let seen = h.atomically(|tx| {
                    let v = tx.read(&other2)?;
                    if v.n < 100 {
                        tx.retry()
                    } else {
                        Ok(v.n)
                    }
                });
                assert_eq!(seen, 100);
            });
        });

        let final_n = stm.handle(0).atomically(|tx| Ok(tx.read(&var)?.n));
        assert_eq!(
            final_n, 400,
            "every committed increment applied exactly once"
        );

        let grace = stm.stm().runtime().grace();
        assert!(
            grace.retired_boxes() >= 400,
            "each committed replacement retires the displaced box (saw {})",
            grace.retired_boxes()
        );
    }
    // Everything is dropped: instance, vars, handles — the runtime and its
    // grace engine drained (pending retirements freed at engine drop).
    assert_eq!(
        created.load(Ordering::SeqCst),
        dropped.load(Ordering::SeqCst),
        "every payload instance dropped exactly once (no leak, no double-drop)"
    );
    assert!(created.load(Ordering::SeqCst) > 0, "the workload ran");
}

#[test]
fn lifecycle_drops_every_instance_once_cooperative() {
    lifecycle_drops_every_instance_once(DriverMode::Cooperative);
}

#[test]
fn lifecycle_drops_every_instance_once_background() {
    lifecycle_drops_every_instance_once(DriverMode::Background);
}

/// One space holding three value types, one handle driven through every
/// way an attempt can end: a clean commit with superseded writes, an `or`
/// rollback, a body panic after its writes, and a *commit-time* abort —
/// forced by a channel handshake: the body reads `text`, a second thread
/// commits to `text`, then the body writes `counted` only, so the flush
/// succeeds (and records the box it would displace) and the commit's
/// validation fails. The displaced box must survive that; the new one must
/// not. Handles drop before the instance; every `Counted` comes back once.
fn every_exit_tears_down_exactly_once(mode: DriverMode) {
    let created = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let count = |n: u64| Counted::new(n, &created, &dropped);
    {
        let stm: TypedStm<Tl2Kind> = TypedStm::with_config(config(mode));
        let counted = stm.new_tvar(count(0));
        let text = stm.new_tvar(String::from("a"));
        let queue = stm.new_tvar(VecDeque::<u64>::new());
        let mut h = stm.handle(0);

        h.atomically(|tx| {
            tx.write(&counted, count(1))?; // superseded below
            tx.write(&counted, count(2))?;
            let mut t = tx.read(&text)?;
            t.push('b');
            tx.write(&text, t)?;
            let mut q = tx.read(&queue)?;
            q.push_back(7);
            tx.write(&queue, q)
        });

        h.atomically(|tx| {
            let (c, t, q) = (counted.clone(), text.clone(), queue.clone());
            let (doomed, q2) = (count(99), queue.clone());
            tx.or(
                move |tx| {
                    tx.write(&c, doomed)?;
                    tx.write(&t, String::from("rolled back"))?;
                    tx.write(&q, VecDeque::from([1, 2, 3]))?;
                    tx.retry()
                },
                move |tx| {
                    let mut q = tx.read(&q2)?;
                    q.push_back(8);
                    tx.write(&q2, q)
                },
            )
        });

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            h.atomically(|tx| -> StmResult<()> {
                tx.write(&counted, count(50))?;
                tx.write(&text, String::from("doomed"))?;
                panic!("injected body panic");
            })
        }));
        assert!(unwound.is_err(), "the body panic must surface");

        std::thread::scope(|s| {
            let (to_peer, peer_rx) = mpsc::channel::<()>();
            let (to_body, body_rx) = mpsc::channel::<()>();
            let (peer_stm, peer_text) = (stm.clone(), text.clone());
            s.spawn(move || {
                let mut peer = peer_stm.handle(1);
                peer_rx.recv().unwrap();
                peer.atomically(|tx| {
                    let mut t = tx.read(&peer_text)?;
                    t.push('!');
                    tx.write(&peer_text, t)
                });
                to_body.send(()).unwrap();
            });
            let mut met = false;
            h.atomically(|tx| {
                let len = tx.read(&text)?.len() as u64;
                if !std::mem::replace(&mut met, true) {
                    to_peer.send(()).unwrap();
                    body_rx.recv().unwrap();
                }
                tx.write(&counted, count(len))
            });
        });
        // (An armed fault plan may abort the attempt somewhere else first.)
        assert!(
            h.inner().stats().aborts_validate >= 1 || stm.stm().runtime().chaos().enabled(),
            "the handshake forced a commit-time abort"
        );

        let (c, t, q) =
            h.atomically(|tx| Ok((tx.read(&counted)?.n, tx.read(&text)?, tx.read(&queue)?)));
        assert_eq!(c, 3, "the re-run saw the peer's commit: \"ab!\"");
        assert_eq!(t, "ab!");
        assert_eq!(q, VecDeque::from([7, 8]));

        drop(h); // hands its parked cells over
        assert_eq!(
            stm.stm().runtime().grace().retired_boxes(),
            6,
            "3 + 1 + 1 replacements on this handle, 1 on the peer's"
        );
    }
    assert_eq!(
        created.load(Ordering::SeqCst),
        dropped.load(Ordering::SeqCst),
        "every payload instance dropped exactly once (no leak, no double-drop)"
    );
}

#[test]
fn every_exit_tears_down_exactly_once_cooperative() {
    every_exit_tears_down_exactly_once(DriverMode::Cooperative);
}

#[test]
fn every_exit_tears_down_exactly_once_background() {
    every_exit_tears_down_exactly_once(DriverMode::Background);
}

/// Under the background driver, retirements are collected *during* the run
/// (amortized under the driver tick), not just at engine drop: after a
/// fence the displaced boxes of earlier commits are free.
#[test]
fn background_driver_collects_while_running() {
    let created = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let stm: TypedStm<Tl2Kind> = TypedStm::with_config(config(DriverMode::Background));
    let var = stm.new_tvar(Counted::new(0, &created, &dropped));
    let mut h = stm.handle(0);
    for _ in 0..32 {
        h.atomically(|tx| {
            let cur = tx.read(&var)?;
            tx.write(&var, Counted::new(cur.n + 1, &created, &dropped))
        });
    }
    // A fence shares (at latest) the open period of the last retirement,
    // so joining it guarantees that period completed — and the completing
    // scan collects everything retired under it.
    h.inner().fence();
    let grace = stm.stm().runtime().grace();
    assert_eq!(grace.retired_boxes(), 32, "one retirement per replacement");
    assert_eq!(
        grace.collected_boxes(),
        32,
        "post-fence, every retirement is collected"
    );
    assert_eq!(grace.retired_pending(), 0);
}

/// The cooperative path: with no background driver, a polled fence is what
/// advances periods — and its completing scan collects the retirements.
#[test]
fn cooperative_fence_collects_retirements() {
    let created = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let stm: TypedStm<Tl2Kind> = TypedStm::with_config(config(DriverMode::Cooperative));
    let var = stm.new_tvar(Counted::new(0, &created, &dropped));
    let mut h = stm.handle(0);
    for _ in 0..8 {
        h.atomically(|tx| {
            let cur = tx.read(&var)?;
            tx.write(&var, Counted::new(cur.n + 1, &created, &dropped))
        });
    }
    h.inner().fence();
    let grace = stm.stm().runtime().grace();
    assert_eq!(grace.retired_boxes(), 8);
    assert_eq!(grace.collected_boxes(), 8);
    // The freed boxes' payloads really dropped (8 displaced values; reads
    // cloned more instances, so compare through the retire accounting, not
    // the raw counters).
    assert!(dropped.load(Ordering::SeqCst) >= 8);
}

/// The nested-`atomically` guard holds across handle and instance
/// boundaries: any second typed transaction on the same thread panics.
#[test]
fn nested_atomically_is_rejected_across_instances() {
    let stm: TypedStm<Tl2Kind> = TypedStm::new(8, 2);
    let inner_stm: TypedStm<Tl2Kind> = TypedStm::new(8, 2);
    let v = stm.new_tvar(1u64);
    let w = inner_stm.new_tvar(2u64);
    let mut h = stm.handle(0);
    let r = catch_unwind(AssertUnwindSafe(|| {
        h.atomically(|tx| {
            let mut h2 = inner_stm.handle(0);
            let w2 = w.clone();
            h2.atomically(move |tx2| tx2.read(&w2)); // must panic
            tx.read(&v)
        })
    }));
    let payload = r.expect_err("nested atomically must panic");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("nested atomically"), "unexpected panic: {msg}");
    // The guard reset on unwind: this thread can transact again.
    assert_eq!(stm.handle(1).atomically(|tx| tx.read(&v)), 1);
}
