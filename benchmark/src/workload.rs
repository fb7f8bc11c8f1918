//! The four workloads: what each is, how an instance is set up, and the
//! closed loop two clients drive against it for one window.
//!
//! Everything is measured from outside: the loop times calls into
//! `ShardedKv` and `TypedHandle::atomically` and reads the public
//! counters at window edges. The system runs as shipped — the only
//! construction call is `Tl2Stm::with_config(StmConfig::new(..))`.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm_service::ShardedKv;
use tm_stm::prelude::*;
use tm_stm::tl2::Tl2Kind;

use crate::gen::{self, Kind, Mix};
use crate::hist::Hist;
use crate::sys;

/// Closed-loop clients per workload. Two because callers of an in-process
/// STM each wait for their transaction and this box has two cores; the
/// main thread sleeps while they run.
pub const CLIENTS: usize = 2;

/// An op class with its own latency histogram and span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Get,
    Put,
    Rmw,
    Scan,
    Publish,
    Snapshot,
    Session,
}

pub const NCLASS: usize = 7;
/// Span-name index of the parent `service.request` span.
pub const REQUEST: usize = NCLASS;
pub const SPAN_NAMES: [&str; NCLASS + 1] = [
    "store.get",
    "store.put",
    "store.rmw",
    "store.scan",
    "store.publish",
    "store.snapshot",
    "tvar.session",
    "service.request",
];

pub struct Spec {
    pub name: &'static str,
    pub shards: usize,
    pub keys_per_shard: u64,
    pub theta: f64,
    pub mix: Mix,
    /// Commit a typed session record after every request.
    pub session: bool,
    /// Client 0 runs `snapshot_all` inline this often.
    pub snapshot_every: Option<Duration>,
}

impl Spec {
    /// Is `class` part of the request stream (as opposed to only probed)?
    pub fn issues(&self, class: Class) -> bool {
        match class {
            Class::Get => self.mix[0] > 0,
            Class::Put => self.mix[1] > 0,
            Class::Rmw => self.mix[2] > 0,
            Class::Scan | Class::Publish => self.mix[3] > 0,
            Class::Snapshot => self.snapshot_every.is_some(),
            Class::Session => self.session,
        }
    }
}

pub const SPECS: [Spec; 4] = [
    // run_service's shape, made duration-bound and stationary: every layer
    // is on the path, and the only workload where tvar reclamation works.
    Spec {
        name: "kv_mixed",
        shards: 8,
        keys_per_shard: 1024,
        theta: 0.9,
        mix: [55, 25, 15, 5],
        session: true,
        snapshot_every: Some(Duration::from_millis(2)),
    },
    // ≈ 1 M registers, beyond the 4 MiB L2: the fixed per-transaction tax
    // and the orec-table footprint do nearly all the work.
    Spec {
        name: "point_read",
        shards: 8,
        keys_per_shard: 65_536,
        theta: 0.0,
        mix: [95, 5, 0, 0],
        session: false,
        snapshot_every: None,
    },
    // The same layers used the other way: locks, clock bumps, write-back,
    // commit validation, aborts and backoff.
    Spec {
        name: "point_write_hot",
        shards: 2,
        keys_per_shard: 16,
        theta: 0.99,
        mix: [10, 30, 60, 0],
        session: false,
        snapshot_every: None,
    },
    // The paper's subject: freeze flag, grace-period fence, uninstrumented
    // double read, publish.
    Spec {
        name: "privatize_churn",
        shards: 16,
        keys_per_shard: 64,
        theta: 0.5,
        mix: [40, 20, 10, 30],
        session: false,
        snapshot_every: Some(Duration::from_micros(500)),
    },
];

/// The `Stats` fields the benchmark reads, as a vector so that window
/// deltas and cross-client sums are one zip.
#[derive(Clone, Copy)]
pub enum Stat {
    Commits,
    AbortsRead,
    AbortsLock,
    AbortsValidate,
    AbortsUser,
    Fences,
    FenceWaitNs,
    DirectReads,
    DirectWrites,
    Retries,
    BackoffNs,
    ClockBumps,
    ValidationElisions,
    FalseConflicts,
    WriteCommits,
    Escalations,
    PanicsUnwound,
}

pub const NSTAT: usize = 17;
pub type Counts = [u64; NSTAT];

pub fn counts(s: &Stats) -> Counts {
    [
        s.commits,
        s.aborts_read,
        s.aborts_lock,
        s.aborts_validate,
        s.aborts_user,
        s.fences,
        s.fence_wait_ns,
        s.direct_reads,
        s.direct_writes,
        s.retries,
        s.backoff_ns,
        s.clock_bumps,
        s.validation_elisions,
        s.false_conflicts,
        s.write_commits,
        s.escalations,
        s.panics_unwound,
    ]
}

pub fn sub(a: &Counts, b: &Counts) -> Counts {
    std::array::from_fn(|i| a[i] - b[i])
}

pub fn add(a: &Counts, b: &Counts) -> Counts {
    std::array::from_fn(|i| a[i] + b[i])
}

/// The grace engine's public counters, read by the main thread at window
/// edges.
#[derive(Clone, Copy, Default)]
pub struct Grace {
    pub scans: u64,
    pub issued: u64,
    pub completed: u64,
    pub retired_boxes: u64,
    pub collected_boxes: u64,
    pub retired_pending: u64,
}

impl Grace {
    /// Counter growth since `before`; `retired_pending` stays a level.
    fn since(self, before: Grace) -> Grace {
        Grace {
            scans: self.scans - before.scans,
            issued: self.issued - before.issued,
            completed: self.completed - before.completed,
            retired_boxes: self.retired_boxes - before.retired_boxes,
            collected_boxes: self.collected_boxes - before.collected_boxes,
            retired_pending: self.retired_pending,
        }
    }
}

pub struct Client {
    id: usize,
    th: TypedHandle<Tl2Kind>,
    session: TVar<[u64; 5]>,
    ring: Vec<u32>,
    pos: usize,
    put_seq: u64,
    /// Ops completed per class since set-up, in every phase.
    issued: [u64; NCLASS],
    /// Scan and snapshot anomalies seen since set-up.
    anomalies: u64,
}

/// Work sent to a client's thread.
type Job = Box<dyn FnOnce(&mut Client, &ShardedKv) + Send>;

/// A set-up workload. Each client lives on its own thread from set-up to
/// drop, as a service's workers do. (Fresh threads per window made
/// `kv_mixed` bimodal, 0.85 M or 1.05 M ops/s from window to window:
/// glibc hands a new thread whichever malloc arena is free, and the typed
/// session commit allocates on one client and frees on either.)
pub struct Instance {
    pub spec: &'static Spec,
    pub stm: Tl2Stm,
    pub kv: Arc<ShardedKv>,
    sessions: Vec<TVar<[u64; 5]>>,
    jobs: Vec<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
    /// Σ of the counter keys' prefilled values.
    pub counter_prefill: u64,
}

/// One set-up: STM instance, store, prefill of the even keys, op rings,
/// client threads.
pub fn build(spec: &'static Spec, seed: u64) -> Instance {
    let kv_regs = ShardedKv::regs_needed(spec.shards, spec.keys_per_shard);
    let stm = Tl2Stm::with_config(StmConfig::new(kv_regs + CLIENTS, CLIENTS));
    let kv = Arc::new(ShardedKv::new(0, spec.shards, spec.keys_per_shard));
    let typed = TypedStm::over(stm.clone(), kv_regs);
    let key_space = kv.key_space();
    // Each workload draws its own stream from the one seed.
    let seed = seed ^ (spec.shards as u64 * 0x1_0001 + spec.keys_per_shard);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client {
            id,
            th: typed.handle(id),
            session: typed.new_tvar([0u64; 5]),
            ring: gen::ring(seed, id, key_space, spec.theta, spec.mix),
            pos: 0,
            put_seq: 0,
            issued: [0; NCLASS],
            anomalies: 0,
        })
        .collect();
    let h = clients[0].th.inner();
    let mut counter_prefill = 0;
    for key in (0..key_space).step_by(2) {
        kv.put(h, key, key + 1);
        if key % 4 == 0 {
            counter_prefill += key + 1;
        }
    }
    let sessions = clients.iter().map(|c| c.session.clone()).collect();
    let (jobs, threads) = clients
        .into_iter()
        .map(|mut c| {
            let (tx, rx) = mpsc::channel::<Job>();
            let kv = Arc::clone(&kv);
            (
                tx,
                std::thread::spawn(move || rx.iter().for_each(|job| job(&mut c, &kv))),
            )
        })
        .unzip();
    Instance {
        spec,
        stm,
        kv,
        sessions,
        jobs,
        threads,
        counter_prefill,
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        // Hanging up ends each client's job loop; wait for it to leave.
        self.jobs.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Instance {
    /// Start `f` on client `id`'s thread; the receiver yields its result.
    fn start<R: Send + 'static>(
        &self,
        id: usize,
        f: impl FnOnce(&mut Client, &ShardedKv) -> R + Send + 'static,
    ) -> Receiver<R> {
        let (tx, rx) = mpsc::channel();
        let job: Job = Box::new(move |c, kv| {
            let _ = tx.send(f(c, kv));
        });
        self.jobs[id]
            .send(job)
            .expect("a benchmark client panicked");
        rx
    }

    /// Run `f` on every client's thread at once and wait for all. A client
    /// that panicked takes the run down: a poisoned handle cannot finish
    /// it, and the gate must not pass.
    fn on_all<R: Send + 'static>(
        &self,
        f: impl Fn(&mut Client, &ShardedKv) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let pending: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let f = Arc::clone(&f);
                self.start(id, move |c, kv| f(c, kv))
            })
            .collect();
        pending
            .into_iter()
            .map(|rx| rx.recv().expect("a benchmark client panicked"))
            .collect()
    }

    /// Run `f` on client 0's thread, idle between windows, and wait.
    fn on_client0<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Client, &ShardedKv) -> R + Send + 'static,
    ) -> R {
        self.start(0, f)
            .recv()
            .expect("a benchmark client panicked")
    }

    pub fn grace(&self) -> Grace {
        let g = self.stm.runtime().grace();
        Grace {
            scans: g.scans(),
            issued: g.issued(),
            completed: g.completed(),
            retired_boxes: g.retired_boxes(),
            collected_boxes: g.collected_boxes(),
            retired_pending: g.retired_pending() as u64,
        }
    }

    /// Sorted contents of the whole store.
    pub fn dump(&self) -> Vec<(u64, u64)> {
        self.on_client0(|c, kv| {
            let (entries, anomalies) = kv.dump_all(c.th.inner());
            c.anomalies += anomalies;
            c.issued[Class::Snapshot as usize] += 1;
            entries
        })
    }

    /// Live keys per shard.
    pub fn occupancy(&self) -> Vec<u64> {
        let mut per_shard = vec![0; self.spec.shards];
        for (key, _) in self.dump() {
            per_shard[self.kv.shard_of(key)] += 1;
        }
        per_shard
    }

    /// Per-class totals the clients' typed session records hold.
    pub fn session_totals(&self) -> [u64; 5] {
        let sessions = self.sessions.clone();
        self.on_client0(move |c, _| {
            c.th.atomically(|tx| {
                let mut sum = [0u64; 5];
                for s in &sessions {
                    for (acc, v) in sum.iter_mut().zip(tx.read(s)?) {
                        *acc += v;
                    }
                }
                Ok(sum)
            })
        })
    }

    /// Ops completed per class and anomalies seen, since set-up, over all
    /// clients and phases.
    pub fn tallies(&self) -> ([u64; NCLASS], u64) {
        let mut issued = [0; NCLASS];
        let mut anomalies = 0;
        for (i, a) in self.on_all(|c, _| (c.issued, c.anomalies)) {
            issued.iter_mut().zip(i).for_each(|(acc, v)| *acc += v);
            anomalies += a;
        }
        (issued, anomalies)
    }
}

/// One recorded span. Times are nanoseconds since the window's start on
/// the recording client.
pub struct Span {
    pub name: u8,
    /// Index of the parent span in the same client's log.
    pub parent: Option<u32>,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans kept per client; aggregates cover every span, kept or not.
pub const SPAN_CAP: usize = 200_000;

pub struct SpanLog {
    pub spans: Vec<Span>,
    pub agg: [SpanAgg; NCLASS + 1],
    /// Index of the open request's span, when it fit under the cap.
    open: Option<u32>,
    /// Time the open request's children have covered so far.
    child_ns: u64,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            // A request that opens just under the cap still keeps its
            // children (at most scan + publish + session).
            spans: Vec::with_capacity(SPAN_CAP + 4),
            agg: [SpanAgg::default(); NCLASS + 1],
            open: None,
            child_ns: 0,
        }
    }

    fn open_request(&mut self, req: u32) {
        self.child_ns = 0;
        self.open = (self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span {
                name: REQUEST as u8,
                parent: None,
                req,
                start_ns: 0,
                end_ns: 0,
            });
            self.spans.len() as u32 - 1
        });
    }

    fn close_request(&mut self, start_ns: u64, end_ns: u64) {
        let a = &mut self.agg[REQUEST];
        a.count += 1;
        a.total_ns += end_ns - start_ns;
        a.self_ns += end_ns - start_ns - self.child_ns;
        if let Some(i) = self.open.take() {
            let s = &mut self.spans[i as usize];
            s.start_ns = start_ns;
            s.end_ns = end_ns;
        }
    }

    /// A span without children: under the open request, or top level when
    /// `in_request` is false.
    fn leaf(&mut self, class: Class, in_request: bool, req: u32, start_ns: u64, end_ns: u64) {
        let a = &mut self.agg[class as usize];
        a.count += 1;
        a.total_ns += end_ns - start_ns;
        a.self_ns += end_ns - start_ns;
        let keep = if in_request {
            self.child_ns += end_ns - start_ns;
            self.open.is_some()
        } else {
            self.spans.len() < SPAN_CAP
        };
        if keep {
            self.spans.push(Span {
                name: class as u8,
                parent: self.open.filter(|_| in_request),
                req,
                start_ns,
                end_ns,
            });
        }
    }
}

/// What one client measured in one window.
pub struct ClientOut {
    pub hists: [Hist; NCLASS],
    pub ops: u64,
    pub elapsed_ns: u64,
    pub stats: Counts,
    pub stripes: u64,
    pub runq_wait_ns: u64,
    pub log: Option<SpanLog>,
}

/// One window of one workload, merged over the clients.
pub struct Window {
    pub hists: [Hist; NCLASS],
    pub ops: u64,
    /// Σ over clients of (ops / own elapsed time).
    pub ops_per_s: f64,
    /// Σ over clients of elapsed time.
    pub thread_ns: u64,
    pub wall_s: f64,
    pub stats: Counts,
    pub stripes: u64,
    /// Largest per-client share of the window spent runnable but waiting.
    pub runq_wait_share: f64,
    pub steal_ticks: u64,
    /// Counter deltas over the window; `retired_pending` is the level at
    /// its end.
    pub grace: Grace,
    pub logs: Vec<SpanLog>,
}

impl Window {
    pub fn stat(&self, s: Stat) -> u64 {
        self.stats[s as usize]
    }

    /// The noise guard's verdict: a client waited for a CPU for more than
    /// 2 % of the window.
    pub fn disturbed(&self) -> bool {
        self.runq_wait_share > 0.02
    }
}

/// Where a client puts each timed op: the class histogram, and in a traced
/// window also the span log.
struct Tally {
    start: Instant,
    hists: [Hist; NCLASS],
    log: Option<SpanLog>,
}

impl Tally {
    fn ns(&self, t: Instant) -> u64 {
        (t - self.start).as_nanos() as u64
    }

    #[inline]
    fn op(&mut self, class: Class, in_request: bool, req: u32, from: Instant, to: Instant) {
        self.hists[class as usize].record((to - from).as_nanos() as u64);
        if self.log.is_some() {
            let (from, to) = (self.ns(from), self.ns(to));
            if let Some(log) = &mut self.log {
                log.leaf(class, in_request, req, from, to);
            }
        }
    }
}

/// The closed loop one client runs for `dur`. Latency is one clock read
/// per op — the difference of consecutive timestamps — because a clock
/// read costs a tenth of a `get`; the traced variant pays more reads to
/// separate the generator's own time from the store's.
fn client_loop<const TRACE: bool>(
    c: &mut Client,
    kv: &ShardedKv,
    spec: &Spec,
    dur: Duration,
    barrier: &Barrier,
) -> ClientOut {
    let snapshot_every = spec.snapshot_every.filter(|_| c.id == 0);
    let mask = c.ring.len() - 1;
    let wait0 = sys::runq_wait_ns();
    let stats0 = counts(&c.th.inner().stats());
    let issued0: u64 = c.issued.iter().sum();
    barrier.wait();

    let start = Instant::now();
    let deadline = start + dur;
    let mut tally = Tally {
        start,
        hists: Default::default(),
        log: TRACE.then(SpanLog::new),
    };
    let mut last_snapshot = start;
    let mut prev = start;
    let mut req = 0u32;
    while prev < deadline {
        if snapshot_every.is_some_and(|every| prev - last_snapshot >= every) {
            let (entries, anomalies) = kv.snapshot_all(c.th.inner());
            drop(black_box(entries));
            let now = Instant::now();
            tally.op(Class::Snapshot, false, req, prev, now);
            c.anomalies += anomalies;
            c.issued[Class::Snapshot as usize] += 1;
            last_snapshot = now;
            prev = now;
            req += 1;
        }

        let (kind, key) = gen::decode(c.ring[c.pos]);
        c.pos = (c.pos + 1) & mask;
        let op_start = if TRACE { Instant::now() } else { prev };
        if let Some(log) = &mut tally.log {
            log.open_request(req);
        }
        let mut bump = [0u64; 5];
        let h = c.th.inner();
        // The class of the request's last store op and when that op began.
        let (class, from) = match kind {
            Kind::Get => {
                black_box(kv.get(h, key));
                (Class::Get, op_start)
            }
            Kind::Put => {
                c.put_seq += 1;
                kv.put(h, key, c.put_seq);
                (Class::Put, op_start)
            }
            Kind::Rmw => {
                black_box(kv.rmw(h, key, 1));
                (Class::Rmw, op_start)
            }
            Kind::Scan => {
                let (frozen, entries, anomalies) = kv.privatize_and_scan(h, kv.shard_of(key));
                drop(black_box(entries));
                let mid = Instant::now();
                tally.op(Class::Scan, true, req, op_start, mid);
                c.anomalies += anomalies;
                c.issued[Class::Scan as usize] += 1;
                bump[Class::Scan as usize] = 1;
                frozen.publish_back(h);
                (Class::Publish, mid)
            }
        };
        let mut now = Instant::now();
        tally.op(class, true, req, from, now);
        c.issued[class as usize] += 1;
        bump[class as usize] = 1;

        if spec.session {
            let session = &c.session;
            c.th.atomically(|tx| {
                let mut v = tx.read(session)?;
                for (acc, b) in v.iter_mut().zip(bump) {
                    *acc += b;
                }
                tx.write(session, v)
            });
            let end = Instant::now();
            tally.op(Class::Session, true, req, now, end);
            c.issued[Class::Session as usize] += 1;
            now = end;
        }
        if TRACE {
            let (from, to) = (tally.ns(prev), tally.ns(now));
            if let Some(log) = &mut tally.log {
                log.close_request(from, to);
            }
        }
        prev = now;
        req += 1;
    }

    let stats = c.th.inner().stats();
    ClientOut {
        ops: c.issued.iter().sum::<u64>() - issued0,
        elapsed_ns: tally.ns(prev),
        hists: tally.hists,
        stats: sub(&counts(&stats), &stats0),
        stripes: stats.current_stripes,
        runq_wait_ns: sys::runq_wait_ns() - wait0,
        log: tally.log,
    }
}

/// Run both clients for `dur` and merge what they measured.
pub fn run_window(inst: &Instance, dur: Duration, traced: bool) -> Window {
    let spec = inst.spec;
    let before = inst.grace();
    let steal0 = sys::steal_ticks();
    let barrier = Barrier::new(CLIENTS);
    let outs = inst.on_all(move |c, kv| {
        if traced {
            client_loop::<true>(c, kv, spec, dur, &barrier)
        } else {
            client_loop::<false>(c, kv, spec, dur, &barrier)
        }
    });
    let mut w = Window {
        hists: Default::default(),
        ops: 0,
        ops_per_s: 0.0,
        thread_ns: 0,
        wall_s: 0.0,
        stats: [0; NSTAT],
        stripes: 0,
        runq_wait_share: 0.0,
        steal_ticks: sys::steal_ticks() - steal0,
        grace: inst.grace().since(before),
        logs: Vec::new(),
    };
    for o in outs {
        for (acc, h) in w.hists.iter_mut().zip(&o.hists) {
            acc.merge(h);
        }
        w.ops += o.ops;
        w.ops_per_s += o.ops as f64 * 1e9 / o.elapsed_ns as f64;
        w.thread_ns += o.elapsed_ns;
        w.wall_s = w.wall_s.max(o.elapsed_ns as f64 / 1e9);
        w.stats = add(&w.stats, &o.stats);
        w.stripes = w.stripes.max(o.stripes);
        w.runq_wait_share = w
            .runq_wait_share
            .max(o.runq_wait_ns as f64 / o.elapsed_ns as f64);
        w.logs.extend(o.log);
    }
    w
}

/// Call `f` until it has run `min_count` times and `min_time` has passed.
fn repeat(min_time: Duration, min_count: u32, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_count || start.elapsed() < min_time {
        f();
        n += 1;
    }
}

/// One round of the quiet probe: every op class the workload's request
/// stream never issues is run back to back on this workload's store, by
/// one thread with nothing else running, so that each end-to-end metric
/// has a value on each workload (the cost of that op on this store shape,
/// uncontended). Counts are floors that keep each percentile supported.
pub fn probe_round(inst: &Instance, round: Duration) -> [Hist; NCLASS] {
    let spec = inst.spec;
    inst.on_client0(move |c, kv| probe(c, kv, spec, round))
}

fn probe(c: &mut Client, kv: &ShardedKv, spec: &Spec, round: Duration) -> [Hist; NCLASS] {
    let mut hists: [Hist; NCLASS] = Default::default();
    if !spec.issues(Class::Scan) {
        let mut shard = 0;
        repeat(round, 120, || {
            let t0 = Instant::now();
            let (frozen, entries, anomalies) = kv.privatize_and_scan(c.th.inner(), shard);
            drop(black_box(entries));
            let t1 = Instant::now();
            frozen.publish_back(c.th.inner());
            let t2 = Instant::now();
            hists[Class::Scan as usize].record((t1 - t0).as_nanos() as u64);
            hists[Class::Publish as usize].record((t2 - t1).as_nanos() as u64);
            c.anomalies += anomalies;
            c.issued[Class::Scan as usize] += 1;
            c.issued[Class::Publish as usize] += 1;
            shard = (shard + 1) % spec.shards;
        });
    }
    if !spec.issues(Class::Snapshot) {
        repeat(round, 24, || {
            let t0 = Instant::now();
            let (entries, anomalies) = kv.snapshot_all(c.th.inner());
            drop(black_box(entries));
            hists[Class::Snapshot as usize].record(t0.elapsed().as_nanos() as u64);
            c.anomalies += anomalies;
            c.issued[Class::Snapshot as usize] += 1;
        });
    }
    if !spec.issues(Class::Session) {
        let session = &c.session;
        // The gate only reads session totals where the request stream
        // maintains them, so the probe's own commits carry a plain tick.
        repeat(round / 2, 1000, || {
            let t0 = Instant::now();
            c.th.atomically(|tx| {
                let mut v = tx.read(session)?;
                v[0] += 1;
                tx.write(session, v)
            });
            hists[Class::Session as usize].record(t0.elapsed().as_nanos() as u64);
            c.issued[Class::Session as usize] += 1;
        });
    }
    hists
}

/// Write the kept spans of a traced window, one JSON object per line.
pub fn write_trace(path: &Path, logs: &[SpanLog]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (client, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            write!(
                out,
                "{{\"name\":\"{}\",\"client\":{client},\"req\":{},\"span\":{i},\"parent\":",
                SPAN_NAMES[s.name as usize], s.req
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Spec = Spec {
        name: "tiny",
        shards: 4,
        keys_per_shard: 16,
        theta: 0.9,
        mix: [40, 20, 20, 20],
        session: true,
        snapshot_every: Some(Duration::from_micros(300)),
    };

    #[test]
    fn a_short_run_leaves_occupancy_and_counters_as_the_gate_expects() {
        let inst = build(&TINY, 42);
        let before = inst.occupancy();
        assert_eq!(before, vec![8; 4], "even keys prefilled");
        let w = run_window(&inst, Duration::from_millis(150), false);
        assert!(w.ops > 0 && w.ops_per_s > 0.0);
        assert_eq!(inst.occupancy(), before, "occupancy is stationary");

        let (issued, anomalies) = inst.tallies();
        assert_eq!(anomalies, 0);
        let counters: u64 = inst
            .dump()
            .iter()
            .filter(|(k, _)| k % 4 == 0)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            counters,
            inst.counter_prefill + issued[Class::Rmw as usize],
            "every rmw landed exactly once"
        );
        assert_eq!(inst.session_totals()[..], issued[..5], "sessions agree");
        for class in [Class::Get, Class::Scan, Class::Publish, Class::Snapshot] {
            assert!(w.hists[class as usize].count() > 0, "{class:?} ran");
        }
    }

    #[test]
    fn traced_spans_cover_the_thread_time() {
        let inst = build(&TINY, 42);
        let w = run_window(&inst, Duration::from_millis(100), true);
        assert_eq!(w.logs.len(), CLIENTS);
        let self_ns: u64 = w
            .logs
            .iter()
            .flat_map(|l| l.agg.iter())
            .map(|a| a.self_ns)
            .sum();
        assert_eq!(self_ns, w.thread_ns, "self times partition the window");
        let log = &w.logs[0];
        let child = log.spans.iter().find(|s| s.parent.is_some()).unwrap();
        let parent = &log.spans[child.parent.unwrap() as usize];
        assert_eq!(parent.name as usize, REQUEST);
        assert_eq!(parent.req, child.req);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }

    #[test]
    fn the_probe_runs_only_the_classes_the_stream_lacks() {
        const POINTS: Spec = Spec {
            mix: [90, 10, 0, 0],
            session: false,
            snapshot_every: None,
            ..TINY
        };
        let inst = build(&POINTS, 1);
        let h = probe_round(&inst, Duration::from_millis(5));
        for class in [Class::Scan, Class::Publish, Class::Snapshot, Class::Session] {
            assert!(
                h[class as usize].quantile(0.5).is_some(),
                "{class:?} probed"
            );
        }
        assert_eq!(h[Class::Get as usize].count(), 0);
        let full = build(&TINY, 1);
        let h = probe_round(&full, Duration::from_millis(5));
        assert!(h.iter().all(|h| h.count() == 0), "nothing to probe");
    }
}
