//! One benchmark run: set up the workloads, warm up, run the measured
//! windows round-robin, probe, trace, climb the ladder, judge correctness,
//! and turn what was measured into the named metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::gate::{self, LitmusGate, StoreGate};
use crate::hist::Hist;
use crate::json::Json;
use crate::ladder::{self, Rung};
use crate::obj;
use crate::sys;
use crate::workload::{
    self, Class, Instance, Spec, Stat, Window, CLIENTS, NCLASS, REQUEST, SPAN_NAMES, SPECS,
};

pub struct Opts {
    /// Run only this workload (the driver's mode); all four otherwise.
    pub workload: Option<String>,
    pub seed: u64,
    /// Measured seconds per workload, split into the windows.
    pub seconds: f64,
    /// `Some(false)`: end-to-end only, skip traced pass and ladder.
    /// `Some(true)` or `None`: everything.
    pub trace: Option<bool>,
    /// Smoke run: short, few windows, flagged, refused by `compare`.
    pub quick: bool,
}

/// How long and how often each phase runs.
struct Plan {
    windows: usize,
    window: Duration,
    warmup: Duration,
    probe_round: Duration,
    rung: Duration,
}

impl Plan {
    fn of(opts: &Opts) -> Plan {
        if opts.quick {
            return Plan {
                windows: 2,
                window: Duration::from_millis(500),
                warmup: Duration::from_millis(200),
                probe_round: Duration::from_millis(20),
                rung: Duration::from_millis(50),
            };
        }
        let window = Duration::from_secs_f64(opts.seconds / 5.0);
        Plan {
            windows: 5,
            window,
            warmup: Duration::from_millis(500),
            probe_round: Duration::from_millis(100),
            rung: window / 10,
        }
    }
}

/// A latency metric: name (its suffix is the unit), op classes pooled,
/// percentile.
type Latency = (&'static str, &'static [Class], f64);

/// The end-to-end latency metrics. The tail of a point op is its p90: on
/// this box the p99 of a sub-microsecond op measures how often the host
/// interrupts the guest (see the README), so p99 is a layer metric.
const LATENCIES: [Latency; 8] = [
    ("get_p50_ns", &[Class::Get], 0.50),
    ("get_p90_ns", &[Class::Get], 0.90),
    ("write_p50_ns", &[Class::Put, Class::Rmw], 0.50),
    ("write_p90_ns", &[Class::Put, Class::Rmw], 0.90),
    ("scan_p50_us", &[Class::Scan], 0.50),
    ("scan_p90_us", &[Class::Scan], 0.90),
    ("snapshot_p50_us", &[Class::Snapshot], 0.50),
    ("session_p50_ns", &[Class::Session], 0.50),
];

/// Latency percentiles reported as layer metrics of `service.store`.
const STORE_LATENCIES: [Latency; 3] = [
    ("store.get_p99_ns", &[Class::Get], 0.99),
    ("store.write_p99_ns", &[Class::Put, Class::Rmw], 0.99),
    ("store.publish_p50_ns", &[Class::Publish], 0.50),
];

/// One metric of one workload: the median of its per-window (or
/// per-set-up, per-probe-round) values.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub median: Option<f64>,
    pub min: Option<f64>,
    pub max: Option<f64>,
    /// The per-window (per-set-up, per-round) values, in run order.
    pub values: Vec<f64>,
    /// Latency samples (or windows, set-ups) behind the values.
    pub samples: u64,
    /// `windows`, `probe`, `setups`, `traced`, `ladder` or `gate`.
    pub source: &'static str,
}

fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

impl Metric {
    fn of(
        name: &str,
        unit: &'static str,
        source: &'static str,
        values: &[f64],
        samples: u64,
    ) -> Metric {
        let finite = values.iter().copied().filter(|x| x.is_finite());
        Metric {
            name: name.to_string(),
            unit,
            median: median(values),
            min: finite.clone().min_by(f64::total_cmp),
            max: finite.max_by(f64::total_cmp),
            values: values.to_vec(),
            samples,
            source,
        }
    }

    fn scalar(name: &str, unit: &'static str, source: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, source, &[value], 1)
    }

    fn json(&self, unresolved: bool) -> Json {
        let mut j = obj! {
            "unit" => self.unit,
            "median" => self.median.filter(|_| !unresolved),
            "min" => self.min,
            "max" => self.max,
            "values" => self.values.clone(),
            "samples" => self.samples,
            "source" => self.source,
        };
        if unresolved {
            let Json::Obj(kv) = &mut j else {
                unreachable!()
            };
            kv.push(("status".into(), "unresolved".into()));
            kv.push(("observed_median".into(), self.median.into()));
        }
        j
    }
}

/// Everything measured on one workload.
struct Measured {
    spec: &'static Spec,
    setup_s: Vec<f64>,
    rss_mb: f64,
    windows: Vec<Window>,
    probes: Vec<[Hist; NCLASS]>,
    traced: Option<Window>,
    /// The store gate over every instance measured so far.
    gate: Option<StoreGate>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Measured {
    /// One latency percentile: per window, or per round of the quiet probe
    /// for a class the request stream never issues.
    fn latency(&self, &(name, classes, q): &Latency) -> Metric {
        let (source, hists): (_, Vec<&[Hist; NCLASS]>) = if self.spec.issues(classes[0]) {
            ("windows", self.windows.iter().map(|w| &w.hists).collect())
        } else {
            ("probe", self.probes.iter().collect())
        };
        let (unit, ns_per_unit) = if name.ends_with("_us") {
            ("us", 1e3)
        } else {
            ("ns", 1.0)
        };
        let mut samples = 0;
        let values: Vec<f64> = hists
            .iter()
            .filter_map(|h| {
                let mut pooled = Hist::default();
                classes.iter().for_each(|&c| pooled.merge(&h[c as usize]));
                samples += pooled.count();
                pooled.quantile(q).map(|ns| ns / ns_per_unit)
            })
            .collect();
        Metric::of(name, unit, source, &values, samples)
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let mut out = vec![
            Metric::of(
                "setup_s",
                "s",
                "setups",
                &self.setup_s,
                self.setup_s.len() as u64,
            ),
            Metric::of(
                "ops_per_s",
                "ops/s",
                "windows",
                &self.windows.iter().map(|w| w.ops_per_s).collect::<Vec<_>>(),
                self.windows.iter().map(|w| w.ops).sum(),
            ),
        ];
        out.extend(LATENCIES.iter().map(|l| self.latency(l)));
        out
    }

    /// Layer metrics that are a function of one window's counters,
    /// reported as the median window.
    fn window_layers(&self) -> Vec<Metric> {
        type F = fn(&Window) -> f64;
        let table: [(&str, &'static str, F); 21] = [
            ("bench.runq_wait_share", "ratio", |w| w.runq_wait_share),
            ("bench.steal_ticks", "count", |w| w.steal_ticks as f64),
            ("store.freeze_bounces_per_kop", "1/kop", |w| {
                1e3 * ratio(w.stat(Stat::AbortsUser), w.ops)
            }),
            ("tvar.retired_per_commit", "ratio", |w| {
                ratio(
                    w.grace.retired_boxes,
                    w.hists[Class::Session as usize].count(),
                )
            }),
            ("tvar.reclaim_backlog", "count", |w| {
                w.grace.retired_pending as f64
            }),
            ("runtime.commits_per_op", "ratio", |w| {
                ratio(w.stat(Stat::Commits), w.ops)
            }),
            ("runtime.retries_per_kop", "1/kop", |w| {
                1e3 * ratio(w.stat(Stat::Retries), w.ops)
            }),
            ("runtime.abort_share", "ratio", |w| {
                ratio(aborts(w), attempts(w))
            }),
            ("runtime.abort_share_read", "ratio", |w| {
                ratio(w.stat(Stat::AbortsRead), attempts(w))
            }),
            ("runtime.abort_share_lock", "ratio", |w| {
                ratio(w.stat(Stat::AbortsLock), attempts(w))
            }),
            ("runtime.abort_share_validate", "ratio", |w| {
                ratio(w.stat(Stat::AbortsValidate), attempts(w))
            }),
            ("runtime.backoff_share", "ratio", |w| {
                ratio(w.stat(Stat::BackoffNs), w.thread_ns)
            }),
            ("runtime.escalations", "count", |w| {
                w.stat(Stat::Escalations) as f64
            }),
            ("clock.bumps_per_write_commit", "ratio", |w| {
                ratio(w.stat(Stat::ClockBumps), w.stat(Stat::WriteCommits))
            }),
            ("tl2.validation_elision_share", "ratio", |w| {
                ratio(w.stat(Stat::ValidationElisions), w.stat(Stat::WriteCommits))
            }),
            ("storage.false_conflicts_per_kop", "1/kop", |w| {
                1e3 * ratio(w.stat(Stat::FalseConflicts), w.ops)
            }),
            ("storage.current_stripes", "count", |w| w.stripes as f64),
            ("fence.wait_share", "ratio", |w| {
                ratio(w.stat(Stat::FenceWaitNs), w.thread_ns)
            }),
            ("fence.per_kop", "1/kop", |w| {
                1e3 * ratio(w.stat(Stat::Fences), w.ops)
            }),
            // Below 1 when fences share a grace period's one scan.
            ("quiesce.scans_per_fence", "ratio", |w| {
                ratio(w.grace.scans, w.stat(Stat::Fences))
            }),
            ("quiesce.periods_per_s", "1/s", |w| {
                w.grace.completed as f64 / w.wall_s
            }),
        ];
        table
            .iter()
            .map(|(name, unit, f)| {
                let values: Vec<f64> = self.windows.iter().map(f).collect();
                Metric::of(name, unit, "windows", &values, values.len() as u64)
            })
            .collect()
    }

    /// Mean self time per span of each name in the traced window, and what
    /// the tracing cost.
    fn traced_layers(&self) -> Vec<Metric> {
        let Some(t) = &self.traced else {
            return Vec::new();
        };
        let mean_self = |name: usize| {
            let (mut ns, mut n) = (0, 0);
            for log in &t.logs {
                ns += log.agg[name].self_ns;
                n += log.agg[name].count;
            }
            ratio(ns, n)
        };
        let span = |metric: &str, unit: &'static str, class: Class, ns_per_unit: f64| {
            Metric::scalar(
                metric,
                unit,
                "traced",
                mean_self(class as usize) / ns_per_unit,
            )
        };
        let untraced: Vec<f64> = self.windows.iter().map(|w| w.ops_per_s).collect();
        vec![
            span("store.get_ns", "ns", Class::Get, 1.0),
            span("store.put_ns", "ns", Class::Put, 1.0),
            span("store.rmw_ns", "ns", Class::Rmw, 1.0),
            span("store.scan_us", "us", Class::Scan, 1e3),
            span("store.publish_ns", "ns", Class::Publish, 1.0),
            span("store.snapshot_us", "us", Class::Snapshot, 1e3),
            span("tvar.commit_ns", "ns", Class::Session, 1.0),
            Metric::scalar(
                "bench.trace_overhead_share",
                "ratio",
                "traced",
                1.0 - t.ops_per_s / median(&untraced).unwrap_or(f64::NAN),
            ),
        ]
    }

    /// Σ of span self times over the traced window's thread time: 1 when
    /// the spans account for all of it.
    fn trace_coverage(&self) -> Option<f64> {
        let t = self.traced.as_ref()?;
        let self_ns: u64 = t.logs.iter().flat_map(|l| &l.agg).map(|a| a.self_ns).sum();
        Some(ratio(self_ns, t.thread_ns))
    }

    fn disturbed(&self) -> usize {
        self.windows.iter().filter(|w| w.disturbed()).count()
    }

    /// Most windows were disturbed: the numbers say more about the
    /// neighbours than about the program.
    fn unresolved(&self) -> bool {
        2 * self.disturbed() > self.windows.len()
    }
}

fn aborts(w: &Window) -> u64 {
    [
        Stat::AbortsRead,
        Stat::AbortsLock,
        Stat::AbortsValidate,
        Stat::AbortsUser,
    ]
    .iter()
    .map(|&s| w.stat(s))
    .sum()
}

fn attempts(w: &Window) -> u64 {
    aborts(w) + w.stat(Stat::Commits)
}

/// Layer metrics that are differences of ladder rungs.
fn ladder_layers(rungs: &[Rung]) -> Vec<Metric> {
    let ns = |name: &str| {
        let rung = rungs.iter().find(|r| r.name == name);
        rung.expect("a rung the ladder always runs").ns[0]
    };
    let delta = |metric: &str, upper: &str, lower: &str| {
        Metric::scalar(metric, "ns", "ladder", ns(upper) - ns(lower))
    };
    vec![
        delta("map.get_self_ns", "ladder.map_get", "ladder.handle_ro1"),
        delta(
            "map.insert_self_ns",
            "ladder.map_insert",
            "ladder.handle_w1",
        ),
        delta(
            "runtime.handle_tax_ns",
            "ladder.handle_ro1",
            "ladder.runtime_raw",
        ),
        delta(
            "telemetry.tax_ns",
            "ladder.handle_w1_trace",
            "ladder.handle_w1",
        ),
        delta(
            "record.tax_ns",
            "ladder.handle_w1_record",
            "ladder.handle_w1",
        ),
        Metric::scalar("fence.idle_ns", "ns", "ladder", ns("ladder.fence_idle")),
    ]
}

fn rung_metric(r: &Rung) -> Metric {
    Metric {
        name: r.name.to_string(),
        unit: "ns",
        median: Some(r.ns[0]),
        min: Some(r.ns[1]),
        max: Some(r.ns[2]),
        values: r.ns.to_vec(),
        samples: 3,
        source: "ladder",
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub pass: bool,
    /// The driver's result line, when `--trace` was given.
    pub driver_line: Option<Json>,
}

pub fn run(opts: &Opts, out_dir: &Path) -> Result<Outcome, String> {
    let specs: Vec<&'static Spec> = match &opts.workload {
        None => SPECS.iter().collect(),
        Some(name) => vec![SPECS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?],
    };
    let plan = Plan::of(opts);
    let with_layers = opts.trace != Some(false);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut runs: Vec<Measured> = specs
        .into_iter()
        .map(|spec| Measured {
            spec,
            setup_s: Vec::new(),
            rss_mb: 0.0,
            windows: Vec::new(),
            probes: Vec::new(),
            traced: None,
            gate: None,
        })
        .collect();
    // Every window runs on a set-up of its own: where the allocator puts
    // an instance decides which hot registers share cache lines, and one
    // set-up in six of `point_write_hot` runs 20 % slower for as long as
    // it lives. Round-robin over the workloads, so a bad period on this
    // box costs each workload one window instead of one workload its
    // whole run.
    let mut stm_config = Json::Null;
    for round in 0..plan.windows {
        let last = round + 1 == plan.windows;
        for m in &mut runs {
            let rss0 = sys::rss_mb();
            let start = Instant::now();
            let inst = workload::build(m.spec, opts.seed);
            m.setup_s.push(start.elapsed().as_secs_f64());
            if round == 0 {
                m.rss_mb = sys::rss_mb() - rss0;
                stm_config = read_back(&inst);
            }
            // Lazy work is done before the window starts.
            workload::run_window(&inst, plan.warmup, false);
            let occupancy_before = inst.occupancy();
            let w = workload::run_window(&inst, plan.window, false);
            let mut panics = w.stat(Stat::PanicsUnwound);
            m.windows.push(w);
            if last {
                m.probes = (0..plan.windows)
                    .map(|_| workload::probe_round(&inst, plan.probe_round))
                    .collect();
            }
            if last && with_layers {
                let t = workload::run_window(&inst, plan.window, true);
                let path = out_dir.join(format!("trace_{}.jsonl", m.spec.name));
                workload::write_trace(&path, &t.logs)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                panics += t.stat(Stat::PanicsUnwound);
                m.traced = Some(t);
            }
            let gate = gate::check_store(&inst, occupancy_before, panics);
            m.gate = Some(match m.gate.take() {
                Some(earlier) => earlier.then(gate),
                None => gate,
            });
        }
    }

    let litmus = gate::check_litmus();
    // Layer metrics of the run as a whole, not of one workload.
    let mut run_layers = vec![
        Metric::scalar("core.check_ms", "ms", "gate", litmus.check_ms),
        Metric::scalar(
            "core.history_actions",
            "count",
            "gate",
            litmus.history_actions as f64,
        ),
    ];
    let mut rungs = Vec::new();
    let mut rung_metrics = Vec::new();
    if with_layers {
        rungs = ladder::run(plan.rung);
        run_layers.push(Metric::scalar(
            "bench.clock_read_ns",
            "ns",
            "ladder",
            ladder::clock_read_ns(),
        ));
        run_layers.extend(ladder_layers(&rungs));
        rung_metrics = rungs.iter().map(rung_metric).collect();
    }

    let meta = meta(opts, &plan, stm_config);
    let mut pass = litmus.pass();
    let mut workloads = Vec::new();
    let mut driver = None;
    for mut m in runs {
        let store = m.gate.take().expect("every workload ran a window");
        pass &= store.pass();

        let end_to_end = m.end_to_end();
        let build_ms: Vec<f64> = m.setup_s.iter().map(|s| s * 1e3).collect();
        let mut per_layer = vec![
            Metric::of(
                "bench.build_ms",
                "ms",
                "setups",
                &build_ms,
                build_ms.len() as u64,
            ),
            Metric::scalar("storage.rss_mb", "MB", "setups", m.rss_mb),
        ];
        per_layer.extend(STORE_LATENCIES.iter().map(|l| m.latency(l)));
        per_layer.extend(m.window_layers());
        per_layer.extend(m.traced_layers());

        print_workload(&m, &end_to_end, &per_layer, &store);
        if let Some(traced) = opts.trace {
            let metrics: Vec<&Metric> = if traced {
                per_layer
                    .iter()
                    .chain(&run_layers)
                    .chain(&rung_metrics)
                    .collect()
            } else {
                end_to_end.iter().collect()
            };
            driver = Some(driver_line(&metrics, &store, store.pass() && litmus.pass()));
        }
        workloads.push((
            m.spec.name.to_string(),
            workload_json(&m, &end_to_end, &per_layer, &store),
        ));
    }
    println!("\n== whole run");
    print_metrics("per layer", &run_layers, false);
    print_ladder(&rungs);
    print_gate(&litmus, pass);

    let report = obj! {
        "schema" => "tm-benchmark/v1",
        "quick" => opts.quick,
        "meta" => meta,
        "workloads" => Json::Obj(workloads),
        "per_layer" => metrics_json(&run_layers, false),
        "ladder" => Json::Arr(rungs.iter().map(rung_json).collect()),
        "gate" => obj! { "pass" => pass, "litmus" => litmus.json() },
    };
    let path = out_dir.join("run.json");
    std::fs::write(&path, report.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(Outcome {
        pass,
        driver_line: driver,
    })
}

/// The configuration `StmConfig::new` produced, read back from an
/// instance.
fn read_back(inst: &Instance) -> Json {
    let rt = inst.stm.runtime();
    obj! {
        "trace_capacity" => rt.telemetry().capacity() as u64,
        "trace_enabled" => rt.telemetry().enabled(),
        "chaos" => rt.chaos().enabled(),
        "driver" => rt.driver_mode().label(),
        "clock" => inst.stm.clock_mode_label(),
        "storage" => tm_stm::prelude::StmConfig::new(1, 1).storage.label(),
        "stripes_per_register" => inst.stm.nstripes() as f64 / rt.nregs() as f64,
    }
}

/// The run's fingerprint: machine, toolchain, run shape, configuration.
fn meta(opts: &Opts, plan: &Plan, stm_config: Json) -> Json {
    let mut j = sys::fingerprint();
    let Json::Obj(kv) = &mut j else {
        unreachable!()
    };
    kv.extend([
        ("seed".to_string(), Json::from(opts.seed)),
        ("clients".to_string(), Json::from(CLIENTS as u64)),
        ("windows".to_string(), Json::from(plan.windows as u64)),
        (
            "window_s".to_string(),
            Json::from(plan.window.as_secs_f64()),
        ),
        (
            "warmup_s".to_string(),
            Json::from(plan.warmup.as_secs_f64()),
        ),
        ("stm_config".to_string(), stm_config),
    ]);
    j
}

fn metrics_json(metrics: &[Metric], unresolved: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.json(unresolved && m.source == "windows")))
            .collect(),
    )
}

fn workload_json(
    m: &Measured,
    end_to_end: &[Metric],
    per_layer: &[Metric],
    store: &StoreGate,
) -> Json {
    let windows: Vec<Json> = m
        .windows
        .iter()
        .map(|w| {
            obj! {
                "ops" => w.ops,
                "ops_per_s" => w.ops_per_s,
                "wall_s" => w.wall_s,
                "runq_wait_share" => w.runq_wait_share,
                "steal_ticks" => w.steal_ticks,
                "disturbed" => w.disturbed(),
            }
        })
        .collect();
    let trace = m.traced.as_ref().map(|t| {
        let spans: Vec<(String, Json)> = (0..=REQUEST)
            .map(|name| {
                let (mut count, mut total, mut own) = (0, 0, 0);
                for log in &t.logs {
                    count += log.agg[name].count;
                    total += log.agg[name].total_ns;
                    own += log.agg[name].self_ns;
                }
                (
                    SPAN_NAMES[name].to_string(),
                    obj! { "count" => count, "total_ns" => total, "self_ns" => own },
                )
            })
            .collect();
        obj! {
            "file" => format!("trace_{}.jsonl", m.spec.name),
            "ops_per_s" => t.ops_per_s,
            "thread_ns" => t.thread_ns,
            "self_time_coverage" => m.trace_coverage(),
            "spans_kept" => t.logs.iter().map(|l| l.spans.len() as u64).sum::<u64>(),
            "spans" => Json::Obj(spans),
        }
    });
    obj! {
        "shape" => obj! {
            "shards" => m.spec.shards as u64,
            "keys_per_shard" => m.spec.keys_per_shard,
            "theta" => m.spec.theta,
            "mix_get_put_rmw_scan" => m.spec.mix.iter().map(|&p| p as u64).collect::<Vec<_>>(),
            "session" => m.spec.session,
            "snapshot_every_us" => m.spec.snapshot_every.map(|d| d.as_micros() as u64),
        },
        "disturbed_windows" => m.disturbed() as u64,
        "end_to_end" => metrics_json(end_to_end, m.unresolved()),
        "per_layer" => metrics_json(per_layer, m.unresolved()),
        "windows" => Json::Arr(windows),
        "trace" => trace,
        "gate" => store.json(),
    }
}

fn rung_json(r: &Rung) -> Json {
    let counts: Vec<(String, Json)> = r
        .headline_counts()
        .iter()
        .map(|&(k, v)| (k.to_string(), Json::from(v)))
        .collect();
    obj! {
        "name" => r.name,
        "ns_per_op" => obj! { "median" => r.ns[0], "min" => r.ns[1], "max" => r.ns[2] },
        "per_op" => Json::Obj(counts),
    }
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.
/// The driver wants a number for every metric, so a metric with no
/// supported percentile or no data reads 0 here (and `null` in
/// `run.json`).
fn driver_line(metrics: &[&Metric], store: &StoreGate, correct: bool) -> Json {
    let metrics: Vec<(String, Json)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj! { "value" => m.median.unwrap_or(0.0), "unit" => m.unit },
            )
        })
        .collect();
    obj! {
        "correct" => correct,
        "attempted" => store.attempted,
        "failed" => store.failed(),
        "metrics" => Json::Obj(metrics),
    }
}

fn fmt(v: Option<f64>) -> String {
    match v {
        None => "null".into(),
        Some(v) if v.abs() >= 1e4 => format!("{v:.0}"),
        Some(v) if v.abs() >= 10.0 => format!("{v:.1}"),
        Some(v) => format!("{v:.4}"),
    }
}

fn print_metrics(title: &str, metrics: &[Metric], unresolved: bool) {
    println!("  {title}");
    for m in metrics {
        let status = if unresolved && m.source == "windows" {
            "  UNRESOLVED"
        } else {
            ""
        };
        println!(
            "    {:<34} {:>12} {:<6} [{} .. {}]  n={} ({}){status}",
            m.name,
            fmt(m.median),
            m.unit,
            fmt(m.min),
            fmt(m.max),
            m.samples,
            m.source,
        );
    }
}

fn print_workload(m: &Measured, end_to_end: &[Metric], per_layer: &[Metric], store: &StoreGate) {
    println!(
        "\n== {} — {} shards x {} keys, {} of {} windows disturbed",
        m.spec.name,
        m.spec.shards,
        m.spec.keys_per_shard,
        m.disturbed(),
        m.windows.len()
    );
    print_metrics(
        "end to end (median window [min .. max])",
        end_to_end,
        m.unresolved(),
    );
    print_metrics("per layer", per_layer, m.unresolved());
    if let Some(c) = m.trace_coverage() {
        println!(
            "  traced pass: span self times cover {:.2} % of thread time",
            c * 100.0
        );
    }
    println!(
        "  gate: {} — failed_op_share {} ({} of {} ops), occupancy {:?} -> {:?}",
        if store.pass() { "pass" } else { "FAIL" },
        store.failed() as f64 / store.attempted.max(1) as f64,
        store.failed(),
        store.attempted,
        store.occupancy_before,
        store.occupancy_after,
    );
}

fn print_ladder(rungs: &[Rung]) {
    if rungs.is_empty() {
        return;
    }
    println!("\n== cost ladder (single thread, median of 3 [min .. max], counts per op)");
    for r in rungs {
        let counts: Vec<String> = r
            .headline_counts()
            .iter()
            .filter(|(_, v)| *v > 0.0)
            .map(|(k, v)| format!("{k}={v:.2}"))
            .collect();
        println!(
            "    {:<26} {:>10.1} ns  [{:.1} .. {:.1}]  {}",
            r.name,
            r.ns[0],
            r.ns[1],
            r.ns[2],
            counts.join(" ")
        );
    }
}

fn print_gate(l: &LitmusGate, pass: bool) {
    println!(
        "\n== gate: recorded service scenario — well_formed={} drf={} strongly_opaque={:?} finals_ok={} ({} actions, checked in {:.1} ms)",
        l.well_formed, l.drf, l.opaque, l.finals_ok, l.history_actions, l.check_ms
    );
    println!("== gate verdict: {}", if pass { "PASS" } else { "FAIL" });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::BENCHMARK_JSON;
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn out_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
    }

    fn contract_names(key: &str) -> BTreeSet<String> {
        let contract = Json::parse(BENCHMARK_JSON).unwrap();
        let items = contract.get(key).unwrap().items();
        items
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    fn keys(j: Option<&Json>) -> BTreeSet<String> {
        j.map_or(&[][..], Json::entries)
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn quick(workload: Option<&str>, trace: Option<bool>) -> Opts {
        Opts {
            workload: workload.map(str::to_string),
            seed: 5,
            seconds: 10.0,
            trace,
            quick: true,
        }
    }

    #[test]
    fn a_quick_full_run_passes_its_gate_and_reports_what_the_contract_lists() {
        let dir = out_dir("selftest_full");
        let outcome = run(&quick(None, None), &dir).unwrap();
        assert!(outcome.pass, "the gate fails");
        assert!(outcome.driver_line.is_none(), "no --trace, no driver line");

        let text = std::fs::read_to_string(dir.join("run.json")).unwrap();
        let report = Json::parse(&text).unwrap();
        assert_eq!(
            report.get("quick"),
            Some(&Json::Bool(true)),
            "flagged as a smoke run"
        );
        let rungs: BTreeSet<String> = report
            .get("ladder")
            .unwrap()
            .items()
            .iter()
            .map(|r| r.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(rungs.len(), 13);
        for spec in &SPECS {
            let w = report.at(&["workloads", spec.name]).unwrap();
            assert_eq!(
                keys(w.get("end_to_end")),
                contract_names("end_to_end"),
                "{}",
                spec.name
            );
            let mut layers = keys(w.get("per_layer"));
            layers.extend(keys(report.get("per_layer")));
            layers.extend(rungs.clone());
            assert_eq!(layers, contract_names("per_layer"), "{}", spec.name);
            assert_eq!(w.at(&["gate", "pass"]), Some(&Json::Bool(true)));
            assert_eq!(
                w.at(&["gate", "occupancy_before"]),
                w.at(&["gate", "occupancy_after"])
            );
            let coverage = w
                .at(&["trace", "self_time_coverage"])
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(
                (coverage - 1.0).abs() < 0.05,
                "span self times cover {coverage} of thread time"
            );
            assert!(dir.join(format!("trace_{}.jsonl", spec.name)).exists());
        }
    }

    #[test]
    fn the_driver_line_carries_exactly_the_contract_metrics() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let dir = out_dir(&format!("selftest_driver_{key}"));
            let outcome = run(&quick(Some("point_write_hot"), Some(trace)), &dir).unwrap();
            let line = outcome
                .driver_line
                .expect("--trace asks for the driver line");
            assert_eq!(
                keys(Some(&line)),
                ["attempted", "correct", "failed", "metrics"]
                    .map(String::from)
                    .into(),
            );
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed"), Some(&Json::Num(0.0)));
            assert_eq!(keys(line.get("metrics")), contract_names(key));
            for (name, m) in line.get("metrics").unwrap().entries() {
                assert!(
                    m.get("value").unwrap().as_f64().is_some(),
                    "{name} is a number"
                );
            }
        }
        assert!(run(&quick(Some("no_such"), None), &out_dir("selftest_none")).is_err());
    }
}
