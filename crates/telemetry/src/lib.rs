//! # tm-telemetry — flight recorder + latency histograms for the STM runtime
//!
//! The runtime self-tunes (clock handoffs, stripe migrations, grace-fenced
//! reconfigurations), and flat counters cannot explain *why* it did what it
//! did or what the latency *distribution* looked like while it happened.
//! This crate is the always-on observability layer the rest of the
//! workspace threads through itself:
//!
//! * [`LatencyHistogram`] — log-bucketed (power-of-two) latency
//!   distributions as plain `u64` arrays: zero atomics in the type, `merge`
//!   in the same style as the runtime's `Stats`, and
//!   p50/p90/p99/p999 extraction ([`LatencyHistogram::quantiles`]).
//!   [`LatencyHistograms`] bundles the five distributions the runtime
//!   tracks (commit latency, abort→retry gap, fence wait, grace-period
//!   duration, blocking-retry sleep) behind named fields, so a forgotten
//!   field breaks the merge-identity test's exhaustive literal at compile
//!   time.
//! * [`OpClass`] / [`OpClassHistograms`] — the service harness's
//!   per-operation-class views over the same histogram type: the
//!   end-to-end sharded KV workload (`tm-service`) classifies every request
//!   (get / put / rmw / privatize-and-scan / publish-back) and reports
//!   p50/p99/p999 per class, merged client-by-client exactly like the
//!   per-slot runtime histograms.
//! * [`TraceRing`] — a fixed-capacity, overwrite-oldest flight recorder of
//!   [`TraceEvent`]s: transaction begin/commit/abort-with-cause, fence
//!   issue/retire, grace scans, and every governor decision (clock switch
//!   request/settle, stripe publish/retire), each carrying the counters
//!   that justified it ([`EventKind`]). The engine's ring is one of these;
//!   thread slots keep the same events word-encoded in a lock-free cell.
//! * [`Telemetry`] — the per-instance container: one cache-padded,
//!   *single-writer* cell per thread slot (plain relaxed `load` + `store`
//!   words — no lock, no RMW — written only by the handle that owns the
//!   slot), one mutex-guarded *engine* cell for events raised
//!   off-transaction or by a thread that does not own the slot they are
//!   about (grace scans, handoff settles, generation retirements, fence
//!   retirements run from a completion callback), an [`Instant`] epoch for
//!   timestamps, and a single `enabled` flag. **Disabled cost is one
//!   relaxed load per event site** — no clock sample, no allocation; the
//!   runtime's steady-state test pins this. Enabled, a steady-state
//!   transaction costs nothing either: the runtime times one attempt in
//!   [`SAMPLE_EVERY`] and the others touch no clock and no telemetry word.
//! * [`TelemetrySnapshot`] — merges histograms and rings across every cell
//!   into one coherent view without ever blocking a writer, rendered as
//!   hand-rolled JSON ([`TelemetrySnapshot::to_json`], schema
//!   `bench_telemetry/v2`, same style as the `BENCH_*.json` artifacts).
//!
//! Capacity is selected at construction via [`TraceConfig`]; the runtime
//! reads the `TM_STM_TRACE` environment knob once
//! ([`TraceConfig::from_env`]): `off` disables telemetry entirely, a
//! number selects the per-slot ring capacity (default 1024 events/slot).

#![warn(missing_docs)]

use crossbeam::utils::CachePadded;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The runtime times one transaction attempt in this many (per handle,
/// starting with the handle's first): that attempt records `TxBegin`, a
/// commit-latency sample and `TxCommit`; the others touch no clock and no
/// telemetry word. Exact counts live in the handle-local `Stats`; scale
/// the commit histogram's count by this to estimate them. Aborts, fences,
/// escalations, retry wakes, governor decisions, grace scans and stall
/// reports are rare or already clocked, and are never sampled away.
pub const SAMPLE_EVERY: u32 = 64;

/// Number of power-of-two latency buckets: bucket `i` holds samples whose
/// nanosecond value has its highest set bit at position `i` (bucket 0 also
/// holds 0). 64 buckets cover the full `u64` range — no sample is ever out
/// of range.
pub const HIST_BUCKETS: usize = 64;

/// A log-bucketed latency distribution: plain `u64` arrays, no atomics.
///
/// Samples are nanoseconds; `record` is two array ops and two adds. The
/// quantile extraction returns the *upper edge* of the bucket containing
/// the requested rank — an overestimate by at most 2x, which is the
/// resolution bargain every power-of-two histogram makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// The p50/p90/p99/p999 view of one [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Median (nanoseconds, bucket upper edge).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl LatencyHistogram {
    /// Bucket index for a nanosecond sample: the position of its highest
    /// set bit (0 maps to bucket 0).
    #[inline]
    pub fn bucket_index(ns: u64) -> usize {
        63 - (ns | 1).leading_zeros() as usize
    }

    /// Inclusive upper edge of bucket `i` (the value quantiles report).
    pub fn bucket_upper_edge(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Record one nanosecond sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (nanoseconds, saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw bucket array (for sparkline rendering and report code).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Accumulate `o` into `self`, bucket-wise — the same shape as
    /// `Stats::merge`: counters add, nothing is lost.
    pub fn merge(&mut self, o: &LatencyHistogram) {
        for (b, ob) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *b += ob;
        }
        self.count += o.count;
        self.sum = self.sum.saturating_add(o.sum);
    }

    /// The value at quantile `q` (in `[0, 1]`): the upper edge of the
    /// bucket holding the `ceil(q * count)`-th smallest sample. 0 when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_upper_edge(i);
            }
        }
        u64::MAX
    }

    /// The standard report quartet: p50/p90/p99/p999.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// The five latency distributions the runtime tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyClass {
    /// Transaction begin → successful commit, per *sampled* attempt that
    /// committed (one attempt in [`SAMPLE_EVERY`]).
    Commit,
    /// Abort → next retry of the same `atomic`/`atomically` call: one
    /// sample per backoff pause taken, from the measurement that feeds
    /// `Stats::backoff_ns` — so the sum of this distribution equals that
    /// counter.
    AbortGap,
    /// Time blocked in `fence`/`fence_join` — including bounded waits that
    /// timed out. When telemetry is enabled, the sum of this distribution
    /// equals `Stats::fence_wait_ns`: every fence join feeds both sinks
    /// from the same measurement.
    FenceWait,
    /// Grace-period duration: scan start (period close) → scan completion.
    Grace,
    /// Time a blocking `retry` spent asleep on its wait-on-retry control
    /// block, per sleep (registration → conflicting-commit wakeup).
    RetrySleep,
}

impl LatencyClass {
    /// Every class, in report order.
    pub const ALL: [LatencyClass; 5] = [
        LatencyClass::Commit,
        LatencyClass::AbortGap,
        LatencyClass::FenceWait,
        LatencyClass::Grace,
        LatencyClass::RetrySleep,
    ];

    /// Report key for the class.
    pub fn label(self) -> &'static str {
        match self {
            LatencyClass::Commit => "commit",
            LatencyClass::AbortGap => "abort-gap",
            LatencyClass::FenceWait => "fence-wait",
            LatencyClass::Grace => "grace",
            LatencyClass::RetrySleep => "retry-sleep",
        }
    }
}

/// The runtime's latency histograms, one field per [`LatencyClass`].
///
/// A struct with named fields — not an array — on purpose: the
/// merge-identity test constructs an exhaustive literal, so adding a class
/// here without extending [`LatencyHistograms::merge`] (and every report)
/// breaks the build, the same guard `Stats` uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistograms {
    /// Begin → commit latency of sampled committed attempts.
    pub commit: LatencyHistogram,
    /// Abort → retry gap of the retry loops (`Stats::backoff_ns`'s
    /// distribution).
    pub abort_gap: LatencyHistogram,
    /// Blocked fence-wait time (`Stats::fence_wait_ns`'s distribution).
    pub fence_wait: LatencyHistogram,
    /// Grace-period (epoch-table scan) durations.
    pub grace: LatencyHistogram,
    /// Blocking-retry sleep durations (registration → wakeup).
    pub retry_sleep: LatencyHistogram,
}

impl LatencyHistograms {
    /// Record one sample into the `class` distribution.
    #[inline]
    pub fn record(&mut self, class: LatencyClass, ns: u64) {
        self.get_mut(class).record(ns);
    }

    /// The distribution for `class`.
    pub fn get(&self, class: LatencyClass) -> &LatencyHistogram {
        match class {
            LatencyClass::Commit => &self.commit,
            LatencyClass::AbortGap => &self.abort_gap,
            LatencyClass::FenceWait => &self.fence_wait,
            LatencyClass::Grace => &self.grace,
            LatencyClass::RetrySleep => &self.retry_sleep,
        }
    }

    /// Mutable access to the distribution for `class`.
    pub fn get_mut(&mut self, class: LatencyClass) -> &mut LatencyHistogram {
        match class {
            LatencyClass::Commit => &mut self.commit,
            LatencyClass::AbortGap => &mut self.abort_gap,
            LatencyClass::FenceWait => &mut self.fence_wait,
            LatencyClass::Grace => &mut self.grace,
            LatencyClass::RetrySleep => &mut self.retry_sleep,
        }
    }

    /// Accumulate `o` into `self`, field by field (`Stats::merge` style).
    pub fn merge(&mut self, o: &LatencyHistograms) {
        self.commit.merge(&o.commit);
        self.abort_gap.merge(&o.abort_gap);
        self.fence_wait.merge(&o.fence_wait);
        self.grace.merge(&o.grace);
        self.retry_sleep.merge(&o.retry_sleep);
    }
}

/// The service harness's operation classes — the request taxonomy of the
/// end-to-end sharded KV workload (`tm-service`): point reads, point
/// writes, read-modify-write cycles, and the paper-critical
/// privatize-and-scan / publish-back pair that exercises the fence and
/// grace machinery under production-shaped traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Transactional point lookup.
    Get,
    /// Transactional insert-or-update.
    Put,
    /// Transactional read-modify-write (lookup + dependent update in one
    /// transaction).
    Rmw,
    /// Privatize-and-scan: freeze a shard (flag transaction + fence), then
    /// bulk-read it uninstrumented — the paper's motivating bulk-operation
    /// pattern, measured from freeze request to scan completion.
    Scan,
    /// Publish-back: the thaw transaction returning a scanned shard to
    /// transactional traffic (safe without a fence by `xpo;txwr`).
    Publish,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Get,
        OpClass::Put,
        OpClass::Rmw,
        OpClass::Scan,
        OpClass::Publish,
    ];

    /// Report key for the class.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Put => "put",
            OpClass::Rmw => "rmw",
            OpClass::Scan => "scan",
            OpClass::Publish => "publish",
        }
    }

    /// Position of the class in [`OpClass::ALL`] — the index services use
    /// for fixed-size per-class counter arrays (`[u64; 5]`).
    pub fn index(self) -> usize {
        match self {
            OpClass::Get => 0,
            OpClass::Put => 1,
            OpClass::Rmw => 2,
            OpClass::Scan => 3,
            OpClass::Publish => 4,
        }
    }
}

/// Per-op-class latency distributions for the service harness, one field
/// per [`OpClass`] — the same named-field discipline as
/// [`LatencyHistograms`]: the merge-identity test constructs an exhaustive
/// literal, so adding a class here without extending
/// [`OpClassHistograms::merge`] (and every report) breaks the build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpClassHistograms {
    /// Point-lookup latency.
    pub get: LatencyHistogram,
    /// Insert-or-update latency.
    pub put: LatencyHistogram,
    /// Read-modify-write latency.
    pub rmw: LatencyHistogram,
    /// Privatize-and-scan latency (freeze request → scan completion).
    pub scan: LatencyHistogram,
    /// Publish-back (thaw) latency.
    pub publish: LatencyHistogram,
}

impl OpClassHistograms {
    /// Record one nanosecond sample into the `class` distribution.
    #[inline]
    pub fn record(&mut self, class: OpClass, ns: u64) {
        self.get_mut(class).record(ns);
    }

    /// The distribution for `class`.
    pub fn get(&self, class: OpClass) -> &LatencyHistogram {
        match class {
            OpClass::Get => &self.get,
            OpClass::Put => &self.put,
            OpClass::Rmw => &self.rmw,
            OpClass::Scan => &self.scan,
            OpClass::Publish => &self.publish,
        }
    }

    /// Mutable access to the distribution for `class`.
    pub fn get_mut(&mut self, class: OpClass) -> &mut LatencyHistogram {
        match class {
            OpClass::Get => &mut self.get,
            OpClass::Put => &mut self.put,
            OpClass::Rmw => &mut self.rmw,
            OpClass::Scan => &mut self.scan,
            OpClass::Publish => &mut self.publish,
        }
    }

    /// Total samples across every class (the service's op count).
    pub fn total_count(&self) -> u64 {
        OpClass::ALL.iter().map(|&c| self.get(c).count()).sum()
    }

    /// Accumulate `o` into `self`, field by field (`Stats::merge` style) —
    /// how the service merges per-client views into the fleet-wide report.
    pub fn merge(&mut self, o: &OpClassHistograms) {
        self.get.merge(&o.get);
        self.put.merge(&o.put);
        self.rmw.merge(&o.rmw);
        self.scan.merge(&o.scan);
        self.publish.merge(&o.publish);
    }
}

/// Why a transaction attempt aborted (the flight recorder's classification
/// of `TxAbort` events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// Read-time validation failure.
    Read,
    /// Write-op failure (rare; policies that can fail buffered writes).
    Write,
    /// Commit-time lock acquisition failure.
    Lock,
    /// Commit-time read-set re-validation failure.
    Validate,
    /// `Err(Abort)` returned by the transaction body.
    User,
    /// The transaction body (or a fault-injected commit step) panicked; the
    /// runtime rolled the attempt back, released every lock and the epoch
    /// slot, recorded this abort, and resumed the unwind.
    Panic,
}

impl AbortCause {
    /// Report key for the cause.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::Read => "read",
            AbortCause::Write => "write",
            AbortCause::Lock => "lock",
            AbortCause::Validate => "validate",
            AbortCause::User => "user",
            AbortCause::Panic => "panic",
        }
    }

    /// Every cause, in [`Self::code`] order.
    const ALL: [AbortCause; 6] = [
        AbortCause::Read,
        AbortCause::Write,
        AbortCause::Lock,
        AbortCause::Validate,
        AbortCause::User,
        AbortCause::Panic,
    ];

    /// Stable numeric encoding (JSON field value, ring payload word).
    fn code(self) -> u64 {
        self as u64
    }
}

/// One flight-recorder event: the runtime's taxonomy of things worth
/// reconstructing after the fact. Governor decisions carry the counters
/// that justified them, so a snapshot can answer "why did it switch?"
/// without correlating external logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction attempt began.
    TxBegin,
    /// A transaction attempt committed, with its begin→commit latency.
    TxCommit {
        /// Begin → commit latency of this attempt (nanoseconds).
        latency_ns: u64,
    },
    /// A transaction attempt aborted.
    TxAbort {
        /// Why it aborted.
        cause: AbortCause,
    },
    /// A privatization fence was requested (`fence_async`).
    FenceIssue {
        /// Grace period the fence ticket was stamped with.
        period: u64,
    },
    /// A fence ticket resolved (its grace period elapsed).
    FenceRetire {
        /// Grace period the ticket was stamped with.
        period: u64,
    },
    /// A grace period completed: one epoch-table scan retired it (and every
    /// fence ticket batched behind it).
    GraceScan {
        /// The retired period.
        period: u64,
        /// Scan start (period close) → completion (nanoseconds).
        duration_ns: u64,
    },
    /// The contention governor's fold requested (and was granted) a clock
    /// discipline switch. Carries the fold's window counters — the
    /// evidence the decision was made on.
    ClockSwitchRequest {
        /// `true`: GV1→GV5 (write-heavy window); `false`: GV5→GV1.
        to_gv5: bool,
        /// Read-only commits in the fold's window.
        read_commits: u64,
        /// Writing commits in the fold's window.
        write_commits: u64,
    },
    /// A clock handoff's grace period retired: the switch settled and the
    /// GV1 elision fast path re-armed.
    ClockSwitchSettle {
        /// The discipline that is now settled.
        to_gv5: bool,
    },
    /// The adaptive table published a resized generation, opening a
    /// grace-fenced migration window. Carries the window evidence.
    StripePublish {
        /// `true`: grow (doubled); `false`: governor shrink (halved).
        grow: bool,
        /// Stripe count before the resize.
        from_stripes: u64,
        /// Stripe count after the resize.
        to_stripes: u64,
        /// False conflicts observed in the deciding window (0 when the
        /// resize was requested directly, outside a window boundary).
        false_conflicts: u64,
        /// Commits in the deciding window (0 for direct requests).
        window: u64,
    },
    /// A migration window closed: the old generation was retired by its
    /// grace period's completion callback.
    StripeRetire {
        /// Stripe count of the surviving (current) generation.
        stripes: u64,
    },
    /// A handle exhausted its retry budget and escalated to the irrevocable
    /// serial fallback: it took the runtime-wide escalation token, drained
    /// in-flight transactions, and re-ran its body serialized.
    Escalation {
        /// Aborted attempts paid before escalating.
        attempts: u64,
        /// `true` when the wall-clock deadline (not the attempt cap)
        /// triggered the escalation.
        deadline_expired: bool,
    },
    /// A blocking `retry` sleep ended: a conflicting commit wrote one of
    /// the registers the waiter was registered on (or the waiter was woken
    /// spuriously) and the transaction is about to re-run.
    RetryWake {
        /// The register whose commit write delivered the wakeup.
        reg: u64,
        /// How long the waiter slept (nanoseconds) — the same measurement
        /// the `retry-sleep` histogram records.
        slept_ns: u64,
    },
    /// The grace engine noticed an epoch slot pinned past the stall
    /// threshold while a scan was waiting on it — the signature of a thread
    /// parked (or dead) inside a transaction. Raised from the driver tick
    /// and from bounded fence waits, once per slot per scan.
    StallReport {
        /// The epoch slot holding up the scan.
        stalled_slot: u64,
        /// How long the scan has been waiting on it (nanoseconds).
        pinned_ns: u64,
        /// The grace period the scan is trying to retire.
        period: u64,
    },
}

/// Report key and payload field names of every [`EventKind`], indexed by
/// [`EventKind::code`].
const KINDS: [(&str, &[&str]); 13] = [
    ("tx-begin", &[]),
    ("tx-commit", &["latency_ns"]),
    ("tx-abort", &["cause"]),
    ("fence-issue", &["period"]),
    ("fence-retire", &["period"]),
    ("grace-scan", &["period", "duration_ns"]),
    (
        "clock-switch-request",
        &["to_gv5", "read_commits", "write_commits"],
    ),
    ("clock-switch-settle", &["to_gv5"]),
    (
        "stripe-publish",
        &[
            "grow",
            "from_stripes",
            "to_stripes",
            "false_conflicts",
            "window",
        ],
    ),
    ("stripe-retire", &["stripes"]),
    ("escalation", &["attempts", "deadline_expired"]),
    ("retry-wake", &["reg", "slept_ns"]),
    ("stall-report", &["stalled_slot", "pinned_ns", "period"]),
];

/// Payload words of the widest [`EventKind`] (`StripePublish`).
const MAX_PAYLOAD_WORDS: usize = 5;

impl EventKind {
    /// Stable numeric code of the kind: its index in [`KINDS`], and the
    /// kind word of a thread-slot ring entry.
    fn code(&self) -> usize {
        match self {
            EventKind::TxBegin => 0,
            EventKind::TxCommit { .. } => 1,
            EventKind::TxAbort { .. } => 2,
            EventKind::FenceIssue { .. } => 3,
            EventKind::FenceRetire { .. } => 4,
            EventKind::GraceScan { .. } => 5,
            EventKind::ClockSwitchRequest { .. } => 6,
            EventKind::ClockSwitchSettle { .. } => 7,
            EventKind::StripePublish { .. } => 8,
            EventKind::StripeRetire { .. } => 9,
            EventKind::Escalation { .. } => 10,
            EventKind::RetryWake { .. } => 11,
            EventKind::StallReport { .. } => 12,
        }
    }

    /// The payload as words, in declaration order, zero-padded. Booleans
    /// encode as 0/1, [`AbortCause`] as its stable code.
    fn words(&self) -> [u64; MAX_PAYLOAD_WORDS] {
        match *self {
            EventKind::TxBegin => [0; 5],
            EventKind::TxCommit { latency_ns } => [latency_ns, 0, 0, 0, 0],
            EventKind::TxAbort { cause } => [cause.code(), 0, 0, 0, 0],
            EventKind::FenceIssue { period } | EventKind::FenceRetire { period } => {
                [period, 0, 0, 0, 0]
            }
            EventKind::GraceScan {
                period,
                duration_ns,
            } => [period, duration_ns, 0, 0, 0],
            EventKind::ClockSwitchRequest {
                to_gv5,
                read_commits,
                write_commits,
            } => [u64::from(to_gv5), read_commits, write_commits, 0, 0],
            EventKind::ClockSwitchSettle { to_gv5 } => [u64::from(to_gv5), 0, 0, 0, 0],
            EventKind::StripePublish {
                grow,
                from_stripes,
                to_stripes,
                false_conflicts,
                window,
            } => [
                u64::from(grow),
                from_stripes,
                to_stripes,
                false_conflicts,
                window,
            ],
            EventKind::StripeRetire { stripes } => [stripes, 0, 0, 0, 0],
            EventKind::Escalation {
                attempts,
                deadline_expired,
            } => [attempts, u64::from(deadline_expired), 0, 0, 0],
            EventKind::RetryWake { reg, slept_ns } => [reg, slept_ns, 0, 0, 0],
            EventKind::StallReport {
                stalled_slot,
                pinned_ns,
                period,
            } => [stalled_slot, pinned_ns, period, 0, 0],
        }
    }

    /// Inverse of [`Self::code`] + [`Self::words`]; `None` for words no
    /// event encodes to (a torn ring entry).
    fn decode(code: u64, w: [u64; MAX_PAYLOAD_WORDS]) -> Option<EventKind> {
        Some(match code {
            0 => EventKind::TxBegin,
            1 => EventKind::TxCommit { latency_ns: w[0] },
            2 => EventKind::TxAbort {
                cause: *AbortCause::ALL.get(usize::try_from(w[0]).ok()?)?,
            },
            3 => EventKind::FenceIssue { period: w[0] },
            4 => EventKind::FenceRetire { period: w[0] },
            5 => EventKind::GraceScan {
                period: w[0],
                duration_ns: w[1],
            },
            6 => EventKind::ClockSwitchRequest {
                to_gv5: w[0] != 0,
                read_commits: w[1],
                write_commits: w[2],
            },
            7 => EventKind::ClockSwitchSettle { to_gv5: w[0] != 0 },
            8 => EventKind::StripePublish {
                grow: w[0] != 0,
                from_stripes: w[1],
                to_stripes: w[2],
                false_conflicts: w[3],
                window: w[4],
            },
            9 => EventKind::StripeRetire { stripes: w[0] },
            10 => EventKind::Escalation {
                attempts: w[0],
                deadline_expired: w[1] != 0,
            },
            11 => EventKind::RetryWake {
                reg: w[0],
                slept_ns: w[1],
            },
            12 => EventKind::StallReport {
                stalled_slot: w[0],
                pinned_ns: w[1],
                period: w[2],
            },
            _ => return None,
        })
    }

    /// Report key for the event kind.
    pub fn label(&self) -> &'static str {
        KINDS[self.code()].0
    }

    /// The event's payload as `(name, value)` pairs, in declaration order —
    /// what the JSON renderer and the human report both consume. Booleans
    /// encode as 0/1, [`AbortCause`] as its stable code.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let names = KINDS[self.code()].1;
        names.iter().copied().zip(self.words()).collect()
    }

    /// Is this one of the contention governor's decisions (clock switches,
    /// stripe resizes) — the events `stm_inspect`'s "last N decisions"
    /// section renders?
    pub fn is_governor_decision(&self) -> bool {
        matches!(
            self,
            EventKind::ClockSwitchRequest { .. }
                | EventKind::ClockSwitchSettle { .. }
                | EventKind::StripePublish { .. }
                | EventKind::StripeRetire { .. }
        )
    }
}

/// One timestamped flight-recorder entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the owning [`Telemetry`]'s construction.
    pub at_ns: u64,
    /// Thread slot that raised the event ([`Telemetry::engine_slot`] for
    /// off-transaction events: grace scans, settles, retirements).
    pub slot: u16,
    /// What happened.
    pub kind: EventKind,
}

/// A fixed-capacity, overwrite-oldest ring of [`TraceEvent`]s — the engine
/// cell's flight recorder (thread slots keep theirs word-encoded in a
/// lock-free cell with the same overwrite rule). Plain data, no atomics;
/// concurrency control is the owning [`Telemetry`]'s engine mutex.
#[derive(Clone, Debug, Default)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    /// Next write position (== oldest entry once the ring has wrapped).
    head: usize,
    capacity: usize,
    /// Events overwritten since construction (ring wrapped past them).
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (0 = record none).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            buf: Vec::new(),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest once full.
    pub fn push(&mut self, e: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            // First lap: grow lazily so an idle slot costs no memory.
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The construction-time capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten (lost to the ring wrapping) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = if self.buf.len() < self.capacity {
            // Not yet wrapped: buf[0..] is already oldest-first.
            (&self.buf[..0], &self.buf[..])
        } else {
            (&self.buf[..self.head], &self.buf[self.head..])
        };
        older.iter().chain(newer.iter())
    }
}

/// The engine cell: histograms and flight recorder shared by every thread
/// that records off-transaction, behind the owning [`Telemetry`]'s mutex.
struct EngineCell {
    hists: LatencyHistograms,
    ring: TraceRing,
}

/// Payload words a thread-slot ring entry holds; wider events (only
/// `StripePublish`, which is raised off-transaction anyway) go to the
/// engine cell.
const SLOT_PAYLOAD_WORDS: usize = 3;
/// Words per thread-slot ring entry: timestamp, kind code, payload.
const ENTRY_WORDS: usize = 2 + SLOT_PAYLOAD_WORDS;
/// Words per histogram in a thread-slot cell: the buckets, then the sum
/// (the count is the buckets' total, so a snapshot's count and quantiles
/// always agree).
const HIST_WORDS: usize = HIST_BUCKETS + 1;

/// A thread slot's cell: histograms and a flight-recorder ring of
/// word-encoded events, written only by the handle that owns the slot.
///
/// Every write is a relaxed `load` + `store` pair on a plain word — no RMW,
/// no lock — which is exact for one writer. (One live user per slot is what
/// the epoch table and the lock-owner encoding already assume; two would
/// lose counts here, never memory safety.) A reader never blocks the
/// writer: it copies the ring between two reads of the sequence words and
/// discards what the writer may have overwritten meanwhile.
struct SlotCell {
    /// One histogram of [`HIST_WORDS`] words per [`LatencyClass`].
    hists: Box<[AtomicU64]>,
    /// `capacity` entries of [`ENTRY_WORDS`] words; event number `n` lives
    /// in entry `n % capacity`.
    ring: Box<[AtomicU64]>,
    /// Events the owner has begun writing (stored before the entry's words).
    claimed: AtomicU64,
    /// Events fully written (stored, `Release`, after the entry's words).
    published: AtomicU64,
}

fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// `*w += by` for the single writer of `w`.
#[inline]
fn bump(w: &AtomicU64, by: u64) {
    w.store(
        w.load(Ordering::Relaxed).saturating_add(by),
        Ordering::Relaxed,
    );
}

impl SlotCell {
    fn new(capacity: usize) -> Self {
        SlotCell {
            hists: zeroed_words(LatencyClass::ALL.len() * HIST_WORDS),
            ring: zeroed_words(capacity * ENTRY_WORDS),
            claimed: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record_latency(&self, class: LatencyClass, ns: u64) {
        let hist = &self.hists[class as usize * HIST_WORDS..][..HIST_WORDS];
        bump(&hist[LatencyHistogram::bucket_index(ns)], 1);
        bump(&hist[HIST_BUCKETS], ns);
    }

    /// Append an event, overwriting the oldest once full. Only called with
    /// telemetry enabled, i.e. with a capacity above 0.
    #[inline]
    fn push(&self, at_ns: u64, kind: EventKind) {
        let seq = self.published.load(Ordering::Relaxed);
        self.claimed.store(seq + 1, Ordering::Relaxed);
        // Pairs with the reader's `Acquire` fence: a reader that sees any
        // word written below also sees the claim above, and discards the
        // entry those words overwrite.
        fence(Ordering::Release);
        let capacity = self.ring.len() / ENTRY_WORDS;
        let entry = &self.ring[seq as usize % capacity * ENTRY_WORDS..][..ENTRY_WORDS];
        entry[0].store(at_ns, Ordering::Relaxed);
        entry[1].store(kind.code() as u64, Ordering::Relaxed);
        for (w, v) in entry[2..].iter().zip(kind.words()) {
            w.store(v, Ordering::Relaxed);
        }
        self.published.store(seq + 1, Ordering::Release);
    }

    /// Merge this cell into a snapshot under construction; returns the
    /// number of events lost to overwrites.
    fn snapshot_into(
        &self,
        slot: u16,
        hists: &mut LatencyHistograms,
        events: &mut Vec<TraceEvent>,
    ) -> u64 {
        for class in LatencyClass::ALL {
            let words = &self.hists[class as usize * HIST_WORDS..][..HIST_WORDS];
            let mut h = LatencyHistogram::default();
            for (b, w) in h.buckets.iter_mut().zip(words) {
                *b = w.load(Ordering::Relaxed);
            }
            h.count = h.buckets.iter().sum();
            h.sum = words[HIST_BUCKETS].load(Ordering::Relaxed);
            hists.get_mut(class).merge(&h);
        }
        let capacity = (self.ring.len() / ENTRY_WORDS) as u64;
        let end = self.published.load(Ordering::Acquire);
        let start = end.saturating_sub(capacity);
        let copied: Vec<[u64; ENTRY_WORDS]> = (start..end)
            .map(|seq| {
                let entry = &self.ring[(seq % capacity) as usize * ENTRY_WORDS..][..ENTRY_WORDS];
                std::array::from_fn(|i| entry[i].load(Ordering::Relaxed))
            })
            .collect();
        // Every event numbered below `claimed - capacity` has been, or is
        // being, overwritten: its copy may be torn, so it counts as lost.
        fence(Ordering::Acquire);
        let lost = self
            .claimed
            .load(Ordering::Relaxed)
            .saturating_sub(capacity);
        let torn = lost.saturating_sub(start) as usize;
        events.extend(copied.iter().skip(torn).filter_map(|w| {
            let mut payload = [0; MAX_PAYLOAD_WORDS];
            payload[..SLOT_PAYLOAD_WORDS].copy_from_slice(&w[2..]);
            let kind = EventKind::decode(w[1], payload)?;
            Some(TraceEvent {
                at_ns: w[0],
                slot,
                kind,
            })
        }));
        lost
    }
}

/// Construction-time telemetry configuration: the flight-recorder capacity
/// per slot, with 0 meaning *telemetry off* (histograms included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity per slot; 0 disables all telemetry.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: Self::DEFAULT_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// Default flight-recorder capacity: 1024 events per thread slot.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Telemetry fully disabled: every event site costs one relaxed load.
    pub fn off() -> Self {
        TraceConfig { capacity: 0 }
    }

    /// Telemetry enabled with `capacity` events per slot (`off()` if 0).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig { capacity }
    }

    /// Is any recording enabled?
    pub fn is_enabled(self) -> bool {
        self.capacity > 0
    }

    /// Process-wide default, read once (the `TM_STM_DRIVER` pattern):
    /// `TM_STM_TRACE=off` disables telemetry, `TM_STM_TRACE=<n>` selects a
    /// per-slot ring capacity of `n` events, unset or unparsable means the
    /// default ([`Self::DEFAULT_CAPACITY`] events/slot, enabled).
    pub fn from_env() -> Self {
        static CFG: std::sync::OnceLock<TraceConfig> = std::sync::OnceLock::new();
        *CFG.get_or_init(|| Self::parse(std::env::var("TM_STM_TRACE").ok().as_deref()))
    }

    /// The `TM_STM_TRACE` grammar, factored out of [`Self::from_env`] so
    /// tests can exercise it without mutating the process environment.
    pub fn parse(v: Option<&str>) -> Self {
        match v.map(str::trim) {
            Some("off") | Some("0") => Self::off(),
            Some(s) => match s.parse::<usize>() {
                Ok(n) => Self::with_capacity(n),
                Err(_) => Self::default(),
            },
            None => Self::default(),
        }
    }
}

/// The per-instance telemetry container: one padded single-writer cell per
/// thread slot, one mutex-guarded *engine* cell, an enabled flag, and the
/// timestamp epoch.
///
/// ## Cost model
///
/// *Disabled* (`TraceConfig::off()` / `TM_STM_TRACE=off`): every
/// `record_*` call is one relaxed load of `enabled` and an immediate
/// return — no lock, no `Instant::now`, no shared-line write. *Enabled*:
/// a thread-slot record is a handful of relaxed loads and stores on the
/// caller's own cache-padded cell — no lock, no RMW — and reuses a
/// timestamp the caller already took (the `*_at` forms). The runtime calls
/// them on one transaction attempt in [`SAMPLE_EVERY`] and on the rare
/// paths (aborts, fences, escalations, retry wakes), so a steady-state
/// transaction pays nothing. Only the engine cell takes a mutex: it gets
/// the events no thread slot owns — grace scans completed by the driver or
/// by a bare ticket wait, stall reports, reconfiguration decisions, fence
/// retirements run from a completion callback. A scan completed by a
/// handle's fence join goes to that handle's own cell. [`Telemetry::snapshot`] never
/// blocks a thread-slot writer: a reader preempted mid-snapshot cannot park
/// a transaction inside its epoch.
pub struct Telemetry {
    enabled: AtomicBool,
    capacity: usize,
    epoch: Instant,
    slots: Box<[CachePadded<SlotCell>]>,
    engine: Mutex<EngineCell>,
}

impl Telemetry {
    /// A telemetry container for `nslots` thread slots (plus the engine
    /// cell), configured by `cfg`.
    pub fn new(nslots: usize, cfg: TraceConfig) -> Arc<Self> {
        assert!(
            nslots < usize::from(u16::MAX),
            "slot count exceeds the 16-bit event encoding"
        );
        Arc::new(Telemetry {
            enabled: AtomicBool::new(cfg.is_enabled()),
            capacity: cfg.capacity,
            epoch: Instant::now(),
            slots: (0..nslots)
                .map(|_| CachePadded::new(SlotCell::new(cfg.capacity)))
                .collect(),
            engine: Mutex::new(EngineCell {
                hists: LatencyHistograms::default(),
                ring: TraceRing::new(cfg.capacity),
            }),
        })
    }

    /// Is recording enabled? One relaxed load — the whole disabled-path
    /// cost of every event site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The pseudo-slot engine-side events are recorded under (grace scans,
    /// handoff settles, generation retirements — work not attributable to
    /// any one transaction slot).
    pub fn engine_slot(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Per-slot flight-recorder capacity this instance was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `at` in the timebase of every [`TraceEvent::at_ns`]: nanoseconds
    /// since this telemetry instance was constructed.
    fn at_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn with_engine(&self, f: impl FnOnce(&mut EngineCell)) {
        f(&mut self.engine.lock().expect("engine telemetry cell poisoned"));
    }

    /// Record one event into `slot`'s ring, stamped now. Must be called by
    /// the thread that owns `slot` (or with the engine slot). No-op (one
    /// relaxed load) when disabled.
    #[inline]
    pub fn record_event(&self, slot: u16, kind: EventKind) {
        if self.enabled() {
            self.record_event_at(slot, Instant::now(), kind);
        }
    }

    /// [`Self::record_event`] with a timestamp the caller already took.
    #[inline]
    pub fn record_event_at(&self, slot: u16, at: Instant, kind: EventKind) {
        match self.slots.get(usize::from(slot)) {
            Some(cell) if KINDS[kind.code()].1.len() <= SLOT_PAYLOAD_WORDS => {
                if self.enabled() {
                    cell.push(self.at_ns(at), kind);
                }
            }
            _ => self.record_foreign_event_at(slot, at, kind),
        }
    }

    /// Record an event *about* `slot` from a thread that may not own it (a
    /// fence retired by a completion callback): it goes to the engine cell
    /// with its `slot` field intact.
    pub fn record_foreign_event_at(&self, slot: u16, at: Instant, kind: EventKind) {
        if !self.enabled() {
            return;
        }
        let at_ns = self.at_ns(at);
        self.with_engine(|e| e.ring.push(TraceEvent { at_ns, slot, kind }));
    }

    /// Record one event into the engine cell's ring, from any thread.
    pub fn record_engine_event(&self, kind: EventKind) {
        if self.enabled() {
            self.record_foreign_event_at(self.engine_slot(), Instant::now(), kind);
        }
    }

    /// Record one latency sample into `slot`'s `class` histogram; same
    /// ownership rule as [`Self::record_event`]. No-op (one relaxed load)
    /// when disabled.
    #[inline]
    pub fn record_latency(&self, slot: u16, class: LatencyClass, ns: u64) {
        if !self.enabled() {
            return;
        }
        match self.slots.get(usize::from(slot)) {
            Some(cell) => cell.record_latency(class, ns),
            None => self.with_engine(|e| e.hists.record(class, ns)),
        }
    }

    /// A sampled commit: the commit-latency sample and the `TxCommit`
    /// event, stamped with the clock read that ended the measurement.
    #[inline]
    pub fn record_commit(&self, slot: u16, at: Instant, latency_ns: u64) {
        self.record_latency(slot, LatencyClass::Commit, latency_ns);
        self.record_event_at(slot, at, EventKind::TxCommit { latency_ns });
    }

    /// A completed grace scan that began at `started`: the grace-duration
    /// sample and the `GraceScan` event, from one clock read. `slot` is the
    /// thread slot of the handle whose fence join completed the scan — its
    /// own single-writer cell, same ownership rule as
    /// [`Self::record_event`] — or [`Self::engine_slot`] for a scan
    /// completed by the driver or by a thread that owns no slot, which
    /// records both under one engine-cell lock.
    pub fn record_grace_scan(&self, slot: u16, period: u64, started: Instant) {
        if !self.enabled() {
            return;
        }
        let now = Instant::now();
        let duration_ns = now.saturating_duration_since(started).as_nanos() as u64;
        let kind = EventKind::GraceScan {
            period,
            duration_ns,
        };
        let at_ns = self.at_ns(now);
        match self.slots.get(usize::from(slot)) {
            Some(cell) => {
                cell.record_latency(LatencyClass::Grace, duration_ns);
                cell.push(at_ns, kind);
            }
            None => {
                let event = TraceEvent {
                    at_ns,
                    slot: self.engine_slot(),
                    kind,
                };
                self.with_engine(|e| {
                    e.hists.grace.record(duration_ns);
                    e.ring.push(event);
                });
            }
        }
    }

    /// Merge every cell's histograms and ring into one snapshot (events
    /// sorted by timestamp) without blocking any thread-slot writer: a
    /// cell being written is read coherently but not atomically (a sample's
    /// bucket may be in and its sum not yet). Driver fields are left unset
    /// — the runtime layer fills them in, since only it knows the driver
    /// mode.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut hists = LatencyHistograms::default();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for (slot, cell) in self.slots.iter().enumerate() {
            dropped += cell.snapshot_into(slot as u16, &mut hists, &mut events);
        }
        self.with_engine(|e| {
            hists.merge(&e.hists);
            events.extend(e.ring.iter_in_order().copied());
            dropped += e.ring.dropped();
        });
        events.sort_by_key(|e| (e.at_ns, e.slot));
        TelemetrySnapshot {
            enabled: self.enabled(),
            capacity: self.capacity,
            sample_every: SAMPLE_EVERY,
            dropped,
            hists,
            events,
            driver_mode: None,
            driver_idle_wakeups: None,
        }
    }
}

/// A merged, instance-wide view of the telemetry at one moment: histograms
/// summed across slots, flight-recorder events interleaved by timestamp,
/// and (when the runtime fills them in) the grace driver's duty cycle.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Was recording enabled when the snapshot was taken?
    pub enabled: bool,
    /// Per-slot ring capacity of the instance.
    pub capacity: usize,
    /// [`SAMPLE_EVERY`]: the commit histogram and the `TxBegin`/`TxCommit`
    /// events cover one transaction attempt in this many per handle.
    pub sample_every: u32,
    /// Events lost to ring overwrites across all slots.
    pub dropped: u64,
    /// Histograms merged across every slot.
    pub hists: LatencyHistograms,
    /// All held events, oldest first (ties broken by slot).
    pub events: Vec<TraceEvent>,
    /// The runtime's grace-driver mode label (`"cooperative"` /
    /// `"background"`), filled by `Runtime::telemetry_snapshot`.
    pub driver_mode: Option<&'static str>,
    /// The background driver's idle wakeups so far (its duty-cycle
    /// numerator), when the runtime owns one.
    pub driver_idle_wakeups: Option<u64>,
}

impl TelemetrySnapshot {
    /// The governor decisions held in the snapshot, oldest first.
    pub fn governor_decisions(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.kind.is_governor_decision())
    }

    /// Render the snapshot as hand-rolled JSON, schema `bench_telemetry/v2`
    /// (the `BENCH_clocks.json` house style: no serde, numbers and strings
    /// only — booleans encode as 0/1 so the workspace's minimal structural
    /// validator covers every byte).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"bench_telemetry/v2\",\n");
        out.push_str(&format!("  \"enabled\": {},\n", u64::from(self.enabled)));
        out.push_str(&format!("  \"capacity\": {},\n", self.capacity));
        out.push_str(&format!("  \"sample_every\": {},\n", self.sample_every));
        out.push_str(&format!("  \"dropped_events\": {},\n", self.dropped));
        out.push_str(&format!(
            "  \"driver\": {{\"mode\": \"{}\"{}}},\n",
            self.driver_mode.unwrap_or("unknown"),
            self.driver_idle_wakeups
                .map(|w| format!(", \"idle_wakeups\": {w}"))
                .unwrap_or_default()
        ));
        out.push_str("  \"histograms\": [\n");
        for (i, class) in LatencyClass::ALL.iter().enumerate() {
            let h = self.hists.get(*class);
            let q = h.quantiles();
            let sep = if i + 1 == LatencyClass::ALL.len() {
                ""
            } else {
                ","
            };
            let buckets = h
                .buckets()
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "    {{\"class\": \"{}\", \"count\": {}, \"sum_ns\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                 \"buckets\": [{}]}}{sep}\n",
                class.label(),
                h.count(),
                h.sum(),
                q.p50,
                q.p90,
                q.p99,
                q.p999,
                buckets
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i + 1 == self.events.len() { "" } else { "," };
            let mut row = format!(
                "    {{\"t_ns\": {}, \"slot\": {}, \"kind\": \"{}\"",
                e.at_ns,
                e.slot,
                e.kind.label()
            );
            for (name, value) in e.kind.fields() {
                row.push_str(&format!(", \"{name}\": {value}"));
            }
            row.push_str(&format!("}}{sep}\n"));
            out.push_str(&row);
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_edges() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
        assert_eq!(LatencyHistogram::bucket_upper_edge(0), 1);
        assert_eq!(LatencyHistogram::bucket_upper_edge(1), 3);
        assert_eq!(LatencyHistogram::bucket_upper_edge(63), u64::MAX);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let mut h = LatencyHistogram::default();
        // 90 fast samples (bucket of 100ns = index 6, edge 127) and 10 slow
        // ones (bucket of 1_000_000ns = index 19, edge 1_048_575).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let q = h.quantiles();
        assert_eq!(q.p50, 127);
        assert_eq!(q.p90, 127);
        assert_eq!(q.p99, (1 << 20) - 1);
        assert_eq!(q.p999, (1 << 20) - 1);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 100 + 10 * 1_000_000);
        assert_eq!(LatencyHistogram::default().quantile(0.5), 0, "empty: 0");
    }

    /// The merge-forgets-new-field guard, `Stats` style: merging a default
    /// into an exhaustive literal must reproduce it exactly. A bucket or a
    /// counter a future PR adds to `LatencyHistogram` but forgets in
    /// `merge` fails the equality; a new *field* breaks this literal at
    /// compile time.
    #[test]
    fn histogram_merge_into_default_is_identity() {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = i as u64 + 1;
        }
        let x = LatencyHistogram {
            buckets,
            count: buckets.iter().sum(),
            sum: 987_654,
        };
        let mut acc = LatencyHistogram::default();
        acc.merge(&x);
        assert_eq!(acc, x, "LatencyHistogram::merge must cover every field");
    }

    /// Same guard one level up: the exhaustive `LatencyHistograms` literal
    /// breaks at compile time when a class field is added, and the equality
    /// fails when `merge` forgets one.
    #[test]
    fn histograms_merge_into_default_is_identity() {
        let mut sample = LatencyHistogram::default();
        sample.record(17);
        sample.record(40_000);
        let mut other = LatencyHistogram::default();
        other.record(3);
        let x = LatencyHistograms {
            commit: sample,
            abort_gap: other,
            fence_wait: sample,
            grace: other,
            retry_sleep: sample,
        };
        let mut acc = LatencyHistograms::default();
        acc.merge(&x);
        assert_eq!(acc, x, "LatencyHistograms::merge must cover every field");
    }

    /// The per-class views the service harness reports through: every
    /// [`OpClass`] distribution must place known-latency synthetic samples
    /// in the right power-of-two bucket and report the documented bucket
    /// upper edges as its percentiles.
    #[test]
    fn op_class_percentiles_match_synthetic_samples() {
        let mut h = OpClassHistograms::default();
        // Per class: 98 samples at `base` ns and 2 at 1000*base ns, with a
        // distinct base per class so a routing bug (recording into the
        // wrong field) shifts a percentile and fails loudly.
        let bases: [(OpClass, u64); 5] = [
            (OpClass::Get, 100),
            (OpClass::Put, 300),
            (OpClass::Rmw, 900),
            (OpClass::Scan, 20_000),
            (OpClass::Publish, 500),
        ];
        for (class, base) in bases {
            for _ in 0..98 {
                h.record(class, base);
            }
            for _ in 0..2 {
                h.record(class, 1000 * base);
            }
        }
        for (class, base) in bases {
            let hist = h.get(class);
            assert_eq!(hist.count(), 100, "{}", class.label());
            assert_eq!(hist.sum(), 98 * base + 2 * 1000 * base, "{}", class.label());
            let q = hist.quantiles();
            let fast_edge =
                LatencyHistogram::bucket_upper_edge(LatencyHistogram::bucket_index(base));
            let slow_edge =
                LatencyHistogram::bucket_upper_edge(LatencyHistogram::bucket_index(1000 * base));
            // Ranks: p50 → 50th, p99 → 99th (the first slow sample),
            // p999 → 100th — quantiles report bucket upper edges.
            assert_eq!(q.p50, fast_edge, "{}", class.label());
            assert_eq!(q.p90, fast_edge, "{}", class.label());
            assert_eq!(q.p99, slow_edge, "{}", class.label());
            assert_eq!(q.p999, slow_edge, "{}", class.label());
        }
        assert_eq!(h.total_count(), 500);
        let labels: Vec<&str> = OpClass::ALL.iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "op-class labels are distinct");
    }

    /// The merge-forgets-new-field guard for the op-class views: the
    /// exhaustive literal breaks at compile time when a class field is
    /// added, and the equality fails when `merge` forgets one.
    #[test]
    fn op_class_merge_into_default_is_identity() {
        let mut a = LatencyHistogram::default();
        a.record(64);
        let mut b = LatencyHistogram::default();
        b.record(1024);
        b.record(5);
        let x = OpClassHistograms {
            get: a,
            put: b,
            rmw: a,
            scan: b,
            publish: a,
        };
        let mut acc = OpClassHistograms::default();
        acc.merge(&x);
        assert_eq!(acc, x, "OpClassHistograms::merge must cover every field");
        // Merging twice doubles every count — the per-client fold the
        // service report relies on.
        acc.merge(&x);
        assert_eq!(acc.total_count(), 2 * x.total_count());
    }

    /// A `TelemetrySnapshot` built from known-latency synthetic samples
    /// must report the documented bucket-edge percentiles per runtime
    /// class — the same guarantee the op-class views give the service.
    #[test]
    fn snapshot_percentiles_match_synthetic_samples() {
        let t = Telemetry::new(2, TraceConfig::with_capacity(8));
        // 9 fast + 1 slow commit sample, split across two slots: the
        // merged snapshot must see one distribution.
        for _ in 0..5 {
            t.record_latency(0, LatencyClass::Commit, 200);
        }
        for _ in 0..4 {
            t.record_latency(1, LatencyClass::Commit, 200);
        }
        t.record_latency(1, LatencyClass::Commit, 3_000_000);
        let s = t.snapshot();
        let q = s.hists.commit.quantiles();
        assert_eq!(s.hists.commit.count(), 10);
        let fast_edge = LatencyHistogram::bucket_upper_edge(LatencyHistogram::bucket_index(200));
        let slow_edge =
            LatencyHistogram::bucket_upper_edge(LatencyHistogram::bucket_index(3_000_000));
        assert_eq!(q.p50, fast_edge);
        assert_eq!(q.p90, fast_edge, "rank 9 of 10 is still a fast sample");
        assert_eq!(q.p99, slow_edge, "rank 10 of 10 is the slow sample");
        assert_eq!(q.p999, slow_edge);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = TraceRing::new(3);
        let ev = |n: u64| TraceEvent {
            at_ns: n,
            slot: 0,
            kind: EventKind::TxBegin,
        };
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
        let order: Vec<u64> = r.iter_in_order().map(|e| e.at_ns).collect();
        assert_eq!(order, vec![1, 2], "pre-wrap order is insertion order");
        r.push(ev(3));
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 3, "capacity bounds the ring");
        assert_eq!(r.dropped(), 2, "two events were overwritten");
        let order: Vec<u64> = r.iter_in_order().map(|e| e.at_ns).collect();
        assert_eq!(order, vec![3, 4, 5], "oldest-first after wrapping");
        let mut z = TraceRing::new(0);
        z.push(ev(9));
        assert!(z.is_empty(), "zero-capacity ring records nothing");
    }

    #[test]
    fn trace_config_grammar() {
        assert_eq!(TraceConfig::parse(None).capacity, 1024, "default on");
        assert!(TraceConfig::parse(None).is_enabled());
        assert!(!TraceConfig::parse(Some("off")).is_enabled());
        assert!(!TraceConfig::parse(Some("0")).is_enabled());
        assert_eq!(TraceConfig::parse(Some("256")).capacity, 256);
        assert_eq!(TraceConfig::parse(Some(" 64 ")).capacity, 64);
        assert_eq!(
            TraceConfig::parse(Some("banana")).capacity,
            TraceConfig::DEFAULT_CAPACITY,
            "unparsable falls back to the default, not to off"
        );
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let t = Telemetry::new(2, TraceConfig::off());
        assert!(!t.enabled());
        t.record_event(0, EventKind::TxBegin);
        t.record_latency(1, LatencyClass::Commit, 55);
        t.record_commit(0, Instant::now(), 99);
        t.record_foreign_event_at(1, Instant::now(), EventKind::FenceRetire { period: 1 });
        t.record_grace_scan(t.engine_slot(), 1, Instant::now());
        let s = t.snapshot();
        assert!(!s.enabled);
        assert!(s.events.is_empty());
        assert_eq!(s.hists.commit.count(), 0);
        assert_eq!(s.hists.grace.count(), 0);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn snapshot_merges_slots_and_sorts_events() {
        let t = Telemetry::new(2, TraceConfig::with_capacity(16));
        t.record_commit(1, Instant::now(), 200);
        t.record_commit(0, Instant::now(), 100);
        t.record_latency(0, LatencyClass::FenceWait, 30);
        t.record_grace_scan(t.engine_slot(), 7, Instant::now());
        let s = t.snapshot();
        assert!(s.enabled);
        assert_eq!(s.sample_every, SAMPLE_EVERY);
        assert_eq!(s.hists.commit.count(), 2, "commit samples merge");
        assert_eq!(s.hists.commit.sum(), 300);
        assert_eq!(s.hists.fence_wait.count(), 1);
        assert_eq!(s.hists.grace.count(), 1);
        assert_eq!(s.events.len(), 3, "2 commits + 1 grace scan");
        assert!(
            s.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "events are timestamp-sorted"
        );
        assert_eq!(
            s.events
                .iter()
                .filter(|e| e.slot == t.engine_slot())
                .count(),
            1,
            "the grace scan landed on the engine slot"
        );
    }

    /// A scan recorded on a thread slot lands in that slot's cell: same
    /// sample and event as the engine path, attributed to the joiner.
    #[test]
    fn grace_scan_on_a_thread_slot_lands_in_its_cell() {
        let t = Telemetry::new(2, TraceConfig::with_capacity(16));
        t.record_grace_scan(1, 5, Instant::now());
        t.record_grace_scan(t.engine_slot(), 6, Instant::now());
        let s = t.snapshot();
        assert_eq!(s.hists.grace.count(), 2);
        let mut slots: Vec<(u16, u64)> = s
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::GraceScan { period, .. } => (e.slot, period),
                _ => unreachable!(),
            })
            .collect();
        slots.sort();
        assert_eq!(slots, [(1, 5), (t.engine_slot(), 6)]);
    }

    #[test]
    fn event_labels_and_fields_cover_the_taxonomy() {
        let all = [
            EventKind::TxBegin,
            EventKind::TxCommit { latency_ns: 1 },
            EventKind::TxAbort {
                cause: AbortCause::Lock,
            },
            EventKind::FenceIssue { period: 2 },
            EventKind::FenceRetire { period: 2 },
            EventKind::GraceScan {
                period: 2,
                duration_ns: 3,
            },
            EventKind::ClockSwitchRequest {
                to_gv5: true,
                read_commits: 4,
                write_commits: 124,
            },
            EventKind::ClockSwitchSettle { to_gv5: true },
            EventKind::StripePublish {
                grow: true,
                from_stripes: 4,
                to_stripes: 8,
                false_conflicts: 9,
                window: 128,
            },
            EventKind::StripeRetire { stripes: 8 },
            EventKind::Escalation {
                attempts: 5,
                deadline_expired: false,
            },
            EventKind::RetryWake {
                reg: 6,
                slept_ns: 12_000,
            },
            EventKind::StallReport {
                stalled_slot: 3,
                pinned_ns: 7_000_000,
                period: 2,
            },
        ];
        let labels: Vec<&str> = all.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "labels are distinct");
        let governor = all.iter().filter(|k| k.is_governor_decision()).count();
        assert_eq!(governor, 4, "the four governor decision kinds");
        for k in &all {
            for (name, _) in k.fields() {
                assert!(!name.is_empty());
            }
            // The ring encoding round-trips, and `fields` is that encoding
            // under its names.
            assert_eq!(EventKind::decode(k.code() as u64, k.words()), Some(*k));
            let values: Vec<u64> = k.fields().iter().map(|&(_, v)| v).collect();
            assert_eq!(values, k.words()[..values.len()]);
            assert!(k.words()[values.len()..].iter().all(|&w| w == 0));
        }
        assert_eq!(EventKind::decode(13, [0; 5]), None, "unknown kind");
        assert_eq!(EventKind::decode(2, [6, 0, 0, 0, 0]), None, "unknown cause");
        for (i, cause) in AbortCause::ALL.iter().enumerate() {
            assert_eq!(cause.code(), i as u64);
        }
        assert_eq!(AbortCause::User.label(), "user");
        assert_eq!(AbortCause::Panic.label(), "panic");
        assert!(
            !EventKind::StallReport {
                stalled_slot: 0,
                pinned_ns: 0,
                period: 0,
            }
            .is_governor_decision(),
            "hardening events are not governor decisions"
        );
    }

    #[test]
    fn json_has_schema_and_event_payloads() {
        let t = Telemetry::new(1, TraceConfig::with_capacity(8));
        t.record_commit(0, Instant::now(), 150);
        t.record_event(
            0,
            EventKind::ClockSwitchRequest {
                to_gv5: true,
                read_commits: 0,
                write_commits: 128,
            },
        );
        let mut s = t.snapshot();
        s.driver_mode = Some("background");
        s.driver_idle_wakeups = Some(5);
        let json = s.to_json();
        assert!(json.contains("\"schema\": \"bench_telemetry/v2\""));
        assert!(json.contains(&format!("\"sample_every\": {SAMPLE_EVERY}")));
        assert!(json.contains("\"class\": \"commit\""));
        assert!(json.contains("\"kind\": \"clock-switch-request\""));
        assert!(json.contains("\"write_commits\": 128"));
        assert!(json.contains("\"mode\": \"background\""));
        assert!(json.contains("\"idle_wakeups\": 5"));
    }

    /// A thread-slot ring keeps the newest `capacity` events and counts
    /// the rest as dropped, exactly like the engine's [`TraceRing`].
    #[test]
    fn slot_ring_overwrites_oldest_and_counts_drops() {
        let t = Telemetry::new(1, TraceConfig::with_capacity(3));
        for n in 1..=5u64 {
            t.record_event(0, EventKind::FenceIssue { period: n });
        }
        let s = t.snapshot();
        let periods: Vec<u64> = s.events.iter().map(|e| e.kind.words()[0]).collect();
        assert_eq!(periods, vec![3, 4, 5], "oldest-first after wrapping");
        assert_eq!(s.dropped, 2, "two events were overwritten");
        assert!(s.events.iter().all(|e| e.slot == 0));
    }

    /// Events a thread raises about a slot it may not own, and events too
    /// wide for a thread-slot entry, land in the engine cell — with the
    /// slot they are about intact.
    #[test]
    fn foreign_and_wide_events_go_to_the_engine_cell() {
        let t = Telemetry::new(2, TraceConfig::with_capacity(2));
        let wide = EventKind::StripePublish {
            grow: true,
            from_stripes: 4,
            to_stripes: 8,
            false_conflicts: 9,
            window: 128,
        };
        t.record_foreign_event_at(1, Instant::now(), EventKind::FenceRetire { period: 7 });
        t.record_event(1, wide);
        // Slot 1's own ring is untouched: two more events fit without a drop.
        t.record_event(1, EventKind::TxBegin);
        t.record_event(1, EventKind::TxBegin);
        let s = t.snapshot();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.events.len(), 4);
        assert!(s.events.iter().all(|e| e.slot == 1), "{:?}", s.events);
        assert!(s.events.iter().any(|e| e.kind == wide), "payload intact");
    }

    /// A reader never blocks the writer and never returns a torn entry:
    /// while one thread wraps its ring many times, every event a
    /// concurrent snapshot returns is one the writer wrote (payload words
    /// agree with each other), in writing order, and `dropped` only grows.
    #[test]
    fn concurrent_snapshots_of_a_wrapping_ring_never_tear() {
        const CAPACITY: u64 = 8;
        const EVENTS: u64 = 200_000; // wraps the ring 25 000 times
        let t = Telemetry::new(1, TraceConfig::with_capacity(CAPACITY as usize));
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                for n in 0..EVENTS {
                    t.record_event(
                        0,
                        EventKind::ClockSwitchRequest {
                            to_gv5: n % 2 == 1,
                            read_commits: n,
                            write_commits: !n,
                        },
                    );
                }
            });
            started.wait();
            let mut last_dropped = 0;
            loop {
                let snap = t.snapshot();
                assert!(snap.dropped >= last_dropped, "dropped went backwards");
                last_dropped = snap.dropped;
                assert!(snap.events.len() as u64 <= CAPACITY);
                let mut last_n = None;
                for e in &snap.events {
                    let EventKind::ClockSwitchRequest {
                        to_gv5,
                        read_commits: n,
                        write_commits,
                    } = e.kind
                    else {
                        panic!("an event nobody wrote: {e:?}");
                    };
                    assert_eq!((to_gv5, write_commits), (n % 2 == 1, !n), "torn: {e:?}");
                    assert!(last_n < Some(n), "out of order: {:?}", snap.events);
                    last_n = Some(n);
                }
                if last_n == Some(EVENTS - 1) {
                    assert_eq!(snap.dropped, EVENTS - CAPACITY);
                    assert_eq!(snap.events.len() as u64, CAPACITY);
                    break;
                }
            }
        });
    }
}
