//! The public STM interface shared by all implementations.

use crate::fence::{FenceTicket, FenceTimeout};
use crate::runtime::DirectReader;
use std::fmt;
use std::time::Duration;

/// A transaction attempt was aborted (conflict, validation failure, or an
/// explicit user abort). The enclosing `atomic` retries; `try_atomic`
/// surfaces it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort;

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("transaction aborted")
    }
}

impl std::error::Error for Abort {}

/// Operations available inside a transaction body.
pub trait TxScope {
    /// Transactional read of register `x`.
    fn read(&mut self, x: usize) -> Result<u64, Abort>;
    /// Transactional write of register `x`.
    fn write(&mut self, x: usize, v: u64) -> Result<(), Abort>;
}

/// A per-thread STM handle. Handles are `Send` but not `Sync`: one handle
/// per thread, typically used with `std::thread::scope`.
pub trait StmHandle {
    /// Run `body` as a transaction, retrying until it commits. The body must
    /// propagate `Abort` errors from reads/writes (use `?`).
    fn atomic<R>(&mut self, body: impl FnMut(&mut dyn TxScope) -> Result<R, Abort>) -> R;

    /// Run `body` as a single transaction attempt.
    fn try_atomic<R>(
        &mut self,
        body: impl FnMut(&mut dyn TxScope) -> Result<R, Abort>,
    ) -> Result<R, Abort>;

    /// Uninstrumented non-transactional read. Only safe (strongly atomic)
    /// for data-race free usage per the paper's discipline.
    fn read_direct(&mut self, x: usize) -> u64;

    /// A bulk form of [`Self::read_direct`] for passes over many registers
    /// (frozen-map scans): same reads, same recorded actions, same
    /// [`Stats::direct_reads`] total, with the per-read bookkeeping hoisted
    /// out of the loop.
    fn direct_reader(&mut self) -> DirectReader<'_>;

    /// Uninstrumented non-transactional write.
    fn write_direct(&mut self, x: usize, v: u64);

    /// Asynchronous transactional fence: request the fence and return a
    /// ticket immediately. The ticket resolves once every transaction
    /// active at the request has committed or aborted; tickets issued while
    /// the same grace period is open — by any thread — are *batched* behind
    /// one epoch-table scan. See [`crate::fence`] for the recording rules
    /// that apply while a ticket is outstanding.
    fn fence_async(&mut self) -> FenceTicket;

    /// Wait a fence ticket out on this handle, charging the blocked time to
    /// [`Stats::fence_wait_ns`].
    fn fence_join(&mut self, ticket: FenceTicket);

    /// [`Self::fence_join`], bounded: give up after `timeout`, returning a
    /// [`FenceTimeout`] that names every epoch slot the grace scan is
    /// pinned on (when the stall detector has seen them). The ticket stays
    /// with the caller and remains pending — re-wait it, poll it, or hand
    /// it to [`FenceTicket::on_complete`]; dropping it still blocks until
    /// the grace period elapses.
    ///
    /// **Never wait a fence out from inside a transaction** (neither this
    /// method nor [`Self::fence_join`]): the grace period waits for every
    /// active transaction, including the waiter's own, so the wait can only
    /// end by timing out — and the stall detector will eventually name the
    /// waiting slot itself as the offender.
    ///
    /// Blocked time is charged to [`Stats::fence_wait_ns`] whether or not
    /// the wait times out; stalled slots surfaced by a timeout are counted
    /// in [`Stats::stalls_detected`].
    fn fence_join_timeout(
        &mut self,
        ticket: &mut FenceTicket,
        timeout: Duration,
    ) -> Result<(), FenceTimeout>;

    /// Transactional fence: blocks until every transaction active at the
    /// call has committed or aborted (paper Fig 7 lines 33–39). Exactly
    /// [`Self::fence_async`] followed by [`Self::fence_join`].
    fn fence(&mut self) {
        let ticket = self.fence_async();
        self.fence_join(ticket);
    }

    /// Statistics accumulated by this handle.
    fn stats(&self) -> Stats;
}

/// A shared STM instance that can mint per-thread handles — the common
/// construction surface of every backend, so cross-backend drivers
/// (conformance suites, benchmarks) can be written once.
pub trait StmFactory: Clone + Send + Sync + 'static {
    /// The per-thread handle type this instance mints.
    type Handle: StmHandle + Send;

    /// A handle bound to thread slot `slot`.
    fn handle(&self, slot: usize) -> Self::Handle;

    /// Current register value (unsynchronized snapshot; test/report helper).
    fn peek(&self, x: usize) -> u64;
}

/// Per-handle statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborts during read validation.
    pub aborts_read: u64,
    /// Aborts acquiring commit locks.
    pub aborts_lock: u64,
    /// Aborts during commit-time (re)validation.
    pub aborts_validate: u64,
    /// Aborts requested by the transaction body.
    pub aborts_user: u64,
    /// Fences requested (synchronous or asynchronous).
    pub fences: u64,
    /// Nanoseconds spent blocked waiting fences out (`fence` /
    /// `fence_join`). Time between `fence_async` and the join — the overlap
    /// an asynchronous fence buys — is deliberately not counted.
    ///
    /// `fence_join` feeds each joined wait to this counter *and* to the
    /// telemetry fence-wait latency histogram
    /// ([`tm_telemetry::LatencyClass::FenceWait`]), so with telemetry
    /// enabled the counter equals that histogram's
    /// [`sum`](tm_telemetry::LatencyHistogram::sum) — this counter is the
    /// total, the histogram its distribution (asserted in the merge tests).
    pub fence_wait_ns: u64,
    /// Uninstrumented non-transactional reads.
    pub direct_reads: u64,
    /// Uninstrumented non-transactional writes.
    pub direct_writes: u64,
    /// Attempts re-run by the shared `atomic` retry loop (one per abort it
    /// swallowed).
    pub retries: u64,
    /// Nanoseconds spent in the retry loop's exponential backoff.
    pub backoff_ns: u64,
    /// Writes to the shared version-clock cache line (GV1: one per writing
    /// commit; GV4: one per *won* CAS, adopters are free; GV5: only reader
    /// refreshes after a trailing-`rv` false abort — zero on disjoint-write
    /// workloads). The serialization cost the clock backends trade against.
    pub clock_bumps: u64,
    /// Writing commits that skipped commit-time read-set re-validation
    /// because the clock proved no concurrent commit intervened
    /// (`wver == rv + 1` via an exclusive bump — see [`crate::clock`]).
    pub validation_elisions: u64,
    /// Aborts classified as *false conflicts*: the failing stripe's last
    /// committed writer was a different register than the aborting one, so
    /// the two registers merely share a lock word (striped storage only —
    /// per-register tables never produce them). The signal the adaptive
    /// table's growth policy feeds on; see [`crate::storage`].
    pub false_conflicts: u64,
    /// Adaptive-table generations this handle published (each one doubles
    /// the stripe count and opens a grace-period-bounded migration window).
    pub stripe_resizes: u64,
    /// Stripe count of the lock table this handle's latest transaction ran
    /// against — a *gauge*, not a counter: [`Stats::merge`] keeps the
    /// maximum, so a merged view reports the largest table any handle saw.
    pub current_stripes: u64,
    /// Commits whose write set was empty. Together with
    /// [`Stats::write_commits`] this is the read/write mix the contention
    /// governor feeds on when choosing a version-clock discipline.
    pub read_only_commits: u64,
    /// Commits that installed at least one write.
    pub write_commits: u64,
    /// Clock-discipline switches (GV1 ↔ GV5) this handle's governor fold
    /// requested on the shared auto clock; each one opens a grace-fenced
    /// handoff window. See [`crate::clock`].
    pub clock_switches: u64,
    /// Panics that unwound out of a transaction body or commit on this
    /// handle. Each one was intercepted, rolled back (locks released, epoch
    /// slot exited, abort recorded with
    /// [`tm_telemetry::AbortCause::Panic`]), and resumed.
    pub panics_unwound: u64,
    /// Retry-budget exhaustions that escalated this handle to irrevocable
    /// serial mode (the runtime-wide escalation token). See
    /// [`crate::runtime::RetryPolicy`].
    pub escalations: u64,
    /// Stalled epoch slots surfaced to this handle by timed-out fence
    /// waits ([`StmHandle::fence_join_timeout`]) — each one a thread parked
    /// (or dead) inside a transaction past the engine's stall threshold.
    pub stalls_detected: u64,
}

impl Stats {
    /// Total aborts of every kind.
    pub fn aborts_total(&self) -> u64 {
        self.aborts_read + self.aborts_lock + self.aborts_validate + self.aborts_user
    }

    /// Accumulate `o` into `self` (counters add; gauges — `current_stripes` — merge by max).
    pub fn merge(&mut self, o: &Stats) {
        self.commits += o.commits;
        self.aborts_read += o.aborts_read;
        self.aborts_lock += o.aborts_lock;
        self.aborts_validate += o.aborts_validate;
        self.aborts_user += o.aborts_user;
        self.fences += o.fences;
        self.fence_wait_ns += o.fence_wait_ns;
        self.direct_reads += o.direct_reads;
        self.direct_writes += o.direct_writes;
        self.retries += o.retries;
        self.backoff_ns += o.backoff_ns;
        self.clock_bumps += o.clock_bumps;
        self.validation_elisions += o.validation_elisions;
        self.false_conflicts += o.false_conflicts;
        self.stripe_resizes += o.stripe_resizes;
        // Gauge, not counter: the merged view reports the largest table any
        // of the merged handles ran against.
        self.current_stripes = self.current_stripes.max(o.current_stripes);
        self.read_only_commits += o.read_only_commits;
        self.write_commits += o.write_commits;
        self.clock_switches += o.clock_switches;
        self.panics_unwound += o.panics_unwound;
        self.escalations += o.escalations;
        self.stalls_detected += o.stalls_detected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_totals() {
        let mut a = Stats {
            commits: 1,
            aborts_read: 2,
            retries: 3,
            backoff_ns: 100,
            fences: 2,
            fence_wait_ns: 40,
            clock_bumps: 5,
            validation_elisions: 1,
            false_conflicts: 2,
            stripe_resizes: 1,
            current_stripes: 64,
            ..Default::default()
        };
        let b = Stats {
            commits: 3,
            aborts_lock: 4,
            aborts_user: 1,
            retries: 5,
            backoff_ns: 900,
            fences: 1,
            fence_wait_ns: 60,
            clock_bumps: 7,
            validation_elisions: 2,
            false_conflicts: 3,
            stripe_resizes: 2,
            current_stripes: 16,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 4);
        assert_eq!(a.aborts_total(), 7);
        assert_eq!(a.retries, 8);
        assert_eq!(a.backoff_ns, 1000);
        assert_eq!(a.fences, 3);
        assert_eq!(a.fence_wait_ns, 100);
        assert_eq!(a.clock_bumps, 12);
        assert_eq!(a.validation_elisions, 3);
        assert_eq!(a.false_conflicts, 5, "false conflicts accumulate");
        assert_eq!(a.stripe_resizes, 3, "resizes accumulate");
        assert_eq!(a.current_stripes, 64, "stripe gauge merges by max");
    }

    /// The merge-forgets-new-field bug class: merging a default with `x`
    /// must reproduce `x` exactly, whatever fields `Stats` grows. Any field
    /// a future PR adds but forgets in `merge` fails the equality.
    #[test]
    fn merge_into_default_is_identity() {
        let x = Stats {
            commits: 1,
            aborts_read: 2,
            aborts_lock: 3,
            aborts_validate: 4,
            aborts_user: 5,
            fences: 6,
            fence_wait_ns: 7,
            direct_reads: 8,
            direct_writes: 9,
            retries: 10,
            backoff_ns: 11,
            clock_bumps: 12,
            validation_elisions: 13,
            false_conflicts: 14,
            stripe_resizes: 15,
            current_stripes: 16,
            read_only_commits: 17,
            write_commits: 18,
            clock_switches: 19,
            panics_unwound: 20,
            escalations: 21,
            stalls_detected: 22,
        };
        let mut acc = Stats::default();
        acc.merge(&x);
        assert_eq!(acc, x, "Stats::merge must cover every field");
    }

    #[test]
    fn abort_displays() {
        assert_eq!(Abort.to_string(), "transaction aborted");
    }
}
