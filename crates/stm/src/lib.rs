//! # tm-stm — concurrent software transactional memory with safe privatization
//!
//! The runtime half of the reproduction of *Safe Privatization in
//! Transactional Memory* (Khyzha et al., PPoPP 2018): real, multi-threaded
//! STM implementations whose correctness claims are checked against the
//! paper's theory via recorded histories (`tm-core`).
//!
//! ## Layering
//!
//! * [`runtime`] — the shared runtime layer: register file, epoch-table
//!   registration for fences, [`record::Recorder`] wiring, [`api::Stats`],
//!   and the `atomic` retry loop with exponential backoff. Algorithms are
//!   [`runtime::Policy`] implementations over it.
//! * [`fence`] — asynchronous, batched privatization fences:
//!   [`api::StmHandle::fence_async`] returns a [`fence::FenceTicket`] over
//!   the runtime's grace-period engine ([`tm_quiesce::GraceEngine`]); all
//!   tickets issued during one open period share a single epoch-table scan,
//!   and [`fence::fence_all`] batches whole handle sets. With
//!   [`runtime::DriverMode::Background`] the runtime owns a
//!   [`tm_quiesce::GraceDriver`] thread that retires periods with zero
//!   pollers, so fire-and-forget
//!   [`on_complete`](fence::FenceTicket::on_complete) callbacks fire
//!   within bounded time.
//! * [`storage`] — pluggable ownership-record storage for versioned-lock
//!   policies: one [`vlock::VLock`] per register, or a *striped orec table*
//!   (constant metadata footprint, hash register → stripe), selected per
//!   instance via [`runtime::StmConfig`].
//! * [`clock`] — pluggable global version clocks for timestamp-based
//!   policies: GV1 (`fetch_add` per commit), GV4 (CAS-with-adopt), or
//!   GV5/TL2C-style slot-local deltas that keep writing commits off the
//!   shared clock line entirely; selected via [`runtime::StmConfig::clock`].
//!   `ClockKind::Auto` hands the choice to the **contention governor**,
//!   which watches the read/write commit mix and switches GV1 ⇄ GV5 at
//!   run time (grace-fenced handoff), and also shrinks the adaptive lock
//!   table back when contention subsides —
//!   [`runtime::StmConfig::auto`] is the recommended arm-everything entry
//!   point.
//! * [`tl2`] — TL2 (Fig 9) with buffered writes, a global version clock,
//!   versioned write-locks, and RCU-style transactional
//!   [`fences`](api::StmHandle::fence) built on [`tm_quiesce`]. Without a
//!   fence after a privatizing transaction, uninstrumented non-transactional
//!   accesses are exposed to the delayed-commit and doomed-transaction
//!   anomalies of the paper's Fig 1 — with the fence, privatization is safe
//!   (the paper's DRF discipline).
//! * [`tvar`] — the typed frontend: [`tvar::TVar<T>`] cells mapped onto
//!   runtime registers (the register holds the thin address of the
//!   value's `Box<T>`), [`tvar::TypedHandle::atomically`] with `?`
//!   propagation and [`tvar::Transaction::or`]/`optionally` combinators,
//!   and blocking [`tvar::Transaction::retry`] — sleep on the read set,
//!   woken by any conflicting commit. Old value boxes displaced at commit
//!   are retired, a per-handle batch at a time, through the grace engine's
//!   epoch-based reclamation
//!   ([`tm_quiesce::GraceEngine::defer_drop_batch`]): the paper's
//!   "privatization safety is safe reclamation", used as the typed layer's
//!   memory manager.
//! * [`norec`] — a NOrec-style STM (related work \[10\]): privatization-safe
//!   without fences; the comparison point for the fence-cost benchmarks.
//! * [`glock`] — single-global-lock STM: the trivially strongly atomic
//!   baseline.
//! * [`record`] — history recording; recorded executions feed the DRF and
//!   strong-opacity checkers. All policies record through the shared
//!   runtime, so every algorithm's histories are checkable.
//! * [`telemetry`] (the re-exported [`tm_telemetry`] crate) — the
//!   observability layer: per-slot log-bucketed latency histograms (commit,
//!   abort-to-retry gap, fence wait, grace-period scan) and a per-slot
//!   flight-recorder ring of runtime events, including every contention
//!   governor decision with the counters that justified it. Always on at
//!   one relaxed load per event site; configured via `TM_STM_TRACE`
//!   (`off` / ring capacity, default 1024 events per slot) or
//!   [`runtime::StmConfig::trace`], exported through
//!   [`runtime::Runtime::telemetry_snapshot`].
//! * **Hardening** (this crate + [`tm_chaos`], re-exported as [`chaos`]) —
//!   panic-safe unwind paths (a panicking transaction body or commit
//!   releases every lock and its epoch slot, records an
//!   [`AbortCause::Panic`](tm_telemetry::AbortCause) abort, and resumes the
//!   unwind; only an unwind *through commit write-back* poisons the
//!   handle), retry budgets ([`runtime::RetryPolicy`]) that escalate to an
//!   irrevocable serial mode instead of spinning forever, grace-engine
//!   stall detection with bounded fence waits
//!   ([`api::StmHandle::fence_join_timeout`]), and seeded deterministic
//!   fault injection at the lock-acquire / validation / clock-bump /
//!   grace-scan sites via `TM_STM_CHAOS=<seed>` or
//!   [`runtime::StmConfig::chaos_seed`].
//!
//! ## Quick example
//!
//! ```
//! use tm_stm::prelude::*;
//!
//! let stm = Tl2Stm::new(16, 2);
//! let mut h = stm.handle(0);
//! // Transactional transfer.
//! h.atomic(|tx| {
//!     let a = tx.read(0)?;
//!     tx.write(0, a + 50)?;
//!     tx.write(1, 50)
//! });
//! // Privatize register 2 (flag in register 3), then access it directly.
//! h.atomic(|tx| tx.write(3, 1));
//! h.fence(); // wait for concurrently active transactions
//! h.write_direct(2, 999);
//! assert_eq!(h.read_direct(2), 999);
//!
//! // The same API over striped orec storage: constant lock metadata
//! // however many registers the instance holds.
//! let big = Tl2Stm::with_config(StmConfig::new(1 << 16, 2).striped(256));
//! let mut h = big.handle(0);
//! h.atomic(|tx| tx.write(40_000, 7));
//! assert_eq!(big.peek(40_000), 7);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod clock;
pub mod fence;
pub mod glock;
pub mod map;
pub mod norec;
pub mod record;
pub mod runtime;
pub mod storage;
pub mod tl2;
pub mod tvar;
pub mod vlock;

pub use tm_chaos as chaos;
pub use tm_telemetry as telemetry;

/// One-stop imports for driving any STM backend (handles, configs,
/// tickets, maps, stats).
pub mod prelude {
    pub use crate::api::{Abort, Stats, StmFactory, StmHandle, TxScope};
    pub use crate::clock::ClockKind;
    pub use crate::fence::{fence_all, FenceTicket, FenceTimeout};
    pub use crate::glock::{GlockHandle, GlockStm};
    pub use crate::map::{freeze_all, freeze_all_async, thaw_all, FreezeMode, TxMap};
    pub use crate::norec::{NorecHandle, NorecStm};
    pub use crate::record::Recorder;
    pub use crate::runtime::{BackoffCfg, DriverMode, RetryPolicy, StmConfig};
    pub use crate::storage::{AdaptivePolicy, StorageKind};
    pub use crate::tl2::{Tl2Handle, Tl2Stm};
    pub use crate::tvar::{
        RetryStrategy, StmError, StmResult, TVar, Transaction, TypedHandle, TypedStm,
    };
    pub use tm_chaos::{Chaos, Site as ChaosSite};
    pub use tm_telemetry::{
        AbortCause, EventKind, LatencyClass, TelemetrySnapshot, TraceConfig, TraceEvent,
    };
}
