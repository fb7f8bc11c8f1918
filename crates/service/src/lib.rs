//! The service: an end-to-end sharded session/KV workload harness over
//! the STM runtime — the closest thing in this repo to the north star's
//! production system, and (at small scale, re-expressed over plain
//! registers in `tm_litmus::concrete::Scenario::Service`) its largest
//! conformance scenario.
//!
//! * [`ShardedKv`] — N [`tm_stm::map::TxMap`] shards, each owning a
//!   contiguous key range; bulk ops privatize first (read-freeze flag +
//!   one grace-period fence) and double-read for stability — the paper's
//!   safe-privatization discipline at store scale. While a shard is
//!   frozen, `get` proceeds and the writing point ops abort-and-retry.
//! * [`Zipf`] / [`spread`] / [`SplitMix64`] — skewed key popularity,
//!   deterministic in the seed.
//! * [`run_service`] — the closed-loop client fleet: mixed
//!   get / put / rmw / privatize-and-scan / publish-back traffic, one
//!   typed [`tm_stm::tvar::TVar`] session per client, a background
//!   freeze/snapshot cycle riding the grace engine, and per-op-class
//!   p50/p99/p999 via `tm_telemetry`'s histograms.
//! * [`Op`] — the op taxonomy as data, for the property-based
//!   differential test against a sequential `HashMap` model.
//!
//! ```
//! use tm_service::{run_service, ServiceCfg};
//! use tm_stm::prelude::*;
//!
//! let cfg = ServiceCfg::small();
//! let stm = Tl2Stm::with_config(StmConfig::new(cfg.nregs(), cfg.nthreads()));
//! let report = run_service(&stm, &cfg);
//! assert_eq!(report.scan_anomalies, 0, "privatized reads must be stable");
//! assert_eq!(report.session_ops, report.op_counts);
//! assert!(report.snapshots >= 1);
//! ```

#![warn(missing_docs)]

pub mod store;
pub mod workload;
pub mod zipf;

pub use store::{FrozenShard, Op, ShardedKv};
pub use workload::{run_service, OpMix, ServiceCfg, ServiceReport};
pub use zipf::{spread, SplitMix64, Zipf};
