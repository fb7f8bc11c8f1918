//! Seeded, deterministic fault injection for the STM runtime.
//!
//! The hardening layer in `tm-stm` (panic-safe unwind paths, retry budgets
//! with irrevocable fallback, stall detection) is only as trustworthy as the
//! tests that exercise it. This crate plants **injection sites** at the five
//! places where an STM actually fails in production — lock acquisition,
//! validation, clock bumps, commit epilogues, and grace-period scans — and
//! lets a seeded
//! generator force the rare outcomes (a lost lock race, a failed validation,
//! a descheduled thread) on demand, deterministically enough that the full
//! conformance suite can run under injection and still assert bit-identical
//! final states and checker verdicts.
//!
//! Three fault kinds:
//!
//! - **Forced aborts** (`should_abort`) — the site behaves exactly as if the
//!   real conflict happened: the policy walks its ordinary abort path
//!   (releasing any locks it took) and the retry loop retries. Semantically
//!   invisible: a forced abort is indistinguishable from a lost race, so
//!   finals and verdicts are unchanged.
//! - **Injected delays** (`maybe_delay`) — a bounded burst of yields at the
//!   site, widening the race windows the paper's privatization argument has
//!   to survive (e.g. a grace scan descheduled mid-snapshot). Under a seed
//!   with [`SLEEP_DELAYS`] set, commit-epilogue delays sleep instead
//!   (hundreds of µs, what a descheduled thread really loses): the window
//!   between a commit's effect and its return only shows under delays that
//!   long.
//! - **One-shot panics** (`arm_panic` / `check_panic`) — a countdown armed by
//!   a test; the n-th visit to the site panics, driving the unwind through
//!   whatever state the site holds (write-set locks, the epoch slot). These
//!   are never armed by the environment knob: a panic escapes `atomic` by
//!   design, so only a harness that expects the unwind may arm one.
//!
//! Decisions are pure functions of `(seed, site, visit-counter)` via
//! splitmix64, so a given seed always injects the same faults at the same
//! visit numbers; only the thread interleaving (which was never deterministic)
//! decides which transaction draws which visit.
//!
//! **Disabled cost.** Injection is off unless constructed with a seed; every
//! site then costs exactly one relaxed load of the `enabled` flag (the same
//! contract — and the same test technique — as `tm-telemetry`'s disabled
//! path).
//!
//! Enable process-wide via `TM_STM_CHAOS=<seed>` (decimal or `0x`-hex),
//! or per-runtime through `StmConfig` in `tm-stm`.

#![warn(missing_docs)]

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Where a fault may be injected. Each variant is one hazard class from the
/// runtime's hardening argument; together they cover every place the
/// production failure modes (lost races, torn timing, stalled scans) enter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// A commit-time attempt to take a write-set lock (TL2 orec, NOrec
    /// sequence-lock CAS). Forced abort = "somebody else held it".
    LockAcquire = 0,
    /// A read-set validation check (TL2 read/commit validation, NOrec
    /// value-based validation). Forced abort = "a writer got in between".
    Validate = 1,
    /// A global version-clock bump. Only delays and panics here — a clock
    /// bump has no abort path; stretching it widens the window between a
    /// writer's stamp and its write-back.
    ClockBump = 2,
    /// A grace-period scan step in `tm-quiesce`. Only delays and panics — a
    /// descheduled scanner is exactly the stall the detector must notice.
    GraceScan = 3,
    /// A writing commit after its locks are released, before it returns to
    /// the shared handle. Only delays and panics — a commit descheduled
    /// there is already visible to everyone, so the window it stretches is
    /// the one between a commit's effect and its recorded response.
    CommitEpilogue = 4,
}

/// Number of distinct injection sites (array sizing).
pub const NSITES: usize = 5;

impl Site {
    /// All sites, for iteration in tests and reports.
    pub const ALL: [Site; NSITES] = [
        Site::LockAcquire,
        Site::Validate,
        Site::ClockBump,
        Site::GraceScan,
        Site::CommitEpilogue,
    ];

    /// Stable lowercase label (telemetry, logs, reports).
    pub fn label(&self) -> &'static str {
        match self {
            Site::LockAcquire => "lock_acquire",
            Site::Validate => "validate",
            Site::ClockBump => "clock_bump",
            Site::GraceScan => "grace_scan",
            Site::CommitEpilogue => "commit_epilogue",
        }
    }
}

/// splitmix64 — the repo's standard deterministic mixer (same constants as
/// the proptest shim), used here to turn `(seed, site, visit)` into a fault
/// decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Injection odds, in "1 in N visits" terms. Aborts are rarer than delays so
/// a chaos conformance run converges in reasonable wall-clock time even on a
/// retry-happy backend; both are frequent enough that every scenario draws
/// faults at every site.
const ABORT_ONE_IN: u64 = 24;
const DELAY_ONE_IN: u64 = 16;
/// Maximum injected delay, in `yield_now` calls.
const MAX_DELAY_YIELDS: u64 = 3;
/// Seed bit that turns [`Site::CommitEpilogue`] delays into sleeps of
/// 200–1000 µs, drawn one visit in four, instead of yield
/// bursts. Part of the seed, so a plan stays a pure function of it:
/// `TM_STM_CHAOS=0x8000000000000007` is a sleeping plan. Other sites keep
/// their yield bursts — a sleep with locks held would only serialize the
/// run.
pub const SLEEP_DELAYS: u64 = 1 << 63;
/// Commit-epilogue delay odds under a [`SLEEP_DELAYS`] seed: often enough
/// that a short recorded scenario sleeps inside the window.
const SLEEP_ONE_IN: u64 = 4;

/// Per-site state: a visit counter (the deterministic input) and a one-shot
/// panic countdown (0 = disarmed). Padded so two hot sites never share a
/// cache line.
#[derive(Default)]
struct SiteState {
    visits: AtomicU64,
    panic_after: AtomicU64,
    injected_aborts: AtomicU64,
    injected_delays: AtomicU64,
}

/// A fault-injection plan: either inert (no seed — every query is one relaxed
/// load returning "no fault") or armed with a seed that fully determines
/// which visit numbers of each site draw which fault.
pub struct Chaos {
    enabled: AtomicBool,
    seed: u64,
    sites: [CachePadded<SiteState>; NSITES],
}

impl Chaos {
    /// An inert plan: every site query is a single relaxed load.
    pub fn off() -> Arc<Chaos> {
        Arc::new(Chaos {
            enabled: AtomicBool::new(false),
            seed: 0,
            sites: Default::default(),
        })
    }

    /// A plan armed with `seed`. The same seed injects the same faults at
    /// the same visit numbers of each site, process after process.
    pub fn seeded(seed: u64) -> Arc<Chaos> {
        Arc::new(Chaos {
            enabled: AtomicBool::new(true),
            seed,
            sites: Default::default(),
        })
    }

    /// Build from an optional seed (`None` = inert).
    pub fn new(seed: Option<u64>) -> Arc<Chaos> {
        match seed {
            Some(s) => Chaos::seeded(s),
            None => Chaos::off(),
        }
    }

    /// Is injection armed? One relaxed load — the entire disabled-path cost
    /// of every site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The seed this plan was armed with (0 when inert).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Should this visit to `site` behave as if the real conflict happened?
    /// The caller must walk its ordinary abort path (releasing anything it
    /// holds) when this returns `true`. Inert plans always say `false` after
    /// one relaxed load.
    #[inline]
    pub fn should_abort(&self, site: Site) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        self.should_abort_slow(site)
    }

    #[cold]
    fn should_abort_slow(&self, site: Site) -> bool {
        let s = &self.sites[site as usize];
        self.check_panic(site);
        let visit = s.visits.fetch_add(1, Ordering::Relaxed);
        let roll = mix(self.seed ^ (site as u64) << 32 ^ visit);
        if roll.is_multiple_of(ABORT_ONE_IN) {
            s.injected_aborts.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Maybe stall this visit to `site` for a bounded burst of scheduler
    /// yields. Inert plans return immediately after one relaxed load.
    #[inline]
    pub fn maybe_delay(&self, site: Site) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.maybe_delay_slow(site);
    }

    #[cold]
    fn maybe_delay_slow(&self, site: Site) {
        let s = &self.sites[site as usize];
        self.check_panic(site);
        let visit = s.visits.fetch_add(1, Ordering::Relaxed);
        let roll = mix(self.seed ^ 0xDE1A ^ (site as u64) << 32 ^ visit);
        let sleeps = self.seed & SLEEP_DELAYS != 0 && site == Site::CommitEpilogue;
        if roll.is_multiple_of(if sleeps { SLEEP_ONE_IN } else { DELAY_ONE_IN }) {
            s.injected_delays.fetch_add(1, Ordering::Relaxed);
            if sleeps {
                std::thread::sleep(std::time::Duration::from_micros(200 + (roll >> 8) % 801));
                return;
            }
            for _ in 0..=(roll >> 8) % MAX_DELAY_YIELDS {
                std::thread::yield_now();
            }
        }
    }

    /// Arm a one-shot panic: the `after`-th subsequent visit to `site`
    /// (1 = the very next) panics with a recognizable message. Test-only by
    /// design — the environment knob never arms these, because the panic
    /// escapes `atomic` after the runtime's cleanup and only a harness that
    /// expects the unwind may observe it.
    pub fn arm_panic(&self, site: Site, after: u64) {
        assert!(after > 0, "a zero countdown means disarmed");
        self.enabled.store(true, Ordering::Relaxed);
        self.sites[site as usize]
            .panic_after
            .store(after, Ordering::Relaxed);
    }

    /// Tick the one-shot panic countdown for `site`; panics when it hits
    /// zero. Called internally by `should_abort`/`maybe_delay`; sites that
    /// query neither (pure panic points) may call it directly.
    #[inline]
    pub fn check_panic(&self, site: Site) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let armed = &self.sites[site as usize].panic_after;
        let mut cur = armed.load(Ordering::Relaxed);
        while cur > 0 {
            match armed.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(1) => panic!("tm-chaos: injected panic at {}", site.label()),
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// How many forced aborts this plan has injected at `site`.
    pub fn injected_aborts(&self, site: Site) -> u64 {
        self.sites[site as usize]
            .injected_aborts
            .load(Ordering::Relaxed)
    }

    /// How many delays this plan has injected at `site`.
    pub fn injected_delays(&self, site: Site) -> u64 {
        self.sites[site as usize]
            .injected_delays
            .load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites (smoke assertion that a seeded
    /// run actually exercised the harness).
    pub fn injected_total(&self) -> u64 {
        Site::ALL
            .iter()
            .map(|&s| self.injected_aborts(s) + self.injected_delays(s))
            .sum()
    }
}

/// Parse a `TM_STM_CHAOS`-style value: decimal or `0x`-prefixed hex seed.
/// Empty / `off` / `0`-free garbage disables injection (returns `None`) —
/// the knob must never turn a typo into a silent no-op *enable*.
pub fn parse(val: &str) -> Option<u64> {
    let v = val.trim();
    if v.is_empty() || v.eq_ignore_ascii_case("off") {
        return None;
    }
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse::<u64>().ok()
    }
}

/// The process-wide seed from `TM_STM_CHAOS`, read once. `None` when unset
/// or unparsable.
pub fn seed_from_env() -> Option<u64> {
    static SEED: OnceLock<Option<u64>> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("TM_STM_CHAOS")
            .ok()
            .as_deref()
            .and_then(parse)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_injects() {
        let c = Chaos::off();
        assert!(!c.enabled());
        for _ in 0..10_000 {
            assert!(!c.should_abort(Site::LockAcquire));
            c.maybe_delay(Site::GraceScan);
        }
        assert_eq!(c.injected_total(), 0);
    }

    #[test]
    fn seeded_decisions_are_deterministic_and_site_local() {
        let a = Chaos::seeded(42);
        let b = Chaos::seeded(42);
        let da: Vec<bool> = (0..4096).map(|_| a.should_abort(Site::Validate)).collect();
        let db: Vec<bool> = (0..4096).map(|_| b.should_abort(Site::Validate)).collect();
        assert_eq!(da, db, "same seed, same site, same visit => same decision");
        assert!(da.iter().any(|&x| x), "the rate is high enough to fire");
        // A different site draws a different (but equally deterministic)
        // sequence from the same seed.
        let c = Chaos::seeded(42);
        let dc: Vec<bool> = (0..4096)
            .map(|_| c.should_abort(Site::LockAcquire))
            .collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let a = Chaos::seeded(1);
        let b = Chaos::seeded(2);
        let da: Vec<bool> = (0..4096).map(|_| a.should_abort(Site::Validate)).collect();
        let db: Vec<bool> = (0..4096).map(|_| b.should_abort(Site::Validate)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn one_shot_panic_fires_exactly_once_at_the_armed_visit() {
        let c = Chaos::seeded(7);
        c.arm_panic(Site::ClockBump, 3);
        c.check_panic(Site::ClockBump);
        c.check_panic(Site::ClockBump);
        let r = std::panic::catch_unwind(|| c.check_panic(Site::ClockBump));
        assert!(r.is_err(), "third visit panics");
        // Disarmed afterwards.
        c.check_panic(Site::ClockBump);
    }

    #[test]
    fn parse_accepts_decimal_hex_and_rejects_noise() {
        assert_eq!(parse("42"), Some(42));
        assert_eq!(parse("0xC0FFEE"), Some(0xC0FFEE));
        assert_eq!(parse(" 0XFF "), Some(255));
        assert_eq!(parse(""), None);
        assert_eq!(parse("off"), None);
        assert_eq!(parse("not-a-seed"), None);
    }

    #[test]
    fn sleep_seeds_sleep_and_keep_the_plan() {
        let (plain, sleepy) = (Chaos::seeded(99), Chaos::seeded(99 | SLEEP_DELAYS));
        let t0 = std::time::Instant::now();
        for _ in 0..256 {
            plain.maybe_delay(Site::CommitEpilogue);
            sleepy.maybe_delay(Site::CommitEpilogue);
        }
        let n = sleepy.injected_delays(Site::CommitEpilogue);
        assert!(n > plain.injected_delays(Site::CommitEpilogue));
        assert!(t0.elapsed() >= std::time::Duration::from_micros(200 * n));
        // The sleep bit is mixed into the seed: a plan of its own, but one
        // that is just as deterministic.
        let again = Chaos::seeded(99 | SLEEP_DELAYS);
        for _ in 0..256 {
            again.maybe_delay(Site::CommitEpilogue);
        }
        assert_eq!(again.injected_delays(Site::CommitEpilogue), n);
    }

    #[test]
    fn delays_are_counted() {
        let c = Chaos::seeded(99);
        for _ in 0..4096 {
            c.maybe_delay(Site::GraceScan);
        }
        assert!(c.injected_delays(Site::GraceScan) > 0);
    }
}
