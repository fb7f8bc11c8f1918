//! The correctness gate. A run whose outputs are wrong fails the command;
//! it does not merely report.

use std::time::Instant;

use tm_litmus::concrete::{check, expected_finals, run_scenario, Backend, Scenario};

use crate::json::Json;
use crate::obj;
use crate::workload::{Class, Instance};

/// What the final state of one workload's store says about the ops that
/// ran against it.
pub struct StoreGate {
    /// Ops completed in every phase since set-up.
    pub attempted: u64,
    /// Double-read mismatches and out-of-range keys seen by any scan,
    /// snapshot or dump.
    pub anomalies: u64,
    /// |Σ counter keys − (prefill Σ + rmws completed)|: an exact
    /// lost-update detector, because counters only ever take `rmw` +1.
    pub lost_updates: u64,
    /// Keys present that were not prefilled, plus prefilled keys missing.
    pub key_mismatches: u64,
    /// Σ per class of |typed session total − ops issued|, where the
    /// request stream maintains sessions.
    pub session_mismatches: u64,
    /// Panics the runtime unwound out of a transaction.
    pub panics: u64,
    /// Live keys per shard before and after the latest instance's window.
    pub occupancy_before: Vec<u64>,
    pub occupancy_after: Vec<u64>,
    /// Was occupancy the same before and after on every instance?
    pub stationary: bool,
}

impl StoreGate {
    /// This gate over earlier instances of the workload, then `next`'s.
    pub fn then(self, next: StoreGate) -> StoreGate {
        StoreGate {
            attempted: self.attempted + next.attempted,
            anomalies: self.anomalies + next.anomalies,
            lost_updates: self.lost_updates + next.lost_updates,
            key_mismatches: self.key_mismatches + next.key_mismatches,
            session_mismatches: self.session_mismatches + next.session_mismatches,
            panics: self.panics + next.panics,
            stationary: self.stationary && next.stationary,
            ..next
        }
    }

    pub fn failed(&self) -> u64 {
        self.anomalies
            + self.lost_updates
            + self.key_mismatches
            + self.session_mismatches
            + self.panics
    }

    pub fn pass(&self) -> bool {
        self.failed() == 0 && self.stationary
    }

    pub fn json(&self) -> Json {
        obj! {
            "pass" => self.pass(),
            "attempted" => self.attempted,
            "failed_op_share" => self.failed() as f64 / self.attempted.max(1) as f64,
            "anomalies" => self.anomalies,
            "lost_updates" => self.lost_updates,
            "key_mismatches" => self.key_mismatches,
            "session_mismatches" => self.session_mismatches,
            "panics" => self.panics,
            "occupancy_before" => self.occupancy_before.clone(),
            "occupancy_after" => self.occupancy_after.clone(),
            "stationary" => self.stationary,
        }
    }
}

/// Judge an instance's store after its last window. `panics` is the sum of
/// `Stats::panics_unwound` over its windows.
pub fn check_store(inst: &Instance, occupancy_before: Vec<u64>, panics: u64) -> StoreGate {
    let dump = inst.dump();
    let key_space = inst.kv.key_space();
    let mut occupancy_after = vec![0; inst.spec.shards];
    let mut counters = 0u64;
    let mut unexpected = 0;
    for &(key, val) in &dump {
        occupancy_after[inst.kv.shard_of(key)] += 1;
        unexpected += key % 2;
        if key % 4 == 0 {
            counters = counters.wrapping_add(val);
        }
    }
    let present_even = dump.len() as u64 - unexpected;
    let (issued, anomalies) = inst.tallies();
    let session_mismatches = if inst.spec.session {
        let totals = inst.session_totals();
        totals.iter().zip(issued).map(|(t, i)| t.abs_diff(i)).sum()
    } else {
        0
    };
    StoreGate {
        attempted: issued.iter().sum(),
        anomalies,
        lost_updates: counters.abs_diff(inst.counter_prefill + issued[Class::Rmw as usize]),
        key_mismatches: unexpected + (key_space / 2 - present_even),
        session_mismatches,
        panics,
        stationary: occupancy_before == occupancy_after,
        occupancy_before,
        occupancy_after,
    }
}

/// The recorded conformance-scale service, judged by the formal checker.
pub struct LitmusGate {
    pub well_formed: bool,
    pub drf: bool,
    pub opaque: Option<bool>,
    pub finals_ok: bool,
    pub lost_updates: u64,
    pub history_actions: u64,
    pub check_ms: f64,
}

impl LitmusGate {
    pub fn pass(&self) -> bool {
        self.well_formed
            && self.drf
            && self.opaque == Some(true)
            && self.finals_ok
            && self.lost_updates == 0
    }

    pub fn json(&self) -> Json {
        obj! {
            "pass" => self.pass(),
            "scenario" => "service",
            "backend" => Backend::Tl2PerRegister.label(),
            "well_formed" => self.well_formed,
            "drf" => self.drf,
            "strongly_opaque" => self.opaque,
            "finals_ok" => self.finals_ok,
            "lost_updates" => self.lost_updates,
            "history_actions" => self.history_actions,
            "check_ms" => self.check_ms,
        }
    }
}

pub fn check_litmus() -> LitmusGate {
    let run = run_scenario(Scenario::Service, Backend::Tl2PerRegister, true);
    let history = run.history.expect("the service scenario records");
    let start = Instant::now();
    let verdict = check(&history);
    LitmusGate {
        well_formed: verdict.well_formed,
        drf: verdict.drf,
        opaque: verdict.opaque,
        finals_ok: run.final_regs == expected_finals(Scenario::Service),
        lost_updates: run.lost_updates,
        history_actions: history.actions().len() as u64,
        check_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}
