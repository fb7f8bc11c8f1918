//! The sharded session/KV store: N [`TxMap`] shards, each owning a
//! contiguous key range, plus the privatize-and-scan surface the paper's
//! discipline is about. Bulk ops privatize first: freeze-flag
//! transaction, one grace-period fence, then uninstrumented reads — the
//! exact `xpo;txpriv` pattern of the paper, at service scale.
//!
//! Every bulk op here only reads, so it takes a *read*-freeze
//! ([`FreezeMode::Read`]): while a shard is frozen, `get` proceeds and
//! `put`/`rmw`/`remove` abort-and-retry until the publish-back (the freeze
//! flag sits in every transaction's read set). A transactional read may
//! overlap the owner's uninstrumented reads — two reads never conflict
//! (Def 3.2) — and the fence still flushes the writers that were in flight
//! when the flag was set.
//!
//! The uninstrumented read is verified: a first pass appends every entry
//! to the caller's output, and a second full pass, started after the first
//! ends, compares every slot against what the first appended
//! ([`TxMap::frozen_matches`]). A disagreement is a privatization-safety
//! violation and is counted as an anomaly. Neither pass allocates: the
//! output is reserved once per scan or snapshot.
//!
//! A host-side `Mutex` per shard serializes *privatizers* (a client's
//! scan vs the background snapshot cycle); it is never held across point
//! ops, so transactional traffic keeps flowing and only competing bulk
//! owners queue.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use tm_stm::prelude::*;

/// The sharded KV store over one STM register region: shard `s` owns
/// global keys `[s*keys_per_shard, (s+1)*keys_per_shard)` and lives in
/// its own [`TxMap`] (capacity = its key range, so probe loops stay
/// bounded and inserts of in-range keys cannot fail).
pub struct ShardedKv {
    shards: Vec<TxMap>,
    guards: Vec<Mutex<()>>,
    keys_per_shard: u64,
}

/// A privatized shard: proof that the freeze fence resolved and that the
/// caller holds the shard's bulk-owner guard. Bulk reads happened at
/// construction ([`ShardedKv::privatize_and_scan`]); the shard returns to
/// transactional traffic on [`FrozenShard::publish_back`].
pub struct FrozenShard<'a> {
    kv: &'a ShardedKv,
    shard: usize,
    _guard: MutexGuard<'a, ()>,
}

impl FrozenShard<'_> {
    /// Which shard is privatized.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Thaw the shard — one flag transaction, no fence needed
    /// (publication is safe by `xpo;txwr`, paper Fig 2) — and release the
    /// bulk-owner guard.
    pub fn publish_back<H: StmHandle>(self, h: &mut H) {
        self.kv.shards[self.shard].thaw(h);
    }
}

impl ShardedKv {
    /// A store of `nshards` shards of `keys_per_shard` keys each, laid
    /// out from register `base` upward.
    pub fn new(base: usize, nshards: usize, keys_per_shard: u64) -> Self {
        assert!(nshards > 0 && keys_per_shard > 0);
        let per_shard = TxMap::regs_needed(keys_per_shard as usize);
        let shards = (0..nshards)
            .map(|s| TxMap::new(base + s * per_shard, keys_per_shard as usize))
            .collect();
        let guards = (0..nshards).map(|_| Mutex::new(())).collect();
        ShardedKv {
            shards,
            guards,
            keys_per_shard,
        }
    }

    /// Registers a store of this shape occupies.
    pub fn regs_needed(nshards: usize, keys_per_shard: u64) -> usize {
        nshards * TxMap::regs_needed(keys_per_shard as usize)
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Size of the global key space (`nshards * keys_per_shard`).
    pub fn key_space(&self) -> u64 {
        self.shards.len() as u64 * self.keys_per_shard
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        assert!(key < self.key_space(), "key {key} outside the store");
        (key / self.keys_per_shard) as usize
    }

    /// Transactional point lookup.
    pub fn get<H: StmHandle>(&self, h: &mut H, key: u64) -> Option<u64> {
        let m = &self.shards[self.shard_of(key)];
        h.atomic(|tx| m.get(tx, key))
    }

    /// Transactional insert-or-update.
    pub fn put<H: StmHandle>(&self, h: &mut H, key: u64, val: u64) {
        let m = &self.shards[self.shard_of(key)];
        h.atomic(|tx| {
            let stored = m.insert(tx, key, val)?;
            debug_assert!(stored, "in-range key must always store");
            Ok(())
        })
    }

    /// Transactional read-modify-write: one transaction reads the current
    /// value (0 when absent), adds `delta` (wrapping), stores the result,
    /// and returns it.
    pub fn rmw<H: StmHandle>(&self, h: &mut H, key: u64, delta: u64) -> u64 {
        let m = &self.shards[self.shard_of(key)];
        h.atomic(|tx| {
            let new = m.get(tx, key)?.unwrap_or(0).wrapping_add(delta);
            m.insert(tx, key, new)?;
            Ok(new)
        })
    }

    /// Transactional removal; returns the removed value.
    pub fn remove<H: StmHandle>(&self, h: &mut H, key: u64) -> Option<u64> {
        let m = &self.shards[self.shard_of(key)];
        h.atomic(|tx| m.remove(tx, key))
    }

    /// Privatize shard `s` and scan it: take the bulk-owner guard,
    /// read-freeze (flag transaction + one grace-period fence), then read
    /// every slot uninstrumented — **twice**, because under the paper's
    /// discipline the privatized snapshot must be stable; any slot that
    /// changes between the two passes is a privatization-safety violation
    /// and is counted as an anomaly. Returns the frozen shard (still
    /// privatized — caller publishes back), the entries, and the anomaly
    /// count.
    pub fn privatize_and_scan<'a, H: StmHandle>(
        &'a self,
        h: &mut H,
        s: usize,
    ) -> (FrozenShard<'a>, Vec<(u64, u64)>, u64) {
        let guard = self.guards[s].lock().expect("shard guard poisoned");
        self.shards[s].freeze(h, FreezeMode::Read);
        let mut entries = Vec::with_capacity(self.keys_per_shard as usize);
        let anomalies = self.stable_read(h, s, &mut entries);
        (
            FrozenShard {
                kv: self,
                shard: s,
                _guard: guard,
            },
            entries,
            anomalies,
        )
    }

    /// One consistent snapshot of the whole store behind a single grace
    /// period: take every bulk-owner guard (in shard order — the one
    /// lock-ordering rule), read-freeze all shards in one transaction
    /// ([`freeze_all_async`] → one epoch-table scan), double-read each,
    /// thaw all shards in one transaction ([`thaw_all`]). Returns all
    /// entries plus the anomaly count.
    pub fn snapshot_all<H: StmHandle>(&self, h: &mut H) -> (Vec<(u64, u64)>, u64) {
        let guards: Vec<_> = self
            .guards
            .iter()
            .map(|g| g.lock().expect("shard guard poisoned"))
            .collect();
        let ticket = freeze_all_async(&self.shards, h, FreezeMode::Read);
        h.fence_join(ticket);
        let mut entries = Vec::with_capacity(self.key_space() as usize);
        let mut anomalies = 0;
        for s in 0..self.shards.len() {
            anomalies += self.stable_read(h, s, &mut entries);
        }
        thaw_all(&self.shards, h);
        drop(guards);
        (entries, anomalies)
    }

    /// Full contents sorted by key — the differential test's observation
    /// of final state (one [`Self::snapshot_all`], anomalies must be 0
    /// for the caller to trust it; they are returned alongside).
    pub fn dump_all<H: StmHandle>(&self, h: &mut H) -> (Vec<(u64, u64)>, u64) {
        let (mut entries, anomalies) = self.snapshot_all(h);
        entries.sort_unstable();
        (entries, anomalies)
    }

    /// Double uninstrumented read of a frozen shard, appending its
    /// entries to `out`; returns the anomaly count. The second pass must
    /// agree entry-for-entry with what the first appended, or it counts one
    /// anomaly. Entries outside the shard's key range also count — a shard
    /// can only ever hold its own keys.
    fn stable_read<H: StmHandle>(&self, h: &mut H, s: usize, out: &mut Vec<(u64, u64)>) -> u64 {
        let start = out.len();
        self.shards[s].read_frozen_into(h, out);
        self.verify(h, s, &out[start..])
    }

    /// The second half of [`Self::stable_read`]: re-read shard `s` and
    /// count the anomalies in `first`, what the first pass appended.
    fn verify<H: StmHandle>(&self, h: &mut H, s: usize, first: &[(u64, u64)]) -> u64 {
        let mut anomalies = u64::from(!self.shards[s].frozen_matches(h, first));
        let lo = s as u64 * self.keys_per_shard;
        let hi = lo + self.keys_per_shard;
        for &(k, _) in first {
            if k < lo || k >= hi {
                anomalies += 1;
            }
        }
        anomalies
    }
}

/// One request of the service's op taxonomy, as data — the unit the
/// property-based differential test generates and replays against both
/// the real store and the sequential model.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Point lookup of `key`.
    Get {
        /// Global key.
        key: u64,
    },
    /// Insert-or-update `key` to `val`.
    Put {
        /// Global key.
        key: u64,
        /// New value.
        val: u64,
    },
    /// Read-modify-write: add `delta` (wrapping) to `key`'s value
    /// (0 when absent).
    Rmw {
        /// Global key.
        key: u64,
        /// Wrapping-add delta.
        delta: u64,
    },
    /// Remove `key`.
    Remove {
        /// Global key.
        key: u64,
    },
    /// Privatize-and-scan shard `shard`, then publish it back.
    Scan {
        /// Shard index.
        shard: usize,
    },
}

impl Op {
    /// Apply to the real store through `h`.
    pub fn apply<H: StmHandle>(&self, kv: &ShardedKv, h: &mut H) {
        match *self {
            Op::Get { key } => {
                kv.get(h, key);
            }
            Op::Put { key, val } => kv.put(h, key, val),
            Op::Rmw { key, delta } => {
                kv.rmw(h, key, delta);
            }
            Op::Remove { key } => {
                kv.remove(h, key);
            }
            Op::Scan { shard } => {
                let (frozen, _entries, _anomalies) = kv.privatize_and_scan(h, shard);
                frozen.publish_back(h);
            }
        }
    }

    /// Apply to the sequential reference model.
    pub fn apply_model(&self, model: &mut HashMap<u64, u64>) {
        match *self {
            Op::Get { .. } | Op::Scan { .. } => {}
            Op::Put { key, val } => {
                model.insert(key, val);
            }
            Op::Rmw { key, delta } => {
                let new = model.get(&key).copied().unwrap_or(0).wrapping_add(delta);
                model.insert(key, new);
            }
            Op::Remove { key } => {
                model.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::tl2::Tl2Stm;

    fn store_and_stm(nshards: usize, kps: u64) -> (ShardedKv, Tl2Stm) {
        let kv = ShardedKv::new(0, nshards, kps);
        let stm = Tl2Stm::with_config(
            StmConfig::new(ShardedKv::regs_needed(nshards, kps), 2)
                .grace_driver(DriverMode::Cooperative),
        );
        (kv, stm)
    }

    #[test]
    fn point_ops_round_trip_across_shards() {
        let (kv, stm) = store_and_stm(4, 8);
        let mut h = stm.handle(0);
        for key in [0u64, 7, 8, 15, 24, 31] {
            assert_eq!(kv.get(&mut h, key), None);
            kv.put(&mut h, key, key * 3);
            assert_eq!(kv.get(&mut h, key), Some(key * 3));
            assert_eq!(kv.rmw(&mut h, key, 10), key * 3 + 10);
            assert_eq!(kv.remove(&mut h, key), Some(key * 3 + 10));
            assert_eq!(kv.get(&mut h, key), None);
        }
        assert_eq!(kv.shard_of(0), 0);
        assert_eq!(kv.shard_of(31), 3);
    }

    /// The read-freeze a scan holds lets `get` through and bounces every
    /// writer until the publish-back.
    #[test]
    fn a_scanned_shard_serves_gets_and_bounces_writes() {
        // Chaos off: a forced abort would read as a bounce.
        let kv = ShardedKv::new(0, 2, 8);
        let stm = Tl2Stm::with_config(StmConfig::new(ShardedKv::regs_needed(2, 8), 1).chaos_off());
        let mut h = stm.handle(0);
        kv.put(&mut h, 9, 90);
        let (frozen, _, _) = kv.privatize_and_scan(&mut h, 1);
        let m = kv.shards[1];
        let before = h.stats().aborts_user;
        assert_eq!(h.try_atomic(|tx| m.get(tx, 9)), Ok(Some(90)));
        assert_eq!(h.try_atomic(|tx| m.insert(tx, 9, 91)), Err(Abort));
        assert_eq!(h.try_atomic(|tx| m.remove(tx, 9)), Err(Abort));
        assert_eq!(h.stats().aborts_user - before, 2);
        // The other shard is not frozen at all.
        kv.put(&mut h, 1, 10);
        frozen.publish_back(&mut h);
        assert_eq!(kv.rmw(&mut h, 9, 1), 91);
    }

    #[test]
    fn privatize_scan_publish_cycle_sees_exact_contents() {
        let (kv, stm) = store_and_stm(2, 8);
        let mut h = stm.handle(0);
        for key in 0..6u64 {
            kv.put(&mut h, key, 100 + key);
        }
        let (frozen, entries, anomalies) = kv.privatize_and_scan(&mut h, 0);
        assert_eq!(anomalies, 0);
        let mut sorted = entries;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).map(|k| (k, 100 + k)).collect::<Vec<_>>());
        frozen.publish_back(&mut h);
        // Transactional traffic resumes after publish-back.
        kv.put(&mut h, 3, 999);
        assert_eq!(kv.get(&mut h, 3), Some(999));
    }

    #[test]
    fn snapshot_all_batches_one_grace_scan() {
        for nshards in [1usize, 3, 16] {
            let (kv, stm) = store_and_stm(nshards, 4);
            let mut h = stm.handle(0);
            for key in [0u64, 2, 3].into_iter().filter(|&k| k < kv.key_space()) {
                kv.put(&mut h, key, key + 1);
            }
            let scans_before = stm.runtime().grace().scans();
            let commits_before = h.stats().commits;
            let (mut entries, anomalies) = kv.snapshot_all(&mut h);
            assert_eq!(anomalies, 0);
            entries.sort_unstable();
            assert_eq!(entries, vec![(0, 1), (2, 3), (3, 4)]);
            assert_eq!(
                stm.runtime().grace().scans() - scans_before,
                1,
                "{nshards} shard freezes must share one epoch-table scan"
            );
            assert_eq!(
                h.stats().commits - commits_before,
                2,
                "{nshards} shards: one freeze and one thaw transaction"
            );
        }
    }

    /// The verify pass bites: one write between the two passes of
    /// `stable_read` is exactly one anomaly, and a clean re-read is none.
    #[test]
    fn one_write_between_the_passes_is_one_anomaly() {
        let (kv, stm) = store_and_stm(2, 8);
        let mut h = stm.handle(0);
        for key in [1u64, 3, 9, 12] {
            kv.put(&mut h, key, 100 + key);
        }
        let (frozen, entries, anomalies) = kv.privatize_and_scan(&mut h, 1);
        assert_eq!((entries.len(), anomalies), (2, 0));
        let mut out = Vec::new();
        assert_eq!(kv.stable_read(&mut h, 1, &mut out), 0);
        assert_eq!(kv.verify(&mut h, 1, &out), 0);
        // The first value register of shard 1 holding an entry: shard 1's
        // map starts after shard 0's 2 * 8 + 1 registers.
        let base = TxMap::regs_needed(8);
        let val_reg = (0..8)
            .map(|slot| base + 2 + 2 * slot)
            .find(|&r| h.read_direct(r - 1) >= tm_stm::map::KEY_BIAS)
            .unwrap();
        let old = h.read_direct(val_reg);
        h.write_direct(val_reg, old + 1);
        assert_eq!(
            kv.verify(&mut h, 1, &out),
            1,
            "one changed slot, one anomaly"
        );
        h.write_direct(val_reg, old);
        frozen.publish_back(&mut h);
    }

    #[test]
    fn ops_replay_identically_on_store_and_model() {
        let (kv, stm) = store_and_stm(2, 8);
        let mut h = stm.handle(0);
        let mut model = HashMap::new();
        let ops = [
            Op::Put { key: 1, val: 10 },
            Op::Rmw { key: 1, delta: 5 },
            Op::Rmw { key: 9, delta: 7 },
            Op::Scan { shard: 1 },
            Op::Remove { key: 1 },
            Op::Put { key: 14, val: 3 },
            Op::Get { key: 9 },
        ];
        for op in ops {
            op.apply(&kv, &mut h);
            op.apply_model(&mut model);
        }
        let (dump, anomalies) = kv.dump_all(&mut h);
        assert_eq!(anomalies, 0);
        let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(dump, expect);
    }
}
