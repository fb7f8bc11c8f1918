//! A transactional hash map built on STM registers, with *privatized bulk
//! operations* — the paper's motivating pattern (Sec 1): access the same
//! data transactionally in the common case, and non-transactionally (after
//! privatization + fence) for bulk work like iteration, rehashing or
//! deallocation.
//!
//! Layout in the register file, starting at `base`:
//! `[freeze flag][slot 0 key][slot 0 val][slot 1 key][slot 1 val]…`
//! Open addressing with linear probing; key encodings: `0` = empty,
//! `1` = tombstone, user keys are shifted by [`KEY_BIAS`] — so the largest
//! storable key is [`MAX_KEY`], and larger keys are rejected (checked
//! encoding) rather than wrapped into the reserved values.
//!
//! Every transactional operation first reads the freeze flag, so the flag
//! is in every read set and a concurrent freeze invalidates in-flight
//! transactions; the fence inside [`TxMap::freeze`] then waits them out —
//! precisely the Fig 1(a) discipline. The flag has two frozen values, one
//! per [`FreezeMode`]:
//!
//! * **Read-freeze** (flag 1) is for bulk *readers* (scans, snapshots).
//!   [`TxMap::insert`] and [`TxMap::remove`] abort while it is set;
//!   [`TxMap::get`] proceeds. In the paper's DRF notion (Def 3.2) two
//!   accesses conflict only if one writes, so a transactional read may
//!   overlap the owner's uninstrumented reads; the fence is still needed,
//!   to flush writers that were in flight when the flag was set.
//! * **Write-freeze** (flag 2) is for bulk *writers* ([`TxMap::compact_frozen`],
//!   or anything else that writes uninstrumented): every operation aborts.
//!
//! Bulk readers/writers then use uninstrumented direct access safely.
//! Several maps are privatized together by [`freeze_all`]: one flag
//! transaction for the whole batch and one fence; [`thaw_all`] publishes
//! them back in one transaction.

use crate::api::{Abort, StmHandle, TxScope};
use crate::fence::FenceTicket;

const EMPTY: u64 = 0;
const TOMBSTONE: u64 = 1;
/// Freeze-flag value of a map open to all transactional traffic.
const OPEN: u64 = 0;

/// What a frozen map still lets transactional traffic do (see the module
/// docs). The mode is the non-zero value the freeze flag is set to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreezeMode {
    /// The owner only reads while frozen: `get` proceeds, `insert` and
    /// `remove` abort-and-retry until the thaw.
    Read = 1,
    /// The owner writes while frozen: every operation aborts-and-retries
    /// until the thaw.
    Write = 2,
}
/// User keys are stored as `key + KEY_BIAS` to keep 0/1 reserved.
pub const KEY_BIAS: u64 = 2;
/// Largest storable user key. Keys are stored biased by [`KEY_BIAS`], so
/// the top [`KEY_BIAS`] values of the `u64` space are unrepresentable:
/// `MAX_KEY + 1` would wrap (or panic in debug) to the reserved
/// `TOMBSTONE`, `MAX_KEY + 2` to `EMPTY`, silently corrupting the table.
pub const MAX_KEY: u64 = u64::MAX - KEY_BIAS;

/// Checked key encoding: `None` for keys above [`MAX_KEY`] (debug builds
/// assert first — an out-of-range key is a caller bug, but release builds
/// must reject it instead of colliding with `EMPTY`/`TOMBSTONE`).
#[inline]
fn encode_key(key: u64) -> Option<u64> {
    debug_assert!(key <= MAX_KEY, "TxMap key {key:#x} exceeds MAX_KEY");
    (key <= MAX_KEY).then(|| key + KEY_BIAS)
}

/// Descriptor of a map living in an STM register region.
#[derive(Clone, Copy, Debug)]
pub struct TxMap {
    base: usize,
    cap: usize,
}

impl TxMap {
    /// A map over `2*cap + 1` registers starting at `base`.
    pub fn new(base: usize, cap: usize) -> Self {
        assert!(cap > 0);
        TxMap { base, cap }
    }

    /// Number of registers the map occupies.
    pub const fn regs_needed(cap: usize) -> usize {
        2 * cap + 1
    }

    /// Slot capacity of the map.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The slot `key` hashes to before probing — where a key lands when its
    /// home slot is free. Exposed so tests and litmus scenarios can build
    /// *collision-free* key sets (pairwise-distinct home slots), whose
    /// final layout is deterministic under any insertion order.
    pub fn home_slot(&self, key: u64) -> usize {
        self.hash(key)
    }

    fn flag_reg(&self) -> usize {
        self.base
    }
    fn key_reg(&self, slot: usize) -> usize {
        self.base + 1 + 2 * slot
    }
    fn val_reg(&self, slot: usize) -> usize {
        self.base + 2 + 2 * slot
    }

    fn hash(&self, key: u64) -> usize {
        // splitmix-style mix, reduced to capacity.
        let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) as usize % self.cap
    }

    /// Abort if the map is frozen in any mode (a writer may not run while
    /// the owner reads or writes uninstrumented); puts the flag in the read
    /// set so freezing invalidates us.
    fn check_open(&self, tx: &mut dyn TxScope) -> Result<(), Abort> {
        if tx.read(self.flag_reg())? != OPEN {
            return Err(Abort);
        }
        Ok(())
    }

    /// Abort if the map is write-frozen. A read-frozen map stays readable,
    /// and the flag still enters the read set, so a later write-freeze
    /// invalidates us.
    fn check_readable(&self, tx: &mut dyn TxScope) -> Result<(), Abort> {
        if tx.read(self.flag_reg())? == FreezeMode::Write as u64 {
            return Err(Abort);
        }
        Ok(())
    }

    /// Transactional lookup. Proceeds on an open or read-frozen map and
    /// aborts on a write-frozen one. Keys above [`MAX_KEY`] are never
    /// present: `Ok(None)` (debug builds assert).
    pub fn get(&self, tx: &mut dyn TxScope, key: u64) -> Result<Option<u64>, Abort> {
        // Freeze check first — even an unstorable key must observe the
        // module's frozen-map contract (abort, flag in the read set).
        self.check_readable(tx)?;
        let Some(stored) = encode_key(key) else {
            return Ok(None);
        };
        let mut slot = self.hash(key);
        for _ in 0..self.cap {
            let k = tx.read(self.key_reg(slot))?;
            if k == EMPTY {
                return Ok(None);
            }
            if k == stored {
                return Ok(Some(tx.read(self.val_reg(slot))?));
            }
            slot = (slot + 1) % self.cap;
        }
        Ok(None)
    }

    /// Transactional insert-or-update; aborts while the map is frozen in
    /// either mode. Returns `false` if the map is full
    /// — or if `key` exceeds [`MAX_KEY`] and is therefore unstorable
    /// (debug builds assert).
    pub fn insert(&self, tx: &mut dyn TxScope, key: u64, val: u64) -> Result<bool, Abort> {
        self.check_open(tx)?;
        let Some(stored) = encode_key(key) else {
            return Ok(false);
        };
        let mut slot = self.hash(key);
        let mut free: Option<usize> = None;
        for _ in 0..self.cap {
            let k = tx.read(self.key_reg(slot))?;
            if k == stored {
                tx.write(self.val_reg(slot), val)?;
                return Ok(true);
            }
            if k == TOMBSTONE && free.is_none() {
                free = Some(slot);
            }
            if k == EMPTY {
                let target = free.unwrap_or(slot);
                tx.write(self.key_reg(target), stored)?;
                tx.write(self.val_reg(target), val)?;
                return Ok(true);
            }
            slot = (slot + 1) % self.cap;
        }
        if let Some(target) = free {
            tx.write(self.key_reg(target), stored)?;
            tx.write(self.val_reg(target), val)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Transactional removal; aborts while the map is frozen in either
    /// mode. Returns the removed value. Keys above
    /// [`MAX_KEY`] are never present: `Ok(None)` (debug builds assert).
    pub fn remove(&self, tx: &mut dyn TxScope, key: u64) -> Result<Option<u64>, Abort> {
        self.check_open(tx)?;
        let Some(stored) = encode_key(key) else {
            return Ok(None);
        };
        let mut slot = self.hash(key);
        for _ in 0..self.cap {
            let k = tx.read(self.key_reg(slot))?;
            if k == EMPTY {
                return Ok(None);
            }
            if k == stored {
                let v = tx.read(self.val_reg(slot))?;
                tx.write(self.key_reg(slot), TOMBSTONE)?;
                return Ok(Some(v));
            }
            slot = (slot + 1) % self.cap;
        }
        Ok(None)
    }

    /// Privatize the map for bulk work: set the freeze flag to `mode`
    /// transactionally, then fence. After this returns no transaction that
    /// `mode` excludes is operating on the map, and new ones
    /// abort-and-retry until [`Self::thaw`]. Exactly [`Self::freeze_async`]
    /// followed by [`StmHandle::fence_join`].
    pub fn freeze<H: StmHandle>(&self, h: &mut H, mode: FreezeMode) {
        let ticket = self.freeze_async(h, mode);
        h.fence_join(ticket);
    }

    /// Begin privatizing the map without blocking: set the freeze flag
    /// transactionally and return the fence ticket. Bulk (uninstrumented)
    /// access is only safe after the ticket resolves. Tickets issued by
    /// concurrent threads (one map each) coalesce behind one grace period.
    ///
    /// To batch several maps on *one* handle use [`freeze_all`] instead of
    /// calling this repeatedly: issuing another map's flag transaction
    /// while this ticket is outstanding makes recorded histories
    /// ill-formed (see [`crate::fence`]'s recording rules).
    pub fn freeze_async<H: StmHandle>(&self, h: &mut H, mode: FreezeMode) -> FenceTicket {
        freeze_all_async(std::slice::from_ref(self), h, mode)
    }

    /// Publish the map back for transactional access (no fence needed:
    /// publication is safe by `xpo;txwr`, paper Fig 2).
    pub fn thaw<H: StmHandle>(&self, h: &mut H) {
        thaw_all(std::slice::from_ref(self), h);
    }
}

/// Privatize several maps behind a *single* fence: set every freeze flag
/// to `mode` in one transaction, then wait one grace period out for all of
/// them — N map freezes for one commit and one epoch-table scan. The flag
/// transaction completes before the fence is requested, so recorded
/// histories stay well-formed.
pub fn freeze_all<H: StmHandle>(maps: &[TxMap], h: &mut H, mode: FreezeMode) {
    let ticket = freeze_all_async(maps, h, mode);
    h.fence_join(ticket);
}

/// Non-blocking form of [`freeze_all`]: set every freeze flag in one
/// transaction and return the single fence ticket covering all of them.
/// Bulk (uninstrumented) access to *any* of the maps is only safe after
/// the ticket resolves. This is what a background freeze/snapshot cycle
/// wants — request the grace period, keep serving, and join the ticket
/// when the snapshot pass actually starts.
pub fn freeze_all_async<H: StmHandle>(maps: &[TxMap], h: &mut H, mode: FreezeMode) -> FenceTicket {
    set_flags(maps, h, mode as u64);
    h.fence_async()
}

/// Publish several maps back in one transaction (no fence: publication is
/// safe by `xpo;txwr`, paper Fig 2).
pub fn thaw_all<H: StmHandle>(maps: &[TxMap], h: &mut H) {
    set_flags(maps, h, OPEN);
}

fn set_flags<H: StmHandle>(maps: &[TxMap], h: &mut H, flag: u64) {
    h.atomic(|tx| {
        for m in maps {
            tx.write(m.flag_reg(), flag)?;
        }
        Ok(())
    });
}

impl TxMap {
    /// Bulk snapshot with uninstrumented reads: [`Self::read_frozen_into`]
    /// into a fresh `Vec`. Only safe between [`Self::freeze`] and
    /// [`Self::thaw`] on the same handle.
    pub fn iter_frozen<H: StmHandle>(&self, h: &mut H) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.read_frozen_into(h, &mut out);
        out
    }

    /// One uninstrumented pass over every slot, appending each entry to
    /// `out` in slot order. Only safe while frozen (either mode).
    pub fn read_frozen_into<H: StmHandle>(&self, h: &mut H, out: &mut Vec<(u64, u64)>) {
        // One reader for the pass: a `read_direct` per register would
        // reload the runtime pointer, the recorder and the stats word on
        // every iteration (nothing hoists across a `SeqCst` load).
        let mut rd = h.direct_reader();
        for slot in 0..self.cap {
            let k = rd.read(self.key_reg(slot));
            if k >= KEY_BIAS {
                out.push((k - KEY_BIAS, rd.read(self.val_reg(slot))));
            }
        }
    }

    /// A second uninstrumented pass over every slot, compared in place
    /// against `entries` — what [`Self::read_frozen_into`] appended. True
    /// when the map still holds exactly those entries in that order. The
    /// pass reads the same registers in the same order as the first, and
    /// always runs to the end: a mismatch does not shorten the window the
    /// comparison watches.
    pub fn frozen_matches<H: StmHandle>(&self, h: &mut H, entries: &[(u64, u64)]) -> bool {
        let mut rd = h.direct_reader();
        let mut expect = entries.iter();
        let mut same = true;
        for slot in 0..self.cap {
            let k = rd.read(self.key_reg(slot));
            if k >= KEY_BIAS {
                let v = rd.read(self.val_reg(slot));
                same &= expect.next() == Some(&(k - KEY_BIAS, v));
            }
        }
        same && expect.next().is_none()
    }

    /// Bulk rebuild (compaction: drops tombstones) with uninstrumented
    /// accesses. Only safe while write-frozen ([`FreezeMode::Write`]):
    /// a read-frozen map admits transactional `get`s, which these writes
    /// would race with.
    pub fn compact_frozen<H: StmHandle>(&self, h: &mut H) {
        let entries = self.iter_frozen(h);
        for slot in 0..self.cap {
            h.write_direct(self.key_reg(slot), EMPTY);
        }
        for (k, v) in entries {
            let stored = k + KEY_BIAS;
            let mut slot = self.hash(k);
            loop {
                if h.read_direct(self.key_reg(slot)) == EMPTY {
                    h.write_direct(self.key_reg(slot), stored);
                    h.write_direct(self.val_reg(slot), v);
                    break;
                }
                slot = (slot + 1) % self.cap;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tl2::Tl2Stm;

    fn map_and_stm(cap: usize, threads: usize) -> (TxMap, Tl2Stm) {
        let m = TxMap::new(0, cap);
        (m, Tl2Stm::new(TxMap::regs_needed(cap), threads))
    }

    #[test]
    fn insert_get_remove() {
        let (m, stm) = map_and_stm(8, 1);
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            assert_eq!(m.get(tx, 10)?, None);
            assert!(m.insert(tx, 10, 100)?);
            assert!(m.insert(tx, 20, 200)?);
            assert_eq!(m.get(tx, 10)?, Some(100));
            assert_eq!(m.get(tx, 20)?, Some(200));
            assert_eq!(m.remove(tx, 10)?, Some(100));
            assert_eq!(m.get(tx, 10)?, None);
            Ok(())
        });
    }

    /// Regression for the key-encoding overflow: `key + KEY_BIAS` used to
    /// wrap for keys ≥ `u64::MAX - 1` (panic in debug), silently colliding
    /// with the reserved EMPTY/TOMBSTONE encodings. MAX_KEY itself must
    /// round-trip (its stored form is exactly `u64::MAX`); anything above
    /// is rejected by the checked encoding.
    #[test]
    fn max_key_roundtrips_and_overflowing_keys_are_rejected() {
        assert_eq!(MAX_KEY, u64::MAX - KEY_BIAS);
        let (m, stm) = map_and_stm(8, 1);
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            assert!(m.insert(tx, MAX_KEY, 1)?, "MAX_KEY must be storable");
            assert_eq!(m.get(tx, MAX_KEY)?, Some(1));
            assert_eq!(m.remove(tx, MAX_KEY)?, Some(1));
            assert_eq!(m.get(tx, MAX_KEY)?, None);
            Ok(())
        });
        // Out-of-range keys: rejected in release, debug_assert in debug.
        // Exercise the release path behind catch_unwind so the test is
        // meaningful under both profiles.
        for bad in [MAX_KEY + 1, u64::MAX] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (m, stm) = map_and_stm(8, 1);
                let mut h = stm.handle(0);
                h.atomic(|tx| {
                    assert!(!m.insert(tx, bad, 9)?, "unstorable key accepted");
                    assert_eq!(m.get(tx, bad)?, None);
                    assert_eq!(m.remove(tx, bad)?, None);
                    // The reserved encodings stay untouched: nothing was
                    // written, so every slot still reads EMPTY.
                    for slot in 0..8 {
                        assert_eq!(tx.read(1 + 2 * slot)?, EMPTY);
                    }
                    Ok(())
                });
            }));
            if cfg!(debug_assertions) {
                assert!(r.is_err(), "debug builds must assert on key {bad:#x}");
            } else {
                assert!(r.is_ok(), "release builds must reject key {bad:#x}");
            }
        }
    }

    #[test]
    fn update_in_place() {
        let (m, stm) = map_and_stm(4, 1);
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            m.insert(tx, 5, 1)?;
            m.insert(tx, 5, 2)?;
            assert_eq!(m.get(tx, 5)?, Some(2));
            Ok(())
        });
    }

    #[test]
    fn collisions_and_tombstone_reuse() {
        let (m, stm) = map_and_stm(4, 1);
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            // Fill the map completely — forces probing over collisions.
            for k in 0..4u64 {
                assert!(m.insert(tx, k, k * 10)?);
            }
            assert!(!m.insert(tx, 99, 1)?, "full map rejects");
            // Remove one, insert into the tombstone.
            assert_eq!(m.remove(tx, 2)?, Some(20));
            assert!(m.insert(tx, 99, 990)?);
            assert_eq!(m.get(tx, 99)?, Some(990));
            // Keys behind the tombstone are still reachable.
            for k in [0u64, 1, 3] {
                assert_eq!(m.get(tx, k)?, Some(k * 10));
            }
            Ok(())
        });
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let (m, stm) = map_and_stm(128, 4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(t as usize);
                    for i in 0..16u64 {
                        let key = t * 100 + i;
                        h.atomic(|tx| m.insert(tx, key, key * 2).map(|_| ()));
                    }
                });
            }
        });
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            for t in 0..4u64 {
                for i in 0..16u64 {
                    let key = t * 100 + i;
                    assert_eq!(m.get(tx, key)?, Some(key * 2), "key {key}");
                }
            }
            Ok(())
        });
    }

    /// Freezing several maps batched behind one fence: one flag
    /// transaction sets every flag, then one grace period covers them all;
    /// one more transaction thaws them all.
    #[test]
    fn batched_map_freezes_share_one_scan() {
        let maps: Vec<TxMap> = (0..3)
            .map(|i| TxMap::new(i * TxMap::regs_needed(8), 8))
            .collect();
        // Pinned cooperative: the exact-scan assertion needs no background
        // driver closing the period between the freezes' ticket issues.
        let stm = Tl2Stm::with_config(
            crate::runtime::StmConfig::new(3 * TxMap::regs_needed(8), 1)
                .grace_driver(crate::runtime::DriverMode::Cooperative),
        );
        let mut h = stm.handle(0);
        for (i, m) in maps.iter().enumerate() {
            h.atomic(|tx| m.insert(tx, 1, 10 + i as u64).map(|_| ()));
        }
        let commits = h.stats().commits;
        freeze_all(&maps, &mut h, FreezeMode::Read);
        assert_eq!(
            h.stats().commits - commits,
            1,
            "one flag transaction for 3 maps"
        );
        assert_eq!(
            stm.runtime().grace().scans(),
            1,
            "3 map freezes must share one epoch-table scan"
        );
        assert_eq!(h.stats().fences, 1);
        for (i, m) in maps.iter().enumerate() {
            assert_eq!(m.iter_frozen(&mut h), vec![(1, 10 + i as u64)]);
        }
        let commits = h.stats().commits;
        thaw_all(&maps, &mut h);
        assert_eq!(
            h.stats().commits - commits,
            1,
            "one thaw transaction for 3 maps"
        );
        for (i, m) in maps.iter().enumerate() {
            h.atomic(|tx| m.insert(tx, 2, 20 + i as u64).map(|_| ()));
        }
    }

    /// The non-blocking batched freeze: the ticket is issued after every
    /// flag transaction, the handle keeps working while it is
    /// outstanding, and joining it makes bulk access safe — still one
    /// epoch-table scan for all maps.
    #[test]
    fn freeze_all_async_returns_one_joinable_ticket() {
        let maps: Vec<TxMap> = (0..3)
            .map(|i| TxMap::new(i * TxMap::regs_needed(8), 8))
            .collect();
        let stm = Tl2Stm::with_config(
            crate::runtime::StmConfig::new(3 * TxMap::regs_needed(8), 1)
                .grace_driver(crate::runtime::DriverMode::Cooperative),
        );
        let mut h = stm.handle(0);
        for (i, m) in maps.iter().enumerate() {
            h.atomic(|tx| m.insert(tx, 7, 70 + i as u64).map(|_| ()));
        }
        let commits = h.stats().commits;
        let ticket = freeze_all_async(&maps, &mut h, FreezeMode::Read);
        assert_eq!(
            h.stats().commits - commits,
            1,
            "one flag transaction for 3 maps"
        );
        // The fence is requested but not yet waited on: the handle still
        // serves transactions — here a `get` through the read-freeze.
        assert_eq!(h.atomic(|tx| maps[0].get(tx, 7)), Some(70));
        h.fence_join(ticket);
        assert_eq!(
            stm.runtime().grace().scans(),
            1,
            "3 async map freezes must share one epoch-table scan"
        );
        for (i, m) in maps.iter().enumerate() {
            assert_eq!(m.iter_frozen(&mut h), vec![(7, 70 + i as u64)]);
        }
        let commits = h.stats().commits;
        thaw_all(&maps, &mut h);
        assert_eq!(
            h.stats().commits - commits,
            1,
            "one thaw transaction for 3 maps"
        );
    }

    /// The bulk reader behind `iter_frozen` is `read_direct` with the
    /// bookkeeping lifted out of the loop and nothing else: a recorded pass
    /// is byte-identical to the per-register loop it replaced (same reads
    /// in the same order, one `record_pair` each, value slots of empty
    /// keys skipped), and `direct_reads` ends at the same total.
    #[test]
    fn iter_frozen_records_exactly_what_a_read_direct_loop_records() {
        use crate::record::Recorder;
        use crate::runtime::StmConfig;
        use std::sync::Arc;
        let run = |bulk: bool| {
            let rec = Arc::new(Recorder::new(1));
            let m = TxMap::new(0, 8);
            let stm = Tl2Stm::with_config(
                StmConfig::new(TxMap::regs_needed(8), 1)
                    .recorder(Arc::clone(&rec))
                    .chaos_off(),
            );
            let mut h = stm.handle(0);
            for k in [3u64, 5, 11] {
                h.atomic(|tx| m.insert(tx, k, 100 + k).map(|_| ()));
            }
            m.freeze(&mut h, FreezeMode::Read);
            let out = if bulk {
                m.iter_frozen(&mut h)
            } else {
                let mut out = Vec::new();
                for slot in 0..m.cap {
                    let k = h.read_direct(m.key_reg(slot));
                    if k >= KEY_BIAS {
                        out.push((k - KEY_BIAS, h.read_direct(m.val_reg(slot))));
                    }
                }
                out
            };
            m.thaw(&mut h);
            let text = tm_core::textio::to_text(&rec.snapshot_history());
            (out, text, h.stats().direct_reads)
        };
        let (bulk, manual) = (run(true), run(false));
        assert_eq!(bulk.0.len(), 3);
        assert_eq!(bulk.2, 8 + 3, "8 key slots + 3 occupied value slots");
        assert!(bulk.1.lines().count() > 22, "11 direct reads were recorded");
        assert_eq!(bulk, manual);
    }

    #[test]
    fn freeze_iter_compact_thaw_under_contention() {
        let (m, stm) = map_and_stm(64, 3);
        // Seed.
        {
            let mut h = stm.handle(0);
            for k in 0..10u64 {
                h.atomic(|tx| m.insert(tx, k, k).map(|_| ()));
            }
        }
        std::thread::scope(|s| {
            // Two mutators continuously inserting/removing their own keys.
            for t in 1..3u64 {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(t as usize);
                    for i in 0..300u64 {
                        let key = 1000 * t + (i % 8);
                        h.atomic(|tx| m.insert(tx, key, i).map(|_| ()));
                        if i % 3 == 0 {
                            h.atomic(|tx| m.remove(tx, key).map(|_| ()));
                        }
                    }
                });
            }
            // Owner: periodic freeze → snapshot → compact → thaw.
            let mut h = stm.handle(0);
            for _ in 0..20 {
                m.freeze(&mut h, FreezeMode::Write);
                let snap = m.iter_frozen(&mut h);
                // Seeded keys must always be present in every snapshot.
                for k in 0..10u64 {
                    assert!(
                        snap.iter().any(|&(key, v)| key == k && v == k),
                        "seeded key {k} missing from frozen snapshot"
                    );
                }
                m.compact_frozen(&mut h);
                m.thaw(&mut h);
            }
        });
        // After everything: seeded keys intact.
        let mut h = stm.handle(0);
        h.atomic(|tx| {
            for k in 0..10u64 {
                assert_eq!(m.get(tx, k)?, Some(k));
            }
            Ok(())
        });
    }

    /// A single-attempt probe: did `body` commit on this map state?
    fn commits<H: StmHandle>(
        h: &mut H,
        body: impl FnMut(&mut dyn TxScope) -> Result<(), Abort>,
    ) -> bool {
        h.try_atomic(body).is_ok()
    }

    /// Read-freeze bounces writers and lets readers through; write-freeze
    /// bounces everything; the thaw reopens the map to all three.
    #[test]
    fn read_freeze_admits_get_and_write_freeze_admits_nothing() {
        // Chaos off: a forced abort would read as a bounce.
        let m = TxMap::new(0, 8);
        let stm = Tl2Stm::with_config(
            crate::runtime::StmConfig::new(TxMap::regs_needed(8), 1).chaos_off(),
        );
        let mut h = stm.handle(0);
        h.atomic(|tx| m.insert(tx, 4, 40).map(|_| ()));
        let get = |tx: &mut dyn TxScope| {
            assert_eq!(m.get(tx, 4)?, Some(40));
            Ok(())
        };
        let insert = |tx: &mut dyn TxScope| m.insert(tx, 5, 50).map(|_| ());
        let remove = |tx: &mut dyn TxScope| m.remove(tx, 4).map(|_| ());

        m.freeze(&mut h, FreezeMode::Read);
        assert!(commits(&mut h, get), "get must pass a read-freeze");
        assert!(
            !commits(&mut h, insert),
            "insert must bounce off a read-freeze"
        );
        assert!(
            !commits(&mut h, remove),
            "remove must bounce off a read-freeze"
        );
        m.thaw(&mut h);

        m.freeze(&mut h, FreezeMode::Write);
        assert!(!commits(&mut h, get), "get must bounce off a write-freeze");
        assert!(
            !commits(&mut h, insert),
            "insert must bounce off a write-freeze"
        );
        assert!(
            !commits(&mut h, remove),
            "remove must bounce off a write-freeze"
        );
        m.thaw(&mut h);

        assert!(commits(&mut h, get));
        assert!(commits(&mut h, insert));
        assert!(commits(&mut h, remove));
        assert_eq!(h.stats().aborts_user, 5, "{:?}", h.stats());
    }

    /// The verify pass bites: a value slot or a key slot changed between
    /// the two passes is a mismatch; an unchanged map matches.
    #[test]
    fn frozen_matches_reports_a_changed_value_or_key_slot() {
        let (m, stm) = map_and_stm(8, 1);
        let mut h = stm.handle(0);
        for k in [3u64, 5, 11] {
            h.atomic(|tx| m.insert(tx, k, 100 + k).map(|_| ()));
        }
        m.freeze(&mut h, FreezeMode::Read);
        let mut first = vec![(99, 99)]; // appends after what is there
        m.read_frozen_into(&mut h, &mut first);
        assert_eq!(first.len(), 4);
        assert!(m.frozen_matches(&mut h, &first[1..]));
        assert!(!m.frozen_matches(&mut h, &first[2..]), "one entry short");
        assert!(!m.frozen_matches(&mut h, &first), "one entry too many");

        let slot = (0..8)
            .find(|&s| h.read_direct(m.key_reg(s)) == 5 + KEY_BIAS)
            .unwrap();
        h.write_direct(m.val_reg(slot), 7);
        assert!(!m.frozen_matches(&mut h, &first[1..]), "changed value slot");
        h.write_direct(m.val_reg(slot), 105);
        assert!(m.frozen_matches(&mut h, &first[1..]), "restored");
        h.write_direct(m.key_reg(slot), 6 + KEY_BIAS);
        assert!(!m.frozen_matches(&mut h, &first[1..]), "changed key slot");
        h.write_direct(m.key_reg(slot), TOMBSTONE);
        assert!(!m.frozen_matches(&mut h, &first[1..]), "emptied key slot");
        m.thaw(&mut h);
    }
}
