//! Versioned write-locks (TL2's `ver[x]` + `lock[x]`, packed into one
//! atomic word so version and lock state are read consistently). The
//! building block of every [`crate::storage`] backend: the per-register
//! layout keeps one word beside each value in a [`RegCell`], striped orec
//! tables map many registers onto a few padded words.
//!
//! Layout: bits 16..64 hold the version, bits 0..16 hold the owner slot + 1
//! (0 = unlocked). 48 version bits outlast any realistic run; 16 owner bits
//! support 65534 threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const OWNER_MASK: u64 = 0xFFFF;
const VERSION_SHIFT: u32 = 16;

/// A snapshot of a versioned lock word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VLockState {
    /// The stripe's version at the sample.
    pub version: u64,
    /// Owner slot if locked.
    pub owner: Option<u16>,
}

impl VLockState {
    #[inline]
    fn decode(word: u64) -> Self {
        let owner = (word & OWNER_MASK) as u16;
        VLockState {
            version: word >> VERSION_SHIFT,
            owner: owner.checked_sub(1),
        }
    }

    /// Was the word locked (by anyone) at the sample?
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.owner.is_some()
    }

    /// Was the word locked by a thread other than `me` at the sample?
    #[inline]
    pub fn is_locked_by_other(&self, me: u16) -> bool {
        self.owner.is_some_and(|o| o != me)
    }
}

/// The versioned lock word.
#[derive(Debug, Default)]
pub struct VLock {
    word: AtomicU64,
}

impl VLock {
    /// An unlocked word at version 0.
    pub fn new() -> Self {
        VLock {
            word: AtomicU64::new(0),
        }
    }

    /// Read the current (version, owner) pair.
    #[inline]
    pub fn sample(&self) -> VLockState {
        VLockState::decode(self.word.load(Ordering::SeqCst))
    }

    /// Try to acquire the lock for `owner`, keeping the version. Fails if
    /// locked (by anyone). Returns the version on success.
    #[inline]
    pub fn try_lock(&self, owner: u16) -> Result<u64, VLockState> {
        let cur = self.word.load(Ordering::SeqCst);
        if cur & OWNER_MASK != 0 {
            return Err(VLockState::decode(cur));
        }
        let locked = cur | (u64::from(owner) + 1);
        match self
            .word
            .compare_exchange(cur, locked, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => Ok(cur >> VERSION_SHIFT),
            Err(now) => Err(VLockState::decode(now)),
        }
    }

    /// Release the lock, installing a new version (TL2 write-back: the store
    /// of `ver[x] := wver` and `lock[x].unlock()` as one atomic step).
    #[inline]
    pub fn unlock_set_version(&self, version: u64) {
        self.word.store(version << VERSION_SHIFT, Ordering::SeqCst);
    }

    /// Release the lock, keeping the version (abort path).
    #[inline]
    pub fn unlock(&self) {
        let cur = self.word.load(Ordering::SeqCst);
        debug_assert_ne!(cur & OWNER_MASK, 0, "unlock of unlocked vlock");
        self.word.store(cur & !OWNER_MASK, Ordering::SeqCst);
    }
}

/// One register of the file: the paper's `reg[x]` with its `ver[x]` and
/// `lock[x]` (Fig 7/9) on the same 16 bytes, four registers to a cache
/// line. A cold transactional read therefore misses once — version and
/// datum arrive together — and a commit's lock, write-back and unlock all
/// hit the line the value store dirties anyway. NOrec and the global lock
/// never look at `orec`; they pay its 8 bytes rather than the runtime
/// carrying a second file type.
#[repr(C, align(16))]
#[derive(Debug, Default)]
pub struct RegCell {
    pub(crate) value: AtomicU64,
    pub(crate) orec: VLock,
}

const _: () = assert!(size_of::<RegCell>() == 16 && align_of::<RegCell>() == 16);

impl RegCell {
    /// Load the value word (all data accesses are `SeqCst`; see the module
    /// docs of [`crate::tl2`] for why).
    #[inline]
    pub(crate) fn load(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// A register file of `nregs` zeroed cells, built in one pass and shared
/// between the [`crate::runtime::Runtime`] (values) and TL2's per-register
/// lock table (orecs).
pub fn reg_file(nregs: usize) -> Arc<[RegCell]> {
    (0..nregs).map(|_| RegCell::default()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the cell: a million registers cost 16 MiB, value
    /// and orec included (the padded table this replaced cost 136 MB).
    #[test]
    fn million_register_file_is_16_mib() {
        let file = reg_file(1 << 20);
        assert_eq!(std::mem::size_of_val(&*file), 16 << 20);
        assert!(file.iter().all(|c| !c.orec.sample().is_locked()));
    }

    #[test]
    fn lock_cycle() {
        let l = VLock::new();
        assert_eq!(
            l.sample(),
            VLockState {
                version: 0,
                owner: None
            }
        );
        assert_eq!(l.try_lock(3), Ok(0));
        let s = l.sample();
        assert_eq!(s.owner, Some(3));
        assert!(s.is_locked());
        assert!(s.is_locked_by_other(2));
        assert!(!s.is_locked_by_other(3));
        assert!(l.try_lock(4).is_err());
        l.unlock_set_version(9);
        let s = l.sample();
        assert_eq!(
            s,
            VLockState {
                version: 9,
                owner: None
            }
        );
    }

    #[test]
    fn abort_unlock_keeps_version() {
        let l = VLock::new();
        l.unlock_set_version(5);
        l.try_lock(0).unwrap();
        l.unlock();
        assert_eq!(
            l.sample(),
            VLockState {
                version: 5,
                owner: None
            }
        );
    }

    #[test]
    fn owner_zero_distinct_from_unlocked() {
        let l = VLock::new();
        l.try_lock(0).unwrap();
        assert_eq!(l.sample().owner, Some(0));
    }

    #[test]
    fn concurrent_trylock_single_winner() {
        use std::sync::Arc;
        let l = Arc::new(VLock::new());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for t in 0..8u16 {
            let l = Arc::clone(&l);
            let b = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                b.wait();
                l.try_lock(t).is_ok()
            }));
        }
        let wins = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(wins, 1, "exactly one thread may win the trylock race");
    }
}
