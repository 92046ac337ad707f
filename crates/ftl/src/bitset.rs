//! A vendored fixed-size bitset.
//!
//! The FTL tracks which physical pages the *host* freed (informed
//! cleaning's bookkeeping, §3.5) keyed by physical page number.  A
//! `HashSet<u64>` put a SipHash computation and a possible rehash on the
//! free-hint path of every write; physical page numbers are dense and
//! bounded by the geometry, so a flat bitset — one `u64` word per 64 pages,
//! sized once at construction — does the same job with two shifts and a
//! mask.  The workspace builds hermetically with no external crates, so
//! this is hand-rolled rather than pulled from `fixedbitset`.

use ossd_flash::bitmap;

/// A fixed-capacity set of `u64` keys in `[0, capacity)`, one bit each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixedBitset {
    words: Vec<u64>,
    /// Number of set bits (kept so emptiness/cardinality are O(1)).
    len: u64,
}

impl FixedBitset {
    /// An empty set over keys `0..capacity`.
    pub fn with_capacity(capacity: u64) -> Self {
        FixedBitset {
            words: vec![0; capacity.div_ceil(64) as usize],
            len: 0,
        }
    }

    /// Number of keys the set can hold.
    pub fn capacity(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Number of keys currently in the set.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn split(key: u64) -> (usize, u64) {
        ((key >> 6) as usize, 1u64 << (key & 63))
    }

    /// Inserts `key`; returns `true` when it was not already present.
    ///
    /// # Panics
    /// Panics when `key` is outside the capacity fixed at construction.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        let (word, mask) = Self::split(key);
        let w = &mut self.words[word];
        let newly = *w & mask == 0;
        *w |= mask;
        // Branch rather than `self.len += newly as u64`: rustc 1.95 at
        // opt-level 3 drops that add when the inlined call sits in an
        // `assert!`, and `len()` then reads 0 (same for `remove`).
        if newly {
            self.len += 1;
        }
        newly
    }

    /// Removes `key`; returns `true` when it was present.
    ///
    /// # Panics
    /// Panics when `key` is outside the capacity fixed at construction.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        let (word, mask) = Self::split(key);
        let w = &mut self.words[word];
        let present = *w & mask != 0;
        *w &= !mask;
        if present {
            self.len -= 1;
        }
        present
    }

    /// Removes every key of `keys`; returns how many were present — what
    /// calling [`FixedBitset::remove`] on each in turn does and counts, a
    /// word at a time.  An empty set touches no word.
    ///
    /// # Panics
    /// Panics when `keys` reaches outside the capacity fixed at construction.
    pub fn take_range(&mut self, keys: std::ops::Range<u64>) -> u32 {
        if self.len == 0 {
            assert!(
                keys.is_empty() || keys.end <= self.capacity(),
                "keys {keys:?} past a capacity of {}",
                self.capacity()
            );
            return 0;
        }
        let taken = bitmap::take_range(&mut self.words, keys.start as usize..keys.end as usize);
        self.len -= taken as u64;
        taken
    }

    /// Whether `key` is in the set (keys beyond the capacity are absent).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let (word, mask) = Self::split(key);
        self.words.get(word).map(|w| w & mask != 0).unwrap_or(false)
    }

    /// Removes every key.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Removes the keys one by one in ascending order, yielding each — a
    /// sorted, de-duplicated list without a sort.  Keys not yet yielded
    /// when the iterator is dropped stay in the set.
    pub(crate) fn drain_ascending(&mut self) -> impl Iterator<Item = u64> + '_ {
        let mut word = 0;
        std::iter::from_fn(move || {
            while let Some(w) = self.words.get_mut(word) {
                if *w != 0 {
                    let bit = w.trailing_zeros() as u64;
                    *w &= *w - 1;
                    self.len -= 1;
                    return Some(word as u64 * 64 + bit);
                }
                word += 1;
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_round_trip() {
        let mut s = FixedBitset::with_capacity(200);
        assert!(s.is_empty());
        assert!(s.capacity() >= 200);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        // Re-inserting reports "already present".
        assert!(!s.insert(63));
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(199));
        assert!(!s.contains(1));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_beyond_capacity_is_false() {
        let s = FixedBitset::with_capacity(64);
        assert!(!s.contains(1_000_000));
    }

    #[test]
    fn clear_empties_the_set() {
        let mut s = FixedBitset::with_capacity(128);
        for k in (0..128).step_by(3) {
            s.insert(k);
        }
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }

    /// Seeded ranges that start and end anywhere in a word, on sets of
    /// every density.  Runs in `--release` too: this file is where an
    /// optimised build once lost the cardinality update.
    #[test]
    fn take_range_equals_per_key_remove() {
        const KEYS: u64 = 1_000;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut mid_word, mut removed) = (0, 0);
        for round in 0..2_000 {
            let mut bulk = FixedBitset::with_capacity(KEYS);
            let density = 1 + below(8);
            for key in 0..KEYS {
                if below(8) < density {
                    bulk.insert(key);
                }
            }
            let mut single = bulk.clone();
            let (a, b) = (below(KEYS + 1), below(KEYS + 1));
            let keys = match round % 10 {
                0 => a..a, // empty
                _ => a.min(b)..a.max(b),
            };
            mid_word += (keys.start % 64 != 0 && keys.end % 64 != 0) as u32;
            let expected = keys.clone().filter(|&k| single.remove(k)).count() as u32;
            assert_eq!(bulk.take_range(keys.clone()), expected, "{keys:?}");
            assert_eq!(bulk, single, "{keys:?}");
            assert_eq!(
                bulk.len(),
                (0..KEYS).filter(|&k| bulk.contains(k)).count() as u64
            );
            removed += expected;
        }
        assert!(
            mid_word > 1_500 && removed > 100_000,
            "{mid_word} {removed}"
        );
    }

    /// The ascending drain against `sort_unstable` + `dedup` over seeded
    /// multisets that always hold the word edges (0, 63, 64, 65) and the
    /// last key of a capacity that is no multiple of 64, some drains cut
    /// short.  Runs in `--release` too, for the reason above.
    #[test]
    fn drain_ascending_equals_sort_and_dedup() {
        const KEYS: u64 = 1_000; // a GTD of 1,000 translation pages
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut cut_short = 0;
        for round in 0..2_000 {
            let mut set = FixedBitset::with_capacity(KEYS);
            let mut multiset = vec![0, 63, 64, 65, KEYS - 1];
            let draws = below(3 * KEYS);
            let span = 1 + below(KEYS);
            multiset.extend((0..draws).map(|_| below(span)));
            for &key in &multiset {
                set.insert(key);
            }
            multiset.sort_unstable();
            multiset.dedup();
            assert_eq!(set.len(), multiset.len() as u64);
            let take = match round % 4 {
                0 => below(multiset.len() as u64) as usize,
                _ => usize::MAX,
            };
            let drained: Vec<u64> = set.drain_ascending().take(take).collect();
            let (yielded, rest) = multiset.split_at(drained.len());
            assert_eq!(drained, yielded, "round {round}");
            assert_eq!(set.len(), rest.len() as u64, "round {round}");
            assert!(rest.iter().all(|&k| set.contains(k)), "round {round}");
            assert!(yielded.iter().all(|&k| !set.contains(k)), "round {round}");
            cut_short += !rest.is_empty() as u32;
        }
        assert!(cut_short > 400, "{cut_short}");
    }

    /// The empty-set shortcut: nothing taken, no word written, and the
    /// capacity still checked exactly where the word loop would panic.
    #[test]
    fn take_range_on_an_empty_set_touches_nothing() {
        // 200 keys round up to four words: a capacity of 256.
        let within = [0..0, 0..200, 60..130, 199..256, 256..256, 300..300];
        let past = [0..257, 250..300];
        let empty = FixedBitset::with_capacity(200);
        // Words that disagree with `len` show whether a word was read or
        // written: the shortcut must leave them as they are.
        let mut marked = FixedBitset {
            words: vec![u64::MAX; 4],
            len: 0,
        };
        for keys in within.clone() {
            assert_eq!(marked.take_range(keys.clone()), 0, "{keys:?}");
            assert_eq!(marked.len(), 0);
            assert_eq!(marked.words, [u64::MAX; 4]);
        }
        // A set with a key left outside every range takes the word loop.
        let mut one = empty.clone();
        one.insert(255);
        for keys in within.into_iter().filter(|keys| !keys.contains(&255)) {
            assert_eq!(one.take_range(keys.clone()), 0, "{keys:?}");
        }
        for keys in past {
            for set in [&empty, &marked, &one] {
                let (mut set, keys) = (set.clone(), keys.clone());
                let taken = std::panic::catch_unwind(move || set.take_range(keys));
                assert!(taken.is_err(), "past the capacity must panic");
            }
        }
    }

    #[test]
    #[should_panic]
    fn take_range_beyond_capacity_panics() {
        let mut s = FixedBitset::with_capacity(64);
        s.take_range(60..65);
    }

    #[test]
    #[should_panic]
    fn insert_beyond_capacity_panics() {
        let mut s = FixedBitset::with_capacity(64);
        s.insert(64);
    }
}
