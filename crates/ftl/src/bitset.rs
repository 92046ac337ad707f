//! A vendored fixed-size bitset.
//!
//! The demand-paged FTL queues the translation pages a relocation staled,
//! keyed by translation-page number, and rewrites them once per cleaning
//! pass in ascending order.  Those numbers are dense and bounded by the
//! global translation directory, so a flat bitset — one `u64` word per 64
//! keys, sized once at construction — queues one with two shifts and a
//! mask and drains them sorted without a sort.  The workspace builds
//! hermetically with no external crates, so this is hand-rolled rather than
//! pulled from `fixedbitset`.

/// A fixed-capacity set of `u64` keys in `[0, capacity)`, one bit each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct FixedBitset {
    words: Vec<u64>,
    /// Number of set bits (kept so emptiness/cardinality are O(1)).
    len: u64,
}

impl FixedBitset {
    /// An empty set over keys `0..capacity`.
    pub(crate) fn with_capacity(capacity: u64) -> Self {
        FixedBitset {
            words: vec![0; capacity.div_ceil(64) as usize],
            len: 0,
        }
    }

    /// Number of keys currently in the set.
    #[cfg(test)]
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
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
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        let (word, mask) = Self::split(key);
        let w = &mut self.words[word];
        let newly = *w & mask == 0;
        *w |= mask;
        // Branch rather than `self.len += newly as u64`: rustc 1.95 at
        // opt-level 3 drops that add when the inlined call sits in an
        // `assert!`, and `len()` then reads 0.
        if newly {
            self.len += 1;
        }
        newly
    }

    /// Whether `key` is in the set (keys beyond the capacity are absent).
    #[cfg(test)]
    pub(crate) fn contains(&self, key: u64) -> bool {
        let (word, mask) = Self::split(key);
        self.words.get(word).map(|w| w & mask != 0).unwrap_or(false)
    }

    /// Removes every key.
    pub(crate) fn clear(&mut self) {
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
    fn insert_contains_round_trip() {
        let mut s = FixedBitset::with_capacity(200);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        // Re-inserting reports "already present".
        assert!(!s.insert(63));
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(199));
        assert!(!s.contains(1));
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

    /// The ascending drain against `sort_unstable` + `dedup` over seeded
    /// multisets that always hold the word edges (0, 63, 64, 65) and the
    /// last key of a capacity that is no multiple of 64, some drains cut
    /// short.  Runs in `--release` too: this file is where an optimised
    /// build once lost the cardinality update.
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

    #[test]
    #[should_panic]
    fn insert_beyond_capacity_panics() {
        let mut s = FixedBitset::with_capacity(64);
        s.insert(64);
    }
}
