//! Range operations on bitmaps kept as `u64` words: bit `i` of the map is
//! bit `i % 64` of word `i / 64`.
//!
//! The page-state bitmap of a [`crate::FlashElement`] and the FTL's
//! host-freed set are both such maps, and both are updated a span of pages
//! at a time; these are the word-at-a-time forms of those updates.  A range
//! past the end of `words` panics, as indexing does.

use std::ops::Range;

/// Calls `f(word, mask)` on each word `bits` touches, with the mask of the
/// touched bits.
fn for_words(words: &mut [u64], bits: Range<usize>, mut f: impl FnMut(&mut u64, u64)) {
    let mut at = bits.start;
    while at < bits.end {
        let end = bits.end.min((at / 64 + 1) * 64);
        let mask = (u64::MAX >> (64 - (end - at))) << (at % 64);
        f(&mut words[at / 64], mask);
        at = end;
    }
}

/// Sets every bit of `bits`.
pub fn set_range(words: &mut [u64], bits: Range<usize>) {
    for_words(words, bits, |word, mask| *word |= mask);
}

/// Clears every bit of `bits` and returns how many were set.
pub fn take_range(words: &mut [u64], bits: Range<usize>) -> u32 {
    let mut taken = 0;
    for_words(words, bits, |word, mask| {
        taken += (*word & mask).count_ones();
        *word &= !mask;
    });
    taken
}

/// The runs of consecutive set bits from bit `from` on, in order, as bit
/// ranges.  A run that crosses a word boundary comes as two adjacent ranges.
pub fn runs_of_ones(words: &[u64], from: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut at = from;
    std::iter::from_fn(move || loop {
        let rest = *words.get(at / 64)? >> (at % 64);
        if rest == 0 {
            at = (at / 64 + 1) * 64;
            continue;
        }
        let start = at + rest.trailing_zeros() as usize;
        at = start + (rest >> rest.trailing_zeros()).trailing_ones() as usize;
        return Some(start..at);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every range of a 200-bit map that starts and ends within three bits of
    /// a word boundary (or of the map's ends), over a dense, a sparse and a
    /// full map: the range forms against one bit at a time.
    #[test]
    fn range_forms_match_the_per_bit_loop() {
        const BITS: usize = 200;
        let near_boundary = |i: &usize| (i + 3) % 64 <= 6 || *i == BITS;
        let patterns: [fn(usize) -> bool; 3] = [|i| i % 3 != 0, |i| i % 29 == 0, |_| true];
        for pattern in patterns {
            let mut base = vec![0u64; BITS.div_ceil(64)];
            for i in (0..BITS).filter(|&i| pattern(i)) {
                base[i / 64] |= 1 << (i % 64);
            }
            for start in (0..=BITS).filter(near_boundary) {
                for end in (start..=BITS).filter(near_boundary) {
                    let mut taken = base.clone();
                    let mut set = base.clone();
                    let count = take_range(&mut taken, start..end);
                    set_range(&mut set, start..end);
                    let mut expected = 0;
                    for i in 0..BITS {
                        let (was, inside) = (pattern(i), (start..end).contains(&i));
                        expected += (was && inside) as u32;
                        assert_eq!(taken[i / 64] >> (i % 64) & 1 == 1, was && !inside);
                        assert_eq!(set[i / 64] >> (i % 64) & 1 == 1, was || inside);
                    }
                    assert_eq!(count, expected, "{start}..{end}");
                }
            }
        }
    }

    #[test]
    fn runs_of_ones_cover_exactly_the_set_bits() {
        let words = [0xffff_0000_0000_0f05u64, u64::MAX, 0, 1 << 63, 0b0110];
        for from in [0, 1, 2, 3, 9, 48, 63, 64, 100, 128, 255, 256, 258, 259, 320] {
            let runs: Vec<Range<usize>> = runs_of_ones(&words, from).collect();
            let covered: Vec<usize> = runs.iter().cloned().flatten().collect();
            let expected: Vec<usize> = (from..words.len() * 64)
                .filter(|i| words[i / 64] >> (i % 64) & 1 == 1)
                .collect();
            assert_eq!(covered, expected, "from {from}");
            for pair in runs.windows(2) {
                // Maximal: two runs touch only across a word boundary.
                assert!(pair[0].end < pair[1].start || pair[0].end % 64 == 0);
            }
            assert!(runs.iter().all(|r| !r.is_empty()));
        }
    }
}
