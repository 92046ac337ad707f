//! The built-in cleaning policies: [`CleaningPolicyKind`], the one type
//! that names a policy and picks its victims.
//!
//! Four policies spanning the classic design space:
//!
//! * [`CleaningPolicyKind::Greedy`] — most stale pages first; the seed
//!   FTL's behaviour and the baseline of every analytical
//!   write-amplification model.
//! * [`CleaningPolicyKind::CostBenefit`] — Rosenblum & Ousterhout's LFS
//!   segment cleaner: `benefit/cost = age · (1 − u) / (1 + u)`.  Prefers
//!   cold, mostly-stale blocks; beats greedy under hot/cold skew.
//! * [`CleaningPolicyKind::CostAge`] — a wear-aware cost-benefit variant
//!   (after Chiang's CAT): the cost-benefit score divided by the block's
//!   erase count, so victim selection doubles as implicit wear-leveling.
//! * [`CleaningPolicyKind::WindowedGreedy`] — greedy restricted to the
//!   oldest *W* candidates; approximates cost-benefit's hot/cold separation
//!   at greedy's cost.

use crate::index::{PickContext, VictimIndex};
use crate::policy::BlockInfo;

/// Which cleaning policy a device uses.  This is the value that travels
/// through `FtlConfig` → `SsdConfig` → `DeviceProfile`, and the one that
/// picks victims.
///
/// Every pick is deterministic — the same candidates give the same victim —
/// because the simulators promise bit-for-bit reproducible experiments.
///
/// Victim selection has two tiers.  [`select_from_index`] is the hot path
/// the FTLs call: greedy and windowed greedy, whose order the index
/// maintains directly, pick in O(top bucket) / O(candidates), while the
/// score-drifting cost-benefit and cost-age materialise the candidates into
/// the index's reusable scratch buffer — no per-pick allocation, candidates
/// drawn from the non-empty buckets only — and fall through to the slice
/// tier, [`select_victim`], which is also the reference the index is
/// checked against.
///
/// [`select_from_index`]: CleaningPolicyKind::select_from_index
/// [`select_victim`]: CleaningPolicyKind::select_victim
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CleaningPolicyKind {
    /// Most stale pages first; ties break towards the block with fewer
    /// erases, then towards the lower block index (the seed FTL's victim
    /// selection, bit-for-bit).
    #[default]
    Greedy,
    /// Rosenblum-style cost-benefit (LFS, SOSP '91): maximize
    /// `age · (1 − u) / (1 + u)`.  `1 − u` is the space reclaimed, `1 + u`
    /// the cost to read the block and rewrite its live fraction, and `age`
    /// (host writes since the block was last programmed) estimates how long
    /// the reclaimed space will stay free.  Ages are offset by one so a
    /// fully-stale block is still worth reclaiming the instant it turns
    /// stale.
    CostBenefit,
    /// Wear-aware cost-benefit (after Chiang et al.'s Cost-Age-Times):
    /// maximize `age · (1 − u) / ((1 + u) · (1 + erases))`, trading a
    /// little extra migration for a tighter erase spread.
    CostAge,
    /// Greedy over the `window` oldest candidate blocks.  Keeping hot
    /// blocks — whose remaining live pages are about to be invalidated
    /// anyway — out of the victim pool approximates cost-benefit's hot/cold
    /// separation without scoring every block.  A window at least as large
    /// as the candidate set degenerates to plain greedy.
    WindowedGreedy {
        /// Number of oldest candidates greedy may choose from (0 = all).
        window: u32,
    },
}

impl CleaningPolicyKind {
    /// The four built-in policies with their default parameters, in the
    /// order experiments report them.
    pub fn all() -> [CleaningPolicyKind; 4] {
        [
            CleaningPolicyKind::Greedy,
            CleaningPolicyKind::CostBenefit,
            CleaningPolicyKind::CostAge,
            CleaningPolicyKind::WindowedGreedy { window: 8 },
        ]
    }

    /// The policy's report name.
    pub fn name(&self) -> &'static str {
        match self {
            CleaningPolicyKind::Greedy => "greedy",
            CleaningPolicyKind::CostBenefit => "cost-benefit",
            CleaningPolicyKind::CostAge => "cost-age",
            CleaningPolicyKind::WindowedGreedy { .. } => "windowed-greedy",
        }
    }

    /// Picks the block to reclaim next from `candidates`, or `None` when
    /// there is none.  Candidates are in ascending block order and each
    /// holds at least one stale page.
    pub fn select_victim(&self, candidates: &[BlockInfo]) -> Option<u32> {
        match *self {
            CleaningPolicyKind::Greedy => select_greedy(candidates),
            CleaningPolicyKind::CostBenefit => select_by_score(candidates, cost_benefit_score),
            CleaningPolicyKind::CostAge => select_by_score(candidates, |c| {
                cost_benefit_score(c) / (1.0 + c.erase_count as f64)
            }),
            CleaningPolicyKind::WindowedGreedy { window } => {
                let window = window as usize;
                if window == 0 || candidates.len() <= window {
                    return select_greedy(candidates);
                }
                // Indices of the `window` oldest candidates; age ties keep
                // the earlier candidate so the scan below stays
                // deterministic.
                let mut by_age: Vec<usize> = (0..candidates.len()).collect();
                by_age.sort_by(|&a, &b| candidates[b].age.cmp(&candidates[a].age).then(a.cmp(&b)));
                by_age.truncate(window);
                // Greedy expects candidates in ascending block order.
                by_age.sort_unstable();
                let pool: Vec<BlockInfo> = by_age.into_iter().map(|i| candidates[i]).collect();
                select_greedy(&pool)
            }
        }
    }

    /// Picks the block to reclaim next from the incremental
    /// [`VictimIndex`], or `None` when there is none.  The choice equals
    /// what [`CleaningPolicyKind::select_victim`] returns over the
    /// equivalent snapshot.
    ///
    /// Greedy takes the index's greedy pick; windowed greedy partitions the
    /// `window` oldest candidates out of the index's scratch buffer in
    /// O(candidates), or takes the greedy pick when the window covers every
    /// candidate.  The scored policies drain the index's non-empty buckets
    /// into its scratch buffer (ascending block order, the exact
    /// presentation of the pre-index full scan) and select over that.
    pub fn select_from_index(&self, index: &mut VictimIndex, ctx: &PickContext) -> Option<u32> {
        match *self {
            CleaningPolicyKind::Greedy => index.pick_greedy(ctx.exclude, ctx.exclude2),
            CleaningPolicyKind::WindowedGreedy { window } => {
                let window = window as usize;
                if window == 0 || index.candidates_excluding(ctx) <= window {
                    return index.pick_greedy(ctx.exclude, ctx.exclude2);
                }
                index.pick_windowed(window, ctx)
            }
            CleaningPolicyKind::CostBenefit | CleaningPolicyKind::CostAge => {
                self.select_victim(index.scan_candidates(ctx))
            }
        }
    }
}

/// The greedy scan: candidates in ascending block order, and a candidate
/// replaces the incumbent only when strictly better.
pub(crate) fn select_greedy(candidates: &[BlockInfo]) -> Option<u32> {
    let mut best: Option<&BlockInfo> = None;
    for c in candidates {
        let better = match best {
            None => true,
            Some(b) => {
                c.invalid_pages > b.invalid_pages
                    || (c.invalid_pages == b.invalid_pages && c.erase_count < b.erase_count)
            }
        };
        if better {
            best = Some(c);
        }
    }
    best.map(|b| b.block)
}

fn cost_benefit_score(c: &BlockInfo) -> f64 {
    let u = c.utilization();
    (c.age + 1) as f64 * (1.0 - u) / (1.0 + u)
}

/// Deterministic "strictly better" comparison for score-based policies:
/// greater score wins; ties break towards more stale pages, then fewer
/// erases, then the earlier (lower-index) candidate.
fn score_better(candidate: &BlockInfo, score: f64, best: &BlockInfo, best_score: f64) -> bool {
    if score != best_score {
        return score > best_score;
    }
    if candidate.invalid_pages != best.invalid_pages {
        return candidate.invalid_pages > best.invalid_pages;
    }
    candidate.erase_count < best.erase_count
}

fn select_by_score(candidates: &[BlockInfo], score: impl Fn(&BlockInfo) -> f64) -> Option<u32> {
    let mut best: Option<(&BlockInfo, f64)> = None;
    for c in candidates {
        let s = score(c);
        let better = match best {
            None => true,
            Some((b, bs)) => score_better(c, s, b, bs),
        };
        if better {
            best = Some((c, s));
        }
    }
    best.map(|(b, _)| b.block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(block: u32, valid: u32, invalid: u32, erases: u32, age: u64) -> BlockInfo {
        BlockInfo {
            block,
            valid_pages: valid,
            invalid_pages: invalid,
            total_pages: 8,
            erase_count: erases,
            age,
        }
    }

    #[test]
    fn greedy_prefers_most_invalid_then_fewest_erases() {
        let candidates = [
            block(0, 4, 4, 9, 0),
            block(1, 2, 6, 5, 0), // most stale pages: the victim
            block(2, 3, 5, 0, 0),
        ];
        assert_eq!(
            CleaningPolicyKind::Greedy.select_victim(&candidates),
            Some(1)
        );

        // Equal staleness: fewer erases wins.
        let tied = [
            block(0, 2, 6, 9, 0),
            block(1, 2, 6, 3, 0),
            block(2, 2, 6, 5, 0),
        ];
        assert_eq!(CleaningPolicyKind::Greedy.select_victim(&tied), Some(1));

        // Fully tied: the first candidate wins (seed-compatible scan).
        let all_tied = [block(0, 2, 6, 5, 0), block(1, 2, 6, 5, 0)];
        assert_eq!(CleaningPolicyKind::Greedy.select_victim(&all_tied), Some(0));

        assert_eq!(CleaningPolicyKind::Greedy.select_victim(&[]), None);
    }

    #[test]
    fn cost_benefit_prefers_cold_blocks_over_slightly_staler_hot_ones() {
        // Block 0 is marginally staler but hot (age 1); block 1 is cold
        // (age 100) with almost as much stale space.  Greedy picks 0,
        // cost-benefit picks 1.
        let candidates = [block(0, 3, 5, 0, 1), block(1, 4, 4, 0, 100)];
        assert_eq!(
            CleaningPolicyKind::Greedy.select_victim(&candidates),
            Some(0)
        );
        assert_eq!(
            CleaningPolicyKind::CostBenefit.select_victim(&candidates),
            Some(1)
        );
    }

    #[test]
    fn cost_benefit_scores_follow_the_lfs_formula() {
        // u = 0.5 → (1 - u)/(1 + u) = 1/3; age+1 = 11 → score 11/3.
        let c = block(0, 4, 4, 0, 10);
        assert!((cost_benefit_score(&c) - 11.0 / 3.0).abs() < 1e-12);
        // A fully stale block the instant it turns stale still scores > 0.
        let stale = block(1, 0, 8, 0, 0);
        assert!(cost_benefit_score(&stale) > 0.0);
    }

    #[test]
    fn cost_age_penalises_worn_blocks() {
        // Identical blocks except erase count: cost-age avoids the worn one,
        // cost-benefit is indifferent (ties break towards fewer erases, so
        // both pick block 1 here) — so give the worn block a slight edge in
        // staleness that cost-benefit takes and cost-age declines.
        let candidates = [block(0, 3, 5, 40, 10), block(1, 4, 4, 0, 10)];
        assert_eq!(
            CleaningPolicyKind::CostBenefit.select_victim(&candidates),
            Some(0)
        );
        assert_eq!(
            CleaningPolicyKind::CostAge.select_victim(&candidates),
            Some(1)
        );
    }

    #[test]
    fn windowed_greedy_ignores_staler_but_young_blocks_outside_the_window() {
        // Block 2 is the stalest but the youngest; with a window of 2 only
        // the two oldest candidates (0 and 1) are eligible.
        let candidates = [
            block(0, 4, 4, 0, 50),
            block(1, 3, 5, 0, 40),
            block(2, 1, 7, 0, 1),
        ];
        assert_eq!(
            CleaningPolicyKind::WindowedGreedy { window: 2 }.select_victim(&candidates),
            Some(1)
        );
        // A window covering everything degenerates to greedy.
        assert_eq!(
            CleaningPolicyKind::WindowedGreedy { window: 3 }.select_victim(&candidates),
            Some(2)
        );
        assert_eq!(
            CleaningPolicyKind::Greedy.select_victim(&candidates),
            Some(2)
        );
        // A zero window is treated as unbounded rather than empty.
        assert_eq!(
            CleaningPolicyKind::WindowedGreedy { window: 0 }.select_victim(&candidates),
            Some(2)
        );
    }

    #[test]
    fn policies_report_distinct_names() {
        let names = CleaningPolicyKind::all().map(|kind| kind.name());
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn every_kind_picks_nothing_from_no_candidates() {
        for kind in CleaningPolicyKind::all() {
            assert_eq!(kind.select_victim(&[]), None);
        }
        assert_eq!(CleaningPolicyKind::default(), CleaningPolicyKind::Greedy);
    }
}
