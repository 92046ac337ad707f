//! The cleaning-policy inputs: block views, trigger decisions and the
//! watermark trigger every policy shares.
//!
//! The paper's position is that block management — and cleaning above all —
//! belongs inside the device (§2, §3.5, §3.6).  The FTL exposes a snapshot
//! of the candidate blocks (a slice of [`BlockInfo`]) and asks the policy
//! ([`crate::CleaningPolicyKind`]) which block is cheapest to reclaim;
//! whether a host write waits for cleaning is the paper's watermark scheme,
//! [`watermark_trigger`].  The mechanics of moving pages and erasing blocks
//! stay in the FTL; the policy never touches flash state.

/// A snapshot of one candidate victim block, as seen by a cleaning policy.
///
/// The FTL builds one `BlockInfo` per *candidate* block — blocks that are
/// not the current append point, not erased, and hold at least one stale
/// page (cleaning a block with no stale pages frees nothing).  Candidates
/// are presented in ascending block order, so policies that scan linearly
/// and keep the first best candidate are deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block index within its element (or superblock index on the stripe
    /// FTL).
    pub block: u32,
    /// Pages still holding live data (must be migrated before erase).
    pub valid_pages: u32,
    /// Stale pages (reclaimed by an erase).
    pub invalid_pages: u32,
    /// Total pages in the block.
    pub total_pages: u32,
    /// Number of times the block has been erased.
    pub erase_count: u32,
    /// Host writes since the block was last programmed (a logical clock,
    /// not wall time).  Large means cold.
    pub age: u64,
}

impl BlockInfo {
    /// Fraction of the block still holding live data (LFS's `u`).
    pub fn utilization(&self) -> f64 {
        if self.total_pages == 0 {
            return 0.0;
        }
        self.valid_pages as f64 / self.total_pages as f64
    }
}

/// Everything the watermark trigger consults when deciding whether to clean
/// ahead of a host write.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriggerContext {
    /// Fraction of physical pages currently free on the allocation target.
    pub free_fraction: f64,
    /// Cleaning should start below this free fraction.
    pub low_watermark: f64,
    /// Cleaning may not be postponed below this free fraction.
    pub critical_watermark: f64,
    /// Whether high-priority host requests are outstanding.
    pub priority_pending: bool,
    /// Whether the device is configured to postpone cleaning for priority
    /// requests (the paper's priority-aware cleaning, §3.6).
    pub priority_aware: bool,
}

/// The trigger's answer to "should this host write wait for cleaning?".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerDecision {
    /// Clean now, ahead of the host write.
    Clean,
    /// Cleaning is due (below the low watermark) but deliberately postponed
    /// — the FTL accounts this as a postponement.
    Postponed,
    /// No cleaning required.
    Idle,
}

/// The cleaning trigger every policy shares; reproduces the paper's scheme
/// exactly (§3.6): clean below the low watermark, but under priority-aware
/// cleaning postpone until the critical watermark while high-priority
/// requests are outstanding.
pub fn watermark_trigger(ctx: &TriggerContext) -> TriggerDecision {
    if ctx.priority_aware && ctx.priority_pending {
        if ctx.free_fraction < ctx.critical_watermark {
            TriggerDecision::Clean
        } else if ctx.free_fraction < ctx.low_watermark {
            TriggerDecision::Postponed
        } else {
            TriggerDecision::Idle
        }
    } else if ctx.free_fraction < ctx.low_watermark {
        TriggerDecision::Clean
    } else {
        TriggerDecision::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(free: f64, pending: bool, aware: bool) -> TriggerContext {
        TriggerContext {
            free_fraction: free,
            low_watermark: 0.05,
            critical_watermark: 0.02,
            priority_pending: pending,
            priority_aware: aware,
        }
    }

    #[test]
    fn agnostic_trigger_is_a_plain_watermark() {
        assert_eq!(
            watermark_trigger(&ctx(0.10, false, false)),
            TriggerDecision::Idle
        );
        assert_eq!(
            watermark_trigger(&ctx(0.04, false, false)),
            TriggerDecision::Clean
        );
        // Priority pending is irrelevant without priority awareness.
        assert_eq!(
            watermark_trigger(&ctx(0.04, true, false)),
            TriggerDecision::Clean
        );
    }

    #[test]
    fn aware_trigger_postpones_between_watermarks() {
        assert_eq!(
            watermark_trigger(&ctx(0.04, true, true)),
            TriggerDecision::Postponed
        );
        assert_eq!(
            watermark_trigger(&ctx(0.01, true, true)),
            TriggerDecision::Clean
        );
        assert_eq!(
            watermark_trigger(&ctx(0.10, true, true)),
            TriggerDecision::Idle
        );
        // Without priority requests outstanding it degenerates to the plain
        // watermark.
        assert_eq!(
            watermark_trigger(&ctx(0.04, false, true)),
            TriggerDecision::Clean
        );
    }

    #[test]
    fn utilization_is_valid_over_total() {
        let info = BlockInfo {
            block: 0,
            valid_pages: 3,
            invalid_pages: 5,
            total_pages: 8,
            erase_count: 0,
            age: 0,
        };
        assert!((info.utilization() - 0.375).abs() < 1e-12);
        let empty = BlockInfo {
            total_pages: 0,
            ..info
        };
        assert_eq!(empty.utilization(), 0.0);
    }
}
