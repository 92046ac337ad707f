//! Shared validation helpers for the FTLs' incremental victim indexes.
//!
//! Both FTLs expose a `check_victim_index` method (a test/validation aid in
//! the spirit of `enable_victim_trace`): it recomputes the candidate set
//! from the authoritative block state by a full scan and compares it
//! against the incrementally maintained [`VictimIndex`], then proves that
//! every built-in policy picks the same victim from the index as from the
//! recomputed legacy candidate slice.  The seeded property suite in
//! `tests/victim_index_equivalence.rs` calls it throughout randomized
//! write/free/GC/wear-level/retire sequences with fault injection on.

use ossd_gc::{BlockInfo, CleaningPolicyKind, PickContext, VictimIndex};

/// One recomputed candidate row: `(block, valid, invalid, erase_count,
/// last_write)`, the tuple shape [`VictimIndex::snapshot`] reports.
pub(crate) type CandidateRow = (u32, u32, u32, u32, u64);

/// Compares the index against a from-scratch recompute (`expected` must be
/// sorted by block) and verifies the index's internal invariants.
pub(crate) fn check_against_recompute(
    index: &VictimIndex,
    expected: &[CandidateRow],
    what: &str,
) -> Result<(), String> {
    index
        .verify_internal()
        .map_err(|e| format!("{what}: {e}"))?;
    let got = index.snapshot();
    if got != expected {
        return Err(format!(
            "{what}: incremental index diverged from full-scan recompute\n\
             index:     {got:?}\nrecompute: {expected:?}"
        ));
    }
    Ok(())
}

/// Builds the legacy candidate slice (ascending block order, excluded
/// blocks dropped) out of recomputed rows.
fn legacy_candidates(rows: &[CandidateRow], total_pages: u32, ctx: &PickContext) -> Vec<BlockInfo> {
    rows.iter()
        .filter(|&&(block, ..)| !ctx.excludes(block))
        .map(|&(block, valid, invalid, erase, last_write)| BlockInfo {
            block,
            valid_pages: valid,
            invalid_pages: invalid,
            total_pages,
            erase_count: erase,
            age: ctx.clock.saturating_sub(last_write),
        })
        .collect()
}

/// Asserts that every built-in policy picks the same victim from the index
/// as from the recomputed legacy candidate slice.
pub(crate) fn check_policy_equivalence(
    index: &mut VictimIndex,
    rows: &[CandidateRow],
    total_pages: u32,
    ctx: &PickContext,
    what: &str,
) -> Result<(), String> {
    let candidates = legacy_candidates(rows, total_pages, ctx);
    for kind in CleaningPolicyKind::all() {
        let from_slice = kind.select_victim(&candidates);
        let from_index = kind.select_from_index(index, ctx);
        if from_slice != from_index {
            return Err(format!(
                "{what}: policy {} picked {from_index:?} from the index but \
                 {from_slice:?} from the recomputed scan (exclude {:?}/{:?})",
                kind.name(),
                ctx.exclude,
                ctx.exclude2
            ));
        }
    }
    Ok(())
}
