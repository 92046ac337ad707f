//! Rotating-parity (RAID-5) layout: geometry, command planning and the
//! fleet-level content model used to verify reconstruction.
//!
//! # Geometry
//!
//! With `N` devices and a stripe unit of `s` bytes, exported space is cut
//! into *rows* of `N-1` data units plus one parity unit.  Row `r` keeps its
//! parity on device `(N-1) - (r mod N)` (the rotation walks right-to-left,
//! the usual left-symmetric placement), and data slot `k` of the row lives
//! on device `k` skipping over the parity device.  Every device therefore
//! holds **exactly one unit of every row** — data or parity — at local
//! bytes `[r*s, (r+1)*s)`.  That uniform local placement is the property
//! the planner and the rebuild path rely on: a window `[a, b)` of row `r`
//! reads at local `[r*s + a, r*s + b)` on *any* member, so reconstruction
//! and rebuild address every surviving device identically.
//!
//! # Planning
//!
//! [`plan`] turns one host command into per-device sub-operations:
//!
//! * **Reads** route to the owning data device; a read of a degraded unit
//!   fans out as the same window on every surviving member (XOR
//!   reconstruction through the ordinary merge machinery).
//! * **Writes** update data + parity.  A full row becomes pure writes
//!   (data + parity, no reads).  Partial rows pick between read-modify-
//!   write (read old data + old parity) and reconstruct-write (read the
//!   untouched data instead) by which needs fewer member reads.  Degraded
//!   rows write the survivors and keep parity current so the failed unit
//!   stays reconstructible.
//! * **Frees** are advisory and go to live data devices only; parity is
//!   *not* recomputed, so reconstructing a freed (dead) range may return
//!   stale content — harmless by definition of free.
//!
//! # Content model
//!
//! The simulator's protocol is timing-only — commands carry no payloads —
//! so "degraded reads return the pre-failure data" cannot be checked at
//! the device level.  `ParityModel` keeps an oracle of every exported
//! unit's expected `u64` fingerprint, mirrors the parity math the array
//! performs (incremental XOR updates, loss on failure, XOR reconstruction
//! on rebuild), and lets tests and scrub assert bit-identical
//! reconstruction.  What a member stores is derived from the oracle (a
//! data unit holds its expected word, a parity unit its row's XOR) except
//! while it can differ: a failed member's words are materialised, zeroed,
//! at the failure and dropped when a rebuild that reaches the last row
//! leaves them equal to the derived ones.  A healthy array's model is one
//! word per data unit.

use ossd_block::ByteRange;

/// Geometry of a rotating-parity array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityGeometry {
    /// Member devices (≥ 3).
    pub devices: usize,
    /// Stripe unit in bytes.
    pub stripe_bytes: u64,
}

impl ParityGeometry {
    /// Data units per row (`devices - 1`).
    pub(crate) fn data_units(&self) -> u64 {
        self.devices as u64 - 1
    }

    /// Exported bytes per row.
    pub fn row_bytes(&self) -> u64 {
        self.data_units() * self.stripe_bytes
    }

    /// The device holding row `row`'s parity unit.
    pub fn parity_device(&self, row: u64) -> usize {
        (self.devices - 1) - (row % self.devices as u64) as usize
    }

    /// The device holding data slot `slot` (`0..devices-1`) of row `row`.
    pub fn data_device(&self, row: u64, slot: u64) -> usize {
        let p = self.parity_device(row);
        let s = slot as usize;
        if s < p {
            s
        } else {
            s + 1
        }
    }

    /// Number of whole rows a member of `device_capacity` bytes can hold.
    pub fn rows(&self, device_capacity: u64) -> u64 {
        device_capacity / self.stripe_bytes
    }

    /// Exported capacity given one member's capacity.
    pub fn exported_capacity(&self, device_capacity: u64) -> u64 {
        self.rows(device_capacity) * self.row_bytes()
    }

    /// Splits exported offset into `(row, slot, offset-within-unit)`.
    pub fn locate(&self, offset: u64) -> (u64, u64, u64) {
        let row = offset / self.row_bytes();
        let within = offset % self.row_bytes();
        (row, within / self.stripe_bytes, within % self.stripe_bytes)
    }

    /// Exported unit index of `(row, slot)` (the content-model address).
    pub(crate) fn unit_index(&self, row: u64, slot: u64) -> u64 {
        row * self.data_units() + slot
    }
}

/// Which rows of which member must be served by reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradedView {
    /// The failed (or replaced-but-not-yet-rebuilt) member device.
    pub device: usize,
    /// Rebuild watermark: rows `< rebuilt_rows` have been reconstructed
    /// onto the replacement and serve normally; rows `>= rebuilt_rows`
    /// are degraded.
    pub rebuilt_rows: u64,
}

impl DegradedView {
    /// Whether `device`'s unit of `row` must be routed around.
    pub(crate) fn is_degraded(&self, device: usize, row: u64) -> bool {
        device == self.device && row >= self.rebuilt_rows
    }
}

/// The operation kind of a planned sub-command (also used to tag the
/// parent command handed to [`plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SubOpKind {
    /// Read the device-local bytes.
    Read,
    /// Write the device-local bytes.
    Write,
    /// Free (TRIM) the device-local bytes.
    Free,
}

/// One planned per-device sub-operation (device-local addressing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubOp {
    /// Member device index.
    pub device: usize,
    /// Operation kind.
    pub kind: SubOpKind,
    /// Device-local byte range.
    pub range: ByteRange,
}

/// The per-device fan-out of one host command on a parity layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParityPlan {
    /// Coalesced sub-operations, sorted by `(device, kind, offset)`.
    pub ops: Vec<SubOp>,
    /// Row-windows of this command that were served by reconstruction
    /// (reads of a degraded unit, or degraded-row writes that had to
    /// recover the failed member's old content).
    pub degraded_rows: u64,
    /// Extra survivor bytes read purely for reconstruction.
    pub reconstruction_read_bytes: u64,
}

/// Plans one host command (`Read`/`Write`/`Free`, expressed as a
/// [`SubOpKind`]) over the exported `range`, honouring the degraded view.
///
/// The returned ops are deterministic: coalesced per `(device, kind)` and
/// sorted by `(device, kind, local offset)`.
pub fn plan(
    geom: &ParityGeometry,
    degraded: Option<DegradedView>,
    cmd: SubOpKind,
    range: ByteRange,
) -> ParityPlan {
    let mut plan = ParityPlan::default();
    (plan.degraded_rows, plan.reconstruction_read_bytes) =
        plan_into(&mut plan.ops, geom, degraded, cmd, range);
    plan
}

/// [`plan`] into a caller-owned buffer: `ops` is cleared and left holding
/// the plan's coalesced, sorted sub-operations, so a router planning one
/// command after another allocates nothing.  Returns the plan's
/// `(degraded_rows, reconstruction_read_bytes)`.
pub(crate) fn plan_into(
    ops: &mut Vec<SubOp>,
    geom: &ParityGeometry,
    degraded: Option<DegradedView>,
    cmd: SubOpKind,
    range: ByteRange,
) -> (u64, u64) {
    ops.clear();
    let (mut degraded_rows, mut reconstruction_read_bytes) = (0u64, 0u64);
    let s = geom.stripe_bytes;
    let row_bytes = geom.row_bytes();
    let first_row = range.offset / row_bytes;
    let last_row = (range.end() - 1) / row_bytes;
    for row in first_row..=last_row {
        // The command's window within this row, in row-local bytes.
        let lo = range.offset.max(row * row_bytes) - row * row_bytes;
        let hi = range.end().min((row + 1) * row_bytes) - row * row_bytes;
        let local = |a: u64, b: u64| ByteRange::new(row * s + a, b - a);
        let klo = lo / s;
        let khi = (hi - 1) / s;
        // Window of covered slot `k` within its unit.
        let window = |k: u64| {
            let a = if k == klo { lo - k * s } else { 0 };
            let b = if k == khi { hi - k * s } else { s };
            (a, b)
        };
        let is_deg = |device: usize| degraded.is_some_and(|v| v.is_degraded(device, row));
        match cmd {
            SubOpKind::Read => {
                for k in klo..=khi {
                    let (a, b) = window(k);
                    let d = geom.data_device(row, k);
                    if is_deg(d) {
                        // Reconstruct: the same window on every survivor.
                        for m in 0..geom.devices {
                            if m != d {
                                ops.push(SubOp {
                                    device: m,
                                    kind: SubOpKind::Read,
                                    range: local(a, b),
                                });
                            }
                        }
                        degraded_rows += 1;
                        reconstruction_read_bytes += (b - a) * (geom.devices as u64 - 1);
                    } else {
                        ops.push(SubOp {
                            device: d,
                            kind: SubOpKind::Read,
                            range: local(a, b),
                        });
                    }
                }
            }
            SubOpKind::Write => {
                let p = geom.parity_device(row);
                let full_row = lo == 0 && hi == row_bytes;
                if full_row {
                    // Full-stripe write: parity computes from the new data
                    // alone — pure writes, no reads.
                    for k in 0..geom.data_units() {
                        let d = geom.data_device(row, k);
                        if !is_deg(d) {
                            ops.push(SubOp {
                                device: d,
                                kind: SubOpKind::Write,
                                range: local(0, s),
                            });
                        }
                    }
                    if !is_deg(p) {
                        ops.push(SubOp {
                            device: p,
                            kind: SubOpKind::Write,
                            range: local(0, s),
                        });
                    }
                    continue;
                }
                // Parity window: the bounding box of the covered windows
                // (whole unit as soon as more than one slot is touched).
                let (wa, wb) = if klo == khi { window(klo) } else { (0, s) };
                let covered = khi - klo + 1;
                let degraded_covers_data = (klo..=khi).any(|k| is_deg(geom.data_device(row, k)));
                let any_degraded_data =
                    (0..geom.data_units()).any(|k| is_deg(geom.data_device(row, k)));
                if is_deg(p) {
                    // Parity is the degraded unit: writes land on data only
                    // and parity is recomputed when the row rebuilds.
                    for k in klo..=khi {
                        let (a, b) = window(k);
                        ops.push(SubOp {
                            device: geom.data_device(row, k),
                            kind: SubOpKind::Write,
                            range: local(a, b),
                        });
                    }
                } else if degraded_covers_data {
                    // A covered data unit is lost: recover the row's old
                    // content from every survivor, write the live covered
                    // windows, and recompute whole-unit parity so the
                    // failed member's new data stays reconstructible.
                    for m in 0..geom.devices {
                        if !is_deg(m) {
                            ops.push(SubOp {
                                device: m,
                                kind: SubOpKind::Read,
                                range: local(0, s),
                            });
                            reconstruction_read_bytes += s;
                        }
                    }
                    for k in klo..=khi {
                        let (a, b) = window(k);
                        let d = geom.data_device(row, k);
                        if !is_deg(d) {
                            ops.push(SubOp {
                                device: d,
                                kind: SubOpKind::Write,
                                range: local(a, b),
                            });
                        }
                    }
                    ops.push(SubOp {
                        device: p,
                        kind: SubOpKind::Write,
                        range: local(0, s),
                    });
                    degraded_rows += 1;
                } else if covered * 2 >= geom.data_units() && !any_degraded_data {
                    // Reconstruct-write: read the untouched data units (and
                    // the untouched edges of partially-covered units), then
                    // write new data + freshly computed parity.  Only taken
                    // when every data unit of the row is live — an
                    // uncovered degraded unit falls through to
                    // read-modify-write, whose reads touch covered units
                    // and parity only.
                    for k in 0..geom.data_units() {
                        let d = geom.data_device(row, k);
                        if k < klo || k > khi {
                            ops.push(SubOp {
                                device: d,
                                kind: SubOpKind::Read,
                                range: local(wa, wb),
                            });
                        } else {
                            let (a, b) = window(k);
                            if a > wa {
                                ops.push(SubOp {
                                    device: d,
                                    kind: SubOpKind::Read,
                                    range: local(wa, a),
                                });
                            }
                            if b < wb {
                                ops.push(SubOp {
                                    device: d,
                                    kind: SubOpKind::Read,
                                    range: local(b, wb),
                                });
                            }
                            ops.push(SubOp {
                                device: d,
                                kind: SubOpKind::Write,
                                range: local(a, b),
                            });
                        }
                    }
                    ops.push(SubOp {
                        device: p,
                        kind: SubOpKind::Write,
                        range: local(wa, wb),
                    });
                } else {
                    // Read-modify-write: read old data + old parity, write
                    // new data + new parity.
                    for k in klo..=khi {
                        let (a, b) = window(k);
                        let d = geom.data_device(row, k);
                        ops.push(SubOp {
                            device: d,
                            kind: SubOpKind::Read,
                            range: local(a, b),
                        });
                        ops.push(SubOp {
                            device: d,
                            kind: SubOpKind::Write,
                            range: local(a, b),
                        });
                    }
                    ops.push(SubOp {
                        device: p,
                        kind: SubOpKind::Read,
                        range: local(wa, wb),
                    });
                    ops.push(SubOp {
                        device: p,
                        kind: SubOpKind::Write,
                        range: local(wa, wb),
                    });
                }
            }
            SubOpKind::Free => {
                for k in klo..=khi {
                    let (a, b) = window(k);
                    let d = geom.data_device(row, k);
                    if !is_deg(d) {
                        ops.push(SubOp {
                            device: d,
                            kind: SubOpKind::Free,
                            range: local(a, b),
                        });
                    }
                }
            }
        }
    }
    coalesce(ops);
    (degraded_rows, reconstruction_read_bytes)
}

/// The read windows [`plan`] issues on `device` for this command —
/// re-derived so the uncorrectable-repair path knows exactly which
/// device-local bytes a failed read sub-command covered.
pub(crate) fn read_specs(
    geom: &ParityGeometry,
    degraded: Option<DegradedView>,
    cmd: SubOpKind,
    range: ByteRange,
    device: usize,
) -> Vec<ByteRange> {
    plan(geom, degraded, cmd, range)
        .ops
        .into_iter()
        .filter(|op| op.device == device && op.kind == SubOpKind::Read)
        .map(|op| op.range)
        .collect()
}

/// Sorts the ops by `(device, kind, offset)` and merges, in place,
/// overlapping or adjacent ranges of the same `(device, kind)` —
/// reconstruction can ask a survivor for windows that abut or overlap its
/// own direct window, and a controller issues the union once.
fn coalesce(ops: &mut Vec<SubOp>) {
    // Equal keys are equal ops, so an unstable sort loses nothing.
    ops.sort_unstable_by_key(|op| (op.device, op.kind, op.range.offset, op.range.len));
    let mut kept = 0;
    for i in 0..ops.len() {
        let op = ops[i];
        if kept > 0 {
            let prev = &mut ops[kept - 1];
            if prev.device == op.device
                && prev.kind == op.kind
                && op.range.offset <= prev.range.end()
            {
                let end = prev.range.end().max(op.range.end());
                prev.range.len = end - prev.range.offset;
                continue;
            }
        }
        ops[kept] = op;
        kept += 1;
    }
    ops.truncate(kept);
}

/// Scrub outcome: every row's parity recomputed and every stored unit
/// checked against the expected-content oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Rows checked.
    pub rows: u64,
    /// Stored (or reconstructed) data units that differ from the oracle.
    pub data_mismatches: u64,
    /// Parity units that differ from the XOR of their row's data.
    pub parity_mismatches: u64,
}

impl ScrubReport {
    /// Whether the scrub found the array fully consistent.
    pub fn is_clean(&self) -> bool {
        self.data_mismatches == 0 && self.parity_mismatches == 0
    }
}

/// Fleet-level shadow content: the oracle of what every exported unit
/// should read as, plus the stored words of any member that can differ
/// from it.
///
/// A consistent array needs no stored words: a live data unit holds its
/// `expected` word and a live parity unit the XOR of its row's, so those
/// are derived on every query.  Only a member that has lost its content is
/// *materialised* — one `u64` per row, from [`ParityModel::fail`] (all
/// zeros) until a [`ParityModel::rebuild_rows`] that reaches the last row
/// leaves every word equal to the derived one, when the words are dropped.
/// So a healthy array costs one word per data unit, and writes keep only
/// the oracle and the materialised members current.
///
/// Writes update fingerprints at unit granularity (a partial-unit write
/// renews the whole unit's fingerprint) and mirror the array's parity
/// maintenance: live data units store the new fingerprint, the live parity
/// unit stores the XOR of its row's expected data, a degraded unit stores
/// nothing.  [`ParityModel::fail`] zeroes a member (data loss),
/// [`ParityModel::rebuild_rows`] reconstructs by XOR of the survivors —
/// exactly what the device-level rebuild models in time.
#[derive(Clone, Debug)]
pub(crate) struct ParityModel {
    geom: ParityGeometry,
    rows: u64,
    /// `held[device]`: the member's stored words by row, while they can
    /// differ from the derived ones; `None` when they cannot.
    held: Vec<Option<Vec<u64>>>,
    /// `expected[unit]`: the oracle — what a read of the unit must return.
    expected: Vec<u64>,
    /// Monotone write sequence feeding fresh fingerprints.
    seq: u64,
}

/// SplitMix64 finalizer: a cheap, well-mixed fingerprint function.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ParityModel {
    /// A model for `rows` rows of the given geometry, all-zero content.
    pub(crate) fn new(geom: ParityGeometry, rows: u64) -> Self {
        ParityModel {
            geom,
            rows,
            held: vec![None; geom.devices],
            expected: vec![0; (rows * geom.data_units()) as usize],
            seq: 0,
        }
    }

    /// Applies one exported-range write under the given degraded view.
    pub(crate) fn apply_write(&mut self, range: ByteRange, degraded: Option<DegradedView>) {
        let first = range.offset / self.geom.stripe_bytes;
        let last = (range.end() - 1) / self.geom.stripe_bytes;
        for unit in first..=last {
            let row = unit / self.geom.data_units();
            let slot = unit % self.geom.data_units();
            self.seq += 1;
            let word = mix(self.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ unit);
            self.expected[unit as usize] = word;
            let d = self.geom.data_device(row, slot);
            if !degraded.is_some_and(|v| v.is_degraded(d, row)) {
                self.store(d, row, word);
            }
            // Units ascend, so a row's writes are all in once its last
            // slot or the range's last unit is: refresh its parity then
            // (a derived parity unit needs no refresh).
            if slot + 1 == self.geom.data_units() || unit == last {
                let p = self.geom.parity_device(row);
                if self.held[p].is_some() && !degraded.is_some_and(|v| v.is_degraded(p, row)) {
                    self.store(p, row, self.row_parity(row));
                }
            }
        }
    }

    /// Stores `word` in `device`'s unit of `row` if the member is
    /// materialised; a derived member follows `expected` by itself.
    fn store(&mut self, device: usize, row: u64, word: u64) {
        if let Some(words) = &mut self.held[device] {
            words[row as usize] = word;
        }
    }

    /// The XOR of the row's expected data units — what a consistent parity
    /// unit stores.
    fn row_parity(&self, row: u64) -> u64 {
        (0..self.geom.data_units())
            .map(|k| self.expected[self.geom.unit_index(row, k) as usize])
            .fold(0, |acc, w| acc ^ w)
    }

    /// What a consistent array stores in `device`'s unit of `row`: the data
    /// unit's expected word, or the row's parity.
    fn derived(&self, device: usize, row: u64) -> u64 {
        let p = self.geom.parity_device(row);
        if device == p {
            return self.row_parity(row);
        }
        let slot = if device < p { device } else { device - 1 };
        self.expected[self.geom.unit_index(row, slot as u64) as usize]
    }

    /// The word `device` stores for `row`.
    fn stored(&self, device: usize, row: u64) -> u64 {
        match &self.held[device] {
            Some(words) => words[row as usize],
            None => self.derived(device, row),
        }
    }

    /// Member `device` failed: its stored units are gone, so its words are
    /// materialised, all zero.
    pub(crate) fn fail(&mut self, device: usize) {
        self.held[device] = Some(vec![0; self.rows as usize]);
    }

    /// Reconstructs rows `r0..r1` onto `target`, a failed member, by XOR
    /// of the survivors.  A rebuild that reaches the last row drops the
    /// target's words if it left every one equal to the derived word, as a
    /// rebuild from row 0 does.
    pub(crate) fn rebuild_rows(&mut self, target: usize, r0: u64, r1: u64) {
        for row in r0..r1 {
            let acc = (0..self.geom.devices)
                .filter(|&m| m != target)
                .fold(0, |acc, m| acc ^ self.stored(m, row));
            let words = self.held[target]
                .as_mut()
                .expect("only a failed member is rebuilt");
            words[row as usize] = acc;
        }
        if r1 >= self.rows
            && (0..self.rows).all(|row| self.stored(target, row) == self.derived(target, row))
        {
            self.held[target] = None;
        }
    }

    /// The fingerprint a read of the unit containing exported `offset`
    /// returns: the stored data unit, or its XOR reconstruction when the
    /// owning device is degraded.
    pub(crate) fn read_word(&self, offset: u64, degraded: Option<DegradedView>) -> u64 {
        let (row, slot, _) = self.geom.locate(offset);
        let d = self.geom.data_device(row, slot);
        if degraded.is_some_and(|v| v.is_degraded(d, row)) {
            (0..self.geom.devices)
                .filter(|&m| m != d)
                .fold(0, |acc, m| acc ^ self.stored(m, row))
        } else {
            self.stored(d, row)
        }
    }

    /// The oracle fingerprint for the unit containing exported `offset`.
    pub(crate) fn expected_word(&self, offset: u64) -> u64 {
        let (row, slot, _) = self.geom.locate(offset);
        self.expected[self.geom.unit_index(row, slot) as usize]
    }

    /// Recomputes parity across every row and checks every readable unit
    /// against the oracle (degraded units via reconstruction).
    pub(crate) fn scrub(&self, degraded: Option<DegradedView>) -> ScrubReport {
        let mut report = ScrubReport {
            rows: self.rows,
            ..ScrubReport::default()
        };
        for row in 0..self.rows {
            for k in 0..self.geom.data_units() {
                let offset = self.geom.unit_index(row, k) * self.geom.stripe_bytes;
                if self.read_word(offset, degraded) != self.expected_word(offset) {
                    report.data_mismatches += 1;
                }
            }
            let p = self.geom.parity_device(row);
            if !degraded.is_some_and(|v| v.is_degraded(p, row))
                && self.stored(p, row) != self.row_parity(row)
            {
                report.parity_mismatches += 1;
            }
        }
        report
    }

    /// How many members' words are materialised.
    #[cfg(test)]
    pub(crate) fn materialised(&self) -> usize {
        self.held.iter().filter(|words| words.is_some()).count()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> ParityGeometry {
        ParityGeometry {
            devices: 4,
            stripe_bytes: 8,
        }
    }

    #[test]
    fn rotation_places_one_parity_per_row_and_distinct_data_devices() {
        let g = geom();
        for row in 0..12 {
            let p = g.parity_device(row);
            let mut seen = vec![false; g.devices];
            seen[p] = true;
            for k in 0..g.data_units() {
                let d = g.data_device(row, k);
                assert_ne!(d, p, "row {row} slot {k}");
                assert!(!seen[d], "row {row} slot {k} device reused");
                seen[d] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
        // Rotation visits every device as parity across N consecutive rows.
        let parities: Vec<usize> = (0..4).map(|r| g.parity_device(r)).collect();
        let mut sorted = parities.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity_counts_data_units_only() {
        let g = geom();
        assert_eq!(g.exported_capacity(80), 10 * 3 * 8);
        // Partial trailing rows are floored away.
        assert_eq!(g.exported_capacity(83), 10 * 3 * 8);
    }

    #[test]
    fn healthy_reads_route_to_the_owning_data_device() {
        let g = geom();
        // Brute-force: every byte of several ranges lands on exactly the
        // device `locate` names, within one of the planned read windows.
        for &(offset, len) in &[(0u64, 1u64), (5, 30), (24, 24), (70, 50), (8, 16)] {
            let p = plan(&g, None, SubOpKind::Read, ByteRange::new(offset, len));
            assert_eq!(p.degraded_rows, 0);
            assert_eq!(p.reconstruction_read_bytes, 0);
            let total: u64 = p.ops.iter().map(|op| op.range.len).sum();
            assert_eq!(total, len, "o={offset} l={len}");
            for x in offset..offset + len {
                let (row, slot, within) = g.locate(x);
                let d = g.data_device(row, slot);
                let local = row * g.stripe_bytes + within;
                assert!(
                    p.ops.iter().any(|op| op.device == d
                        && op.kind == SubOpKind::Read
                        && local >= op.range.offset
                        && local < op.range.end()),
                    "byte {x} lost"
                );
            }
        }
    }

    #[test]
    fn full_stripe_write_issues_no_reads() {
        let g = geom();
        let p = plan(&g, None, SubOpKind::Write, ByteRange::new(24, 24));
        assert!(p.ops.iter().all(|op| op.kind == SubOpKind::Write));
        assert_eq!(p.ops.len(), 4); // 3 data + 1 parity
        let row = 1;
        for op in &p.ops {
            assert_eq!(op.range, ByteRange::new(row * 8, 8));
        }
    }

    #[test]
    fn small_write_uses_read_modify_write() {
        let g = geom();
        // 4 bytes in one unit: read+write that unit, read+write parity.
        let p = plan(&g, None, SubOpKind::Write, ByteRange::new(2, 4));
        let d = g.data_device(0, 0);
        let parity = g.parity_device(0);
        let reads: Vec<&SubOp> = p.ops.iter().filter(|o| o.kind == SubOpKind::Read).collect();
        let writes: Vec<&SubOp> = p
            .ops
            .iter()
            .filter(|o| o.kind == SubOpKind::Write)
            .collect();
        assert_eq!(reads.len(), 2);
        assert_eq!(writes.len(), 2);
        for set in [&reads, &writes] {
            assert!(set
                .iter()
                .any(|o| o.device == d && o.range == ByteRange::new(2, 4)));
            assert!(set
                .iter()
                .any(|o| o.device == parity && o.range == ByteRange::new(2, 4)));
        }
    }

    #[test]
    fn wide_partial_write_reconstructs_from_untouched_units() {
        let g = geom();
        // Units 0 and 1 of row 0 fully covered (2 of 3 data units): cheaper
        // to read the single untouched unit than two old units + parity.
        let p = plan(&g, None, SubOpKind::Write, ByteRange::new(0, 16));
        let untouched = g.data_device(0, 2);
        let reads: Vec<&SubOp> = p.ops.iter().filter(|o| o.kind == SubOpKind::Read).collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].device, untouched);
        assert_eq!(reads[0].range, ByteRange::new(0, 8));
        // Parity written over the bounding window (both units → full unit).
        assert!(p.ops.iter().any(|o| o.device == g.parity_device(0)
            && o.kind == SubOpKind::Write
            && o.range == ByteRange::new(0, 8)));
    }

    #[test]
    fn degraded_read_fans_to_every_survivor() {
        let g = geom();
        let failed = g.data_device(0, 1);
        let view = DegradedView {
            device: failed,
            rebuilt_rows: 0,
        };
        let p = plan(&g, Some(view), SubOpKind::Read, ByteRange::new(10, 4));
        assert_eq!(p.degraded_rows, 1);
        assert_eq!(p.reconstruction_read_bytes, 4 * 3);
        assert_eq!(p.ops.len(), 3);
        for op in &p.ops {
            assert_ne!(op.device, failed);
            assert_eq!(op.kind, SubOpKind::Read);
            assert_eq!(op.range, ByteRange::new(2, 4));
        }
    }

    #[test]
    fn rebuilt_rows_serve_normally_again() {
        let g = geom();
        let failed = g.data_device(0, 1);
        let view = DegradedView {
            device: failed,
            rebuilt_rows: 1,
        };
        let p = plan(&g, Some(view), SubOpKind::Read, ByteRange::new(10, 4));
        assert_eq!(p.degraded_rows, 0);
        assert_eq!(
            p.ops,
            vec![SubOp {
                device: failed,
                kind: SubOpKind::Read,
                range: ByteRange::new(2, 4),
            }]
        );
    }

    #[test]
    fn degraded_write_on_failed_data_reads_all_survivors_and_rewrites_parity() {
        let g = geom();
        let failed = g.data_device(0, 0);
        let view = DegradedView {
            device: failed,
            rebuilt_rows: 0,
        };
        let p = plan(&g, Some(view), SubOpKind::Write, ByteRange::new(0, 4));
        assert_eq!(p.degraded_rows, 1);
        // Reads on every survivor, full unit.
        let reads: Vec<&SubOp> = p.ops.iter().filter(|o| o.kind == SubOpKind::Read).collect();
        assert_eq!(reads.len(), 3);
        assert!(reads
            .iter()
            .all(|o| o.device != failed && o.range == ByteRange::new(0, 8)));
        // No write to the failed member; parity rewritten whole-unit.
        assert!(p.ops.iter().all(|o| o.device != failed));
        assert!(p.ops.iter().any(|o| o.device == g.parity_device(0)
            && o.kind == SubOpKind::Write
            && o.range == ByteRange::new(0, 8)));
    }

    #[test]
    fn degraded_parity_write_skips_parity_maintenance() {
        let g = geom();
        let parity = g.parity_device(0);
        let view = DegradedView {
            device: parity,
            rebuilt_rows: 0,
        };
        let p = plan(&g, Some(view), SubOpKind::Write, ByteRange::new(2, 4));
        assert!(p.ops.iter().all(|o| o.device != parity));
        assert!(p.ops.iter().all(|o| o.kind == SubOpKind::Write));
        assert_eq!(p.degraded_rows, 0);
    }

    #[test]
    fn free_skips_degraded_units_and_parity() {
        let g = geom();
        let failed = g.data_device(0, 0);
        let view = DegradedView {
            device: failed,
            rebuilt_rows: 0,
        };
        // Free covering only the failed unit plans nothing at all.
        let p = plan(&g, Some(view), SubOpKind::Free, ByteRange::new(0, 8));
        assert!(p.ops.is_empty());
        let healthy = plan(&g, None, SubOpKind::Free, ByteRange::new(0, 24));
        assert_eq!(healthy.ops.len(), 3);
        assert!(healthy
            .ops
            .iter()
            .all(|o| o.kind == SubOpKind::Free && o.device != g.parity_device(0)));
    }

    #[test]
    fn read_specs_match_the_plan() {
        let g = geom();
        let view = DegradedView {
            device: 2,
            rebuilt_rows: 0,
        };
        let range = ByteRange::new(4, 40);
        let p = plan(&g, Some(view), SubOpKind::Write, range);
        for device in 0..g.devices {
            let specs = read_specs(&g, Some(view), SubOpKind::Write, range, device);
            let expect: Vec<ByteRange> = p
                .ops
                .iter()
                .filter(|o| o.device == device && o.kind == SubOpKind::Read)
                .map(|o| o.range)
                .collect();
            assert_eq!(specs, expect, "device {device}");
        }
    }

    /// The allocating coalesce `plan` used before it planned in place.
    fn coalesce_reference(mut raw: Vec<SubOp>) -> Vec<SubOp> {
        raw.sort_by_key(|op| (op.device, op.kind, op.range.offset, op.range.len));
        let mut out: Vec<SubOp> = Vec::with_capacity(raw.len());
        for op in raw {
            if let Some(prev) = out.last_mut() {
                if prev.device == op.device
                    && prev.kind == op.kind
                    && op.range.offset <= prev.range.end()
                {
                    let end = prev.range.end().max(op.range.end());
                    prev.range.len = end - prev.range.offset;
                    continue;
                }
            }
            out.push(op);
        }
        out
    }

    #[test]
    fn in_place_coalesce_equals_the_allocating_one() {
        let mut x = 0xC0A1_E5CEu64;
        let mut next = |below: u64| {
            x = mix(x);
            x % below
        };
        for _ in 0..2_000 {
            // Few devices, kinds and offsets: abutting, overlapping,
            // nested and duplicate windows are the common case.
            let mut ops: Vec<SubOp> = (0..next(12))
                .map(|_| SubOp {
                    device: next(3) as usize,
                    kind: [SubOpKind::Read, SubOpKind::Write, SubOpKind::Free][next(3) as usize],
                    range: ByteRange::new(next(24), 1 + next(8)),
                })
                .collect();
            let expect = coalesce_reference(ops.clone());
            coalesce(&mut ops);
            assert_eq!(ops, expect);
        }
    }

    #[test]
    fn plan_into_a_dirty_buffer_equals_plan() {
        let g = geom();
        let rows = 12;
        let capacity = rows * g.row_bytes();
        // Healthy, every member degraded from row 0, and every member
        // part-way through its rebuild.
        let mut views = vec![None];
        for device in 0..g.devices {
            for rebuilt_rows in [0, 5] {
                views.push(Some(DegradedView {
                    device,
                    rebuilt_rows,
                }));
            }
        }
        // One buffer for the whole test: each plan finds the last one's
        // ops (other devices, other kinds, more of them) still in it.
        let mut ops = vec![
            SubOp {
                device: 9,
                kind: SubOpKind::Free,
                range: ByteRange::new(1, 1),
            };
            40
        ];
        let mut x = 0x0DD5_EED5u64;
        for _ in 0..400 {
            x = mix(x);
            let offset = x % capacity;
            // Within a unit, across units, across rows.
            let len = (1 + mix(x ^ 1) % (3 * g.row_bytes())).min(capacity - offset);
            let range = ByteRange::new(offset, len);
            for &view in &views {
                for cmd in [SubOpKind::Read, SubOpKind::Write, SubOpKind::Free] {
                    let expect = plan(&g, view, cmd, range);
                    let counters = plan_into(&mut ops, &g, view, cmd, range);
                    assert_eq!(ops, expect.ops, "{cmd:?} {range:?} under {view:?}");
                    assert_eq!(
                        counters,
                        (expect.degraded_rows, expect.reconstruction_read_bytes)
                    );
                    // Coalesced and sorted, as documented.
                    assert!(ops.windows(2).all(|w| {
                        let (a, b) = (w[0], w[1]);
                        (a.device, a.kind) < (b.device, b.kind)
                            || (a.device, a.kind) == (b.device, b.kind)
                                && a.range.end() < b.range.offset
                    }));
                }
            }
        }
    }

    #[test]
    fn model_survives_failure_rebuild_and_scrub() {
        let g = geom();
        let rows = 16;
        let mut model = ParityModel::new(g, rows);
        let capacity = rows * g.row_bytes();
        // Seeded churn: overlapping writes across the space.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..200 {
            x = mix(x);
            let offset = x % capacity;
            let len = 1 + mix(x ^ 1) % 64;
            let len = len.min(capacity - offset);
            model.apply_write(ByteRange::new(offset, len), None);
        }
        assert!(model.scrub(None).is_clean());

        // Fail a member: degraded reads still reconstruct the oracle.
        let failed = 1;
        model.fail(failed);
        let view = DegradedView {
            device: failed,
            rebuilt_rows: 0,
        };
        assert!(model.scrub(Some(view)).is_clean());
        for unit in 0..rows * g.data_units() {
            let offset = unit * g.stripe_bytes;
            assert_eq!(
                model.read_word(offset, Some(view)),
                model.expected_word(offset),
                "unit {unit}"
            );
        }

        // Degraded churn keeps the failed member reconstructible.
        for _ in 0..100 {
            x = mix(x);
            let offset = x % capacity;
            let len = 1 + mix(x ^ 2) % 64;
            let len = len.min(capacity - offset);
            model.apply_write(ByteRange::new(offset, len), Some(view));
        }
        assert!(model.scrub(Some(view)).is_clean());

        // Rebuild restores the member bit-identically.
        model.rebuild_rows(failed, 0, rows);
        assert!(model.scrub(None).is_clean());
    }

    #[test]
    fn coalesce_unions_overlapping_reads() {
        let ops = vec![
            SubOp {
                device: 0,
                kind: SubOpKind::Read,
                range: ByteRange::new(4, 8),
            },
            SubOp {
                device: 0,
                kind: SubOpKind::Read,
                range: ByteRange::new(0, 6),
            },
            SubOp {
                device: 0,
                kind: SubOpKind::Write,
                range: ByteRange::new(0, 4),
            },
        ];
        let mut merged = ops;
        coalesce(&mut merged);
        assert_eq!(
            merged,
            vec![
                SubOp {
                    device: 0,
                    kind: SubOpKind::Read,
                    range: ByteRange::new(0, 12),
                },
                SubOp {
                    device: 0,
                    kind: SubOpKind::Write,
                    range: ByteRange::new(0, 4),
                },
            ]
        );
    }
}
