//! The content model as it was when it stored every member's words: one
//! `u64` per unit per device, written on every write whether or not it
//! could differ from what a consistent array holds.  Kept as the reference
//! [`ParityModel`] is differentially tested against: seeded streams of
//! writes, a failure, writes while degraded, a rebuild in stripe-aligned
//! chunks from the watermark and a second failure are applied to both,
//! and every unit's read and expected word, and the scrub, must agree
//! after every step.

use super::*;
use ossd_sim::SimRng;

/// Fleet-level shadow content: one `u64` fingerprint per stored unit per
/// device, plus the oracle of what every exported unit should read as.
#[derive(Clone, Debug)]
struct DenseModel {
    geom: ParityGeometry,
    rows: u64,
    /// `stored[device][row]`: fingerprint of the unit the device holds.
    stored: Vec<Vec<u64>>,
    /// `expected[unit]`: the oracle — what a read of the unit must return.
    expected: Vec<u64>,
    /// Monotone write sequence feeding fresh fingerprints.
    seq: u64,
}

impl DenseModel {
    /// A model for `rows` rows of the given geometry, all-zero content.
    fn new(geom: ParityGeometry, rows: u64) -> Self {
        DenseModel {
            geom,
            rows,
            stored: vec![vec![0; rows as usize]; geom.devices],
            expected: vec![0; (rows * geom.data_units()) as usize],
            seq: 0,
        }
    }

    /// Applies one exported-range write under the given degraded view.
    fn apply_write(&mut self, range: ByteRange, degraded: Option<DegradedView>) {
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
                self.stored[d][row as usize] = word;
            }
            // Units ascend, so a row's writes are all in once its last
            // slot or the range's last unit is: refresh its parity then.
            if slot + 1 == self.geom.data_units() || unit == last {
                let p = self.geom.parity_device(row);
                if !degraded.is_some_and(|v| v.is_degraded(p, row)) {
                    self.stored[p][row as usize] = self.row_parity(row);
                }
            }
        }
    }

    /// The XOR of the row's expected data units — what a consistent parity
    /// unit stores.
    fn row_parity(&self, row: u64) -> u64 {
        (0..self.geom.data_units())
            .map(|k| self.expected[self.geom.unit_index(row, k) as usize])
            .fold(0, |acc, w| acc ^ w)
    }

    /// Member `device` failed: its stored units are gone.
    fn fail(&mut self, device: usize) {
        self.stored[device].fill(0);
    }

    /// Reconstructs rows `r0..r1` onto `target` by XOR of the survivors.
    fn rebuild_rows(&mut self, target: usize, r0: u64, r1: u64) {
        for row in r0..r1 {
            let mut acc = 0;
            for (device, units) in self.stored.iter().enumerate() {
                if device != target {
                    acc ^= units[row as usize];
                }
            }
            self.stored[target][row as usize] = acc;
        }
    }

    /// The fingerprint a read of the unit containing exported `offset`
    /// returns: the stored data unit, or its XOR reconstruction when the
    /// owning device is degraded.
    fn read_word(&self, offset: u64, degraded: Option<DegradedView>) -> u64 {
        let (row, slot, _) = self.geom.locate(offset);
        let d = self.geom.data_device(row, slot);
        if degraded.is_some_and(|v| v.is_degraded(d, row)) {
            self.stored
                .iter()
                .enumerate()
                .filter(|&(m, _)| m != d)
                .map(|(_, units)| units[row as usize])
                .fold(0, |acc, w| acc ^ w)
        } else {
            self.stored[d][row as usize]
        }
    }

    /// The oracle fingerprint for the unit containing exported `offset`.
    fn expected_word(&self, offset: u64) -> u64 {
        let (row, slot, _) = self.geom.locate(offset);
        self.expected[self.geom.unit_index(row, slot) as usize]
    }

    /// Recomputes parity across every row and checks every readable unit
    /// against the oracle (degraded units via reconstruction).
    fn scrub(&self, degraded: Option<DegradedView>) -> ScrubReport {
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
                && self.stored[p][row as usize] != self.row_parity(row)
            {
                report.parity_mismatches += 1;
            }
        }
        report
    }
}

/// How often each case of the streams was reached.
#[derive(Debug, Default)]
struct Coverage {
    unit_writes: u64,
    multi_row_writes: u64,
    partial_row_writes: u64,
    full_row_writes: u64,
    degraded_writes: u64,
    rebuild_chunks: u64,
    completed_rebuilds: u64,
    second_failures: u64,
}

/// A write of one of the stream's shapes, inside the exported space.
fn write_range(
    rng: &mut SimRng,
    geom: &ParityGeometry,
    rows: u64,
    coverage: &mut Coverage,
) -> ByteRange {
    let s = geom.stripe_bytes;
    let row_bytes = geom.row_bytes();
    let capacity = rows * row_bytes;
    let range = match rng.next_u64_below(4) {
        // Within one unit, often a part of it.
        0 => {
            let unit = rng.next_u64_below(rows * geom.data_units());
            let a = rng.next_u64_below(s);
            let len = 1 + rng.next_u64_below(s - a);
            coverage.unit_writes += 1;
            ByteRange::new(unit * s + a, len)
        }
        // Across rows, from anywhere.
        1 => {
            let offset = rng.next_u64_below(capacity);
            let len = rng.uniform_u64(row_bytes + 1, 3 * row_bytes + 1);
            coverage.multi_row_writes += 1;
            ByteRange::new(offset, len.min(capacity - offset))
        }
        // Part of one row, spanning units or not.
        2 => {
            let row = rng.next_u64_below(rows);
            let a = rng.next_u64_below(row_bytes);
            let len = 1 + rng.next_u64_below(row_bytes - a);
            if len < row_bytes {
                coverage.partial_row_writes += 1;
            }
            ByteRange::new(row * row_bytes + a, len)
        }
        // Whole rows.
        _ => {
            let row = rng.next_u64_below(rows);
            let n = 1 + rng.next_u64_below(3.min(rows - row));
            coverage.full_row_writes += 1;
            ByteRange::new(row * row_bytes, n * row_bytes)
        }
    };
    assert!(range.len > 0 && range.end() <= capacity);
    range
}

/// Asserts the model under test answers every query as the reference does.
fn assert_same(
    model: &ParityModel,
    reference: &DenseModel,
    view: Option<DegradedView>,
    what: &str,
) {
    let geom = reference.geom;
    for unit in 0..reference.rows * geom.data_units() {
        let offset = unit * geom.stripe_bytes + unit % geom.stripe_bytes;
        assert_eq!(
            model.read_word(offset, view),
            reference.read_word(offset, view),
            "{what}: read of unit {unit} under {view:?}"
        );
        assert_eq!(
            model.expected_word(offset),
            reference.expected_word(offset),
            "{what}: expected word of unit {unit}"
        );
    }
    let scrub = reference.scrub(view);
    assert_eq!(model.scrub(view), scrub, "{what}: scrub under {view:?}");
    // Every step keeps the array consistent.
    assert!(scrub.is_clean(), "{what}: {scrub:?}");
}

/// Drives one seeded stream through both models, comparing after every
/// step: writes of every shape, failures of a healthy array, and rebuild
/// chunks of random length from the watermark while degraded.
fn stream(seed: u64, coverage: &mut Coverage) {
    let mut rng = SimRng::seed_from_u64(0x9A21_7700 + seed);
    let geom = ParityGeometry {
        devices: 3 + rng.next_usize_below(3),
        stripe_bytes: [1, 4, 8][rng.next_usize_below(3)],
    };
    let rows = 1 + rng.next_u64_below(24);
    let mut model = ParityModel::new(geom, rows);
    let mut reference = DenseModel::new(geom, rows);
    let mut view: Option<DegradedView> = None;
    let mut rebuilt_once = false;
    for step in 0..40 + rng.next_u64_below(120) {
        let what = format!("seed {seed} ({geom:?}, {rows} rows) step {step}");
        match (view, rng.next_u64_below(10)) {
            (None, 0) => {
                let device = rng.next_usize_below(geom.devices);
                model.fail(device);
                reference.fail(device);
                view = Some(DegradedView {
                    device,
                    rebuilt_rows: 0,
                });
                coverage.second_failures += rebuilt_once as u64;
            }
            (Some(v), 0..=3) => {
                let r0 = v.rebuilt_rows;
                let r1 = (r0 + 1 + rng.next_u64_below(4)).min(rows);
                model.rebuild_rows(v.device, r0, r1);
                reference.rebuild_rows(v.device, r0, r1);
                coverage.rebuild_chunks += 1;
                view = if r1 >= rows {
                    coverage.completed_rebuilds += 1;
                    rebuilt_once = true;
                    None
                } else {
                    Some(DegradedView {
                        device: v.device,
                        rebuilt_rows: r1,
                    })
                };
            }
            _ => {
                let range = write_range(&mut rng, &geom, rows, coverage);
                model.apply_write(range, view);
                reference.apply_write(range, view);
                coverage.degraded_writes += view.is_some() as u64;
            }
        }
        assert_same(&model, &reference, view, &what);
    }
}

fn differential(seeds: std::ops::Range<u64>) {
    let mut coverage = Coverage::default();
    for seed in seeds {
        stream(seed, &mut coverage);
    }
    let Coverage {
        unit_writes,
        multi_row_writes,
        partial_row_writes,
        full_row_writes,
        degraded_writes,
        rebuild_chunks,
        completed_rebuilds,
        second_failures,
    } = coverage;
    assert!(
        [
            unit_writes,
            multi_row_writes,
            partial_row_writes,
            full_row_writes,
            degraded_writes,
            rebuild_chunks,
            completed_rebuilds,
            second_failures,
        ]
        .iter()
        .all(|&count| count > 0),
        "a case went unexercised: {coverage:?}"
    );
}

#[test]
fn model_matches_the_dense_reference() {
    differential(0..200);
}

#[test]
#[ignore = "long form (4,000 streams); CI runs it in release with --ignored"]
fn model_matches_the_dense_reference_long() {
    differential(200..4_200);
}
