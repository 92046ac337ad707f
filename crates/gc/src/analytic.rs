//! The analytical write-amplification baseline.
//!
//! For greedy cleaning under uniform random writes (Desnoyers, *Analytic
//! Modeling of SSD Write Performance*; Dayan et al., *Modelling and
//! Managing SSD Write-amplification*) the closed form is
//! [`analytic_greedy_wa`], so measured curves can be validated against
//! theory.  Measured write amplification is `FtlStats::write_amplification`
//! in `ossd-ftl`.

/// The analytical write amplification of greedy cleaning under uniform
/// random writes at device utilization `u` (live fraction of physical
/// space): `WA ≈ 1 / (2 · (1 − u))`.
///
/// This is the standard closed-form approximation from the write-
/// amplification modelling literature (Desnoyers '12; Dayan et al. '15
/// use a refinement with the same asymptotics).  It is exact in the limit
/// of large blocks and steady state; at moderate utilizations the measured
/// value sits within a few tens of percent, which is what experiment
/// validation checks.
pub fn analytic_greedy_wa(utilization: f64) -> f64 {
    if utilization <= 0.0 {
        return 1.0;
    }
    let u = utilization.min(0.999);
    (1.0 / (2.0 * (1.0 - u))).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_curve_shape() {
        // WA grows monotonically with utilization and matches the closed
        // form at spot values.
        assert_eq!(analytic_greedy_wa(0.0), 1.0);
        assert!((analytic_greedy_wa(0.8) - 2.5).abs() < 1e-12);
        assert!((analytic_greedy_wa(0.9) - 5.0).abs() < 1e-12);
        assert!(analytic_greedy_wa(0.95) > analytic_greedy_wa(0.9));
        // Low utilization floors at 1 (a write is at least itself).
        assert_eq!(analytic_greedy_wa(0.3), 1.0);
    }
}
