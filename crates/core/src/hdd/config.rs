//! Disk model parameters.

use ossd_sim::SimDuration;

/// Parameters of the analytic disk model.
///
/// Defaults approximate a 7200 RPM desktop drive of the paper's era
/// (Seagate Barracuda 7200.11 class): ~8.5 ms average seek, ~120 MB/s outer
/// and ~60 MB/s inner media rate.
#[derive(Clone, Debug, PartialEq)]
pub struct HddConfig {
    /// Device name used in reports.
    pub name: String,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Single-track (minimum) seek time.
    pub track_to_track_seek: SimDuration,
    /// Full-stroke (maximum) seek time.
    pub full_stroke_seek: SimDuration,
    /// Media transfer rate at the outermost zone, bytes per second.
    pub outer_zone_bytes_per_sec: u64,
    /// Media transfer rate at the innermost zone, bytes per second.
    pub inner_zone_bytes_per_sec: u64,
    /// Fixed command processing overhead per request.
    pub command_overhead: SimDuration,
    /// Whether the drive has a write-back cache that absorbs small writes
    /// (completes them at interface speed and destages lazily).
    pub write_cache: bool,
    /// Interface (SATA) bandwidth in bytes per second, used for cache hits.
    pub interface_bytes_per_sec: u64,
    /// Seed for the rotational-position randomness, so runs are reproducible.
    pub seed: u64,
}

impl Default for HddConfig {
    fn default() -> Self {
        HddConfig {
            name: "HDD-7200rpm".to_string(),
            capacity_bytes: 500 * 1_000_000_000,
            rpm: 7200,
            track_to_track_seek: SimDuration::from_micros(800),
            full_stroke_seek: SimDuration::from_millis(18),
            outer_zone_bytes_per_sec: 120_000_000,
            inner_zone_bytes_per_sec: 60_000_000,
            command_overhead: SimDuration::from_micros(100),
            write_cache: true,
            interface_bytes_per_sec: 300_000_000,
            seed: 0x5EEDBA5E,
        }
    }
}

impl HddConfig {
    /// The configuration used for the paper's Table 2 comparison.
    pub fn barracuda_7200() -> Self {
        HddConfig::default()
    }

    /// Full revolution time.
    pub(crate) fn rotation_time(&self) -> SimDuration {
        if self.rpm == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(60.0 / self.rpm as f64)
    }

    /// Media rate at a given byte offset: interpolates linearly from the
    /// outer (fast) zone at offset 0 to the inner (slow) zone at the end of
    /// the device, modelling zoned recording (§3.3).
    pub(crate) fn media_rate_at(&self, offset: u64) -> u64 {
        if self.capacity_bytes == 0 {
            return self.outer_zone_bytes_per_sec;
        }
        let frac = (offset.min(self.capacity_bytes)) as f64 / self.capacity_bytes as f64;
        let outer = self.outer_zone_bytes_per_sec as f64;
        let inner = self.inner_zone_bytes_per_sec as f64;
        (outer + (inner - outer) * frac) as u64
    }

    /// Seek time for a given seek distance, expressed as a fraction of the
    /// full stroke.  Uses the standard square-root-of-distance model with a
    /// minimum of the track-to-track time; zero distance means no seek.
    pub(crate) fn seek_time(&self, distance_fraction: f64) -> SimDuration {
        if distance_fraction <= 0.0 {
            return SimDuration::ZERO;
        }
        let d = distance_fraction.min(1.0);
        let min = self.track_to_track_seek.as_secs_f64();
        let max = self.full_stroke_seek.as_secs_f64();
        SimDuration::from_secs_f64(min + (max - min) * d.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_times() {
        let c = HddConfig::default();
        assert!((c.rotation_time().as_millis_f64() - 8.333).abs() < 0.01);
        let zero = HddConfig {
            rpm: 0,
            ..HddConfig::default()
        };
        assert_eq!(zero.rotation_time(), SimDuration::ZERO);
    }

    #[test]
    fn zoned_media_rate_decreases_inward() {
        let c = HddConfig::default();
        let outer = c.media_rate_at(0);
        let middle = c.media_rate_at(c.capacity_bytes / 2);
        let inner = c.media_rate_at(c.capacity_bytes);
        assert_eq!(outer, 120_000_000);
        assert_eq!(inner, 60_000_000);
        assert!(outer > middle && middle > inner);
        // Beyond-capacity offsets clamp instead of extrapolating.
        assert_eq!(c.media_rate_at(c.capacity_bytes * 2), inner);
    }

    #[test]
    fn seek_curve_is_monotone_and_bounded() {
        let c = HddConfig::default();
        assert_eq!(c.seek_time(0.0), SimDuration::ZERO);
        let short = c.seek_time(0.001);
        let medium = c.seek_time(0.25);
        let full = c.seek_time(1.0);
        assert!(short >= c.track_to_track_seek);
        assert!(short < medium && medium < full);
        assert!(full <= c.full_stroke_seek);
        // Average-ish seek (quarter stroke) lands in a plausible range.
        let ms = medium.as_millis_f64();
        assert!(ms > 4.0 && ms < 14.0, "quarter-stroke seek {ms} ms");
        // Distances beyond 1.0 are clamped.
        assert_eq!(c.seek_time(5.0), full);
    }
}
