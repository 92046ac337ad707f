//! Address routing: mapping the fleet's exported byte space onto member
//! devices.
//!
//! Striping uses the usual RAID-0 arithmetic.  Stripe `s` of the exported
//! space lives on device `s % devices` at device-local stripe slot
//! `s / devices`.  A key property this module relies on (and tests): the
//! restriction of a contiguous exported byte range to any one device is
//! itself contiguous in that device's local space, because the stripes a
//! device owns occupy consecutive local slots and only the range's first
//! and last stripes can be partial.  Fan-out therefore produces **at most
//! one sub-range per device per command**, which keeps the sub-command
//! id space simple (one sub-command per (command, device) pair).

use ossd_block::ByteRange;

/// One device's share of an exported byte range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceSlice {
    /// Member device index.
    pub device: usize,
    /// Device-local byte range.
    pub range: ByteRange,
}

/// Splits an exported byte range across `devices` striped devices with the
/// given stripe unit.  Returns the per-device slices in ascending device
/// order; devices the range does not touch are absent.
///
/// The union of the returned slices covers exactly `range.len` bytes.
pub fn split_striped(range: ByteRange, devices: usize, stripe_bytes: u64) -> Vec<DeviceSlice> {
    striped_slices(range, devices, stripe_bytes).collect()
}

/// The slices of [`split_striped`], yielded one by one (the fleet's
/// fan-out routes each straight into its device's queue).
pub(crate) fn striped_slices(
    range: ByteRange,
    devices: usize,
    stripe_bytes: u64,
) -> impl Iterator<Item = DeviceSlice> {
    assert!(devices > 0 && stripe_bytes > 0 && range.len > 0);
    let d = devices as u64;
    let s = stripe_bytes;
    let first_stripe = range.offset / s;
    let last_stripe = (range.end() - 1) / s;
    (0..devices).filter_map(move |device| {
        let dev = device as u64;
        // First and last stripes of the range owned by this device.
        let first = first_stripe + (dev + d - first_stripe % d) % d;
        if first > last_stripe {
            return None;
        }
        let last = last_stripe - (last_stripe + d - dev) % d;
        debug_assert!(last >= first_stripe && last % d == dev);
        // Local addresses: stripe `s` sits at local slot `s / d`.  Only the
        // range's first and last stripes can be partial; everything between
        // is full, so the local image is one contiguous run.
        let lo = (first / d) * s
            + if first == first_stripe {
                range.offset % s
            } else {
                0
            };
        let hi = (last / d) * s
            + if last == last_stripe {
                (range.end() - 1) % s + 1
            } else {
                s
            };
        Some(DeviceSlice {
            device,
            range: ByteRange::new(lo, hi - lo),
        })
    })
}

/// The stripe-aligned capacity each member device contributes to a striped
/// fleet: full stripe slots only, so every exported stripe maps inside the
/// device.
pub fn striped_device_slots(device_capacity: u64, stripe_bytes: u64) -> u64 {
    device_capacity / stripe_bytes
}

/// Exported capacity of a striped fleet.
pub fn striped_capacity(device_capacity: u64, devices: usize, stripe_bytes: u64) -> u64 {
    striped_device_slots(device_capacity, stripe_bytes) * stripe_bytes * devices as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_len(slices: &[DeviceSlice]) -> u64 {
        slices.iter().map(|s| s.range.len).sum()
    }

    #[test]
    fn single_stripe_range_hits_one_device() {
        let slices = split_striped(ByteRange::new(8192 * 3 + 100, 200), 4, 8192);
        assert_eq!(
            slices,
            vec![DeviceSlice {
                device: 3,
                range: ByteRange::new(100, 200),
            }]
        );
    }

    #[test]
    fn partial_head_and_tail_stay_contiguous_per_device() {
        // Stripe 8 bytes, 2 devices, range bytes 4..24 (stripes 0,1,2).
        let slices = split_striped(ByteRange::new(4, 20), 2, 8);
        assert_eq!(
            slices,
            vec![
                DeviceSlice {
                    device: 0,
                    // Stripe 0 tail (local 4..8) + stripe 2 (local 8..16).
                    range: ByteRange::new(4, 12),
                },
                DeviceSlice {
                    device: 1,
                    // Stripe 1 in full at local slot 0.
                    range: ByteRange::new(0, 8),
                },
            ]
        );
        assert_eq!(total_len(&slices), 20);
    }

    #[test]
    fn full_device_sweep_covers_every_device_equally() {
        let devices = 4;
        let stripe = 4096;
        let len = stripe * devices as u64 * 8;
        let slices = split_striped(ByteRange::new(0, len), devices, stripe);
        assert_eq!(slices.len(), devices);
        for (d, slice) in slices.iter().enumerate() {
            assert_eq!(slice.device, d);
            assert_eq!(slice.range, ByteRange::new(0, stripe * 8));
        }
    }

    #[test]
    fn split_conserves_bytes_across_many_shapes() {
        // Brute-force cross-check against a byte-by-byte reference map.
        for devices in 1..=4usize {
            for &(offset, len) in &[
                (0u64, 1u64),
                (7, 9),
                (8, 8),
                (15, 2),
                (0, 64),
                (3, 61),
                (30, 11),
            ] {
                let stripe = 8;
                let slices = split_striped(ByteRange::new(offset, len), devices, stripe);
                assert_eq!(total_len(&slices), len, "d={devices} o={offset} l={len}");
                // Reference: walk every byte, count per device and check the
                // byte falls inside the reported local range.
                let mut counts = vec![0u64; devices];
                for x in offset..offset + len {
                    let s = x / stripe;
                    let dev = (s % devices as u64) as usize;
                    let local = (s / devices as u64) * stripe + x % stripe;
                    counts[dev] += 1;
                    let slice = slices
                        .iter()
                        .find(|sl| sl.device == dev)
                        .unwrap_or_else(|| panic!("byte {x} lost (device {dev})"));
                    assert!(
                        local >= slice.range.offset && local < slice.range.end(),
                        "byte {x} maps to local {local} outside {:?}",
                        slice.range
                    );
                }
                for slice in &slices {
                    assert_eq!(counts[slice.device], slice.range.len);
                }
            }
        }
    }

    #[test]
    fn striped_capacity_floors_to_whole_stripes() {
        assert_eq!(striped_capacity(100, 3, 8), 12 * 8 * 3);
        assert_eq!(striped_capacity(64, 2, 8), 64 * 2);
    }
}
