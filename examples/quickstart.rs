//! Quickstart: build a simulated SSD and a disk, run the same workload on
//! both, and print the sequential-vs-random gap the paper's Table 2 is
//! about.
//!
//! Run with: `cargo run --release --example quickstart`

use ossd::block::{replay_closed, BlockDevice, BlockRequest};
use ossd::hdd::Hdd;
use ossd::sim::SimTime;
use ossd::ssd::{DeviceProfile, Ssd};

fn sequential_reads(count: u64, size: u64) -> Vec<BlockRequest> {
    (0..count)
        .map(|i| BlockRequest::read(i, i * size, size, SimTime::ZERO))
        .collect()
}

fn random_reads(count: u64, size: u64, span: u64) -> Vec<BlockRequest> {
    (0..count)
        .map(|i| {
            let offset = ((i * 2_654_435_761) % (span / size)) * size;
            BlockRequest::read(i, offset, size, SimTime::ZERO)
        })
        .collect()
}

fn prefill<D: BlockDevice>(device: &mut D, span: u64) {
    let reqs: Vec<BlockRequest> = (0..span / (64 * 1024))
        .map(|i| BlockRequest::write(i, i * 64 * 1024, 64 * 1024, SimTime::ZERO))
        .collect();
    replay_closed(device, &reqs).expect("prefill");
}

fn main() {
    let span: u64 = 16 * 1024 * 1024;
    let ops = span / 4096;

    // A conventional 7200 RPM disk.
    let mut hdd = Hdd::barracuda_7200();
    prefill(&mut hdd, span);
    let hdd_seq = replay_closed(&mut hdd, &sequential_reads(ops, 4096))
        .unwrap()
        .read_bandwidth_mbps();
    let hdd_rand = replay_closed(&mut hdd, &random_reads(ops, 4096, span))
        .unwrap()
        .read_bandwidth_mbps();

    // The paper's simulated page-mapped SSD.
    let mut ssd = Ssd::new(DeviceProfile::S4SlcSim.config()).expect("valid profile");
    prefill(&mut ssd, span);
    let ssd_seq = replay_closed(&mut ssd, &sequential_reads(ops, 4096))
        .unwrap()
        .read_bandwidth_mbps();
    let ssd_rand = replay_closed(&mut ssd, &random_reads(ops, 4096, span))
        .unwrap()
        .read_bandwidth_mbps();

    println!("4 KB read bandwidth (closed loop):");
    println!(
        "  {:<12} sequential {:7.1} MB/s   random {:6.2} MB/s   ratio {:6.1}x",
        "HDD",
        hdd_seq,
        hdd_rand,
        hdd_seq / hdd_rand
    );
    println!(
        "  {:<12} sequential {:7.1} MB/s   random {:6.2} MB/s   ratio {:6.1}x",
        "SSD (sim)",
        ssd_seq,
        ssd_rand,
        ssd_seq / ssd_rand
    );
    println!();
    println!(
        "The disk obeys the unwritten contract (sequential >> random); the \
         log-structured SSD does not — which is the paper's starting point."
    );
}
