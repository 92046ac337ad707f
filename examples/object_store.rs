//! Object-based storage on an SSD: create objects, let the device place
//! them, and watch deletion feed informed cleaning (§3.7 of the paper).
//! Objects are managed through the store's typed API; every read, write
//! and free it issues crosses the SSD's queue-pair command protocol.
//!
//! Run with: `cargo run --release --example object_store`

use ossd::block::StreamTemperature;
use ossd::core::{ObjectAttrs, OsdDevice};
use ossd::sim::SimTime;
use ossd::ssd::SsdConfig;

fn main() {
    let mut config = SsdConfig::tiny_page_mapped();
    // A slightly larger device than the unit-test default.
    config.geometry.blocks_per_plane = 64;
    config.geometry.packages = 4;
    let mut store = OsdDevice::new(config).expect("valid configuration");

    println!(
        "object store capacity: {} KB",
        store.capacity_bytes() / 1024
    );

    // Create a mix of objects: a high-priority database-like object, a
    // cold read-only archive, and a set of ordinary files.
    let db = store.create_object(ObjectAttrs::high_priority());
    store.write(db, 0, 64 * 1024, SimTime::ZERO).unwrap();

    let archive = store.create_object(ObjectAttrs::default());
    store.write(archive, 0, 128 * 1024, store.now()).unwrap();
    store
        .set_attributes(archive, ObjectAttrs::cold_read_only())
        .unwrap();

    let mut files = Vec::new();
    for _ in 0..16 {
        let f = store.create_object(ObjectAttrs::default());
        store.write(f, 0, 16 * 1024, store.now()).unwrap();
        files.push(f);
    }
    println!(
        "created {} objects, {} KB allocated by the device",
        store.object_count(),
        store.used_bytes() / 1024
    );

    // Read the database object back with its high priority attached.
    let read = store.read(db, 0, 16 * 1024, store.now()).unwrap();
    println!("high-priority read finished after {}", read.response_time());

    // Delete half of the files: the device learns immediately that those
    // pages are dead (no TRIM command needed) and cleaning will skip them.
    for f in files.iter().step_by(2) {
        store.delete_object(*f, store.now()).unwrap();
    }
    let stats = store.device_stats();
    println!(
        "after deleting {} objects: {} free notifications reached the FTL, \
         {} KB still allocated",
        files.len() / 2,
        stats.ftl.frees_accepted,
        store.used_bytes() / 1024
    );
    println!(
        "write amplification so far: {:.2}",
        stats.write_amplification()
    );

    // A hot scratch object: its temperature rides along as a write hint
    // on every write command that crosses the queue pair.
    let scratch = store.create_object(ObjectAttrs {
        temperature: StreamTemperature::Hot,
        ..ObjectAttrs::default()
    });
    store.write(scratch, 0, 32 * 1024, store.now()).unwrap();
    store.delete_object(scratch, store.now()).unwrap();
    let stats = store.device_stats();
    println!(
        "after the command-driven scratch object: {} hot-hinted writes \
         crossed the queue pair",
        stats.hinted_hot_writes
    );
}
