//! Prints `<file> <length> <FNV-1a 64 hex>` for each file argument, the
//! artifact lines of `tests/golden/*_artifacts.txt`.  `scripts/bless.sh`
//! compiles it with `rustc`; `tests/ossd_exp_golden.rs` hashes the same way.

fn main() {
    for path in std::env::args().skip(1) {
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let hash = (bytes.iter()).fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        println!("{path} {} {hash:016x}", bytes.len());
    }
}
