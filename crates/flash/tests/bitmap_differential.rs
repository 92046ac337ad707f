//! Seeded differential of the bitmap-backed block state against a naive
//! model that stores a `PageState` per page.
//!
//! The array keeps no page states: a page is free past its block's write
//! pointer, valid or stale by one bit of a per-element bitmap.  The model
//! here keeps what the array used to — a `Vec<PageState>` per block — and
//! predicts every result: returned pages, every [`BlockStateChange`], every
//! error.  With the fault model on, which programs and erases fail is the
//! array's to draw; the model checks the outcome is a legal one and follows
//! it.  Block sizes put a page on either side of every word boundary.

use std::ops::Range;

use ossd_flash::{
    BlockStateChange, ElementId, FaultConfig, FlashArray, FlashError, FlashGeometry, FlashTiming,
    PageState, PhysPageAddr, ReliabilityConfig,
};

const PAGES_PER_BLOCK: [u32; 7] = [1, 7, 63, 64, 65, 128, 256];
const BLOCKS: u32 = 4;
const E: ElementId = ElementId(0);

/// xorshift64*.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u32) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        ((self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % bound as u64) as u32
    }
}

#[derive(Clone)]
struct ModelBlock {
    states: Vec<PageState>,
    bad: bool,
    erases: u32,
    reads: u64,
}

impl ModelBlock {
    fn count(&self, state: PageState) -> u32 {
        self.states.iter().filter(|&&s| s == state).count() as u32
    }

    fn write_ptr(&self) -> u32 {
        self.states.len() as u32 - self.count(PageState::Free)
    }

    fn room_for(&self, block: u32, n: u32) -> Result<(), FlashError> {
        if self.bad {
            return Err(FlashError::BadBlock { element: 0, block });
        }
        if n > self.count(PageState::Free) {
            return Err(FlashError::BlockFull { element: 0, block });
        }
        Ok(())
    }

    fn erase_check(&self, block: u32) -> Result<(), FlashError> {
        match self.count(PageState::Valid) {
            0 => Ok(()),
            valid => Err(FlashError::EraseWithValidPages {
                element: 0,
                block,
                valid,
            }),
        }
    }
}

fn page_out_of_range(index: u32, bound: u32) -> FlashError {
    FlashError::OutOfRange {
        what: "page",
        index: index as u64,
        bound: bound as u64,
    }
}

fn assert_block_matches(array: &FlashArray, model: &[ModelBlock], block: u32, at: &str) {
    let element = array.element(E).unwrap();
    let (real, expected) = (element.block(block).unwrap(), &model[block as usize]);
    for (page, &state) in expected.states.iter().enumerate() {
        let got = element.page_state(block, page as u32).unwrap();
        assert_eq!(got, state, "{at}: page {page} of block {block}");
    }
    assert_eq!(real.valid_count(), expected.count(PageState::Valid), "{at}");
    assert_eq!(
        real.invalid_count(),
        expected.count(PageState::Invalid),
        "{at}"
    );
    assert_eq!(real.free_count(), expected.count(PageState::Free), "{at}");
    assert_eq!(real.write_ptr(), expected.write_ptr(), "{at}");
    assert_eq!(
        (real.is_bad(), real.erase_count(), real.reads_since_erase()),
        (expected.bad, expected.erases, expected.reads),
        "{at}: block {block}"
    );
}

/// Drives one stream; returns `[program failures, erase failures, erases,
/// spans that crossed a word boundary]`.
fn drive_stream(seed: u64, ops: u32) -> [u64; 4] {
    let pages = PAGES_PER_BLOCK[(seed % 7) as usize];
    let faulty = seed / 7 % 2 == 1;
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let geometry = FlashGeometry {
        packages: 1,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane: BLOCKS,
        pages_per_block: pages,
        page_bytes: 4096,
    };
    let mut reliability = ReliabilityConfig::none();
    if faulty {
        reliability.faults = FaultConfig {
            seed,
            program_fail_base: 0.05,
            erase_fail_base: 0.03,
            ..FaultConfig::none()
        };
    }
    let mut array =
        FlashArray::with_reliability(geometry, FlashTiming::slc(), reliability).unwrap();
    let mut model = vec![
        ModelBlock {
            states: vec![PageState::Free; pages as usize],
            bad: false,
            erases: 0,
            reads: 0,
        };
        BLOCKS as usize
    ];
    let [mut program_fails, mut erase_fails, mut erases, mut crossings] = [0u64; 4];
    for step in 0..ops {
        let block = rng.below(BLOCKS);
        let at = format!("stream {seed} ({pages} pages, faults {faulty}) step {step}");
        let m = &mut model[block as usize];
        let write_ptr = m.write_ptr();
        // A page that is mostly a consumed one, sometimes free, rarely past
        // the block.
        let page = match rng.below(10) {
            0 => rng.below(pages + 2),
            _ => rng.below(write_ptr.max(1)),
        };
        let addr = addr_of(block, page);
        match rng.below(100) {
            0..=34 => {
                let free = pages - write_ptr;
                let n = match rng.below(8) {
                    0 => rng.below(pages + 2),
                    _ => 1 + rng.below(free.clamp(1, 70)),
                };
                let got = array.program_run(E, block, n);
                match m.room_for(block, n) {
                    Err(e) => assert_eq!(got, Err(e), "{at}: program_run({n})"),
                    Ok(()) => {
                        let landed = got.unwrap();
                        assert_eq!(landed.start, write_ptr, "{at}");
                        assert!(landed.len() as u32 <= n, "{at}");
                        assert!(faulty || landed.len() as u32 == n, "{at}: no fault model");
                        m.states[landed.start as usize..landed.end as usize].fill(PageState::Valid);
                        if (landed.len() as u32) < n {
                            m.states[landed.end as usize] = PageState::Invalid;
                            program_fails += 1;
                        }
                    }
                }
            }
            35..=39 => {
                let expected = m.room_for(block, 1).map(|()| addr_of(block, write_ptr));
                assert_eq!(array.skip_page(E, block), expected, "{at}: skip_page");
                if expected.is_ok() {
                    m.states[write_ptr as usize] = PageState::Invalid;
                }
            }
            40..=59 => {
                let expected = match m.states.get(page as usize) {
                    None => Err(page_out_of_range(page, pages)),
                    Some(PageState::Free) => Err(FlashError::InvalidateFreePage { addr }),
                    Some(&was) => {
                        m.states[page as usize] = PageState::Invalid;
                        Ok(BlockStateChange {
                            newly_stale: was == PageState::Valid,
                            invalid_pages: m.count(PageState::Invalid),
                            valid_pages: m.count(PageState::Valid),
                        })
                    }
                };
                assert_eq!(array.invalidate(addr), expected, "{at}: invalidate {page}");
            }
            60..=74 => {
                let a = rng.below(pages + 1);
                let b = rng.below(pages + 2);
                // Mostly well-formed; a reversed or overlong span now and then.
                let span = if rng.below(10) == 0 {
                    a..b
                } else {
                    a.min(b)..a.max(b)
                };
                let expected = if span.start > span.end || span.end > pages {
                    Err(page_out_of_range(span.end, pages))
                } else {
                    let inside = &mut m.states[span.start as usize..span.end as usize];
                    let mut staled = 0;
                    for state in inside.iter_mut().filter(|s| **s == PageState::Valid) {
                        *state = PageState::Invalid;
                        staled += 1;
                    }
                    crossings += (span.start / 64 != span.end.saturating_sub(1) / 64) as u64;
                    Ok(staled)
                };
                let element = array.element_mut(E).unwrap();
                let got = element.invalidate_span(block, span.clone());
                assert_eq!(got, expected, "{at}: invalidate_span {span:?}");
            }
            75..=84 => {
                let expected = match m.states.get(page as usize) {
                    None => Err(page_out_of_range(page, pages)),
                    Some(PageState::Free) => Err(FlashError::ReadFreePage { addr }),
                    Some(_) => {
                        m.reads += 1;
                        Ok(())
                    }
                };
                assert_eq!(array.read(addr).map(|_| ()), expected, "{at}: read {page}");
            }
            85..=96 => {
                // Usually make the erase legal first, so blocks cycle.
                if rng.below(4) != 0 {
                    let element = array.element_mut(E).unwrap();
                    element.invalidate_span(block, 0..pages).unwrap();
                    for state in m.states.iter_mut().filter(|s| **s == PageState::Valid) {
                        *state = PageState::Invalid;
                    }
                }
                let got = array.erase(E, block);
                let legal = m.room_for(block, 0).and_then(|()| m.erase_check(block));
                match (legal, got) {
                    (Err(e), got) => assert_eq!(got, Err(e), "{at}: erase"),
                    (Ok(()), Ok(())) => {
                        m.states.fill(PageState::Free);
                        m.erases += 1;
                        m.reads = 0;
                        erases += 1;
                    }
                    (Ok(()), Err(FlashError::EraseFailed { block: b, .. })) if faulty => {
                        assert_eq!(b, block, "{at}");
                        m.bad = true;
                        erase_fails += 1;
                    }
                    (Ok(()), got) => panic!("{at}: erase returned {got:?}"),
                }
            }
            _ => {
                let expected = if m.bad { Ok(()) } else { m.erase_check(block) };
                assert_eq!(array.retire(E, block), expected, "{at}: retire");
                m.bad |= expected.is_ok();
            }
        }
        assert_block_matches(&array, &model, block, &at);
        if step % 64 == 63 {
            for other in 0..BLOCKS {
                assert_block_matches(&array, &model, other, &at);
            }
        }
    }
    [program_fails, erase_fails, erases, crossings]
}

fn addr_of(block: u32, page: u32) -> PhysPageAddr {
    PhysPageAddr {
        element: E,
        block,
        page,
    }
}

fn drive_streams(seeds: Range<u64>, ops: u32) {
    let mut totals = [0u64; 4];
    for seed in seeds {
        for (total, n) in totals.iter_mut().zip(drive_stream(seed, ops)) {
            *total += n;
        }
    }
    let [program_fails, erase_fails, erases, crossings] = totals;
    println!(
        "{program_fails} program failures, {erase_fails} erase failures, {erases} erases, \
         {crossings} spans across a word boundary"
    );
    assert!(program_fails > 50 && erase_fails > 20 && erases > 1_000 && crossings > 1_000);
}

#[test]
fn bitmap_block_matches_the_per_page_model() {
    drive_streams(0..200, 400);
}

/// The long form; CI runs it in release (`cargo test --release -p
/// ossd-flash -- --ignored`).
#[test]
#[ignore = "long: run in release"]
fn bitmap_block_matches_the_per_page_model_long() {
    drive_streams(1_000..5_000, 1_500);
}
