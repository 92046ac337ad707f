//! Physical page numbers as the page-mapped FTL's tables store them.
//!
//! A [`Ppn`] is a page's index in `(element, block, page)` order, 32 bits
//! wide: the forward map, the translation directory and the reverse map are
//! the simulator's largest tables and every host command touches them, so
//! their entry width decides whether they stay in cache.  (The *modelled*
//! device's map entry is `ossd_mapcache::ENTRY_BYTES` = 8 bytes whatever the
//! simulator stores; that figure sizes translation pages and the SRAM
//! budget, and does not move.)  The numbering is dense on every geometry,
//! so the tables indexed by it carry no padding, and [`PpnLayout`] converts
//! to and from [`PhysPageAddr`] with multiplications only.

use ossd_flash::{ElementId, FlashGeometry, PhysPageAddr};

use crate::error::FtlError;

/// The most physical pages a device may have: page numbers stay below bit
/// 31, which leaves [`Ppn::UNMAPPED`] free and lets the reverse map mark
/// translation pages with its top bit.
pub(crate) const MAX_PAGES: u64 = 1 << 31;

/// A physical page number, or [`Ppn::UNMAPPED`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ppn(pub(crate) u32);

const _: () = assert!(std::mem::size_of::<Ppn>() == 4);

impl Ppn {
    /// No physical page.
    pub(crate) const UNMAPPED: Ppn = Ppn(u32::MAX);

    /// The page number as a table index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Division by a divisor fixed at construction, as a multiplication: exact
/// for every dividend below 2³¹ and every divisor in `1..=2³¹`, powers of
/// two or not.
///
/// With `m = ⌈2⁶² / d⌉` the product `n · m` overshoots `n · 2⁶² / d` by
/// `n · e / d` for some `e < d`, which cannot carry the quotient to the next
/// integer while `n · e < 2⁶²`.
#[derive(Clone, Copy, Debug)]
struct Reciprocal(u64);

impl Reciprocal {
    fn of(divisor: u32) -> Self {
        Reciprocal((1u64 << 62).div_ceil(divisor as u64))
    }

    #[inline]
    fn quotient(self, n: u32) -> u32 {
        ((n as u128 * self.0 as u128) >> 62) as u32
    }
}

/// The [`Ppn`] ⇄ [`PhysPageAddr`] conversions of one geometry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PpnLayout {
    pages_per_block: u32,
    blocks_per_element: u32,
    pages_per_element: u32,
    by_block: Reciprocal,
    by_element: Reciprocal,
}

impl PpnLayout {
    /// The layout of `geometry`, which must be a valid one of at most
    /// [`MAX_PAGES`] pages.
    pub(crate) fn new(geometry: &FlashGeometry) -> Result<Self, FtlError> {
        geometry.validate()?;
        if geometry.total_pages() > MAX_PAGES {
            return Err(FtlError::InvalidConfig {
                reason: format!(
                    "{} physical pages exceed the {MAX_PAGES} a 32-bit page number addresses",
                    geometry.total_pages()
                ),
            });
        }
        let pages_per_element = geometry.pages_per_element() as u32;
        Ok(PpnLayout {
            pages_per_block: geometry.pages_per_block,
            blocks_per_element: geometry.blocks_per_element(),
            pages_per_element,
            by_block: Reciprocal::of(geometry.pages_per_block),
            by_element: Reciprocal::of(pages_per_element),
        })
    }

    /// The page number of `addr`.
    #[cfg(test)]
    pub(crate) fn ppn(&self, addr: PhysPageAddr) -> Ppn {
        Ppn(self.block_base(addr.element.index(), addr.block) as u32 + addr.page)
    }

    /// The address of a mapped `ppn`.
    #[inline]
    pub(crate) fn addr(&self, ppn: Ppn) -> PhysPageAddr {
        debug_assert_ne!(ppn, Ppn::UNMAPPED);
        let element = self.by_element.quotient(ppn.0);
        let within = ppn.0 - element * self.pages_per_element;
        let block = self.by_block.quotient(within);
        PhysPageAddr {
            element: ElementId(element),
            block,
            page: within - block * self.pages_per_block,
        }
    }

    /// Index of `block` on `element` among all blocks.
    pub(crate) fn global_block(&self, element: usize, block: u32) -> usize {
        element * self.blocks_per_element as usize + block as usize
    }

    /// Index of the page number of page 0 of `block` on `element`; the
    /// block's pages follow it.
    pub(crate) fn block_base(&self, element: usize, block: u32) -> usize {
        self.global_block(element, block) * self.pages_per_block as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(elements: u32, blocks: u32, pages: u32) -> FlashGeometry {
        FlashGeometry {
            packages: elements,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: blocks,
            pages_per_block: pages,
            page_bytes: 4096,
        }
    }

    #[test]
    fn quotients_are_exact_at_the_edges_of_every_divisor_class() {
        let top = MAX_PAGES;
        let divisors = [
            1, 2, 3, 5, 7, 63, 64, 65, 96, 1000, 4095, 4096, 48_000, 262_144,
        ];
        let large = [top / 3, top / 2 - 1, top / 2, top / 2 + 1, top - 1, top];
        for d in divisors.into_iter().chain(large) {
            let r = Reciprocal::of(d as u32);
            // Either side of the first and the last multiples of `d`.
            let multiples = [0, 1, 2, 3, top / d - 1, top / d].map(|k| k * d);
            let near = multiples
                .into_iter()
                .flat_map(|m| [m.saturating_sub(1), m, m + 1]);
            for n in near.chain([top - 2, top - 1]).filter(|&n| n < top) {
                assert_eq!(r.quotient(n as u32) as u64, n / d, "{n} / {d}");
            }
        }
        // A seeded sweep over both operands.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let d = 1 + (state >> 33) as u32 % top as u32;
            let n = (state as u32) % top as u32;
            assert_eq!(Reciprocal::of(d).quotient(n), n / d, "{n} / {d}");
        }
    }

    #[test]
    fn every_page_of_odd_geometries_round_trips() {
        for g in [geometry(3, 5, 7), geometry(2, 6, 48), geometry(5, 1000, 96)] {
            let layout = PpnLayout::new(&g).unwrap();
            let mut expected = 0;
            for element in 0..g.elements() {
                for block in 0..g.blocks_per_element() {
                    for page in 0..g.pages_per_block {
                        let addr = PhysPageAddr {
                            element: ElementId(element),
                            block,
                            page,
                        };
                        // Dense, in (element, block, page) order.
                        assert_eq!(layout.ppn(addr), Ppn(expected));
                        assert_eq!(layout.addr(Ppn(expected)), addr);
                        expected += 1;
                    }
                }
            }
            assert_eq!(expected as u64, g.total_pages());
        }
    }

    /// The devices of the four benchmark workloads (full and smoke scale),
    /// and a split of the largest legal device.
    #[test]
    fn corner_pages_of_the_benchmark_geometries_round_trip() {
        let devices = [
            geometry(2, 4096, 64),
            geometry(2, 512, 64),
            geometry(8, 128, 64),
            geometry(8, 64, 64),
            geometry(2, 1024, 32),
            geometry(2, 128, 32),
            geometry(1 << 3, 1 << 20, 1 << 8),
        ];
        for g in devices {
            let layout = PpnLayout::new(&g).unwrap();
            let (e, b, p) = (g.elements(), g.blocks_per_element(), g.pages_per_block);
            for element in [0, 1, e / 2, e - 1] {
                for block in [0, 1, b / 2, b - 1] {
                    for page in [0, 1, p / 2, p - 1] {
                        let addr = PhysPageAddr {
                            element: ElementId(element),
                            block,
                            page,
                        };
                        let ppn = layout.ppn(addr);
                        assert!((ppn.0 as u64) < g.total_pages());
                        assert_eq!(layout.addr(ppn), addr, "{g:?}");
                        assert_eq!(
                            layout.block_base(element as usize, block) + page as usize,
                            ppn.index()
                        );
                    }
                }
            }
        }
    }

    /// The check itself, which runs before anything is allocated.
    #[test]
    fn the_page_limit_is_two_to_the_31_inclusive() {
        for at_limit in [geometry(1, 1, 1 << 31), geometry(1 << 10, 1 << 13, 1 << 8)] {
            assert_eq!(at_limit.total_pages(), MAX_PAGES);
            assert!(PpnLayout::new(&at_limit).is_ok());
        }
        for beyond in [geometry(1, 1, (1 << 31) + 1), geometry(3, 1 << 22, 1 << 8)] {
            assert!(beyond.total_pages() > MAX_PAGES);
            assert!(matches!(
                PpnLayout::new(&beyond),
                Err(FtlError::InvalidConfig { .. })
            ));
        }
        assert!(PpnLayout::new(&geometry(2, 0, 64)).is_err());
    }
}
