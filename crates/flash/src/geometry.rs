//! Flash array geometry and physical addressing.
//!
//! The unit of parallelism in the simulator is the *element*: an
//! independently operating die.  Packages group dies that share a serial
//! bus (and, in ganged configurations, several packages share one bus).
//! A physical page address names an element, a block within the element,
//! and a page within the block.

use crate::error::FlashError;

/// Identifier of an independently operating flash element (a die).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElementId(pub u32);

impl ElementId {
    /// The element index as a `usize` for vector indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A physical flash page address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhysPageAddr {
    /// The element (die) the page lives on.
    pub element: ElementId,
    /// Block index within the element.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// The shape of the flash array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Number of flash packages.
    pub packages: u32,
    /// Dies per package; each die is an independent element.
    pub dies_per_package: u32,
    /// Planes per die (affects capacity; plane-level parallelism is folded
    /// into the element in this model).
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Bytes per page (the paper and the Samsung datasheet use 4 KB).
    pub page_bytes: u32,
}

impl FlashGeometry {
    /// A small geometry handy for unit tests: 2 packages × 1 die × 1 plane ×
    /// 8 blocks × 8 pages × 4 KB = 512 KB.
    pub fn tiny() -> Self {
        FlashGeometry {
            packages: 2,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_bytes: 4096,
        }
    }

    /// Geometry used by the paper's 32 GB simulated SSD: one gang of eight
    /// 4 GB packages (§3.4).
    pub fn gang_of_eight_4gb() -> Self {
        FlashGeometry {
            packages: 8,
            dies_per_package: 1,
            planes_per_die: 4,
            blocks_per_plane: 4096,
            pages_per_block: 64,
            page_bytes: 4096,
        }
    }

    /// Geometry of the 8 GB SSD used by the informed-cleaning study
    /// (Table 5): two 4 GB packages.
    pub fn two_packages_8gb() -> Self {
        FlashGeometry {
            packages: 2,
            dies_per_package: 1,
            planes_per_die: 4,
            blocks_per_plane: 4096,
            pages_per_block: 64,
            page_bytes: 4096,
        }
    }

    /// Number of independently operating elements (dies).
    pub fn elements(&self) -> u32 {
        self.packages * self.dies_per_package
    }

    /// Blocks per element (= planes per die × blocks per plane).
    pub fn blocks_per_element(&self) -> u32 {
        self.planes_per_die * self.blocks_per_plane
    }

    /// Pages per element.
    pub fn pages_per_element(&self) -> u64 {
        self.blocks_per_element() as u64 * self.pages_per_block as u64
    }

    /// Total number of physical blocks.
    pub(crate) fn total_blocks(&self) -> u64 {
        self.elements() as u64 * self.blocks_per_element() as u64
    }

    /// Total number of physical pages.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Bytes in one block.
    pub fn block_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_bytes as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// Validates that an address is within this geometry.
    pub(crate) fn check_addr(&self, addr: PhysPageAddr) -> Result<(), FlashError> {
        if addr.element.0 >= self.elements() {
            return Err(FlashError::OutOfRange {
                what: "element",
                index: addr.element.0 as u64,
                bound: self.elements() as u64,
            });
        }
        if addr.block >= self.blocks_per_element() {
            return Err(FlashError::OutOfRange {
                what: "block",
                index: addr.block as u64,
                bound: self.blocks_per_element() as u64,
            });
        }
        if addr.page >= self.pages_per_block {
            return Err(FlashError::OutOfRange {
                what: "page",
                index: addr.page as u64,
                bound: self.pages_per_block as u64,
            });
        }
        Ok(())
    }

    /// Validates the geometry itself (all dimensions non-zero).
    pub fn validate(&self) -> Result<(), FlashError> {
        let dims: [(&'static str, u64); 6] = [
            ("packages", self.packages as u64),
            ("dies_per_package", self.dies_per_package as u64),
            ("planes_per_die", self.planes_per_die as u64),
            ("blocks_per_plane", self.blocks_per_plane as u64),
            ("pages_per_block", self.pages_per_block as u64),
            ("page_bytes", self.page_bytes as u64),
        ];
        for (what, v) in dims {
            if v == 0 {
                return Err(FlashError::OutOfRange {
                    what,
                    index: 0,
                    bound: 1,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_geometry_counts() {
        let g = FlashGeometry::tiny();
        assert_eq!(g.elements(), 2);
        assert_eq!(g.blocks_per_element(), 8);
        assert_eq!(g.pages_per_element(), 64);
        assert_eq!(g.total_blocks(), 16);
        assert_eq!(g.total_pages(), 128);
        assert_eq!(g.capacity_bytes(), 128 * 4096);
        assert_eq!(g.block_bytes(), 8 * 4096);
        g.validate().unwrap();
    }

    #[test]
    fn paper_geometries_have_expected_capacity() {
        let gang = FlashGeometry::gang_of_eight_4gb();
        assert_eq!(gang.capacity_bytes(), 32 * 1024 * 1024 * 1024);
        assert_eq!(gang.elements(), 8);
        let two = FlashGeometry::two_packages_8gb();
        assert_eq!(two.capacity_bytes(), 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn check_addr_bounds() {
        let g = FlashGeometry::tiny();
        let ok = PhysPageAddr {
            element: ElementId(1),
            block: 7,
            page: 7,
        };
        assert!(g.check_addr(ok).is_ok());
        let bad_elem = PhysPageAddr {
            element: ElementId(2),
            ..ok
        };
        assert!(matches!(
            g.check_addr(bad_elem),
            Err(FlashError::OutOfRange {
                what: "element",
                ..
            })
        ));
        let bad_block = PhysPageAddr { block: 8, ..ok };
        assert!(matches!(
            g.check_addr(bad_block),
            Err(FlashError::OutOfRange { what: "block", .. })
        ));
        let bad_page = PhysPageAddr { page: 8, ..ok };
        assert!(matches!(
            g.check_addr(bad_page),
            Err(FlashError::OutOfRange { what: "page", .. })
        ));
    }

    #[test]
    fn validate_rejects_zero_dimensions() {
        let mut g = FlashGeometry::tiny();
        g.pages_per_block = 0;
        assert!(g.validate().is_err());
        let mut g2 = FlashGeometry::tiny();
        g2.packages = 0;
        assert!(g2.validate().is_err());
    }
}
