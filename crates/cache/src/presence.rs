//! The coherence point's presence directory: two bits per line (CPU,
//! I/O) in fixed-size pages.

use accesys_sim::FxHashMap;

/// Lines per directory page (4096 lines × 2 bits = 1 KiB). Measured
/// pages per lines touched: a ViT-Base layer on the paper's host-memory
/// system, 121 pages for 458,332 lines (92% of slots used); the LLM
/// decode tree, 4 for 9,900; each 4x4 fleet host, 7 for 16,640. Pages of
/// 512 lines would save only a few KiB (921, 20 and 42 pages) for an
/// index 5–8× larger; much larger pages would mostly hold empty slots
/// on the small workloads.
const PAGE_LINES: u64 = 4096;
/// Lines per `u64` word of a page.
const LINES_PER_WORD: u64 = 32;
const WORDS_PER_PAGE: usize = (PAGE_LINES / LINES_PER_WORD) as usize;

type Page = [u64; WORDS_PER_PAGE];

/// Which sides may hold each line, as a bitmask per line address.
///
/// Answers exactly like a `line_addr -> bits` map whose absent entries
/// read 0: [`PresenceTable::get`] returns the bits or-ed in by
/// [`PresenceTable::set`] and not removed by [`PresenceTable::clear`].
/// Storage is one 1 KiB page per touched 4096-line region, found
/// through a small page index; pages are never freed (like the map's
/// entries, which were never removed either).
pub(crate) struct PresenceTable {
    line_shift: u32,
    /// Page number (line number / `PAGE_LINES`) -> slot in `pages`.
    index: FxHashMap<u64, u32>,
    pages: Vec<Page>,
}

impl PresenceTable {
    /// An empty directory for lines of `line_bytes` (a power of two).
    pub(crate) fn new(line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two());
        PresenceTable {
            line_shift: line_bytes.trailing_zeros(),
            index: FxHashMap::default(),
            pages: Vec::new(),
        }
    }

    /// `(page number, word in page, bit shift in word)` of a line.
    fn locate(&self, line_addr: u64) -> (u64, usize, u32) {
        let line = line_addr >> self.line_shift;
        let in_page = line % PAGE_LINES;
        (
            line / PAGE_LINES,
            (in_page / LINES_PER_WORD) as usize,
            (in_page % LINES_PER_WORD) as u32 * 2,
        )
    }

    /// The side bits of `line_addr` (0 if never set).
    pub(crate) fn get(&self, line_addr: u64) -> u8 {
        let (page, word, shift) = self.locate(line_addr);
        match self.index.get(&page) {
            Some(&slot) => ((self.pages[slot as usize][word] >> shift) & 0b11) as u8,
            None => 0,
        }
    }

    /// Or `bits` into the side bits of `line_addr`.
    pub(crate) fn set(&mut self, line_addr: u64, bits: u8) {
        let (page, word, shift) = self.locate(line_addr);
        let pages = &mut self.pages;
        let slot = *self.index.entry(page).or_insert_with(|| {
            pages.push([0; WORDS_PER_PAGE]);
            (pages.len() - 1) as u32
        });
        pages[slot as usize][word] |= u64::from(bits & 0b11) << shift;
    }

    /// Remove `bits` from the side bits of `line_addr`.
    pub(crate) fn clear(&mut self, line_addr: u64, bits: u8) {
        let (page, word, shift) = self.locate(line_addr);
        if let Some(&slot) = self.index.get(&page) {
            self.pages[slot as usize][word] &= !(u64::from(bits & 0b11) << shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The directory it replaces: one map entry per line ever set.
    #[derive(Default)]
    struct MapModel(FxHashMap<u64, u8>);

    impl MapModel {
        fn get(&self, line_addr: u64) -> u8 {
            self.0.get(&line_addr).copied().unwrap_or(0)
        }
        fn set(&mut self, line_addr: u64, bits: u8) {
            *self.0.entry(line_addr).or_insert(0) |= bits;
        }
        fn clear(&mut self, line_addr: u64, bits: u8) {
            if let Some(b) = self.0.get_mut(&line_addr) {
                *b &= !bits;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn directory_answers_like_the_map_it_replaces(
            line_pow in 5u32..8,
            base_pick in 0usize..4,
            ops in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            // line_bytes 32/64/128; bases at 0, just below a page
            // boundary, in a device window above 2^40, and near the top
            // of the address space.
            let line_bytes = 1u32 << line_pow;
            let page_bytes = PAGE_LINES << line_pow;
            let base = [
                0,
                page_bytes - 8 * u64::from(line_bytes),
                (1u64 << 40) + 5 * page_bytes - 3 * u64::from(line_bytes),
                u64::MAX - 3 * page_bytes - (u64::from(line_bytes) - 1),
            ][base_pick]
                & !(u64::from(line_bytes) - 1);
            // Each op word packs (kind, line within three pages, bits).
            let decode = |op: u64| {
                let addr = base + (op >> 8) % (3 * PAGE_LINES) * u64::from(line_bytes);
                (op % 3, addr, 1 + (op >> 4) as u8 % 3)
            };
            let mut table = PresenceTable::new(line_bytes);
            let mut model = MapModel::default();
            for &op in &ops {
                let (kind, addr, bits) = decode(op);
                match kind {
                    0 => prop_assert_eq!(table.get(addr), model.get(addr)),
                    1 => {
                        table.set(addr, bits);
                        model.set(addr, bits);
                    }
                    _ => {
                        table.clear(addr, bits);
                        model.clear(addr, bits);
                    }
                }
                prop_assert_eq!(table.get(addr), model.get(addr), "after op {} at {:#x}", kind, addr);
            }
            for &op in &ops {
                let (_, addr, _) = decode(op);
                prop_assert_eq!(table.get(addr), model.get(addr));
            }
        }
    }

    #[test]
    fn neighbouring_lines_and_pages_do_not_alias() {
        let mut t = PresenceTable::new(64);
        let last_of_page = (PAGE_LINES - 1) * 64;
        t.set(last_of_page, 0b01);
        t.set(last_of_page + 64, 0b10);
        assert_eq!(t.get(last_of_page), 0b01);
        assert_eq!(t.get(last_of_page + 64), 0b10);
        assert_eq!(t.get(last_of_page - 64), 0);
        t.clear(last_of_page, 0b01);
        assert_eq!(t.get(last_of_page), 0);
        assert_eq!(t.get(last_of_page + 64), 0b10);
        assert_eq!(t.pages.len(), 2);
    }

    #[test]
    fn clearing_an_untouched_line_allocates_nothing() {
        let mut t = PresenceTable::new(64);
        t.clear(0x4000, 0b01);
        assert_eq!(t.get(0x4000), 0);
        assert!(t.pages.is_empty());
    }
}
