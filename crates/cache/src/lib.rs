//! # accesys-cache
//!
//! Cache hierarchy for the Gem5-AcceSys reproduction: set-associative,
//! write-back, write-allocate caches with MSHRs, used for the CPU L1s, the
//! shared last-level cache (LLC), the IOCache and the device-side cache of
//! the paper's Table II.
//!
//! The LLC can act as the system's *coherence point* (the paper's
//! "cache coherency model between the accelerator's cache and the CPU
//! cache"): a presence directory tracks which side — CPU or I/O — may hold
//! a line, and cross-side accesses trigger `SnoopInv` probes that write
//! back and invalidate the stale copy before the access proceeds.
//!
//! The directory keeps 2 bits per line (CPU, I/O), indexed by line
//! number, in 1 KiB pages of 4096 lines found through a small page index.
//! Its memory cost is one page per 4096-line region ever touched: 121
//! pages (121 KiB) for the 458k lines a ViT-Base layer touches on the
//! paper's host-memory system, where a hash map with one entry per line
//! took about 9 MB. It is exact, answering every query as that map did,
//! and non-inclusive: bits outlive the line's eviction from the LLC,
//! since a CPU-side cache may still hold the line.
//!
//! Requests of any size are accepted; multi-line requests are split into
//! per-line transactions and the response fires when the last line
//! completes, which is how DC-mode accelerator bursts (64 B – 4 KiB)
//! traverse the hierarchy.

mod cache;
mod presence;

pub use cache::{Cache, CacheConfig, CoherenceSide, CoherentConfig};
