//! Instruments the benchmark owns: a per-module-kind delivery tracer,
//! a counting global allocator, and a content digest. None of them
//! changes the simulator; the tracer goes in through the public
//! `Kernel::set_tracer` hook.

use accesys::sim::{ModuleId, Msg, Tick, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Module kinds, in the order their metrics are reported. `other`
/// catches any module whose name the table below does not know, so the
/// per-kind counts always add up to the kernel's event count.
pub const KINDS: [&str; 10] = [
    "mem.dram",
    "cache",
    "interconnect.link",
    "interconnect.pcie",
    "interconnect.xbar",
    "smmu",
    "dma",
    "accel",
    "cpu",
    "other",
];

/// The kind of a module, from the instance name the topology builder
/// gave it.
fn kind_of(name: &str) -> usize {
    let starts = |p: &str| name.starts_with(p);
    if starts("host_mem") || starts("dev_mem") {
        0
    } else if starts("llc") || starts("l1d") || starts("iocache") {
        1
    } else if starts("link.") {
        2
    } else if starts("pcie.") {
        3
    } else if starts("membus") || starts("devmem_ctrl") {
        4
    } else if starts("smmu") {
        5
    } else if starts("dma") {
        6
    } else if starts("accel") {
        7
    } else if starts("cpu") {
        8
    } else {
        9
    }
}

/// One delivery in this many is timestamped.
const SAMPLE_EVERY: u32 = 61;
const UNRESOLVED: u8 = u8::MAX;

/// Counts deliveries per module kind and, for one delivery in
/// [`SAMPLE_EVERY`], records the host time until the next delivery:
/// the handler of that kind plus the kernel's queue work for it.
pub struct KindTracer {
    /// Kind of each module, indexed by `ModuleId`, resolved on first
    /// delivery.
    kinds: Vec<u8>,
    events: [u64; KINDS.len()],
    samples: [Vec<u32>; KINDS.len()],
    countdown: u32,
    pending: Option<(usize, Instant)>,
}

impl KindTracer {
    pub fn new() -> KindTracer {
        KindTracer {
            kinds: Vec::new(),
            events: [0; KINDS.len()],
            samples: Default::default(),
            countdown: SAMPLE_EVERY,
            pending: None,
        }
    }

    /// Fold another tracer's counts and samples into this one.
    pub fn absorb(&mut self, other: &KindTracer) {
        for k in 0..KINDS.len() {
            self.events[k] += other.events[k];
            self.samples[k].extend_from_slice(&other.samples[k]);
        }
    }

    /// Deliveries per kind.
    pub fn events(&self) -> &[u64; KINDS.len()] {
        &self.events
    }

    /// Median sampled ns per kind (0 for a kind never sampled).
    pub fn handler_ns(&self) -> [f64; KINDS.len()] {
        let mut out = [0.0; KINDS.len()];
        for (k, samples) in self.samples.iter().enumerate() {
            let mut s = samples.clone();
            if !s.is_empty() {
                let mid = s.len() / 2;
                out[k] = f64::from(*s.select_nth_unstable(mid).1);
            }
        }
        out
    }
}

impl Tracer for KindTracer {
    fn on_event(&mut self, _when: Tick, dst: ModuleId, dst_name: &str, _msg: &Msg) {
        let now = self.pending.take().map(|(kind, start)| {
            let now = Instant::now();
            let ns = now.duration_since(start).as_nanos();
            self.samples[kind].push(u32::try_from(ns).unwrap_or(u32::MAX));
            now
        });
        let i = dst.index();
        if i >= self.kinds.len() {
            self.kinds.resize(i + 1, UNRESOLVED);
        }
        if self.kinds[i] == UNRESOLVED {
            self.kinds[i] = kind_of(dst_name) as u8;
        }
        let kind = self.kinds[i] as usize;
        self.events[kind] += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = SAMPLE_EVERY;
            self.pending = Some((kind, now.unwrap_or_else(Instant::now)));
        }
    }
}

/// The system allocator, plus a count of allocation calls while
/// counting is switched on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Switch allocation counting on or off; returns the count so far.
pub fn count_allocs(on: bool) -> u64 {
    COUNTING.store(on, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the only
// addition is a relaxed counter update, which touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded with the caller's guarantees for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded with the caller's guarantees for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// FNV-1a over a byte string, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
