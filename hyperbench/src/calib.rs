//! Host-speed calibration and heap accounting.
//!
//! On a shared host the same op can run a third slower for tens of
//! seconds at a time, which a run's own repetitions cannot average out.
//! [`Calibrator`] times a fixed kernel — benchmark code, never program
//! code, so no change to the program can move it — interleaved with the
//! ops, and keeps its fastest time. Host times are then reported in
//! *reference milliseconds*: scaled so that the kernel takes exactly
//! [`REFERENCE_KERNEL_MS`]. A slow phase slows the kernel and the ops
//! alike, and the scale cancels it.
//!
//! [`CountingAlloc`] tracks live heap bytes and their high-water mark, so
//! a run can report the memory one instance of the workload needs, and
//! [`keep_freed_memory`] stops the C allocator from handing freed memory
//! back to the kernel between ops.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What the calibration kernel takes on the reference host, by
/// definition.
pub const REFERENCE_KERNEL_MS: f64 = 0.1;

/// A fixed mix of the program's hot-loop shapes on preallocated storage:
/// hash-map updates (the ledger), byte-table lookups (the GF(256) codec),
/// a dependent pointer chase through a few hundred KiB, and a small
/// store-and-forward simulation with per-link FIFOs (the engines).
pub struct Calibrator {
    map: HashMap<u64, u32>,
    table: Vec<u8>,
    bytes: Vec<u8>,
    chase: Vec<u32>,
    queues: Vec<VecDeque<u32>>,
    moved: Vec<(u32, u32)>,
    best_ms: f64,
    samples: usize,
}

impl Calibrator {
    pub fn new() -> Self {
        let n = 1 << 16;
        // A single cycle through `chase` (odd stride modulo a power of two).
        let chase = (0..n).map(|i| ((i as u64 * 40_503 + 1) % n as u64) as u32).collect();
        Calibrator {
            map: HashMap::with_capacity(2048),
            table: (0..1 << 16).map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect(),
            bytes: vec![0; 4096],
            chase,
            queues: vec![VecDeque::with_capacity(16); 8 * 256],
            moved: Vec::with_capacity(4096),
            best_ms: f64::INFINITY,
            samples: 0,
        }
    }

    /// Times the kernel once, after one untimed run that brings its
    /// storage back into cache (whatever the workload evicted).
    pub fn sample(&mut self) {
        self.kernel();
        let t = Instant::now();
        self.kernel();
        self.best_ms = self.best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        self.samples += 1;
    }

    fn kernel(&mut self) {
        self.map.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.map.entry(x & 1023).or_insert(0) += 1;
            black_box(self.map.get(&((x >> 7) & 1023)));
        }
        let mut acc = 0u8;
        for round in 0..4u8 {
            for b in self.bytes.iter_mut() {
                acc ^= self.table[usize::from(*b ^ round) << 8 | usize::from(acc)];
                *b = acc;
            }
        }
        let mut at = 0u32;
        for _ in 0..4000 {
            at = self.chase[at as usize];
        }
        black_box((acc, at));
        black_box(mini_sim(&mut self.queues, &mut self.moved));
    }

    /// Factor turning this host's milliseconds into reference
    /// milliseconds.
    pub fn scale(&self) -> f64 {
        REFERENCE_KERNEL_MS / self.best_ms
    }

    /// The kernel's fastest time here, in ms.
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }

    pub fn samples(&self) -> usize {
        self.samples
    }
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain statistics beside it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // `System.alloc` shares.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, checked
        // by the caller against `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Heap high-water mark above the live bytes at [`HeapScope::start`].
pub struct HeapScope {
    base: usize,
}

impl HeapScope {
    pub fn start() -> Self {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        HeapScope { base }
    }

    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Ordering::Relaxed).saturating_sub(self.base)
    }
}

/// Store-and-forward e-cube routing of 512 packets on `Q_8`: per-link
/// FIFOs, one hop per link per step. Returns the makespan.
fn mini_sim(queues: &mut [VecDeque<u32>], moved: &mut Vec<(u32, u32)>) -> u32 {
    const N: u32 = 8;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut dest = [0u32; 512];
    for (p, d) in dest.iter_mut().enumerate() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let src = (x & 255) as u32;
        *d = ((x >> 8) & 255) as u32;
        let diff = src ^ *d;
        if diff != 0 {
            queues[(src * N + diff.trailing_zeros()) as usize].push_back(p as u32);
        }
    }
    let mut step = 0;
    loop {
        moved.clear();
        for (link, q) in queues.iter_mut().enumerate() {
            if let Some(p) = q.pop_front() {
                let node = (link as u32 / N) ^ (1 << (link as u32 % N));
                moved.push((p, node));
            }
        }
        if moved.is_empty() {
            return step;
        }
        step += 1;
        for &(p, node) in moved.iter() {
            let diff = node ^ dest[p as usize];
            if diff != 0 {
                queues[(node * N + diff.trailing_zeros()) as usize].push_back(p);
            }
        }
    }
}

/// Raises glibc malloc's trim and mmap thresholds so freed memory stays
/// in the process. Otherwise an allocation-heavy op (a transfer frees and
/// re-allocates one to two MB) page-faults its heap back in every time, and
/// in a virtual machine the cost of those faults follows the host's load:
/// `transfer`'s op median moved by a third between runs with the default
/// thresholds and by a few percent with these. Every build of the program
/// is measured with the same setting.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        for (param, value) in
            [(M_TRIM_THRESHOLD, 1 << 30), (M_TOP_PAD, 64 << 20), (M_MMAP_THRESHOLD, 32 << 20)]
        {
            // SAFETY: `mallopt` takes two ints and only adjusts the
            // allocator's tuning; it is called before any other thread
            // exists.
            let ok = unsafe { mallopt(param, value) };
            assert_eq!(ok, 1, "mallopt({param}, {value}) rejected");
        }
    }
}
