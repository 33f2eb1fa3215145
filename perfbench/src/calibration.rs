//! Machine-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by ±20% over
//! seconds to minutes. Raw wall times therefore move with the host, not
//! with the code. Each worker thread times a fixed kernel right before
//! and right after every trial, under the same two-thread load as the
//! trials themselves. A time measured while one slice of that kernel
//! takes `s` seconds is reported as `time × REFERENCE_SLICE_S / s`: in
//! *reference seconds*, the time it would have taken on a host whose
//! slice takes [`REFERENCE_SLICE_S`]. The kernel uses no repository code,
//! so a change to the simulator moves reported times and never the
//! calibration.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Slice time on the host the baseline was recorded on (2 vCPUs; see
/// `baseline.json`), so reported times read as seconds there.
pub const REFERENCE_SLICE_S: f64 = 0.002;

/// Kernel iterations per slice.
const SLICE_ITERATIONS: u64 = 250_000;

/// A fixed mix of what the simulator spends its time on: random reads
/// and writes in a 256 KiB table, integer mixing, a branch and a
/// square root per step.
fn kernel(table: &mut [u64; 1 << 15], iterations: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0f64;
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x >> 49) as usize;
        table[j] = table[j].wrapping_add(i);
        let v = table[(j * 7) & 0x7fff];
        if v & 1 == 0 {
            acc += ((v & 0xffff) as f64).sqrt();
        }
    }
    acc.to_bits() ^ x
}

/// Seconds one kernel slice takes on this thread now.
pub fn slice() -> f64 {
    thread_local! {
        // Allocated once per thread, so no slice pays for page faults.
        static TABLE: RefCell<Box<[u64; 1 << 15]>> = RefCell::new(Box::new([0; 1 << 15]));
    }
    TABLE.with(|table| {
        let table = &mut *table.borrow_mut();
        let t0 = Instant::now();
        black_box(kernel(table, black_box(SLICE_ITERATIONS)));
        t0.elapsed().as_secs_f64()
    })
}

/// Runs slices on `threads` threads for `seconds`: the host's clock and
/// caches ramp up before anything is timed.
pub fn warm_up(threads: usize, seconds: f64) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while t0.elapsed().as_secs_f64() < seconds {
                    slice();
                }
            });
        }
    });
}

/// The factor that turns host seconds into reference seconds, given the
/// slice times measured around them.
pub fn speed(slices: &[f64]) -> f64 {
    REFERENCE_SLICE_S / crate::quantile(slices, 0.5)
}
