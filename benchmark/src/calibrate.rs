//! Host-speed calibration.
//!
//! The benchmark's host is a two-vCPU VM whose speed changes in episodes
//! that last minutes (neighbours on the same machine): ten back-to-back
//! runs of one commit read 8.7 → 13.8 ms p50 on `native_blocking`, a
//! run-to-run spread far wider than any change worth detecting, and no
//! amount of slicing inside one 20 s run averages out an episode longer
//! than the run. Probing showed two separate effects: at times every
//! CPU-bound loop runs 2.2x slower, and at times compute is untouched but
//! everything that touches fresh memory slows 1.3–1.7x — which the serving
//! path, allocating every activation plane anew, does all the time.
//!
//! So every slice of a window is bracketed by two fixed, benchmark-owned
//! kernels timed on every client core at once: a miniature of the serving
//! path's compute (row gather-accumulate, bit generation + popcount,
//! allocate-and-clone of activation-sized planes) and a fresh-memory kernel
//! (map a region, touch its pages, unmap it). The host's *slowdown* is the
//! geometric mean of the two, each relative to its reference time, and
//! host-time metrics are reported divided by it. Over 790 one-second samples
//! spanning calm and noisy episodes this halved the spread of
//! `SpikingTransformer::infer` and of a cold simulator `execute` (27–29 % →
//! 14 %); either kernel alone did worse.
//!
//! The kernels are this file's code and call nothing of the program under
//! test, so a change to the program can never move them: a faster program
//! still reads faster, a slower host no longer reads as a slower program.
//! The raw values and the slowdown itself are printed beside the normalised
//! ones.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{mean, percentile, sorted};

/// Seconds one compute round takes on the reference host in its fast
/// state. A slowdown of 1.0 therefore means "as fast as this host gets".
pub const REFERENCE_COMPUTE_SECONDS: f64 = 0.00064;
/// Seconds one fresh-memory round takes on the reference host in its fast
/// state.
pub const REFERENCE_MEMORY_SECONDS: f64 = 0.00095;
/// Rounds of each kernel per calibration point and thread; the median is
/// kept.
const ROUNDS: usize = 25;

const ROWS: usize = 3072; // x 128 f32 = 1.5 MiB of "weights": L2/L3-resident
const COLS: usize = 128;
const GATHERS: usize = 64 * 1024;
const WORDS: usize = 4096; // 32 KiB bitset: L1-resident
const SMALL: usize = 8 * 1024; // f32 elements: a 32 KiB activation plane
const LARGE: usize = 32 * 1024; // f32 elements: a 128 KiB hidden plane
/// Above every allocator's threshold for handing out a fresh mapping, so no
/// page of the block is resident before it is touched.
const FRESH_BYTES: usize = 64 << 20;
const FRESH_PAGES: usize = 512;
const PAGE: usize = 4096;

/// Working set of one calibration thread.
struct Kernel {
    weights: Vec<f32>,
    rows: Vec<u32>,
    bits: Vec<u64>,
    state: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Kernel {
    fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        Self {
            weights: (0..ROWS * COLS)
                .map(|_| (xorshift(&mut state) >> 40) as f32 / (1u64 << 24) as f32)
                .collect(),
            rows: (0..GATHERS)
                .map(|_| (xorshift(&mut state) % ROWS as u64) as u32)
                .collect(),
            bits: (0..WORDS).map(|_| xorshift(&mut state)).collect(),
            state,
        }
    }

    /// One compute round: the serving path in miniature. (1) Spike-driven row
    /// gather-accumulate over a weight matrix that lives in L2/L3, as
    /// `spike_matmul` does; (2) random bit generation plus AND + popcount
    /// over an L1-resident bitset, as trace synthesis and the attention
    /// scores do; (3) allocate, fill, clone and drop activation-sized
    /// planes, as every layer's output does.
    fn round(&mut self) -> u64 {
        let mut acc = [0.0f32; COLS];
        for &row in &self.rows {
            let start = row as usize * COLS;
            for (a, w) in acc.iter_mut().zip(&self.weights[start..start + COLS]) {
                *a += w;
            }
        }

        let mut ones = 0u64;
        for _ in 0..32 {
            for word in self.bits.iter_mut() {
                *word ^= xorshift(&mut self.state);
            }
            for pair in self.bits.chunks_exact(2) {
                ones += u64::from((pair[0] & pair[1]).count_ones());
            }
        }

        let mut bytes = 0usize;
        for plane in 0..96 {
            let len = if plane % 3 == 0 { LARGE } else { SMALL };
            let offset = (plane * 4099) % (ROWS * COLS - LARGE);
            let filled: Vec<f32> = self.weights[offset..offset + len].to_vec();
            let copy = black_box(filled.clone());
            bytes += copy.len();
        }
        ones + bytes as u64 + acc[COLS / 2] as u64
    }

    /// Maps a fresh region, touches the first `FRESH_PAGES` pages (each
    /// touch is a page fault the kernel answers with a zeroed page) and
    /// unmaps it.
    fn fresh_memory_round() -> u64 {
        let mut block = vec![0u8; FRESH_BYTES];
        for page in block.chunks_mut(PAGE).take(FRESH_PAGES) {
            page[0] = 1;
        }
        u64::from(black_box(&block)[PAGE])
    }

    /// This thread's slowdown: the geometric mean of both kernels' median
    /// round time over their reference times.
    fn slowdown(&mut self) -> f64 {
        let median = |round: &mut dyn FnMut() -> u64| {
            let times: Vec<f64> = (0..ROUNDS)
                .map(|_| {
                    let start = Instant::now();
                    black_box(round());
                    start.elapsed().as_secs_f64()
                })
                .collect();
            percentile(&sorted(&times), 0.5)
        };
        let compute = median(&mut || self.round()) / REFERENCE_COMPUTE_SECONDS;
        let memory = median(&mut Self::fresh_memory_round) / REFERENCE_MEMORY_SECONDS;
        (compute * memory).sqrt()
    }
}

/// How much slower than the reference the host is right now (1.0 = the
/// reference; 1.3 = everything takes 30 % longer), measured on `threads`
/// cores at once — the cores the clients and the server share.
pub fn host_slowdown(threads: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(|| Kernel::new().slowdown()))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("calibration thread panicked"))
            .collect()
    });
    mean(&per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_finite() {
        let slowdown = host_slowdown(1);
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    }

    #[test]
    fn the_kernel_is_deterministic_work() {
        // Same work every round: two fresh kernels agree on every checksum.
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        for _ in 0..3 {
            assert_eq!(a.round(), b.round());
        }
    }
}
