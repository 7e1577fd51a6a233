//! Host-speed reference.
//!
//! A shared host lends its cores out: the same build runs a round 10–20 %
//! faster or slower depending on what else the machine is doing, in
//! phases that outlast a whole run. CPU time moves with wall time, so
//! measuring it does not help. Instead every run times a fixed kernel
//! that belongs to the benchmark (it calls no repository code) between
//! rounds, and the host-time metrics are rescaled by how fast that
//! kernel ran: a slow phase slows the kernel and the rounds alike, and
//! the ratio survives it.
//!
//! The kernel mixes what the simulator's hot loops do — `exp`, `sqrt`,
//! data-dependent loads from a table that fits in L1 — on one thread
//! per worker, so it sees the same core contention as a round.

use std::time::Instant;

/// The kernel's fastest time on the development host (2 workers), in
/// seconds: the rescaled metrics read as if every run had the
/// development host's best speed.
pub const NOMINAL_S: f64 = 0.033;

/// Iterations per worker thread.
const ITERATIONS: usize = 5_000_000;

/// One timing of the reference kernel on `workers` threads at once
/// (seconds until the last one finishes).
pub fn reference_s(workers: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for k in 0..workers.max(1) as u64 {
            scope.spawn(move || std::hint::black_box(kernel(k)));
        }
    });
    start.elapsed().as_secs_f64()
}

fn kernel(stream: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ stream;
    let mut table = vec![1.0f64; 4096];
    let mut acc = 0.0f64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 4095;
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        table[j] = table[j] * 0.999 + (u * 3.0 - 1.5).exp();
        acc += table[(i * 7) & 4095].sqrt();
    }
    acc
}
