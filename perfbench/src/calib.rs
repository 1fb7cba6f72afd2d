//! A fixed calibration kernel that measures how fast the host runs right
//! now, so that timings can be reported relative to it.
//!
//! Shared hosts change speed over tens of seconds to minutes, and CPU time
//! moves with wall time, so neither clock alone compares two runs made at
//! different moments. The kernel is the benchmark's own code and does not
//! call into the program: a change to the program cannot move it. Each
//! timed unit of work is bracketed by two runs of the kernel, and its time
//! is divided by their mean. Drift slower than one unit of work cancels.
//!
//! The kernel mixes the kinds of work the workloads do, because other
//! tenants slow each kind by a different amount: an integer
//! multiply-accumulate in L1 (the packed kernels), the same streamed from a
//! table larger than L2 (the reference GEMMs), a binary heap of random keys
//! (the serving event queue), and dependent random reads from that table
//! (the routers' and sketches' lookups).

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::trace::cpu_seconds;

/// The calibration time a reported time is scaled to: a result in seconds
/// is "seconds on a host where one kernel run takes this long". The kernel
/// is sized to take about this long on a 2-vCPU AVX-512 cloud VM, so the
/// scaled values read close to the raw ones there.
pub const REFERENCE_S: f64 = 0.1;

const MAC_LEN: usize = 8 * 1024;
const MAC_PASSES: usize = 12_000;
/// 4 MiB of `u32`: twice this host's 2 MiB L2 per core.
const TABLE_LEN: usize = 1 << 20;
const ROW: usize = 1024;
const STREAM_PASSES: usize = 45;
const HEAP_LEN: usize = 16 * 1024;
const HEAP_OPS: usize = 375_000;
const CHASE_STEPS: usize = 800_000;

/// Wall and CPU seconds of one run of the kernel.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// The kernel's buffers, allocated once (about 4.2 MiB resident).
pub struct Calibrator {
    a: Vec<i32>,
    b: Vec<i32>,
    heap: BinaryHeap<u64>,
    /// A single cycle through every slot, read both as a chase and as a
    /// matrix of `ROW`-wide rows.
    table: Vec<u32>,
}

fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        let a = (0..MAC_LEN)
            .map(|_| (next(&mut s) % 255) as i32 - 127)
            .collect();
        let b = (0..MAC_LEN)
            .map(|_| (next(&mut s) % 15) as i32 - 7)
            .collect();
        // Sattolo's shuffle: `table[i]` is the slot after `i` on one cycle
        // through all slots. Built in place, so nothing else of its size is
        // ever resident.
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        for i in (1..TABLE_LEN).rev() {
            table.swap(i, (next(&mut s) % i as u64) as usize);
        }
        Calibrator {
            a,
            b,
            heap: BinaryHeap::with_capacity(HEAP_LEN + 1),
            table,
        }
    }
}

impl Calibrator {
    /// Runs the kernel once and times it.
    pub fn run(&mut self) -> Sample {
        let (cpu0, wall0) = (cpu_seconds(), Instant::now());
        black_box(self.work());
        Sample {
            wall_s: wall0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
        }
    }

    /// The fixed work; the result only keeps the optimizer from removing it.
    fn work(&mut self) -> u64 {
        let mut acc = 0i64;
        for pass in 0..MAC_PASSES {
            let a = black_box(&self.a);
            let dot: i32 = a.iter().zip(&self.b).map(|(x, y)| x * y).sum();
            acc = acc.wrapping_add(i64::from(dot) ^ pass as i64);
        }
        let x = &self.a[..ROW];
        for _ in 0..STREAM_PASSES {
            for row in black_box(&self.table).chunks_exact(ROW) {
                let dot: i64 = row
                    .iter()
                    .zip(x)
                    .map(|(&w, &v)| i64::from(w) * i64::from(v))
                    .sum();
                acc = acc.wrapping_add(dot);
            }
        }
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        self.heap.clear();
        for _ in 0..HEAP_LEN {
            self.heap.push(next(&mut s));
        }
        for _ in 0..HEAP_OPS {
            let top = self.heap.pop().unwrap_or(0);
            self.heap.push(top.wrapping_sub(next(&mut s) >> 8));
        }
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.table[black_box(at) as usize];
        }
        (acc as u64) ^ self.heap.peek().copied().unwrap_or(0) ^ u64::from(at)
    }
}

/// Times units of work between calibration runs and reports each unit
/// relative to the mean of the two runs around it.
pub struct Relative {
    calibrator: Calibrator,
    last: Sample,
    calibrations: Vec<f64>,
}

impl Default for Relative {
    fn default() -> Self {
        let mut calibrator = Calibrator::default();
        calibrator.run();
        let last = calibrator.run();
        Relative {
            calibrator,
            last,
            calibrations: vec![last.wall_s],
        }
    }
}

impl Relative {
    /// Runs `f`, then the kernel. Returns `f`'s result, its raw wall and
    /// CPU seconds, and both scaled to [`REFERENCE_S`] by the kernel runs
    /// before and after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample, Sample) {
        let (cpu0, wall0) = (cpu_seconds(), Instant::now());
        let out = f();
        let raw = Sample {
            wall_s: wall0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
        };
        let after = self.calibrator.run();
        let mean = |x: f64, y: f64| 0.5 * (x + y);
        let base_wall = mean(self.last.wall_s, after.wall_s);
        let base_cpu = mean(self.last.cpu_s, after.cpu_s);
        self.last = after;
        self.calibrations.push(after.wall_s);
        let scaled = Sample {
            wall_s: raw.wall_s / base_wall * REFERENCE_S,
            cpu_s: raw.cpu_s / base_cpu * REFERENCE_S,
        };
        (out, raw, scaled)
    }

    /// Wall seconds of every kernel run so far.
    pub fn calibrations(&self) -> &[f64] {
        &self.calibrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_scaling_divides_by_it() {
        let mut c = Calibrator::default();
        assert_eq!(c.work(), c.work());
        let mut r = Relative::default();
        let (v, raw, scaled) = r.time(|| 7);
        assert_eq!(v, 7);
        assert!(raw.wall_s >= 0.0 && scaled.wall_s >= 0.0);
        assert_eq!(r.calibrations().len(), 2);
    }

    #[test]
    fn the_chase_visits_every_slot() {
        let c = Calibrator::default();
        let mut at = 0u32;
        for step in 1..=TABLE_LEN {
            at = c.table[at as usize];
            assert_eq!(at == 0, step == TABLE_LEN, "cycle closed at step {step}");
        }
    }
}
