//! Contention correction for the end-to-end timings.
//!
//! The host shares its cores with other tenants. Their load comes and goes
//! in episodes of seconds and slows every instruction stream on the core,
//! by up to 1.8× on a 2-vCPU AVX-512 IFMA host, without any steal time: the
//! thread keeps its CPU and runs slower. A run's raw figures mostly measure
//! how much of it was contended.
//!
//! So the benchmark times a fixed reference kernel between library calls.
//! The kernel is a register-resident multiply-accumulate chain: it shares
//! no code and no memory with the library, so only the host's pace moves
//! it. Each call's latency is divided by the host's slowdown around that
//! call: the mean kernel time of the probes near the call over the fastest
//! kernel time of the run. Every call counts, and a stall, a slow input or
//! a variance in the library shows in full, because the kernel does not run
//! library code. On the host above, one-second windows of a P-256 ECDH loop
//! swung 1.84× raw and about ±7% corrected.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::trace::Sample;

/// Multiply-accumulate rounds of one probe: about 20 µs on the host above.
const KERNEL_ROUNDS: u32 = 2000;
/// Least wall time between two probes of the timed loop.
const PROBE_GAP: Duration = Duration::from_millis(1);
/// Probes taken back to back after a long call.
const BURST: usize = 8;
/// Length of the continuous probing before and after each set-up.
const PACE_PHASE: Duration = Duration::from_millis(20);
/// Probes this close to a call, in ns, describe the host's pace for it.
const WINDOW_NS: u64 = 10_000_000;

/// One probe of the reference kernel: a 4×4-limb schoolbook product,
/// folded back into the first operand, `KERNEL_ROUNDS` times.
fn kernel() -> u64 {
    let b = black_box([
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ]);
    let mut a = black_box([
        0x1234_5678_9abc_def1u64,
        0x0fed_cba9_8765_4321,
        0x1111_2222_3333_4444,
        0x5555_6666_7777_8889,
    ]);
    for _ in 0..KERNEL_ROUNDS {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let x = u128::from(a[i]) * u128::from(b[j]) + u128::from(t[i + j]) + carry;
                t[i + j] = x as u64;
                carry = x >> 64;
            }
            t[i + 4] = carry as u64;
        }
        a = [t[0] ^ t[4], t[1] ^ t[5], t[2] ^ t[6], (t[3] ^ t[7]) | 1];
    }
    a[0]
}

/// The host's pace over one run, sampled by the reference kernel.
pub struct HostSpeed {
    epoch: Instant,
    /// `(midpoint, duration)` of every probe in ns, midpoints from `epoch`.
    probes: Vec<(u64, u64)>,
    fastest_ns: u64,
    last: Instant,
}

impl HostSpeed {
    pub fn new(epoch: Instant) -> Self {
        HostSpeed {
            epoch,
            probes: Vec::new(),
            fastest_ns: u64::MAX,
            last: Instant::now(),
        }
    }

    fn probe(&mut self) {
        let start = Instant::now();
        black_box(kernel());
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        let mid = (start - self.epoch).as_nanos() as u64 + ns / 2;
        self.probes.push((mid, ns));
        self.fastest_ns = self.fastest_ns.min(ns);
        self.last = end;
    }

    /// Probes once if `PROBE_GAP` has passed since the last probe, and
    /// `BURST` times after a call longer than `WINDOW_NS` (whose window
    /// would otherwise hold one probe on either side); the timed loop calls
    /// it between library calls.
    pub fn tick(&mut self) {
        let gap = self.last.elapsed();
        if gap.as_nanos() >= u128::from(WINDOW_NS) {
            self.burst();
        } else if gap >= PROBE_GAP {
            self.probe();
        }
    }

    /// Probes `BURST` times back to back.
    fn burst(&mut self) {
        for _ in 0..BURST {
            self.probe();
        }
    }

    /// Probes back to back for `PACE_PHASE` and returns the mean probe
    /// time in ns: the host's pace next to a phase too long to probe inside,
    /// such as a set-up.
    pub fn pace(&mut self) -> f64 {
        let (start, first) = (Instant::now(), self.probes.len());
        while start.elapsed() < PACE_PHASE {
            self.probe();
        }
        let phase = &self.probes[first..];
        phase.iter().map(|p| p.1 as f64).sum::<f64>() / phase.len() as f64
    }

    /// `ns` measured at a pace of `pace_ns` per probe, at the run's
    /// fastest pace.
    pub fn at_fastest(&self, ns: u64, pace_ns: f64) -> u64 {
        (ns as f64 * self.fastest_ns as f64 / pace_ns).round() as u64
    }

    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    pub fn fastest_us(&self) -> f64 {
        self.fastest_ns as f64 / 1e3
    }

    /// How many times slower than its fastest pace of the run the host ran
    /// from `start_ns` to `end_ns` (ns from the epoch): the mean of the
    /// probes within `WINDOW_NS` of the interval, or of the nearest ones.
    fn slowdown(&self, start_ns: u64, end_ns: u64) -> f64 {
        let (lo, hi) = (start_ns.saturating_sub(WINDOW_NS), end_ns + WINDOW_NS);
        let i = self.probes.partition_point(|p| p.0 < lo);
        let j = self.probes.partition_point(|p| p.0 <= hi);
        let near = if i < j {
            &self.probes[i..j]
        } else {
            &self.probes[i.saturating_sub(1)..(i + 1).min(self.probes.len())]
        };
        if near.is_empty() {
            return 1.0;
        }
        let mean = near.iter().map(|p| p.1 as f64).sum::<f64>() / near.len() as f64;
        mean / self.fastest_ns as f64
    }

    /// A timed call's latency at the run's fastest pace.
    pub fn corrected(&self, call: &Sample) -> u64 {
        let (start_ns, ns) = (call.start_ns(), u64::from(call.ns));
        (ns as f64 / self.slowdown(start_ns, start_ns + ns)).round() as u64
    }
}
