//! Operation counting.
//!
//! Section 2.2 of the paper counts field operations in `Fp` (multiplications
//! `M` and additions/subtractions `A`) to derive the cost of one `Fp6`
//! multiplication (18M + 60A), which in turn drives the Type-A/Type-B cycle
//! analysis. The [`OpCounter`] mirrors that accounting so the library can
//! report the same breakdown and feed the `platform` cycle model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot of operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCount {
    /// Modular multiplications (squarings included).
    pub mul: u64,
    /// Modular additions.
    pub add: u64,
    /// Modular subtractions.
    pub sub: u64,
    /// Modular inversions.
    pub inv: u64,
}

impl OpCount {
    /// Additions plus subtractions — the paper's `A` figure.
    pub fn additions_total(&self) -> u64 {
        self.add + self.sub
    }

    /// Difference of two snapshots (`self - earlier`), useful for measuring
    /// the cost of a single composite operation.
    pub fn since(&self, earlier: &OpCount) -> OpCount {
        OpCount {
            mul: self.mul - earlier.mul,
            add: self.add - earlier.add,
            sub: self.sub - earlier.sub,
            inv: self.inv - earlier.inv,
        }
    }
}

impl std::fmt::Display for OpCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}M + {}A + {}S + {}I",
            self.mul, self.add, self.sub, self.inv
        )
    }
}

/// Thread-safe counter of prime-field operations, shared by all elements of
/// an [`FpContext`](crate::FpContext) clone family.
#[derive(Debug, Default)]
pub struct OpCounter {
    mul: AtomicU64,
    add: AtomicU64,
    sub: AtomicU64,
    inv: AtomicU64,
}

impl OpCounter {
    /// Creates a fresh, shareable counter starting at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(OpCounter::default())
    }

    /// Records a whole tally at once: one update per kind of operation
    /// that occurred, so a single operation is one atomic update.
    #[inline]
    pub fn add(&self, count: OpCount) {
        for (counter, n) in [
            (&self.mul, count.mul),
            (&self.add, count.add),
            (&self.sub, count.sub),
            (&self.inv, count.inv),
        ] {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Returns the current counts.
    pub fn snapshot(&self) -> OpCount {
        OpCount {
            mul: self.mul.load(Ordering::Relaxed),
            add: self.add.load(Ordering::Relaxed),
            sub: self.sub.load(Ordering::Relaxed),
            inv: self.inv.load(Ordering::Relaxed),
        }
    }

    /// Resets all counts to zero.
    pub fn reset(&self) {
        self.mul.store(0, Ordering::Relaxed);
        self.add.store(0, Ordering::Relaxed);
        self.sub.store(0, Ordering::Relaxed);
        self.inv.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let c = OpCounter::new();
        // One-op tallies, as single operations record them.
        for (mul, add, sub, inv) in [
            (1, 0, 0, 0),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ] {
            c.add(OpCount { mul, add, sub, inv });
        }
        let s = c.snapshot();
        assert_eq!(
            s,
            OpCount {
                mul: 2,
                add: 1,
                sub: 1,
                inv: 1
            }
        );
        assert_eq!(s.additions_total(), 2);
        c.add(s);
        assert_eq!(
            c.snapshot(),
            OpCount {
                mul: 4,
                add: 2,
                sub: 2,
                inv: 2
            }
        );
        c.reset();
        assert_eq!(c.snapshot(), OpCount::default());
    }

    #[test]
    fn since_computes_deltas() {
        let before = OpCount {
            mul: 3,
            add: 5,
            sub: 1,
            inv: 0,
        };
        let after = OpCount {
            mul: 21,
            add: 65,
            sub: 2,
            inv: 1,
        };
        let delta = after.since(&before);
        assert_eq!(
            delta,
            OpCount {
                mul: 18,
                add: 60,
                sub: 1,
                inv: 1
            }
        );
        assert_eq!(delta.to_string(), "18M + 60A + 1S + 1I");
    }

    #[test]
    fn counter_is_shareable_across_threads() {
        let c = OpCounter::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        c.add(OpCount {
                            mul: 1,
                            ..OpCount::default()
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().mul, 400);
    }
}
