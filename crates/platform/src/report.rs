//! Execution reports produced by the platform drivers.

use crate::cost::CostModel;

/// Cycle and operation accounting for one complete public-key operation
/// (torus exponentiation, ECC scalar multiplication, RSA exponentiation) or
/// one composite level-2 operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionReport {
    /// Total clock cycles.
    pub cycles: u64,
    /// Montgomery modular multiplications executed.
    pub modmuls: u64,
    /// Modular additions executed.
    pub modadds: u64,
    /// Modular subtractions executed.
    pub modsubs: u64,
    /// Interrupts raised towards the MicroBlaze.
    pub interrupts: u64,
    /// Cycles saved by the pipelined sequencer overlapping an operation's
    /// operand fetch with its independent predecessor's MAC tail (zero
    /// under the sequential schedule and under Type-A).
    pub overlapped_cycles: u64,
    /// Register-A (instruction register) accesses by the MicroBlaze.
    pub register_accesses: u64,
}

impl ExecutionReport {
    /// Latency in milliseconds at the cost model's clock frequency.
    pub fn time_ms(&self, cost: &CostModel) -> f64 {
        cost.cycles_to_ms(self.cycles)
    }

    /// Component-wise sum of two reports.
    pub fn merge(&self, other: &ExecutionReport) -> ExecutionReport {
        ExecutionReport {
            cycles: self.cycles + other.cycles,
            modmuls: self.modmuls + other.modmuls,
            modadds: self.modadds + other.modadds,
            modsubs: self.modsubs + other.modsubs,
            interrupts: self.interrupts + other.interrupts,
            overlapped_cycles: self.overlapped_cycles + other.overlapped_cycles,
            register_accesses: self.register_accesses + other.register_accesses,
        }
    }
}

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycles ({} MM, {} MA, {} MS, {} interrupts)",
            self.cycles, self.modmuls, self.modadds, self.modsubs, self.interrupts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_repeat() {
        let a = ExecutionReport {
            cycles: 100,
            modmuls: 2,
            modadds: 3,
            modsubs: 1,
            interrupts: 1,
            overlapped_cycles: 5,
            register_accesses: 1,
        };
        // Repeated merges scale a report, as a ladder accumulates one
        // report per step.
        let b = a.merge(&a).merge(&a);
        assert_eq!(b.cycles, 300);
        assert_eq!(b.modmuls, 6);
        let c = a.merge(&b);
        assert_eq!(c.cycles, 400);
        assert_eq!(c.modadds, 12);
        assert_eq!(c.modsubs, 4);
        assert_eq!(c.interrupts, 4);
        assert_eq!(c.overlapped_cycles, 20);
        assert_eq!(c.register_accesses, 4);
        assert!(c.to_string().contains("400 cycles"));
    }

    #[test]
    fn time_conversion_uses_clock() {
        let r = ExecutionReport {
            cycles: 1_480_000,
            ..Default::default()
        };
        let t = r.time_ms(&CostModel::paper());
        assert!((t - 20.0).abs() < 1e-6);
    }
}
