use glaive_isa::{MemAccess, OpcodeClass};

/// A per-instruction cycle-cost model, keyed off the ISA-neutral
/// [`OpcodeClass`].
///
/// Models are *pure*: the cost of an instruction depends only on its class
/// and static memory behaviour, never on machine state, so any two runs of
/// the same program produce the same cycle counts. The latency must be at
/// least 1 cycle — every retired instruction occupies the issue slot — which
/// is what makes total cost monotone in the retire stream (adding
/// instructions can never make a program cheaper).
pub trait CycleModel {
    /// Cycles from issue to result availability for one instruction of
    /// `class` with the given static memory behaviour. Must be ≥ 1.
    fn latency(&self, class: OpcodeClass, mem: Option<MemAccess>) -> u64;

    /// Stable model name, recorded in experiment artifacts.
    fn name(&self) -> &'static str;
}

/// The trivial baseline: every instruction costs exactly one cycle, so the
/// total cycle count of a run equals its retired-instruction count. Useful
/// as a property-test oracle and as the "no microarchitecture" control in
/// timing-feature experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCost;

impl CycleModel for UnitCost {
    fn latency(&self, _class: OpcodeClass, _mem: Option<MemAccess>) -> u64 {
        1
    }

    fn name(&self) -> &'static str {
        "unit"
    }
}

/// A simple single-issue in-order pipeline cost model: per-class base
/// latencies with loads priced above stores (the load-to-use path is the
/// classic in-order stall source). Combined with the scoreboard in
/// [`TimingObserver`](crate::TimingObserver), dependent instructions stall
/// until their operands' producing latencies have elapsed.
///
/// The latencies are deliberately round numbers in the spirit of a textbook
/// five-stage pipeline, not a calibrated microarchitecture — the subsystem's
/// claims (residency weighting, budget selection) need relative cost, not
/// absolute accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InOrderCost {
    /// Integer ALU latency (default 1).
    pub int_alu: u64,
    /// Floating-point ALU latency (default 3).
    pub fp_alu: u64,
    /// Immediate/move/conversion latency (default 1).
    pub mv: u64,
    /// Load-to-use latency (default 4).
    pub load: u64,
    /// Store commit latency (default 2).
    pub store: u64,
    /// Branch/jump latency, covering redirect cost (default 2).
    pub control: u64,
    /// Output-port latency (default 1).
    pub output: u64,
}

impl Default for InOrderCost {
    fn default() -> Self {
        InOrderCost {
            int_alu: 1,
            fp_alu: 3,
            mv: 1,
            load: 4,
            store: 2,
            control: 2,
            output: 1,
        }
    }
}

impl CycleModel for InOrderCost {
    fn latency(&self, class: OpcodeClass, mem: Option<MemAccess>) -> u64 {
        let cycles = match class {
            OpcodeClass::IntAlu => self.int_alu,
            OpcodeClass::FpAlu => self.fp_alu,
            OpcodeClass::Move => self.mv,
            OpcodeClass::Memory => match mem {
                Some(MemAccess { is_store: true, .. }) => self.store,
                _ => self.load,
            },
            OpcodeClass::Control => self.control,
            OpcodeClass::Output => self.output,
        };
        cycles.max(1)
    }

    fn name(&self) -> &'static str {
        "in-order"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_is_one_everywhere() {
        for class in OpcodeClass::ALL {
            assert_eq!(UnitCost.latency(class, None), 1);
            let st = Some(MemAccess {
                is_store: true,
                alias: 0,
            });
            assert_eq!(UnitCost.latency(class, st), 1);
        }
    }

    #[test]
    fn in_order_distinguishes_loads_from_stores() {
        let m = InOrderCost::default();
        let ld = Some(MemAccess {
            is_store: false,
            alias: 3,
        });
        let st = Some(MemAccess {
            is_store: true,
            alias: 3,
        });
        assert_eq!(m.latency(OpcodeClass::Memory, ld), 4);
        assert_eq!(m.latency(OpcodeClass::Memory, st), 2);
        assert!(m.latency(OpcodeClass::FpAlu, None) > m.latency(OpcodeClass::IntAlu, None));
    }

    #[test]
    fn latencies_are_clamped_to_at_least_one_cycle() {
        let degenerate = InOrderCost {
            int_alu: 0,
            fp_alu: 0,
            mv: 0,
            load: 0,
            store: 0,
            control: 0,
            output: 0,
        };
        for class in OpcodeClass::ALL {
            assert_eq!(degenerate.latency(class, None), 1);
        }
    }
}
