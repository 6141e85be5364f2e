use std::fmt;

use crate::machine::{ExitStatus, RunResult};

/// The bit-vulnerability class of one fault-injection run (paper §II-B).
///
/// The derived `Ord` encodes the paper's severity ranking
/// `Masked < Sdc < Crash`, used to select the most vulnerable instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// Faulty output identical to the golden run.
    Masked,
    /// Program terminated cleanly but the output differs (silent data
    /// corruption).
    Sdc,
    /// The program trapped or hung.
    Crash,
}

impl Outcome {
    /// All outcomes in label order: `Masked = 0`, `Sdc = 1`, `Crash = 2` —
    /// the ternary node-classification labels of the paper (§III-C).
    pub const ALL: [Outcome; 3] = [Outcome::Masked, Outcome::Sdc, Outcome::Crash];

    /// The ternary class label used for GNN node classification.
    pub fn label(self) -> usize {
        self as usize
    }

    /// Inverse of [`Outcome::label`].
    pub fn from_label(label: usize) -> Option<Outcome> {
        Outcome::ALL.get(label).copied()
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::Masked => "Masked",
            Outcome::Sdc => "SDC",
            Outcome::Crash => "Crash",
        };
        f.write_str(s)
    }
}

/// Classifies a faulty run against the golden (fault-free) run.
///
/// * Trap or budget exhaustion → [`Outcome::Crash`]
/// * Clean halt with different output → [`Outcome::Sdc`]
/// * Clean halt with identical output → [`Outcome::Masked`]
pub fn classify(golden: &RunResult, faulty: &RunResult) -> Outcome {
    debug_assert!(
        golden.status.is_clean(),
        "golden run must halt cleanly, got {:?}",
        golden.status
    );
    classify_exit(&golden.output, faulty.status, &faulty.output)
}

/// [`classify`] on the parts it reads: the golden output, and how the
/// faulty run stopped with what output.
pub(crate) fn classify_exit(golden_output: &[u64], status: ExitStatus, output: &[u64]) -> Outcome {
    match status {
        ExitStatus::Trapped(_) | ExitStatus::BudgetExceeded => Outcome::Crash,
        ExitStatus::Halted if output == golden_output => Outcome::Masked,
        ExitStatus::Halted => Outcome::Sdc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Trap;

    fn result(status: ExitStatus, output: Vec<u64>) -> RunResult {
        RunResult {
            status,
            output,
            dyn_instrs: 1,
            exec_counts: vec![1],
        }
    }

    #[test]
    fn severity_ordering() {
        assert!(Outcome::Crash > Outcome::Sdc);
        assert!(Outcome::Sdc > Outcome::Masked);
    }

    #[test]
    fn labels_roundtrip() {
        for o in Outcome::ALL {
            assert_eq!(Outcome::from_label(o.label()), Some(o));
        }
        assert_eq!(Outcome::from_label(3), None);
    }

    #[test]
    fn classification_rules() {
        let golden = result(ExitStatus::Halted, vec![1, 2]);
        assert_eq!(
            classify(&golden, &result(ExitStatus::Halted, vec![1, 2])),
            Outcome::Masked
        );
        assert_eq!(
            classify(&golden, &result(ExitStatus::Halted, vec![1, 3])),
            Outcome::Sdc
        );
        assert_eq!(
            classify(
                &golden,
                &result(ExitStatus::Trapped(Trap::DivByZero), vec![1, 2])
            ),
            Outcome::Crash
        );
        assert_eq!(
            classify(&golden, &result(ExitStatus::BudgetExceeded, vec![1, 2])),
            Outcome::Crash
        );
    }

    #[test]
    fn shorter_output_is_sdc() {
        let golden = result(ExitStatus::Halted, vec![1, 2]);
        assert_eq!(
            classify(&golden, &result(ExitStatus::Halted, vec![1])),
            Outcome::Sdc
        );
    }
}
