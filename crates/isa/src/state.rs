//! The machine an [`Op`](crate::Op) executes against: its architectural
//! state, what a retired instruction does to the program counter, and the
//! processor exceptions that end a run.

use std::fmt;

/// The architectural state an instruction executes against: a flat register
/// file, a flat word-addressed data memory, and the output buffer.
///
/// Register-file width and memory size are fixed at construction.
///
/// Stores go through [`MachineState::store`], which keeps a write log: every
/// word written since the log was last cleared, once, with the value it held
/// before. The simulator uses it to revert a run's writes and to diff
/// memory against a golden run without scanning the whole data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    /// Register file, indexed by [`Reg::index`](crate::Reg::index).
    pub regs: Vec<u64>,
    /// Word-addressed data memory.
    pub mem: Vec<u64>,
    /// Values emitted by output instructions, in order.
    pub output: Vec<u64>,
    /// Program counter: the static index of the next instruction to
    /// execute. The simulator advances it after each
    /// [`Op::execute`](crate::Op::execute).
    pub pc: usize,
    /// `(address, value before the first logged write)`, in first-write
    /// order.
    write_log: Vec<(usize, u64)>,
    /// One bit per data-memory word, set while the word is in `write_log`;
    /// grown on the first store.
    logged: Vec<u64>,
}

impl MachineState {
    /// A zeroed machine with `num_regs` registers and the given memory
    /// image.
    pub fn new(num_regs: usize, mem: Vec<u64>) -> MachineState {
        MachineState {
            regs: vec![0; num_regs],
            mem,
            output: Vec::new(),
            pc: 0,
            write_log: Vec::new(),
            logged: Vec::new(),
        }
    }

    /// Writes `value` to data-memory word `addr` — the one store path of
    /// the machine. A word's first write since the log was last cleared
    /// is logged with its previous value; later writes are not, so the log
    /// never holds more entries than there are memory words.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBoundsStore`] when `addr` is outside the data memory.
    pub fn store(&mut self, addr: u64, value: u64) -> Result<(), Trap> {
        // Large faulty addresses exceed usize on 32-bit hosts too; the
        // get_mut covers both range checks.
        let a = addr as usize;
        let slot = self.mem.get_mut(a).ok_or(Trap::OutOfBoundsStore { addr })?;
        let before = std::mem::replace(slot, value);
        if self.logged.is_empty() {
            self.logged = vec![0; self.mem.len().div_ceil(64)];
        }
        let (word, bit) = (a / 64, 1u64 << (a % 64));
        if self.logged[word] & bit == 0 {
            self.logged[word] |= bit;
            self.write_log.push((a, before));
        }
        Ok(())
    }

    /// Every word written since the log was last cleared, with the value
    /// it held before the first of those writes.
    pub fn write_log(&self) -> &[(usize, u64)] {
        &self.write_log
    }

    /// Empties the write log; memory is left as it is.
    pub fn clear_write_log(&mut self) {
        for &(a, _) in &self.write_log {
            self.logged[a / 64] = 0;
        }
        self.write_log.clear();
    }
}

/// What the program counter does after an instruction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Advance to `pc + 1`.
    Next,
    /// Transfer to the absolute instruction index.
    Goto(usize),
    /// Stop execution successfully.
    Halt,
}

/// A processor exception raised during execution. Any trap terminates the
/// program and classifies the run as a Crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Load from an address outside the data memory.
    OutOfBoundsLoad {
        /// The faulting word address.
        addr: u64,
    },
    /// Store to an address outside the data memory.
    OutOfBoundsStore {
        /// The faulting word address.
        addr: u64,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Control transferred outside the program text (e.g. fell off the end).
    InvalidPc {
        /// The invalid program counter.
        pc: usize,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfBoundsLoad { addr } => write!(f, "out-of-bounds load at {addr:#x}"),
            Trap::OutOfBoundsStore { addr } => write!(f, "out-of-bounds store at {addr:#x}"),
            Trap::DivByZero => write!(f, "integer divide by zero"),
            Trap::InvalidPc { pc } => write!(f, "invalid program counter {pc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::NUM_REGS;

    #[test]
    fn write_log_holds_each_word_once_with_its_first_prior_value() {
        let mut state = MachineState::new(NUM_REGS, vec![7, 0, 0, 0]);
        for v in 1..=100 {
            state.store(0, v).unwrap();
            state.store(3, v).unwrap();
        }
        assert_eq!(state.mem, vec![100, 0, 0, 100]);
        assert_eq!(state.write_log(), &[(0, 7), (3, 0)]);
        assert_eq!(state.store(4, 1), Err(Trap::OutOfBoundsStore { addr: 4 }));
        assert_eq!(state.write_log().len(), 2, "a trapped store logs nothing");
        state.clear_write_log();
        assert!(state.write_log().is_empty());
        state.store(0, 5).unwrap();
        assert_eq!(state.write_log(), &[(0, 100)], "cleared words log again");
    }
}
