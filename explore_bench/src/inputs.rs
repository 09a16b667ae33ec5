//! Seeded workload inputs and their closed-form references.
//!
//! The program under test only ever receives the generated
//! [`Kernel`] values. The expected data-memory images are computed here
//! from each kernel's documented layout, independently of
//! `archex::compile`, so a miscompiled or mis-simulated kernel cannot
//! agree with its own reference.

use archex::{workloads, Kernel};
use gensim::{StopReason, Xsim};
use isdl::Machine;
use std::collections::BTreeMap;

/// The seed that reproduces the repository's standard inputs:
/// `dot_product(4)` + `vector_update(3)` for exploration and
/// `fir(4, 12)` for simulation.
pub const DEFAULT_SEED: u64 = 0;

/// `(dot_product n, vector_update n)` pairs a seed draws from. Every
/// pair unrolls to 31–35 abstract operations and 40–44 SPAM cycles
/// against the default's 33 and 42, so a seed changes the instruction
/// mix an evaluation compiles and simulates, not the amount of work.
pub const DSP_SIZES: [(u64, u64); 5] = [(4, 3), (5, 2), (2, 4), (6, 2), (3, 4)];

/// `(taps, samples)` FIR shapes a seed draws from: 186–196 SPAM cycles
/// per pass against the default's 190.
pub const FIR_SIZES: [(u64, u64); 4] = [(4, 12), (3, 13), (8, 12), (2, 16)];

/// Expected final contents of a data memory: listed cells hold the
/// given values, every other cell holds zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    cells: BTreeMap<u64, u64>,
    /// The cells the kernel writes (a subset of `cells`).
    outputs: Vec<u64>,
}

impl Reference {
    fn new(inputs: impl IntoIterator<Item = (u64, u64)>, outputs: &[(u64, u64)]) -> Self {
        let mut cells: BTreeMap<u64, u64> = inputs.into_iter().collect();
        cells.extend(outputs.iter().copied());
        Self { cells, outputs: outputs.iter().map(|&(a, _)| a).collect() }
    }

    /// The addresses the kernel writes.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Checks a `depth`-cell memory image read through `read`.
    ///
    /// # Errors
    ///
    /// Names the first cell that differs from the reference.
    pub fn check(&self, depth: u64, read: impl Fn(u64) -> u64) -> Result<(), String> {
        for addr in 0..depth {
            let want = self.cells.get(&addr).copied().unwrap_or(0);
            let got = read(addr);
            if got != want {
                return Err(format!("DM[{addr}] = {got}, reference {want}"));
            }
        }
        Ok(())
    }

    /// Checks only the output cells.
    ///
    /// # Errors
    ///
    /// Names the first output cell that differs from the reference.
    pub fn check_outputs(&self, read: impl Fn(u64) -> u64) -> Result<(), String> {
        for &addr in &self.outputs {
            let (want, got) = (self.cells[&addr], read(addr));
            if got != want {
                return Err(format!("output DM[{addr}] = {got}, reference {want}"));
            }
        }
        Ok(())
    }
}

/// A kernel together with its reference image.
#[derive(Debug, Clone)]
pub struct Case {
    /// The generated kernel handed to the tool chain.
    pub kernel: Kernel,
    /// Its expected data memory after a run.
    pub reference: Reference,
}

/// SplitMix64: a seed-to-index hash with no state to carry between
/// draws.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn draw<T: Copy>(seed: u64, choices: &[T]) -> T {
    if seed == DEFAULT_SEED {
        return choices[0];
    }
    let n = u64::try_from(choices.len()).expect("a handful of choices");
    choices[usize::try_from(splitmix64(seed) % n).expect("index below the choice count")]
}

/// The exploration workload for `seed`: a dot product and a vector
/// update.
pub fn dsp(seed: u64) -> Vec<Case> {
    let (dot, upd) = draw(seed, &DSP_SIZES);
    vec![
        Case { kernel: workloads::dot_product(dot), reference: dot_reference(dot) },
        Case { kernel: workloads::vector_update(upd), reference: vector_update_reference(upd) },
    ]
}

/// The simulation workload for `seed`: one FIR filter.
pub fn fir(seed: u64) -> Case {
    let (taps, samples) = draw(seed, &FIR_SIZES);
    Case { kernel: workloads::fir(taps, samples), reference: fir_reference(taps, samples) }
}

/// `x[i] = i + 1` at `i`, `y[i] = 2(i + 1)` at `n + i`, and
/// `Σ x[i]·y[i]` at `2n`.
fn dot_reference(n: u64) -> Reference {
    let inputs = (0..n).flat_map(|i| [(i, i + 1), (n + i, 2 * (i + 1))]);
    let sum = (1..=n).map(|k| 2 * k * k).sum();
    Reference::new(inputs, &[(2 * n, sum)])
}

/// `x[i] = 10 + i` at `i`, `y[i] = 5 + 2i` at `n + i`, and
/// `x[i] + y[i] − 4 = 11 + 3i` at `2n + i`.
fn vector_update_reference(n: u64) -> Reference {
    let inputs = (0..n).flat_map(|i| [(i, 10 + i), (n + i, 5 + 2 * i)]);
    let outputs: Vec<(u64, u64)> = (0..n).map(|i| (2 * n + i, 11 + 3 * i)).collect();
    Reference::new(inputs, &outputs)
}

/// Coefficients `1 + t` at `t`, samples `(3i + 1) mod 17` at
/// `taps + i`, and the valid-region convolution at `taps + samples + o`.
fn fir_reference(taps: u64, samples: u64) -> Reference {
    let coeff = |t: u64| 1 + t;
    let sample = |i: u64| (3 * i + 1) % 17;
    let inputs =
        (0..taps).map(|t| (t, coeff(t))).chain((0..samples).map(|i| (taps + i, sample(i))));
    let outputs: Vec<(u64, u64)> = (0..=samples - taps)
        .map(|o| {
            let y = (0..taps).map(|t| coeff(t) * sample(o + taps - 1 - t)).sum();
            (taps + samples + o, y)
        })
        .collect();
    Reference::new(inputs, &outputs)
}

/// The data memory of `machine` (SPAM's `DM`).
pub fn data_memory(machine: &Machine) -> Result<isdl::rtl::StorageId, String> {
    machine
        .storages
        .iter()
        .position(|s| s.kind == isdl::model::StorageKind::DataMemory)
        .map(isdl::rtl::StorageId)
        .ok_or_else(|| format!("machine `{}` has no data memory", machine.name))
}

/// What one reference run on XSIM observed.
#[derive(Debug, Clone, Copy)]
pub struct XsimRun {
    /// Cycles to halt.
    pub cycles: u64,
    /// Address of the halting self-loop.
    pub halt_pc: u64,
}

/// Compiles, assembles and runs `case` on a freshly generated XSIM for
/// `machine`, then checks the whole data memory against the reference.
///
/// # Errors
///
/// Describes the stage that failed or the first differing cell.
pub fn run_reference(machine: &Machine, case: &Case) -> Result<XsimRun, String> {
    let name = &case.kernel.name;
    let compiled = archex::compile(machine, &case.kernel).map_err(|e| format!("{name}: {e}"))?;
    let program = xasm::Assembler::new(machine)
        .assemble(&compiled.asm)
        .map_err(|e| format!("{name}: {e}"))?;
    let mut sim = Xsim::generate(machine).map_err(|e| format!("{name}: {e}"))?;
    sim.load_program(&program);
    match sim.run(1_000_000) {
        StopReason::Halted => {}
        other => return Err(format!("{name}: XSIM stopped with {other}")),
    }
    let dm = data_memory(machine)?;
    case.reference
        .check(sim.state().depth(dm), |a| sim.state().read_u64(dm, a))
        .map_err(|e| format!("{name} on XSIM: {e}"))?;
    Ok(XsimRun { cycles: sim.stats().cycles, halt_pc: sim.pc() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spam() -> Machine {
        isdl::load(isdl::samples::SPAM).expect("SPAM loads")
    }

    #[test]
    fn default_seed_reproduces_the_standard_inputs() {
        let kernels: Vec<Kernel> = dsp(DEFAULT_SEED).into_iter().map(|c| c.kernel).collect();
        assert_eq!(kernels, bench::explore_kernels());
        assert_eq!(fir(DEFAULT_SEED).kernel, workloads::fir(4, 12));
    }

    #[test]
    fn every_seed_compiles_on_spam_and_matches_its_reference() {
        let machine = spam();
        for seed in 0..32 {
            for case in dsp(seed).iter().chain(std::iter::once(&fir(seed))) {
                run_reference(&machine, case).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn every_size_choice_is_reachable_and_work_stays_level() {
        let machine = spam();
        let seen: std::collections::BTreeSet<(u64, u64)> =
            (0..64).map(|s| draw(s, &FIR_SIZES)).collect();
        assert_eq!(seen.len(), FIR_SIZES.len());
        let seen: std::collections::BTreeSet<(u64, u64)> =
            (0..64).map(|s| draw(s, &DSP_SIZES)).collect();
        assert_eq!(seen.len(), DSP_SIZES.len());
        for &(taps, samples) in &FIR_SIZES {
            let case = Case {
                kernel: workloads::fir(taps, samples),
                reference: fir_reference(taps, samples),
            };
            let cycles = run_reference(&machine, &case).expect("runs").cycles;
            assert!((186..=196).contains(&cycles), "fir({taps},{samples}): {cycles} cycles");
        }
    }

    #[test]
    fn a_wrong_result_fails_the_check() {
        let reference = dot_reference(4);
        assert!(reference.check(16, |a| if a == 8 { 61 } else { 0 }).is_err());
        assert!(reference.check_outputs(|_| 60).is_ok());
    }
}
