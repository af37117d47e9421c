//! The correctness gate every run passes before it reports a number.
//!
//! * every accepted ticket resolves `Completed`, and its streamed slices
//!   are bit-identical to the assembled result;
//! * persistence rows and diagrams equal the `compute_barcode` oracle;
//! * on `repeat-sharded`, every answer is bit-identical to the first
//!   answer for its catalogue job;
//! * on `gearbox-stream`, a seeded sample of served jobs is
//!   bit-identical to `BatchEngine::run_batch` with the same batch seed.
//!
//! The same pass counts, once per distinct input, how many rounded
//! estimates equal the exact β (the paper's accuracy figure) and how many served classical β differ
//! from it. That second count is reported, not gated: on the sparse path
//! the served classical β is the zero count of a Lanczos spectrum, which
//! can miss kernel multiplicity — a known defect this benchmark shows.

use crate::loadgen::{Sample, Served};
use qtda_engine::{BettiJob, JobResult, SliceResult};
use qtda_tda::filtration::Filtration;
use qtda_tda::persistence::{compute_barcode, PersistencePair};
use std::collections::{HashMap, HashSet};

/// What the barcode oracle says about one input, kept compact so a run
/// holds it for every input it served.
#[derive(Clone, Debug)]
pub struct Exact {
    /// `betti[j][k]`: β_k at the job's j-th grid scale.
    pub betti: Vec<Vec<usize>>,
    /// Persistence jobs: `rows[j][k][i]` = β_k(ε_i, ε_j) ...
    pub rows: Vec<Vec<Vec<usize>>>,
    /// ... and each dimension's diagram, as bits.
    pub diagrams: Vec<Vec<u64>>,
}

impl Exact {
    /// Reads a job's exact answers off the classical barcode of the Rips
    /// filtration its arena is built from — an independent reduction,
    /// not the engine's arena.
    pub fn of(job: &BettiJob) -> Exact {
        let barcode = compute_barcode(&Filtration::rips(
            &job.cloud,
            job.max_epsilon(),
            job.max_homology_dim + 1,
            job.metric,
        ));
        let grid = &job.epsilons;
        let dims = 0..=job.max_homology_dim;
        let betti =
            grid.iter().map(|&e| dims.clone().map(|k| barcode.betti_at(k, e)).collect()).collect();
        let (mut rows, mut diagrams) = (Vec::new(), Vec::new());
        if job.persistence {
            rows = (0..grid.len())
                .map(|j| {
                    dims.clone()
                        .map(|k| {
                            grid[..=j]
                                .iter()
                                .map(|&b| barcode.persistent_betti(k, b, grid[j]))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            diagrams = dims
                .map(|k| {
                    let mut bits = Vec::new();
                    barcode.bars(k).for_each(|p| push_pair(p, &mut bits));
                    bits
                })
                .collect();
        }
        Exact { betti, rows, diagrams }
    }
}

/// Every bit of a served slice, flattened.
pub fn slice_bits(slice: &SliceResult) -> Vec<u64> {
    let mut out = Vec::new();
    push_slice(slice, &mut out);
    out
}

fn push_slice(slice: &SliceResult, out: &mut Vec<u64>) {
    out.extend([slice.epsilon.to_bits(), slice.seed, slice.estimates.len() as u64]);
    for e in &slice.estimates {
        out.extend([
            e.p_zero_exact.to_bits(),
            e.p_zero_sampled.to_bits(),
            e.raw.to_bits(),
            e.corrected.to_bits(),
            e.q as u64,
            e.shots as u64,
            e.spurious_zeros as u64,
        ]);
    }
    out.push(slice.classical.len() as u64);
    out.extend(slice.classical.iter().map(|&b| b as u64));
    if let Some(p) = &slice.persistence {
        out.extend([p.dim_lo as u64, p.rows.len() as u64]);
        for row in &p.rows {
            out.push(row.len() as u64);
            out.extend(row.iter().map(|&b| b as u64));
        }
    }
}

fn push_pair(pair: &PersistencePair, out: &mut Vec<u64>) {
    out.extend([pair.dim as u64, pair.birth.to_bits()]);
    match pair.death {
        Some(d) => out.extend([1, d.to_bits()]),
        None => out.push(0),
    }
}

/// Every bit of a served result, flattened: equal vectors mean a
/// bit-identical answer.
pub fn result_bits(result: &JobResult) -> Vec<u64> {
    let mut out = vec![result.fingerprint, result.job_seed, result.slices.len() as u64];
    for slice in &result.slices {
        push_slice(slice, &mut out);
    }
    if let Some(d) = &result.diagrams {
        out.extend([d.dim_lo as u64, d.diagrams.len() as u64]);
        for bars in &d.diagrams {
            out.push(bars.len() as u64);
            for pair in bars {
                push_pair(pair, &mut out);
            }
        }
    }
    out
}

/// Served persistence rows and diagrams against the barcode oracle.
pub fn check_persistence(result: &JobResult, exact: &Exact) -> Result<(), String> {
    for (j, slice) in result.slices.iter().enumerate() {
        let rows = slice.persistence.as_ref().ok_or(format!("slice {j} carries no rows"))?;
        for (k, expected) in exact.rows[j].iter().enumerate() {
            let row = rows.row(k).ok_or(format!("slice {j} has no row for dim {k}"))?;
            if row != expected.as_slice() {
                return Err(format!(
                    "dim {k} row at ε={}: served {row:?}, oracle {expected:?}",
                    slice.epsilon
                ));
            }
        }
    }
    let diagrams = result.diagrams.as_ref().ok_or("no persistence diagrams")?;
    for (k, expected) in exact.diagrams.iter().enumerate() {
        let mut served = Vec::new();
        diagrams
            .bars(k)
            .ok_or(format!("no diagram for dim {k}"))?
            .iter()
            .for_each(|p| push_pair(p, &mut served));
        if served != *expected {
            return Err(format!("dim {k} diagram differs from the barcode oracle"));
        }
    }
    Ok(())
}

/// An answer against the first answer served for the same input.
pub fn check_repeat(first: &[u64], result: &JobResult) -> Result<(), String> {
    if result_bits(result) == first {
        Ok(())
    } else {
        Err(format!(
            "answer for fingerprint {:#x} differs from its first answer",
            result.fingerprint
        ))
    }
}

/// Streamed slices against the assembled result: each grid index once,
/// each bit-identical.
fn check_streamed(sample: &Sample, result: &JobResult) -> Result<(), String> {
    let mut seen = vec![false; result.slices.len()];
    for s in &sample.slices {
        let slot = seen
            .get_mut(s.slice_index)
            .ok_or(format!("slice index {} out of range", s.slice_index))?;
        if std::mem::replace(slot, true) {
            return Err(format!("slice {} streamed twice", s.slice_index));
        }
        if slice_bits(&s.result) != slice_bits(&result.slices[s.slice_index]) {
            return Err(format!("streamed slice {} differs from the result", s.slice_index));
        }
    }
    if seen.iter().all(|&s| s) {
        Ok(())
    } else {
        Err("a slice never streamed".to_string())
    }
}

/// What the gate counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Submissions made.
    pub attempted: usize,
    /// Refused by `submit_with` (counted as failed, not a gate failure).
    pub refused: usize,
    /// Rounded (job, ε, dim) estimates equal to the exact β ...
    pub exact_hits: usize,
    /// ... out of this many.
    pub exact_total: usize,
    /// Served classical β that differ from the exact β.
    pub classical_mismatches: usize,
}

/// The gate's references and what it has seen so far in a run.
pub struct Gate {
    /// Oracle answers by input, computed on first use.
    exact: HashMap<usize, Exact>,
    /// Bits of `run_batch` answers, by input (gearbox-stream sample).
    reference: HashMap<usize, Vec<u64>>,
    /// Compare every answer with the first one for its input
    /// (repeat-sharded) ...
    repeats_identical: bool,
    /// ... kept here, by input.
    first: HashMap<usize, Vec<u64>>,
    /// Inputs whose estimates were already scored against the oracle.
    scored: HashSet<usize>,
    /// Counts over every phase checked so far.
    pub tally: Tally,
}

impl Gate {
    /// A gate with `reference` answers to match.
    pub fn new(reference: HashMap<usize, Vec<u64>>, repeats_identical: bool) -> Gate {
        Gate {
            exact: HashMap::new(),
            reference,
            repeats_identical,
            first: HashMap::new(),
            scored: HashSet::new(),
            tally: Tally::default(),
        }
    }

    /// Computes the oracle's answers for input `input` (`job`) now
    /// rather than on first use.
    pub fn precompute(&mut self, input: usize, job: &BettiJob) {
        self.exact.entry(input).or_insert_with(|| Exact::of(job));
    }

    /// Runs the gate over one phase's samples, adding to [`Self::tally`].
    /// Estimates are scored once per distinct input, so repeats do not
    /// weight the accuracy figure.
    pub fn check(&mut self, jobs: &[BettiJob], samples: &[Sample]) -> Result<(), String> {
        let tally = &mut self.tally;
        tally.attempted += samples.len();
        for sample in samples {
            let result = match &sample.served {
                Served::Refused(_) => {
                    tally.refused += 1;
                    continue;
                }
                Served::Lost => return Err(format!("ticket {} never resolved", sample.ticket)),
                Served::Outcome(_) => sample
                    .result()
                    .ok_or(format!("ticket {} aborted: {:?}", sample.ticket, sample.served))?,
            };
            let at = |e: String| format!("ticket {} (input {}): {e}", sample.ticket, sample.input);
            check_streamed(sample, result).map_err(at)?;
            let job = &jobs[sample.input];
            let first_time = self.scored.insert(sample.input);
            let exact = self.exact.entry(sample.input).or_insert_with(|| Exact::of(job));
            if first_time {
                for (slice, betti) in result.slices.iter().zip(&exact.betti) {
                    for ((estimate, &classical), &beta) in
                        slice.rounded().iter().zip(&slice.classical).zip(betti)
                    {
                        tally.classical_mismatches += usize::from(classical != beta);
                        tally.exact_total += 1;
                        tally.exact_hits += usize::from(*estimate == beta);
                    }
                }
            }
            if job.persistence {
                check_persistence(result, exact).map_err(at)?;
            }
            if let Some(bits) = self.reference.get(&sample.input) {
                if *bits != result_bits(result) {
                    return Err(at("differs from BatchEngine::run_batch".to_string()));
                }
            }
            if self.repeats_identical {
                match self.first.get(&sample.input) {
                    Some(bits) => check_repeat(bits, result).map_err(at)?,
                    None => {
                        self.first.insert(sample.input, result_bits(result));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Workload, BATCH_SEED};
    use qtda_engine::{BatchEngine, EngineConfig};
    use std::sync::Arc;

    fn served(workload: Workload) -> (BettiJob, Arc<JobResult>) {
        let job = generate(workload, 5).warmup.swap_remove(0);
        let engine =
            BatchEngine::new(EngineConfig { batch_seed: BATCH_SEED, ..EngineConfig::default() });
        let result = engine.run_batch(std::slice::from_ref(&job)).swap_remove(0);
        (job, result)
    }

    #[test]
    fn persistence_gate_catches_a_corrupted_payload() {
        let (job, result) = served(Workload::PersistBulk);
        let exact = Exact::of(&job);
        check_persistence(&result, &exact).expect("a served payload passes");

        let mut row_bad = (*result).clone();
        let rows = row_bad.slices[3].persistence.as_mut().expect("persistence rows");
        rows.rows[1][2] += 1;
        assert!(check_persistence(&row_bad, &exact).is_err());

        let mut bars_bad = (*result).clone();
        let diagrams = bars_bad.diagrams.as_mut().expect("diagrams");
        let pair = diagrams.diagrams[0].last_mut().expect("β₀ has bars");
        pair.birth = f64::from_bits(pair.birth.to_bits() ^ 1);
        assert!(check_persistence(&bars_bad, &exact).is_err());
    }

    #[test]
    fn repeat_gate_catches_a_corrupted_answer() {
        let (_, result) = served(Workload::RepeatSharded);
        let first = result_bits(&result);
        check_repeat(&first, &result).expect("the same answer passes");
        let mut bad = (*result).clone();
        let e = &mut bad.slices[2].estimates[1];
        e.corrected = f64::from_bits(e.corrected.to_bits() ^ 1);
        assert!(check_repeat(&first, &bad).is_err(), "one flipped bit must fail");
    }
}
