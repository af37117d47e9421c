//! Per-layer attribution for the traced run.
//!
//! Two sources: the ticket stage traces the service already records
//! ([`stages`]), and a single-threaded replay of the run's distinct
//! inputs through the `qtda-tda`, `qtda-core` and `qtda-linalg` public
//! calls, timed from here ([`replay`]). Replay happens after the
//! measured phases, so it never competes with served traffic.

use crate::loadgen::{ms, Sample};
use crate::spans::SpanLog;
use qtda_core::pipeline::{BackendKind, DispatchPolicy};
use qtda_core::query::BettiRequest;
use qtda_engine::BettiJob;
use qtda_linalg::profile::{profiled, SolveProfile};
use qtda_tda::laplacian_filtration::LaplacianFiltration;
use std::hint::black_box;
use std::time::Instant;

/// Stage times read from ticket traces, summed or listed per ticket.
#[derive(Debug, Default)]
pub struct Stages {
    /// Per-ticket service stages (ms).
    pub queue_wait_ms: Vec<f64>,
    pub linger_ms: Vec<f64>,
    pub delivery_ms: Vec<f64>,
    /// Engine stages summed over tickets (ms).
    pub cache_probe_ms_sum: f64,
    pub arena_build_ms_sum: f64,
    pub solve_ms_sum: f64,
    pub persistence_ms_sum: f64,
    /// Wall time covered by at least one stage span, and ticket wall
    /// time (submit → terminal outcome), summed over tickets (ms).
    pub covered_ms_sum: f64,
    pub wall_ms_sum: f64,
    /// Tickets that carried a trace.
    pub traced: usize,
}

/// The crate a service stage span belongs to.
fn stage_layer(stage: &str) -> &'static str {
    match stage {
        "queue_wait" | "linger" | "delivery" => "service",
        _ => "engine",
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, f64::NEG_INFINITY);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Reads every sample's stage trace and records the benchmark's own
/// spans (`request` with `submit`, `first_slice`, `complete`, plus the
/// service's stages re-based onto the submit call) into `log`.
pub fn stages(samples: &[Sample], log: &mut SpanLog) -> Stages {
    let mut out = Stages::default();
    for s in samples {
        let root = log.record(s.ticket, None, "request", s.origin.min(s.submit_start), s.done);
        log.record(s.ticket, Some(root), "submit", s.submit_start, s.submit_end);
        if let Some(first) = s.first_slice {
            log.record(s.ticket, Some(root), "first_slice", s.origin, first);
        }
        log.record(s.ticket, Some(root), "complete", s.origin, s.done);
        let Some(trace) = &s.trace else { continue };
        out.traced += 1;
        let wall = ms(s.done - s.submit_start);
        let mut covered = Vec::new();
        for span in &trace.spans {
            // Stage offsets count from the ticket's tracer, created
            // inside the submit call.
            let start = s.submit_start + span.start;
            let name = format!("{}.{}", stage_layer(&span.name), span.name);
            log.record(s.ticket, Some(root), name, start, start + span.wall);
            let from = ms(span.start);
            covered.push((from.min(wall), (from + ms(span.wall)).min(wall)));
        }
        out.covered_ms_sum += union_len(covered);
        out.wall_ms_sum += wall;
        let stage = |name: &str| trace.stage(name).map(ms);
        out.queue_wait_ms.extend(stage("queue_wait"));
        out.linger_ms.extend(stage("linger"));
        out.delivery_ms.extend(stage("delivery"));
        out.cache_probe_ms_sum += stage("cache_probe").unwrap_or(0.0);
        out.arena_build_ms_sum += stage("arena_build").unwrap_or(0.0);
        out.solve_ms_sum += stage("solve").unwrap_or(0.0);
        out.persistence_ms_sum += stage("persistence").unwrap_or(0.0);
    }
    out
}

/// What replaying inputs through the lower layers measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Distinct inputs replayed.
    pub jobs: usize,
    /// `LaplacianFiltration::rips` per input: time and arena size.
    pub arena_build_ms: Vec<f64>,
    pub arena_bytes: Vec<f64>,
    /// One single-dimension `BettiRequest` per (ε, dim), grouped by the
    /// backend `DispatchPolicy::choose` routes it to.
    pub dense_ms: Vec<f64>,
    pub sparse_ms: Vec<f64>,
    /// Total time in those requests.
    pub busy_ms: f64,
    /// Solver counts over every replayed request.
    pub profile: SolveProfile,
    /// Σ matvecs × bytes of the CSR Laplacian they applied (computed
    /// from the matrix size, not measured traffic).
    pub computed_bytes: f64,
    /// `persistent_betti_row` per (ε, dim) and `bars` per dim, on
    /// persistence inputs.
    pub persist_row_ms: Vec<f64>,
    pub bars_ms: Vec<f64>,
}

fn elapsed_ms(start: Instant) -> (Instant, f64) {
    let end = Instant::now();
    (end, ms(end - start))
}

/// Replays `(ticket, job)` pairs single-threaded, recording a `replay`
/// span per input under the ticket that first served it.
pub fn replay<'a>(
    jobs: impl IntoIterator<Item = (u64, &'a BettiJob)>,
    log: &mut SpanLog,
) -> Replay {
    let mut out = Replay::default();
    for (ticket, job) in jobs {
        out.jobs += 1;
        let started = Instant::now();
        let mut children = Vec::new();
        let arena = black_box(LaplacianFiltration::rips(
            &job.cloud,
            job.max_epsilon(),
            job.max_homology_dim + 1,
            job.metric,
        ));
        let (built, build_ms) = elapsed_ms(started);
        children.push(("tda.arena_build".to_string(), started, built));
        out.arena_build_ms.push(build_ms);
        out.arena_bytes.push(arena.arena_bytes() as f64);

        let policy = DispatchPolicy::from_sparse_threshold(job.sparse_threshold);
        for &epsilon in &job.epsilons {
            for k in 0..=job.max_homology_dim {
                let backend = policy.choose(arena.count_at(k, epsilon));
                let t0 = Instant::now();
                let (output, profile) = profiled(|| {
                    BettiRequest::of_filtration(&arena)
                        .dimension(k)
                        .at_scale(epsilon)
                        .estimator(job.estimator)
                        .dispatch(policy)
                        .build()
                        .run()
                });
                let (t1, unit_ms) = elapsed_ms(t0);
                black_box(output);
                out.busy_ms += unit_ms;
                match backend {
                    BackendKind::SparseLanczos => out.sparse_ms.push(unit_ms),
                    // Serving disables the statevector tier, so every
                    // other unit is a dense eigensolve.
                    BackendKind::DenseEigen | BackendKind::Statevector => {
                        out.dense_ms.push(unit_ms)
                    }
                }
                if profile.matvecs > 0 {
                    let csr = arena.laplacian_at(k, epsilon);
                    let bytes = (csr.n_rows() + 1) * 8 + csr.nnz() * (8 + 4);
                    out.computed_bytes += profile.matvecs as f64 * bytes as f64;
                }
                out.profile.merge(&profile);
                children.push((format!("core.unit[eps={epsilon},k={k},{backend:?}]"), t0, t1));
            }
        }

        if job.persistence {
            for (j, &death) in job.epsilons.iter().enumerate() {
                for k in 0..=job.max_homology_dim {
                    let t0 = Instant::now();
                    black_box(arena.persistent_betti_row(k, &job.epsilons[..=j], death));
                    let (t1, row_ms) = elapsed_ms(t0);
                    out.persist_row_ms.push(row_ms);
                    children.push((format!("tda.persist_row[eps={death},k={k}]"), t0, t1));
                }
            }
            for k in 0..=job.max_homology_dim {
                let t0 = Instant::now();
                black_box(arena.bars(k));
                let (t1, bars_ms) = elapsed_ms(t0);
                out.bars_ms.push(bars_ms);
                children.push((format!("tda.bars[k={k}]"), t0, t1));
            }
        }
        let root = log.record(ticket, None, "replay", started, Instant::now());
        for (name, start, end) in children {
            log.record(ticket, Some(root), name, start, end);
        }
    }
    out
}

/// Mean per job, zero when nothing ran.
pub fn per_job(total: f64, jobs: usize) -> f64 {
    if jobs == 0 {
        0.0
    } else {
        total / jobs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(vec![(1.0, 1.0)]), 0.0);
        assert_eq!(union_len(vec![(0.0, 4.0), (1.0, 2.0)]), 4.0);
    }
}
