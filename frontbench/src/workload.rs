//! The three workloads: their fixed parameters and the inputs each one
//! derives from the seed.
//!
//! * `gearbox-stream` — the paper's §5 workload with no reuse: every
//!   request is a distinct gearbox window, so time goes to `qtda-core`
//!   solves.
//! * `persist-bulk` — Bulk persistence jobs on the same windows, with
//!   small Interactive probes on an open-loop schedule: isolates the
//!   exact persistent-Betti layer in `qtda-tda` and measures Interactive
//!   latency behind a formed Bulk batch.
//! * `repeat-sharded` — Zipf-distributed repeats over a fixed catalogue
//!   on the two-shard cluster backend, with caches smaller than each
//!   shard's share: time goes to queueing, cache and routing.

use qtda_core::estimator::EstimatorConfig;
use qtda_data::gearbox::GearboxConfig;
use qtda_data::windows::sliding_window_stream;
use qtda_engine::{jobs_from_windows, BettiJob, EngineConfig, GearboxJobSpec};
use qtda_service::{Priority, ServiceConfig};
use qtda_tda::point_cloud::synthetic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Root of every served estimator seed. Fixed, so a reference
/// `run_batch` with the same batch seed must reproduce served bits.
pub const BATCH_SEED: u64 = 0x0F0D_BE7C;
/// Gearbox window length and stride (samples), as in the paper's §5.
const WINDOW_LEN: usize = 500;
const WINDOW_STRIDE: usize = 250;
/// Windows per class cut from one generated record. Each record draws
/// its own phases, which set the attractor's shape, so short records
/// make a run average over many shapes instead of two.
const WINDOWS_PER_RECORD: usize = 1;
/// Precision qubits and shots of every served estimate.
const PRECISION_QUBITS: usize = 4;
const SHOTS: usize = 1000;
/// Distinct windows generated for `gearbox-stream`: ≈ 1.5× what a
/// 30-second run serves today, so a faster build still sees only
/// distinct windows (a run that exhausts the pool stops early).
const GEARBOX_POOL: usize = 3072;
/// Distinct persistence jobs generated for `persist-bulk`: ≈ 2× what a
/// 30-second run serves today.
const PERSIST_POOL: usize = 1024;
/// The ascending 6-scale persistence grid, 0.4 to 1.1.
const PERSIST_GRID: [f64; 6] = [0.4, 0.54, 0.68, 0.82, 0.96, 1.1];
/// Open-loop probe schedule: mean rate and the number scheduled.
const PROBE_RATE_HZ: f64 = 20.0;
const PROBE_POOL: usize = 4096;
/// Probe shape: a noisy 10-point ring served at 2 scales.
const PROBE_POINTS: usize = 10;
const PROBE_GRID: [f64; 2] = [0.7, 1.3];
/// `repeat-sharded`: catalogue size, Zipf exponent, requests drawn.
const CATALOGUE: usize = 200;
const ZIPF_S: f64 = 1.1;
const REPEAT_DRAWS: usize = 40_000;
/// Jobs served before the measured phase, drawn from their own stream.
const WARMUP_JOBS: usize = 8;
const WARMUP_SALT: u64 = 0x005E_ED0F_3A4B;
const PROBE_SALT: u64 = 0x009B_0BE5;

/// A traffic mix the benchmark can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct gearbox windows, 4 in flight, single engine.
    GearboxStream,
    /// Bulk persistence jobs, 4 in flight, plus open-loop Interactive
    /// probes, single engine.
    PersistBulk,
    /// Zipf repeats over a 200-job catalogue, 8 in flight, two shards.
    RepeatSharded,
}

/// The fixed serving and load parameters of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Closed-loop tickets held in flight.
    pub in_flight: usize,
    /// Engine shards behind the service.
    pub shards: usize,
    /// Per-shard LRU result-cache entries.
    pub cache_capacity: usize,
    /// Every n-th closed-loop request is Interactive (0: none).
    pub interactive_every: usize,
    /// Class of the other closed-loop requests.
    pub class: Priority,
    /// Mean open-loop probe rate (0: no probes).
    pub probe_rate_hz: f64,
    /// Distinct inputs behind the closed-loop stream.
    pub distinct_inputs: usize,
    /// ε-grid of the closed-loop jobs.
    pub grid: &'static [f64],
    /// Whether closed-loop jobs request persistence.
    pub persistence: bool,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::GearboxStream, Workload::PersistBulk, Workload::RepeatSharded];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GearboxStream => "gearbox-stream",
            Workload::PersistBulk => "persist-bulk",
            Workload::RepeatSharded => "repeat-sharded",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn params(self) -> Params {
        const GEARBOX_GRID: [f64; 3] = [0.6, 1.0, 1.4];
        let base = Params {
            in_flight: 4,
            shards: 1,
            cache_capacity: EngineConfig::default().cache_capacity,
            interactive_every: 8,
            class: Priority::Normal,
            probe_rate_hz: 0.0,
            distinct_inputs: GEARBOX_POOL,
            grid: &GEARBOX_GRID,
            persistence: false,
        };
        match self {
            Workload::GearboxStream => base,
            Workload::PersistBulk => Params {
                // With 2 in flight the two jobs drift in and out of
                // sharing a micro-batch, so a Bulk first slice is either
                // immediate or waits out a whole batch, and the share of
                // each swings from second to second; the run's
                // first-slice p50 then spread 0.29 over ten seeds. With 4,
                // every job waits behind a formed batch.
                in_flight: 4,
                interactive_every: 0,
                class: Priority::Bulk,
                probe_rate_hz: PROBE_RATE_HZ,
                distinct_inputs: PERSIST_POOL,
                grid: &PERSIST_GRID,
                persistence: true,
                ..base
            },
            Workload::RepeatSharded => Params {
                in_flight: 8,
                shards: 2,
                cache_capacity: 48,
                distinct_inputs: CATALOGUE,
                ..base
            },
        }
    }

    /// The service configuration: `shards × workers = nproc`.
    pub fn service_config(self, nproc: usize) -> ServiceConfig {
        let p = self.params();
        ServiceConfig {
            engine: EngineConfig {
                workers: (nproc / p.shards).max(1),
                batch_seed: BATCH_SEED,
                cache_capacity: p.cache_capacity,
                ..EngineConfig::default()
            },
            shards: p.shards,
            ..ServiceConfig::default()
        }
    }

    /// Every parameter that shapes the run, for the metadata line.
    pub fn describe(self, nproc: usize) -> Vec<(&'static str, String)> {
        let p = self.params();
        let s = self.service_config(nproc);
        let mut out = vec![
            ("in_flight", p.in_flight.to_string()),
            ("shards", s.shards.to_string()),
            ("workers_per_shard", s.engine.workers.to_string()),
            ("cache_capacity_per_shard", s.engine.cache_capacity.to_string()),
            ("max_batch_size", s.max_batch_size.to_string()),
            ("max_linger_ms", format!("{}", s.max_linger.as_secs_f64() * 1e3)),
            ("interactive_every", p.interactive_every.to_string()),
            ("class", format!("{:?}", p.class)),
            ("distinct_inputs", p.distinct_inputs.to_string()),
            ("grid", format!("{:?}", p.grid)),
            ("persistence", p.persistence.to_string()),
            ("max_homology_dim", "1".to_string()),
            ("precision_qubits", PRECISION_QUBITS.to_string()),
            ("shots", SHOTS.to_string()),
            ("window", format!("{WINDOW_LEN} samples, stride {WINDOW_STRIDE}")),
            ("takens", "d=3 tau=3 stride=12".to_string()),
            ("batch_seed", BATCH_SEED.to_string()),
        ];
        if p.probe_rate_hz > 0.0 {
            out.push(("probe_rate_hz", p.probe_rate_hz.to_string()));
            out.push(("probe", format!("{PROBE_POINTS}-point ring at {PROBE_GRID:?}")));
        }
        if self == Workload::RepeatSharded {
            out.push(("zipf_s", ZIPF_S.to_string()));
        }
        out
    }
}

/// One closed-loop request: which input, in which class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Inputs::jobs`].
    pub input: usize,
    /// QoS class it is submitted in.
    pub priority: Priority,
}

/// One open-loop probe: which input, due how long after the previous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Index into [`Inputs::jobs`].
    pub input: usize,
    /// Gap since the previous probe was due (or the phase started).
    pub gap: Duration,
}

/// Everything a run serves, derived from the seed alone.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The distinct inputs; requests and probes point into it.
    pub jobs: Vec<BettiJob>,
    /// The closed-loop request sequence, in submission order.
    pub stream: Vec<Request>,
    /// The open-loop probe schedule (empty without probes).
    pub probes: Vec<Probe>,
    /// Served before the measured phase, never measured.
    pub warmup: Vec<BettiJob>,
}

/// The seeded inputs of `workload`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let p = workload.params();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs = main_jobs(&p, p.distinct_inputs, &mut rng);
    let stream_len = if workload == Workload::RepeatSharded { REPEAT_DRAWS } else { jobs.len() };
    let zipf = Zipf::new(CATALOGUE, ZIPF_S);
    let stream = (0..stream_len)
        .map(|i| {
            let input = match workload {
                Workload::RepeatSharded => zipf.sample(&mut rng),
                _ => i,
            };
            let interactive =
                p.interactive_every > 0 && i % p.interactive_every == p.interactive_every - 1;
            Request { input, priority: if interactive { Priority::Interactive } else { p.class } }
        })
        .collect();
    let mut probes = Vec::new();
    if p.probe_rate_hz > 0.0 {
        let mut rng = StdRng::seed_from_u64(seed ^ PROBE_SALT);
        for _ in 0..PROBE_POOL {
            let ring = synthetic::circle(PROBE_POINTS, 1.0, 0.1, &mut rng);
            let mut job = BettiJob::new(ring, PROBE_GRID.to_vec());
            job.estimator = estimator();
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            probes.push(Probe {
                input: jobs.len(),
                gap: Duration::from_secs_f64(-u.ln() / p.probe_rate_hz),
            });
            jobs.push(job);
        }
    }
    let warmup = main_jobs(&p, WARMUP_JOBS, &mut StdRng::seed_from_u64(seed ^ WARMUP_SALT));
    Inputs { jobs, stream, probes, warmup }
}

fn estimator() -> EstimatorConfig {
    EstimatorConfig {
        precision_qubits: PRECISION_QUBITS,
        shots: SHOTS,
        ..EstimatorConfig::default()
    }
}

/// `n` distinct gearbox-window jobs of the workload's shape; healthy and
/// fault windows alternate.
fn main_jobs(p: &Params, n: usize, rng: &mut StdRng) -> Vec<BettiJob> {
    let spec = GearboxJobSpec {
        epsilons: p.grid.to_vec(),
        estimator: estimator(),
        ..GearboxJobSpec::default()
    };
    let mut jobs = Vec::with_capacity(n);
    while jobs.len() < n {
        let windows = sliding_window_stream(
            &GearboxConfig::default(),
            WINDOWS_PER_RECORD,
            WINDOW_LEN,
            WINDOW_STRIDE,
            rng,
        );
        jobs.extend(jobs_from_windows(&windows, &spec));
    }
    jobs.truncate(n);
    if p.persistence {
        jobs = jobs.into_iter().map(BettiJob::with_persistence).collect();
    }
    jobs
}

/// Zipf(s) over ranks `0..n`: rank `r` drawn with weight `1/(r+1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(jobs: &[BettiJob]) -> Vec<u64> {
        jobs.iter().map(BettiJob::fingerprint).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let (a, b) = (generate(w, 42), generate(w, 42));
            assert_eq!(bits(&a.jobs), bits(&b.jobs), "{}", w.name());
            assert_eq!(a.stream, b.stream, "{}", w.name());
            assert_eq!(a.probes, b.probes, "{}", w.name());
            assert_eq!(bits(&a.warmup), bits(&b.warmup), "{}", w.name());
            let c = generate(w, 43);
            assert_ne!(bits(&a.jobs), bits(&c.jobs), "{}: seed must matter", w.name());
        }
    }

    #[test]
    fn workload_shapes() {
        let g = generate(Workload::GearboxStream, 1);
        assert_eq!(g.jobs[0].cloud.len(), 42);
        let mut fps = bits(&g.jobs);
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), g.jobs.len(), "gearbox windows are distinct");
        assert_eq!(g.stream[7].priority, Priority::Interactive);
        assert_eq!(g.stream[8].priority, Priority::Normal);

        let p = generate(Workload::PersistBulk, 1);
        assert!(p
            .stream
            .iter()
            .all(|r| r.priority == Priority::Bulk && p.jobs[r.input].persistence));
        assert!(p.probes.iter().all(|q| !p.jobs[q.input].persistence));
        assert!(p.jobs[p.probes[0].input].cloud.len() == PROBE_POINTS);

        let r = generate(Workload::RepeatSharded, 1);
        assert_eq!(r.jobs.len(), CATALOGUE);
        assert!(r.stream.iter().all(|q| q.input < CATALOGUE));
        assert!(r.warmup.iter().all(|w| !r.jobs.iter().any(|j| j.same_request(w))));
    }

    #[test]
    fn zipf_follows_its_weights() {
        let zipf = Zipf::new(CATALOGUE, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(9);
        let draws = 200_000;
        let mut counts = vec![0usize; CATALOGUE];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let norm: f64 = (1..=CATALOGUE).map(|k| (k as f64).powf(-ZIPF_S)).sum();
        for rank in [0, 1, 9, 99] {
            let expected = ((rank + 1) as f64).powf(-ZIPF_S) / norm;
            let seen = counts[rank] as f64 / draws as f64;
            assert!(
                (seen - expected).abs() < 0.1 * expected + 1e-3,
                "rank {rank}: {seen} vs {expected}"
            );
        }
        assert!(counts.iter().all(|&c| c > 0), "every catalogue entry is drawn");
        assert_eq!(Zipf::new(1, ZIPF_S).sample(&mut rng), 0);
    }
}
