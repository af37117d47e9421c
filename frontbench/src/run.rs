//! One invocation: set up (several times, timing each), drive the
//! measured phase, gate what was served, report.
//!
//! An untraced run (`--trace 0`) measures one phase of `--seconds` and
//! reports the end-to-end metrics. A traced run (`--trace 1`) measures
//! an untraced half and a traced half on a second service built with
//! ticket tracing, replays the run's inputs through the lower layers,
//! writes its spans, and reports the per-layer metrics.

use crate::args::Args;
use crate::gate::{result_bits, Gate, Tally};
use crate::layers::{self, per_job};
use crate::loadgen::{drive, ms, Phase, Plan, Sample};
use crate::report::{json_str, result_line, Metrics, END_TO_END, PER_LAYER, UNBOUNDED};
use crate::spans::SpanLog;
use crate::stats::{blocked_percentile, median, BLOCKS};
use crate::workload::{generate, Inputs, Workload, BATCH_SEED};
use qtda_engine::{BatchEngine, BettiJob, EngineConfig, EngineStats};
use qtda_service::{
    MetricsSnapshot, Priority, QtdaService, ServiceStats, Telemetry, TicketOutcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// `gearbox-stream` jobs compared bit for bit with `run_batch`, drawn
/// from the first requests of the stream (every run serves those).
const REFERENCE_SAMPLE: usize = 12;
const REFERENCE_WINDOW: usize = 64;
const REFERENCE_SALT: u64 = 0x00C0_FFEE;
/// Distinct inputs the traced run replays through the lower layers.
const REPLAY_MAX: usize = 48;
/// A phase may run on to this multiple of its time while it lacks the
/// samples a p90 needs.
const OVERRUN: u32 = 2;

/// What set-up builds; set-up is timed as a whole.
struct Setup {
    inputs: Inputs,
    gate: Gate,
    service: QtdaService,
}

fn set_up(args: &Args, nproc: usize) -> Result<Setup, String> {
    let workload = args.workload;
    let inputs = generate(workload, args.seed);
    let reference = match workload {
        Workload::GearboxStream => reference_sample(&inputs, args.seed, nproc),
        _ => HashMap::new(),
    };
    let mut gate = Gate::new(reference, workload == Workload::RepeatSharded);
    for (i, job) in inputs.jobs.iter().enumerate().filter(|(_, job)| job.persistence) {
        gate.precompute(i, job);
    }
    let service = QtdaService::new(workload.service_config(nproc));
    warm_up(&service, &inputs.warmup)?;
    Ok(Setup { inputs, gate, service })
}

/// Bits of `BatchEngine::run_batch` answers for a seeded sample of the
/// stream's first inputs, with the service's batch seed.
fn reference_sample(inputs: &Inputs, seed: u64, nproc: usize) -> HashMap<usize, Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ REFERENCE_SALT);
    let mut chosen = BTreeSet::new();
    while chosen.len() < REFERENCE_SAMPLE {
        chosen.insert(inputs.stream[rng.gen_range(0..REFERENCE_WINDOW)].input);
    }
    let jobs: Vec<BettiJob> = chosen.iter().map(|&i| inputs.jobs[i].clone()).collect();
    let engine = BatchEngine::new(EngineConfig {
        workers: nproc,
        batch_seed: BATCH_SEED,
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    chosen.into_iter().zip(engine.run_batch(&jobs)).map(|(i, r)| (i, result_bits(&r))).collect()
}

/// Serves the warm-up jobs and waits for all of them.
fn warm_up(service: &QtdaService, jobs: &[BettiJob]) -> Result<(), String> {
    let tickets = jobs
        .iter()
        .map(|job| service.submit(job.clone()).map_err(|e| format!("warm-up refused: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    for ticket in tickets {
        if let TicketOutcome::Aborted(reason) = ticket.outcome() {
            return Err(format!("warm-up job aborted: {reason}"));
        }
    }
    Ok(())
}

/// The serving counters a traced phase is measured between.
struct Counters {
    service: ServiceStats,
    engine: EngineStats,
    registry: MetricsSnapshot,
}

impl Counters {
    fn read(service: &QtdaService) -> Counters {
        Counters {
            service: service.stats(),
            engine: service.cluster().map_or_else(|| service.engine().stats(), |c| c.stats()),
            registry: service.registry().snapshot(),
        }
    }
}

fn completed(samples: &[Sample]) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(|s| s.result().is_some())
}

/// Runs one invocation and returns the lines to print: a metadata line,
/// then the result line.
pub fn run(args: &Args) -> Result<Vec<String>, String> {
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = args.workload;
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(set_up(args, nproc)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Setup { inputs, mut gate, service } = setup.expect("set up at least once");

    let in_flight = workload.params().in_flight;
    let plan = |first_request, first_probe, min_duration: Duration| Plan {
        inputs: &inputs,
        in_flight,
        first_request,
        first_probe,
        min_duration,
        max_duration: min_duration * OVERRUN,
    };
    let seconds = Duration::from_secs(args.seconds);
    let mut metrics = Metrics::default();
    let mut meta = Vec::new();
    let (table, phases) = if args.trace {
        let half = (seconds / 2).max(Duration::from_secs(1));
        let untraced = drive(&service, &plan(0, 0, half))?;
        service.shutdown();
        let traced_service = QtdaService::with_telemetry(
            workload.service_config(nproc),
            Telemetry::with_ticket_traces(),
        );
        warm_up(&traced_service, &inputs.warmup)?;
        let before = Counters::read(&traced_service);
        let traced =
            drive(&traced_service, &plan(untraced.next_request, untraced.next_probe, half))?;
        let after = Counters::read(&traced_service);
        traced_service.shutdown();
        gate.check(&inputs.jobs, &untraced.samples)?;
        gate.check(&inputs.jobs, &traced.samples)?;

        let mut log = SpanLog::new(epoch);
        per_layer(&mut metrics, &inputs, &untraced, &traced, &before, &after, workload, &mut log);
        let path = spans_path(args);
        std::fs::create_dir_all(path.parent().expect("the spans file has a directory"))
            .and_then(|()| std::fs::write(&path, log.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        meta.push(("spans_file", json_str(&path.display().to_string())));
        meta.push(("spans", log.len().to_string()));
        (&PER_LAYER[..], vec![untraced, traced])
    } else {
        let phase = drive(&service, &plan(0, 0, seconds))?;
        service.shutdown();
        gate.check(&inputs.jobs, &phase.samples)?;
        end_to_end(&mut metrics, &phase, &gate.tally, &setup_s)?;
        (&END_TO_END[..], vec![phase])
    };
    let tally = gate.tally;

    // Aborted tickets and wrong answers fail the gate before this
    // point, so what remains to count as failed is refusals.
    let failed = tally.refused;
    let (metrics_json, counts_json) = metrics.render(table)?;
    let unbounded = if args.trace { "{}".to_string() } else { metrics.render(&UNBOUNDED)?.0 };
    let phase_json: Vec<String> = phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "{{\"traced\": {}, \"sent_s\": {}, \"submitted\": {}, \"completed\": {}, \"jobs_per_s\": {}, \"exhausted\": {}}}",
                args.trace && i == 1,
                (p.stopped - p.started).as_secs_f64(),
                p.samples.len(),
                completed(&p.samples).count(),
                p.jobs_per_s(),
                p.exhausted
            )
        })
        .collect();
    let params: Vec<String> = workload
        .describe(nproc)
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(&v)))
        .collect();
    let short: Vec<String> = metrics.short.iter().map(|s| json_str(s)).collect();
    let rustc =
        output_of(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".to_string());
    let mut fields = vec![
        ("workload", json_str(workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("commit", json_str(&commit())),
        ("rustc", json_str(&rustc)),
        ("params", format!("{{{}}}", params.join(", "))),
        ("setup_s_runs", format!("{setup_s:?}")),
        ("phases", format!("[{}]", phase_json.join(", "))),
        ("attempted", tally.attempted.to_string()),
        ("refused", tally.refused.to_string()),
        ("classical_mismatches", tally.classical_mismatches.to_string()),
        ("failed_pct", (100.0 * failed as f64 / tally.attempted.max(1) as f64).to_string()),
        ("peak_rss_mb", peak_rss_mb()?.to_string()),
        ("unbounded", unbounded),
        ("samples", counts_json),
        ("short_percentiles", format!("[{}]", short.join(", "))),
    ];
    fields.extend(meta);
    let meta_json: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    Ok(vec![
        format!("{{\"meta\": {{{}}}}}", meta_json.join(", ")),
        result_line(tally.attempted, failed, &metrics_json),
    ])
}

/// The end-to-end metrics of an untraced phase. Every one must be
/// supported by its samples.
fn end_to_end(
    m: &mut Metrics,
    phase: &Phase,
    tally: &Tally,
    setup_s: &[f64],
) -> Result<(), String> {
    let mut done: Vec<&Sample> = completed(&phase.samples).collect();
    done.sort_by_key(|s| s.origin);
    let first: Vec<f64> = done.iter().filter_map(|s| s.first_slice_ms()).collect();
    let complete: Vec<f64> = done.iter().map(|s| s.complete_ms()).collect();
    let interactive: Vec<f64> = done
        .iter()
        .filter(|s| s.priority == Priority::Interactive)
        .filter_map(|s| s.first_slice_ms())
        .collect();
    m.set("setup_s", median(setup_s), setup_s.len());
    m.set("jobs_per_s", median(&phase.block_rates(BLOCKS)), done.len());
    for (name, samples, p) in [
        ("first_slice_p50_ms", &first, 50),
        ("first_slice_p90_ms", &first, 90),
        ("complete_p50_ms", &complete, 50),
        ("complete_p90_ms", &complete, 90),
        ("interactive_first_slice_p50_ms", &interactive, 50),
        ("interactive_first_slice_p90_ms", &interactive, 90),
    ] {
        m.set_or_short(name, blocked_percentile(samples, p), samples.len());
    }
    m.set(
        "betti_exact_pct",
        100.0 * tally.exact_hits as f64 / tally.exact_total.max(1) as f64,
        tally.exact_total,
    );
    if m.short.is_empty() {
        Ok(())
    } else {
        Err(format!("too few samples for {:?}", m.short))
    }
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    inputs: &Inputs,
    untraced: &Phase,
    traced: &Phase,
    before: &Counters,
    after: &Counters,
    workload: Workload,
    log: &mut SpanLog,
) {
    let samples = &traced.samples;
    let tickets = samples.len();
    let stages = layers::stages(samples, log);

    let submit_us: Vec<f64> =
        samples.iter().map(|s| ms(s.submit_end - s.submit_start) * 1e3).collect();
    m.set_percentile("service.submit_call_us_p50", &submit_us, 50);
    m.set_percentile("service.queue_wait_ms_p50", &stages.queue_wait_ms, 50);
    m.set_percentile("service.linger_ms_p50", &stages.linger_ms, 50);
    m.set_percentile("service.delivery_ms_p50", &stages.delivery_ms, 50);
    let (s0, s1) = (&before.service, &after.service);
    let batches = s1.batches_formed - s0.batches_formed;
    let batched = s1.jobs_batched - s0.jobs_batched;
    m.set("service.mean_batch_size", batched as f64 / batches.max(1) as f64, batches as usize);
    m.set("service.batches_formed", batches as f64, 1);
    m.set(
        "service.rejected_overloaded",
        (s1.rejected_overloaded - s0.rejected_overloaded) as f64,
        1,
    );

    let reg = after.registry.delta_since(&before.registry);
    let shards = workload.params().shards;
    let routed: Vec<f64> = (0..shards)
        .map(|i| reg.counter_with("qtda_cluster_routed_total", &[("shard", &i.to_string())]) as f64)
        .collect();
    // A single engine has no router: all traffic lands on it, balance 1.
    let balance = if shards == 1 {
        1.0
    } else {
        let mean = routed.iter().sum::<f64>() / shards as f64;
        routed.iter().copied().fold(0.0, f64::max) / mean.max(f64::MIN_POSITIVE)
    };
    m.set("cluster.routed_max_over_mean", balance, shards);
    m.set("cluster.steals_total", reg.counter_family("qtda_cluster_steals_total") as f64, 1);
    m.set(
        "cluster.hot_promotions_total",
        reg.counter("qtda_cluster_hot_promotions_total") as f64,
        1,
    );

    let (e0, e1) = (&before.engine, &after.engine);
    let served = e1.jobs_served - e0.jobs_served;
    let hits = e1.cache_hits - e0.cache_hits;
    m.set("engine.cache_hit_pct", 100.0 * hits as f64 / served.max(1) as f64, served as usize);
    m.set("engine.cache_evictions", (e1.cache_evictions - e0.cache_evictions) as f64, 1);
    m.set("engine.dedup_total", (e1.deduplicated - e0.deduplicated) as f64, 1);
    m.set("engine.cache_probe_ms_sum", stages.cache_probe_ms_sum, stages.traced);
    m.set("engine.computed_jobs", (e1.computed_jobs - e0.computed_jobs) as f64, 1);
    m.set("engine.units_executed", (e1.units_executed - e0.units_executed) as f64, 1);
    m.set("engine.solve_ms_sum", stages.solve_ms_sum, stages.traced);
    m.set("engine.arena_build_ms_sum", stages.arena_build_ms_sum, stages.traced);
    m.set("engine.persistence_ms_sum", stages.persistence_ms_sum, stages.traced);
    m.set("engine.arena_bytes_peak", e1.arena_bytes_peak as f64, 1);

    // The run's distinct inputs in submission order, each under the
    // ticket that first carried it.
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.submit_start);
    let mut seen = BTreeSet::new();
    let distinct = order
        .into_iter()
        .filter(|s| seen.insert(s.input))
        .take(REPLAY_MAX)
        .map(|s| (s.ticket, &inputs.jobs[s.input]));
    let r = layers::replay(distinct, log);
    m.set_percentile("core.unit_dense_ms_p50", &r.dense_ms, 50);
    m.set("core.unit_dense_count", r.dense_ms.len() as f64, r.jobs);
    m.set_percentile("core.unit_sparse_ms_p50", &r.sparse_ms, 50);
    m.set("core.unit_sparse_count", r.sparse_ms.len() as f64, r.jobs);
    m.set("core.busy_ms_per_job", per_job(r.busy_ms, r.jobs), r.jobs);
    m.set_percentile("tda.arena_build_ms_p50", &r.arena_build_ms, 50);
    m.set_percentile("tda.arena_bytes_p50", &r.arena_bytes, 50);
    m.set_percentile("tda.persist_row_ms_p50", &r.persist_row_ms, 50);
    m.set_percentile("tda.bars_ms_p50", &r.bars_ms, 50);
    m.set("linalg.matvecs_per_job", per_job(r.profile.matvecs as f64, r.jobs), r.jobs);
    m.set(
        "linalg.lanczos_iterations_per_job",
        per_job(r.profile.lanczos_iterations as f64, r.jobs),
        r.jobs,
    );
    m.set("linalg.restarts_per_job", per_job(r.profile.restarts as f64, r.jobs), r.jobs);
    m.set("linalg.block_width_max", r.profile.block_width as f64, r.jobs);
    m.set("linalg.computed_mb_per_job", per_job(r.computed_bytes / 1e6, r.jobs), r.jobs);

    let coverage = 100.0 * stages.covered_ms_sum / stages.wall_ms_sum.max(f64::MIN_POSITIVE);
    m.set("obs.trace_coverage_pct", coverage, stages.traced);
    let (plain, with_traces) = (untraced.jobs_per_s(), traced.jobs_per_s());
    m.set("obs.tracing_overhead_pct", 100.0 * (plain - with_traces) / plain, tickets);
    let late: Vec<f64> =
        samples.iter().filter(|s| s.probe).map(|s| ms(s.submit_start - s.origin)).collect();
    m.set_percentile("loadgen.probe_late_ms_p90", &late, 90);
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The checkout root: the directory above this package.
fn checkout_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the package sits inside the checkout")
}

fn spans_path(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// The checkout's git commit, looking no higher than the checkout.
fn commit() -> String {
    let root = checkout_root();
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root));
    output_of(&mut git).unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// What a successful command printed, trimmed.
fn output_of(command: &mut Command) -> Option<String> {
    let out = command.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}
