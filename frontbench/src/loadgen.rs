//! The load generator: one thread keeps a fixed number of tickets in
//! flight (a closed loop) and sends probes on their seeded schedule (an
//! open loop). Each accepted ticket goes to an idle consumer thread that
//! drains it, so a first slice is stamped when it arrives rather than
//! when the generator gets round to it. Consumers are reused, so the
//! generator never spawns a thread between a completion and the next
//! submission.

use crate::stats::samples_needed;
use crate::workload::Inputs;
use qtda_engine::JobResult;
use qtda_service::{
    Priority, QosPolicy, QtdaService, StreamedSlice, Ticket, TicketOutcome, TicketTrace,
};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the generator waits for any ticket to resolve before it
/// declares the service hung.
const HANG_TIMEOUT: Duration = Duration::from_secs(60);

/// How a submission ended.
#[derive(Clone, Debug)]
pub enum Served {
    /// The ticket reached a terminal outcome.
    Outcome(TicketOutcome),
    /// `submit_with` refused the job.
    Refused(String),
    /// The ticket's stream closed without a terminal outcome.
    Lost,
}

/// One submission, as the generator and its consumer saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into [`Inputs::jobs`].
    pub input: usize,
    /// QoS class submitted in.
    pub priority: Priority,
    /// Sent by the open-loop schedule.
    pub probe: bool,
    /// Service ticket id (0 when refused).
    pub ticket: u64,
    /// Latency origin: the submit call, or the due time for a probe.
    pub origin: Instant,
    /// Around the `submit_with` call.
    pub submit_start: Instant,
    pub submit_end: Instant,
    /// First streamed slice, if any arrived.
    pub first_slice: Option<Instant>,
    /// Terminal outcome observed (or refusal).
    pub done: Instant,
    pub served: Served,
    /// Streamed slices in arrival order.
    pub slices: Vec<StreamedSlice>,
    /// The ticket's stage trace, when the service traces tickets.
    pub trace: Option<TicketTrace>,
}

impl Sample {
    /// The completed result, if the ticket completed.
    pub fn result(&self) -> Option<&Arc<JobResult>> {
        match &self.served {
            Served::Outcome(TicketOutcome::Completed(result)) => Some(result),
            _ => None,
        }
    }

    /// Origin → first slice.
    pub fn first_slice_ms(&self) -> Option<f64> {
        self.first_slice.map(|t| ms(t - self.origin))
    }

    /// Origin → terminal outcome.
    pub fn complete_ms(&self) -> f64 {
        ms(self.done - self.origin)
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one measured phase should send.
#[derive(Clone, Copy, Debug)]
pub struct Plan<'a> {
    pub inputs: &'a Inputs,
    /// Closed-loop tickets held in flight.
    pub in_flight: usize,
    /// First stream request and first probe this phase sends.
    pub first_request: usize,
    pub first_probe: usize,
    /// The phase sends for at least this long, and on until every
    /// reported p90 has its samples ...
    pub min_duration: Duration,
    /// ... but never longer than this.
    pub max_duration: Duration,
}

/// Everything one phase produced.
#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub started: Instant,
    /// When the generator stopped sending (then it drained).
    pub stopped: Instant,
    /// Where the next phase continues the stream and the schedule.
    pub next_request: usize,
    pub next_probe: usize,
    /// The stream or the probe schedule ran out before the time did.
    pub exhausted: bool,
}

impl Phase {
    /// Completed closed-loop jobs, by completion time. Probes are left
    /// out: the schedule, not the system, sets their rate.
    fn closed_loop_done(&self) -> impl Iterator<Item = Instant> + '_ {
        self.samples.iter().filter(|s| !s.probe && s.result().is_some()).map(|s| s.done)
    }

    /// Completed closed-loop jobs per second, from the phase start to
    /// the last completion.
    pub fn jobs_per_s(&self) -> f64 {
        let (count, last) =
            self.closed_loop_done().fold((0, self.started), |(n, last), t| (n + 1, last.max(t)));
        count as f64 / (last - self.started).as_secs_f64().max(1e-9)
    }

    /// Closed-loop completions per second in each of `blocks` equal
    /// windows of the sending period.
    pub fn block_rates(&self, blocks: usize) -> Vec<f64> {
        let window = (self.stopped - self.started) / blocks as u32;
        let mut counts = vec![0usize; blocks];
        for t in self.closed_loop_done() {
            let i = ((t - self.started).as_secs_f64() / window.as_secs_f64()) as usize;
            if let Some(c) = counts.get_mut(i) {
                *c += 1;
            }
        }
        counts.into_iter().map(|c| c as f64 / window.as_secs_f64()).collect()
    }
}

/// Reusable consumer threads, one per ticket in flight.
struct Consumers {
    handoff: Vec<Sender<(Ticket, Sample)>>,
    threads: Vec<JoinHandle<()>>,
    idle: Vec<usize>,
    done: Sender<(Option<usize>, Sample)>,
}

impl Consumers {
    fn new(done: Sender<(Option<usize>, Sample)>, count: usize) -> Consumers {
        let mut pool =
            Consumers { handoff: Vec::new(), threads: Vec::new(), idle: Vec::new(), done };
        for _ in 0..count {
            let id = pool.spawn();
            pool.idle.push(id);
        }
        pool
    }

    fn spawn(&mut self) -> usize {
        let id = self.threads.len();
        let (tx, rx) = channel::<(Ticket, Sample)>();
        let done = self.done.clone();
        let thread = std::thread::Builder::new()
            .name(format!("frontbench-consumer-{id}"))
            .spawn(move || {
                for (ticket, sample) in rx {
                    // Fails only when the generator already gave up.
                    if done.send((Some(id), consume(ticket, sample))).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning a consumer thread");
        self.handoff.push(tx);
        self.threads.push(thread);
        id
    }

    /// Hands a ticket to an idle consumer (a new one if all are busy).
    fn hand(&mut self, ticket: Ticket, sample: Sample) {
        let id = match self.idle.pop() {
            Some(id) => id,
            None => self.spawn(),
        };
        self.handoff[id].send((ticket, sample)).expect("consumer threads outlive the phase");
    }

    /// Closes every hand-off channel and joins the threads.
    fn join(self) -> Result<(), String> {
        drop(self.handoff);
        for thread in self.threads {
            thread.join().map_err(|_| "a consumer thread panicked".to_string())?;
        }
        Ok(())
    }
}

/// Drives `service` through one phase of `plan` and waits for every
/// submission to resolve.
pub fn drive(service: &QtdaService, plan: &Plan<'_>) -> Result<Phase, String> {
    let inputs = plan.inputs;
    let needed = samples_needed(90);
    let (tx, rx) = channel::<(Option<usize>, Sample)>();
    let mut consumers = Consumers::new(tx.clone(), plan.in_flight + 2);
    let mut samples: Vec<Sample> = Vec::new();
    let (mut next_request, mut next_probe) = (plan.first_request, plan.first_probe);
    let started = Instant::now();
    let mut next_due = inputs.probes.get(next_probe).map(|p| started + p.gap);
    let (mut in_flight, mut outstanding, mut interactive_done) = (0usize, 0usize, 0usize);
    let mut stopped: Option<Instant> = None;
    let mut exhausted = false;
    let launch =
        |input: usize, priority: Priority, due: Option<Instant>, consumers: &mut Consumers| {
            let job = inputs.jobs[input].clone();
            let submit_start = Instant::now();
            let submitted = service.submit_with(job, QosPolicy::with_priority(priority));
            let submit_end = Instant::now();
            let sample = Sample {
                input,
                priority,
                probe: due.is_some(),
                ticket: 0,
                origin: due.unwrap_or(submit_start),
                submit_start,
                submit_end,
                first_slice: None,
                done: submit_end,
                served: Served::Lost,
                slices: Vec::new(),
                trace: None,
            };
            match submitted {
                Ok(ticket) => consumers.hand(ticket, sample),
                Err(e) => {
                    let served = Served::Refused(e.to_string());
                    tx.send((None, Sample { served, ..sample }))
                        .expect("the generator holds the receiver");
                }
            }
        };
    loop {
        if stopped.is_none() {
            while in_flight < plan.in_flight {
                let Some(request) = inputs.stream.get(next_request) else {
                    exhausted = true;
                    break;
                };
                launch(request.input, request.priority, None, &mut consumers);
                next_request += 1;
                in_flight += 1;
                outstanding += 1;
            }
            while let Some(due) = next_due.filter(|&due| due <= Instant::now()) {
                launch(
                    inputs.probes[next_probe].input,
                    Priority::Interactive,
                    Some(due),
                    &mut consumers,
                );
                next_probe += 1;
                outstanding += 1;
                next_due = inputs.probes.get(next_probe).map(|p| due + p.gap);
                exhausted |= next_due.is_none();
            }
            let elapsed = started.elapsed();
            let enough = samples.len() >= needed && interactive_done >= needed;
            if exhausted || elapsed >= plan.max_duration || (elapsed >= plan.min_duration && enough)
            {
                stopped = Some(Instant::now());
            }
        }
        if stopped.is_some() && outstanding == 0 {
            break;
        }
        let wait = match (stopped, next_due) {
            (None, Some(due)) => due.saturating_duration_since(Instant::now()),
            _ => HANG_TIMEOUT,
        };
        match rx.recv_timeout(wait) {
            Ok((consumer, sample)) => {
                consumers.idle.extend(consumer);
                outstanding -= 1;
                if !sample.probe {
                    in_flight -= 1;
                }
                if sample.priority == Priority::Interactive && sample.result().is_some() {
                    interactive_done += 1;
                }
                samples.push(sample);
            }
            Err(RecvTimeoutError::Timeout) if wait < HANG_TIMEOUT => {}
            Err(_) => {
                return Err(format!(
                    "no ticket resolved within {HANG_TIMEOUT:?} ({outstanding} outstanding)"
                ))
            }
        }
    }
    consumers.join()?;
    Ok(Phase {
        samples,
        started,
        stopped: stopped.expect("the loop ends only after stopping"),
        next_request,
        next_probe,
        exhausted,
    })
}

/// Drains a ticket, stamping its first slice and its end.
fn consume(mut ticket: Ticket, mut sample: Sample) -> Sample {
    sample.ticket = ticket.id();
    while let Some(slice) = ticket.next_slice() {
        sample.first_slice.get_or_insert_with(Instant::now);
        sample.slices.push(slice);
    }
    sample.done = Instant::now();
    sample.served = ticket.outcome_ref().cloned().map_or(Served::Lost, Served::Outcome);
    sample.trace = ticket.trace();
    sample
}
