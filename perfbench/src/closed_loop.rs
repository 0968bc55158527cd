//! The untraced load generator: a closed loop over a `CampaignService`.
//!
//! At most one campaign is outstanding per worker, as an experiment
//! that submits and then waits for outcomes would keep it. Every
//! handle is consumed from this one thread by polling, so each record is
//! timestamped when it leaves the service, not when a collector gets
//! round to it.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use evovm::{Bench, CampaignConfig, CampaignHandle, CampaignService, RunEvent, Scenario};

use crate::check::{Expected, StreamCheck};

/// One campaign of an iteration.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into the workload's benches.
    pub bench: usize,
    /// The submission.
    pub config: CampaignConfig,
}

/// How long the loop sleeps when no handle had an event.
const POLL: Duration = Duration::from_micros(100);

/// What the untraced iterations of one run measured, summed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Iterations completed.
    pub iterations: u64,
    /// Wall time inside iterations (added by the caller, which knows
    /// what an iteration's wall time includes).
    pub wall_s: f64,
    /// Process CPU time inside iterations (added by the caller).
    pub cpu_s: f64,
    /// Process allocations inside iterations (added by the caller).
    pub allocs: u64,
    /// Service jobs (campaigns and fork replays) completed inside
    /// iterations, from `ServiceMetrics` snapshots (added by the caller).
    pub jobs: u64,
    /// Production runs completed (records received).
    pub runs: u64,
    /// Training samples: one per Rep/Evolve record plus every fork sample.
    pub samples: u64,
    /// Per-run service time: the gap from the previous record on the same
    /// handle, or from the submission for a campaign's first run.
    pub run_ms: Vec<f64>,
    /// Executed virtual cycles of the campaigns that finished (from the
    /// pinned work).
    pub work_cycles: u64,
    /// Per executed run: service time per executed virtual kilocycle, ns.
    pub run_ns_per_kcycle: Vec<f64>,
    /// Speedups of Evolve records (virtual clock).
    pub evolve_speedups: Vec<f64>,
    /// Runs attempted (the runs every submitted campaign asked for).
    pub attempted: u64,
    /// Runs of campaigns that errored, panicked or mismatched their digest.
    pub failed: u64,
    /// Failure descriptions (first few).
    pub errors: Vec<String>,
    /// Time spent inside `submit`.
    pub submit_s: f64,
    /// Calls to `submit`.
    pub submits: u64,
    /// Wall time with fewer campaigns outstanding than workers.
    pub underfilled_s: f64,
}

impl LoopStats {
    fn fail(&mut self, runs: usize, why: String) {
        self.failed += runs as u64;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

struct Outstanding {
    job: usize,
    handle: CampaignHandle,
    last_event: Instant,
    stream: StreamCheck,
}

/// Run every job once through `service`, checking each campaign's
/// digest against `pinned[job]` when pins are given. Stops early
/// (counting the unfinished runs as failed) if `deadline` passes.
pub fn iterate(
    service: &CampaignService,
    benches: &[Arc<Bench>],
    jobs: &[Job],
    pinned: Option<&[Expected]>,
    deadline: Instant,
    stats: &mut LoopStats,
) {
    let workers = service.worker_count();
    let mut outstanding: Vec<Outstanding> = Vec::with_capacity(workers);
    let mut next = 0;
    let mut tick = Instant::now();
    loop {
        while outstanding.len() < workers && next < jobs.len() {
            let job = &jobs[next];
            let before = Instant::now();
            let submitted = service.submit(Arc::clone(&benches[job.bench]), job.config.clone());
            let after = Instant::now();
            stats.submit_s += (after - before).as_secs_f64();
            stats.submits += 1;
            stats.attempted += job.config.runs as u64;
            match submitted {
                Ok(handle) => outstanding.push(Outstanding {
                    job: next,
                    handle,
                    last_event: after,
                    stream: StreamCheck::default(),
                }),
                Err(error) => stats.fail(job.config.runs, format!("job {next}: {error}")),
            }
            next += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        let was_underfilled = outstanding.len() < workers;

        let mut progressed = false;
        let mut index = 0;
        while index < outstanding.len() {
            let slot = &mut outstanding[index];
            let scenario = jobs[slot.job].config.scenario;
            let mut finished = None;
            while let Some(event) = slot.handle.try_next_event() {
                progressed = true;
                match event {
                    RunEvent::Record(record) => {
                        let now = Instant::now();
                        let service_s = (now - slot.last_event).as_secs_f64();
                        stats.run_ms.push(service_s * 1e3);
                        let executed = pinned
                            .and_then(|p| p[slot.job].work.run_cycles.get(record.run_index))
                            .copied()
                            .unwrap_or(0);
                        if executed > 0 {
                            stats
                                .run_ns_per_kcycle
                                .push(service_s * 1e9 / (executed as f64 / 1e3));
                        }
                        slot.last_event = now;
                        stats.runs += 1;
                        if scenario != Scenario::Default {
                            stats.samples += 1;
                        }
                        if scenario == Scenario::Evolve {
                            stats.evolve_speedups.push(record.speedup);
                        }
                        slot.stream.record(&record);
                    }
                    RunEvent::ForkSample(sample) => {
                        stats.samples += 1;
                        slot.stream.fork_sample(&sample);
                    }
                    RunEvent::Finished(result) => {
                        finished = Some(result);
                        break;
                    }
                }
            }
            let Some(result) = finished else {
                index += 1;
                continue;
            };
            let slot = outstanding.swap_remove(index);
            let runs = jobs[slot.job].config.runs;
            let digest = slot.stream.finish();
            let expected = pinned.map(|p| &p[slot.job]);
            match (result, expected) {
                (Err(error), _) => stats.fail(runs, format!("job {}: {error}", slot.job)),
                (Ok(_), Some(expected)) if expected.digest != digest => stats.fail(
                    runs,
                    format!(
                        "job {}: output {digest:?} differs from pinned {:?}",
                        slot.job, expected.digest
                    ),
                ),
                (Ok(_), Some(expected)) => stats.work_cycles += expected.work.total(),
                (Ok(_), None) => {}
            }
        }

        let now = Instant::now();
        if was_underfilled {
            stats.underfilled_s += (now - tick).as_secs_f64();
        }
        tick = now;
        if now > deadline {
            for slot in outstanding.drain(..) {
                stats.fail(
                    jobs[slot.job].config.runs,
                    format!("job {}: deadline passed", slot.job),
                );
            }
            for job in &jobs[next..] {
                stats.attempted += job.config.runs as u64;
                stats.fail(job.config.runs, "deadline passed before submission".into());
            }
            break;
        }
        if !progressed {
            thread::sleep(POLL);
        }
    }
    stats.iterations += 1;
}
