//! End-to-end and per-layer benchmark of the evolvable VM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through a
//! `CampaignService` closed loop. `--trace 1` runs the same campaigns
//! twice more on one thread with spans around every layer call and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object; lines before it starting with `#` say how the run
//! was sized. See `perfbench/README.md` for the workloads and metrics.

mod check;
mod closed_loop;
mod direct;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use evovm::metrics::geomean;
use evovm::{CampaignService, ShutdownMode, StoreMetricsSnapshot};

use crate::check::{CampaignDigest, Expected};
use crate::closed_loop::LoopStats;
use crate::direct::Pass;
use crate::workload::{Setup, Workload};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Hard stop for the whole run, inside the 180 s a run may take.
const DEADLINE: Duration = Duration::from_secs(170);
/// Where store files go, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One run's result line.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// A report whose outcome fields come from the untraced window.
    fn for_window(stats: &LoopStats) -> Report {
        Report {
            correct: stats.failed == 0 && stats.runs > 0,
            attempted: stats.attempted.max(1),
            failed: stats.failed,
            ..Report::default()
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile of `values` (linear interpolation between ranks).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Run untraced iterations through the service until `seconds` have
/// passed, checking every campaign against `pinned`. Only whole
/// iterations count, so every run's mix of campaigns is the same.
fn window(
    setup: &Setup,
    workers: usize,
    pinned: &[Expected],
    seconds: u64,
    deadline: Instant,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let begin = Instant::now();
    for iteration in 0.. {
        setup.reset_store(&format!("iter-{iteration}"));
        let cpu = sys::process_cpu_s();
        let allocs = sys::process_allocs();
        let started = Instant::now();
        // `table1-cold` gets a fresh service, so its oracle starts cold.
        let fresh = setup
            .service
            .is_none()
            .then(|| CampaignService::builder().workers(workers).spawn());
        let service = setup
            .service
            .as_ref()
            .or(fresh.as_ref())
            .expect("a long-lived or a fresh service");
        let jobs_before = service.metrics();
        closed_loop::iterate(
            service,
            &setup.benches,
            &setup.jobs,
            Some(pinned),
            deadline,
            &mut stats,
        );
        stats.wall_s += started.elapsed().as_secs_f64();
        stats.cpu_s += sys::process_cpu_s() - cpu;
        stats.allocs += sys::process_allocs() - allocs;
        let jobs_after = service.metrics();
        stats.jobs += (jobs_after.completed + jobs_after.forks_completed)
            - (jobs_before.completed + jobs_before.forks_completed);
        if let Some(service) = fresh {
            service.shutdown(ShutdownMode::Drain);
        }
        if begin.elapsed().as_secs() >= seconds || Instant::now() > deadline {
            break;
        }
    }
    stats
}

fn describe(report: &mut Report, setup: &Setup, workers: usize, stats: &LoopStats) {
    let runs_per_iteration: usize = setup.jobs.iter().map(|j| j.config.runs).sum();
    report.notes.push(format!(
        "nproc={} workers={workers} campaigns_per_iteration={} runs_per_iteration={runs_per_iteration} \
         iterations={} run_samples={} wall_s={:.3}",
        sys::nproc(),
        setup.jobs.len(),
        stats.iterations,
        stats.run_ms.len(),
        stats.wall_s
    ));
    for error in &stats.errors {
        report.notes.push(format!("failure: {error}"));
    }
}

fn run_untraced(args: &Args, dir: &Path, deadline: Instant) -> Result<Report, String> {
    let workers = sys::nproc();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for repeat in 0..SETUP_REPEATS {
        // Dropping the previous set-up stops its service first.
        drop(setup.take());
        let started = Instant::now();
        let fresh = workload::setup(
            args.workload,
            args.seed,
            workers,
            dir.join(format!("setup-{repeat}")),
            deadline,
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
        setup = Some(fresh);
    }
    let setup = setup.expect("at least one set-up");
    let pinned = setup.pin(workers)?;
    sys::reset_peak_rss();
    let stats = window(&setup, workers, &pinned, args.seconds, deadline);

    let peak_rss_mb = sys::peak_rss_mb();

    let mut report = Report::for_window(&stats);
    describe(&mut report, &setup, workers, &stats);
    report.notes.push(format!(
        "service figures (seed-dependent, ungated): {}",
        service_figures(&stats)
            .iter()
            .map(|(name, value, unit)| format!("{name}={value:.4}{unit}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.notes.push(format!("peak_rss_mb={peak_rss_mb:.2}"));
    let kcycles = stats.work_cycles as f64 / 1e3;
    report.metric("setup_s", quantile(&setup_s, 0.5), "s");
    report.metric(
        "mcycles_per_s",
        ratio(stats.work_cycles as f64 / 1e6, stats.wall_s),
        "Mcycle/s",
    );
    report.metric(
        "run_p50_ns_per_kcycle",
        quantile(&stats.run_ns_per_kcycle, 0.5),
        "ns/kcycle",
    );
    report.metric(
        "run_p90_ns_per_kcycle",
        quantile(&stats.run_ns_per_kcycle, 0.9),
        "ns/kcycle",
    );
    report.metric(
        "cpu_ns_per_kcycle",
        ratio(stats.cpu_s * 1e9, kcycles),
        "ns/kcycle",
    );
    report.metric("speedup_geomean", geomean(&stats.evolve_speedups), "x");
    report.metric(
        "allocs_per_run",
        ratio(stats.allocs as f64, stats.runs as f64),
        "count",
    );
    report.metric(
        "ok_share",
        1.0 - ratio(stats.failed as f64, stats.attempted as f64),
        "ratio",
    );
    Ok(report)
}

/// The service's raw per-run figures over the untraced window. They
/// depend on the sizes of the inputs a seed generates, so they are
/// reported for reading, not gated.
fn service_figures(stats: &LoopStats) -> Vec<(&'static str, f64, &'static str)> {
    let runs = stats.runs as f64;
    vec![
        ("service.runs_per_s", ratio(runs, stats.wall_s), "1/s"),
        ("service.run_p50_ms", quantile(&stats.run_ms, 0.5), "ms"),
        ("service.run_p90_ms", quantile(&stats.run_ms, 0.9), "ms"),
        (
            "service.cpu_ms_per_run",
            ratio(stats.cpu_s * 1e3, runs),
            "ms",
        ),
        (
            "service.samples_per_s",
            ratio(stats.samples as f64, stats.wall_s),
            "1/s",
        ),
    ]
}

/// Per-name and per-layer totals of one traced pass.
#[derive(Debug, Default)]
struct Totals {
    /// Span name → (calls, total ns).
    by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Layer → self ns, over campaign trees only.
    self_ns: BTreeMap<&'static str, u64>,
    /// Layer → self allocations, over campaign trees only.
    self_allocs: BTreeMap<&'static str, u64>,
    /// Sum of campaign root durations.
    root_ns: u64,
    /// Sum of detached span durations.
    detached_ns: u64,
}

impl Totals {
    fn of(pass: &Pass) -> Result<Totals, String> {
        let spans = pass.tracer.spans();
        let analysis = trace::analyse(spans);
        trace::check(spans, &analysis)?;
        let mut totals = Totals::default();
        for (index, span) in spans.iter().enumerate() {
            let entry = totals.by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.dur_ns();
            if span.detached {
                totals.detached_ns += span.dur_ns();
                continue;
            }
            if span.parent.is_none() {
                totals.root_ns += span.dur_ns();
            }
            *totals.self_ns.entry(span.layer()).or_default() += analysis.self_ns[index];
            *totals.self_allocs.entry(span.layer()).or_default() += analysis.self_allocs[index];
        }
        Ok(totals)
    }

    fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Mean duration of `name` spans in `unit_ns` units (0 without calls).
    fn mean(&self, name: &str, unit_ns: f64) -> f64 {
        ratio(
            self.total_ns(name) as f64 / unit_ns,
            self.calls(name) as f64,
        )
    }

    fn self_share(&self, layer: &str) -> f64 {
        ratio(
            self.self_ns.get(layer).copied().unwrap_or(0) as f64,
            self.root_ns as f64,
        )
    }

    fn allocs(&self, layer: &str) -> u64 {
        self.self_allocs.get(layer).copied().unwrap_or(0)
    }
}

/// Run a traced pass, returning it with its totals, digests, store
/// traffic and the CPU it took net of detached spans.
fn traced_pass(
    setup: &Setup,
    tag: &str,
) -> Result<(Pass, Totals, Vec<Expected>, StoreMetricsSnapshot, f64), String> {
    let cpu = sys::process_cpu_s();
    let (pass, digests, store) = setup.direct_pass(true, tag, (0, 1))?;
    let digests = digests.into_iter().flatten().collect();
    let cpu_s = sys::process_cpu_s() - cpu;
    let totals = Totals::of(&pass).map_err(|e| format!("tracer self-test ({tag}): {e}"))?;
    let in_tree_cpu_s = cpu_s - totals.detached_ns as f64 * 1e-9;
    Ok((pass, totals, digests, store, in_tree_cpu_s))
}

fn run_traced(args: &Args, dir: &Path, deadline: Instant) -> Result<Report, String> {
    let workers = sys::nproc();
    let mut setup = workload::setup(
        args.workload,
        args.seed,
        workers,
        dir.join("setup"),
        deadline,
    )?;
    let (first, first_totals, pinned, _, _) = traced_pass(&setup, "trace-1")?;
    let digests_pinned: Vec<CampaignDigest> = pinned.iter().map(|e| e.digest).collect();
    sys::reset_peak_rss();
    let stats = window(&setup, workers, &pinned, args.seconds, deadline);
    let peak_rss_mb = sys::peak_rss_mb();
    if let Some(service) = setup.service.take() {
        service.shutdown(ShutdownMode::Drain);
    }
    let (pass, totals, digests, store, traced_cpu_s) = traced_pass(&setup, "trace-2")?;

    let mut report = Report::for_window(&stats);
    describe(&mut report, &setup, workers, &stats);
    if digests
        .iter()
        .map(|e: &Expected| e.digest)
        .ne(digests_pinned.iter().copied())
    {
        report.correct = false;
        report
            .notes
            .push("failure: the two traced passes produced different records".into());
    }
    // Exact counts: two traced passes over the same campaigns must agree
    // on every count a later change may claim.
    let exact = [("vm", "vm allocations"), ("learn", "learn allocations")];
    if first.counts != pass.counts {
        report.correct = false;
        report.notes.push(format!(
            "failure: counts differ between traced passes: {:?} vs {:?}",
            first.counts, pass.counts
        ));
    }
    for (layer, what) in exact {
        if first_totals.allocs(layer) != totals.allocs(layer) {
            report.correct = false;
            report.notes.push(format!(
                "failure: {what} differ between traced passes: {} vs {}",
                first_totals.allocs(layer),
                totals.allocs(layer)
            ));
        }
    }
    report.notes.push(format!(
        "traced pass: {} spans, counts {:?}, {} ms in detached spans",
        pass.tracer.spans().len(),
        pass.counts,
        totals.detached_ns / 1_000_000
    ));

    let c = &pass.counts;
    let runs = c.runs as f64;
    let executed = c.executed_runs as f64;
    report.metric("workloads.materialize_ms", setup.materialize_s * 1e3, "ms");
    report.metric("oracle.default_runs", c.default_runs as f64, "count");
    report.metric(
        "oracle.ms_per_default_run",
        totals.mean("oracle.run", 1e6),
        "ms",
    );
    report.metric("oracle.self_share", totals.self_share("oracle"), "ratio");
    report.metric(
        "vm.instructions_per_run",
        ratio(c.instructions as f64, executed),
        "count",
    );
    report.metric(
        "vm.ns_per_instr",
        ratio(totals.total_ns("vm.run") as f64, c.instructions as f64),
        "ns",
    );
    report.metric("vm.new_us", totals.mean("vm.new", 1e3), "us");
    report.metric(
        "vm.allocs_per_run",
        ratio(totals.allocs("vm") as f64, executed),
        "count",
    );
    report.metric("vm.self_share", totals.self_share("vm"), "ratio");
    report.metric(
        "opt.compiles_per_run",
        ratio(c.compiles as f64, executed),
        "count",
    );
    report.metric(
        "opt.compile_cycles_per_run",
        ratio(c.compile_cycles as f64, executed),
        "cycles",
    );
    report.metric("opt.us_per_compile", totals.mean("opt.compile", 1e3), "us");
    report.metric(
        "xicl.translate_us",
        totals.mean("xicl.translate", 1e3),
        "us",
    );
    report.metric("xicl.self_share", totals.self_share("xicl"), "ratio");
    report.metric(
        "optimizer.prepare_us",
        totals.mean("optimizer.prepare", 1e3),
        "us",
    );
    report.metric(
        "optimizer.self_share",
        totals.self_share("optimizer"),
        "ratio",
    );
    report.metric("learn.import_ms", totals.mean("learn.import", 1e6), "ms");
    report.metric("learn.observe_ms", totals.mean("learn.observe", 1e6), "ms");
    report.metric("learn.export_ms", totals.mean("learn.export", 1e6), "ms");
    report.metric(
        "learn.state_kb",
        ratio(c.state_bytes as f64 / 1024.0, c.exports as f64),
        "KiB",
    );
    report.metric(
        "learn.allocs_per_launch",
        ratio(totals.allocs("learn") as f64, runs),
        "count",
    );
    report.metric("learn.self_share", totals.self_share("learn"), "ratio");
    report.metric("store.load_us", totals.mean("store.load", 1e3), "us");
    report.metric("store.save_us", totals.mean("store.save", 1e3), "us");
    report.metric("store.saves", store.saves as f64, "count");
    report.metric("store.compactions", store.compactions as f64, "count");
    report.metric("store.self_share", totals.self_share("store"), "ratio");
    let iterations = stats.iterations.max(1) as f64;
    report.metric(
        "service.submit_block_ms",
        ratio(stats.submit_s * 1e3, stats.submits as f64),
        "ms",
    );
    report.metric(
        "service.underfilled_ms",
        stats.underfilled_s * 1e3 / iterations,
        "ms",
    );
    report.metric(
        "service.jobs_per_worker",
        stats.jobs as f64 / iterations / workers as f64,
        "count",
    );
    for (name, value, unit) in service_figures(&stats) {
        report.metric(name, value, unit);
    }
    report.metric("service.peak_rss_mb", peak_rss_mb, "MiB");
    report.metric(
        "fork.points_per_campaign",
        ratio(c.fork_points as f64, c.campaigns as f64),
        "count",
    );
    report.metric("fork.replays", c.fork_replays as f64, "count");
    report.metric("fork.ms_per_replay", totals.mean("fork.replay", 1e6), "ms");
    report.metric(
        "fork.useful_share",
        ratio(c.fork_points as f64, c.fork_snapshots as f64),
        "ratio",
    );
    report.metric("fork.samples", c.fork_samples as f64, "count");
    report.metric("fork.self_share", totals.self_share("fork"), "ratio");
    report.metric(
        "campaign.self_share",
        totals.self_share("campaign"),
        "ratio",
    );
    report.metric(
        "trace.cpu_overhead",
        ratio(
            ratio(traced_cpu_s, runs),
            ratio(stats.cpu_s, stats.runs as f64),
        ),
        "x",
    );
    Ok(report)
}

fn main() -> ExitCode {
    let deadline = Instant::now() + DEADLINE;
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <table1-cold|relaunch-history|fork-factory> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(WORK_DIR).join(std::process::id().to_string());
    let result = if args.trace {
        run_traced(&args, &dir, deadline)
    } else {
        run_untraced(&args, &dir, deadline)
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Succeeds only once no other run is using the work directory.
    let _ = std::fs::remove_dir(WORK_DIR);
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
