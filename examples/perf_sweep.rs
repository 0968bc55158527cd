//! Host-side interpreter throughput sweep: the `BENCH_interp.json`
//! trajectory.
//!
//! Runs the full Table I workload suite end-to-end under both dispatch
//! loops ([`InterpMode::Fast`] and [`InterpMode::Reference`]) plus the
//! three dispatch microbenchmark programs from
//! `crates/bench/benches/interp.rs`, and reports host nanoseconds per
//! simulated instruction and runs per second for each. Both modes produce
//! bit-identical virtual-clock results (`tests/interp_equiv.rs` proves
//! it), so every wall-clock difference here is pure host-side dispatch
//! cost. Each Table I row also counts the allocations of one run on a
//! fresh machine and of one run on an already filled, shared code table
//! (`allocs_per_run`, `allocs_per_warm_run`), outside the timed loops.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example perf_sweep [-- --out BENCH_interp.json] [--reps N]
//! cargo run --release --example perf_sweep -- --dispatch [--out BENCH_dispatch.json]
//! cargo run --release --example perf_sweep -- --assert-flat 5
//! cargo run --release --example perf_sweep -- --relaunch --label NAME [--out BENCH_relaunch.json]
//! ```
//!
//! If the output file already exists (the committed baseline), the sweep
//! prints the delta of aggregate ns/instruction against it before
//! overwriting — that is what the CI perf-smoke job surfaces.
//! `--assert-flat PCT` turns that delta into a gate: exit nonzero when
//! the aggregate fast ns/instruction moved more than ±PCT% from the
//! committed baseline (or when there is no baseline to compare against).
//!
//! `--dispatch` runs the whole suite with the dispatch profiler on and
//! superinstruction fusion *off*, writes the raw opcode/opcode-pair
//! distribution to `BENCH_dispatch.json`, and reports the
//! fused-vs-unfused host ns/instr delta. Its `residual` section profiles
//! the stream campaigns actually execute: fusion *on*, Default
//! (cost-benefit) runs of every input of every Table I workload
//! materialized from seed 101, so most code runs at −1/O0.
//! Its exact dispatch count is the fusion gate, and its top straight-line
//! pairs are what the fusion set in `crates/opt/src/passes/fuse.rs` is
//! derived from.
//!
//! `--relaunch` measures what one warm relaunch of an evolvable VM costs
//! in learning and persistence as its history grows: per-launch
//! `ModelStore::load`, `observe` (the refit), `export_state` and
//! `ModelStore::save` through a `ShardedStore`, plus allocations per
//! observe and per export, at 10², 10³ and 10⁴ history rows. It writes
//! the figures under `--label` into the output file and keeps the other
//! labels' entries, so running the same command at two commits (with two
//! labels) leaves both side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use evolvable_vm::bytecode::{asm::parse, FuncId, Instr, Program};
use evolvable_vm::evovm::{
    optimizer, AppInput, CrossRunOptimizer, EvolveConfig, EvolveState, ModelStore, RunPlan,
    Scenario, ShardedStore,
};
use evolvable_vm::opt::{OptLevel, Optimizer};
use evolvable_vm::vm::{
    BaselineOnlyPolicy, CodeTable, CostBenefitPolicy, DispatchProfile, InterpMode, Outcome,
    RunResult, Vm, VmConfig,
};
use evolvable_vm::workloads;

/// The Table I benchmark order (kept in sync with `evovm-bench`, which
/// the façade crate deliberately does not depend on).
const TABLE1: [&str; 11] = [
    "mtrt",
    "compress",
    "db",
    "antlr",
    "bloat",
    "fop",
    "euler",
    "moldyn",
    "montecarlo",
    "search",
    "raytracer",
];

/// One microbenchmark program comparison.
#[derive(Debug, Serialize, Deserialize)]
struct MicroRow {
    name: String,
    fast_ms_per_iter: f64,
    reference_ms_per_iter: f64,
    speedup: f64,
}

/// One Table I workload, timed end-to-end under both dispatch loops.
#[derive(Debug, Serialize, Deserialize)]
struct WorkloadRow {
    workload: String,
    instructions: u64,
    simulated_cycles: u64,
    fast_ns_per_instr: f64,
    reference_ns_per_instr: f64,
    speedup: f64,
    fast_runs_per_sec: f64,
    reference_runs_per_sec: f64,
    /// Allocations of one fast run on a fresh machine ([`Vm::new`]):
    /// verification, every compile, and the run itself.
    allocs_per_run: u64,
    /// Allocations of one fast run on a [`CodeTable`] an earlier run of
    /// the same input already filled: what a run costs the host when a
    /// service or oracle shares the table.
    allocs_per_warm_run: u64,
}

/// Suite-wide totals (instruction-weighted).
#[derive(Debug, Serialize, Deserialize)]
struct Aggregate {
    fast_ns_per_instr: f64,
    reference_ns_per_instr: f64,
    speedup: f64,
}

/// The whole report, as committed to `BENCH_interp.json`.
#[derive(Debug, Serialize, Deserialize)]
struct Report {
    generated_by: String,
    reps: u64,
    microbench: Vec<MicroRow>,
    table1: Vec<WorkloadRow>,
    aggregate: Aggregate,
    notes: Vec<String>,
}

/// The dispatch-heavy microbench program (see benches/interp.rs).
const DISPATCH_SRC: &str = "
entry func main/0 locals=2 {
  const 0
  store 0
  const 0
  store 1
top:
  load 0
  const 40000
  icmpge
  jumpif end
  load 1
  load 0
  const 2654435761
  imul
  const 1048575
  band
  iadd
  store 1
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  load 1
  print
  null
  return
}";

/// The call-dominated microbench program (see benches/interp.rs).
const CALLS_SRC: &str = "
entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 20000
  icmpge
  jumpif end
  load 0
  call mix
  pop
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  null
  return
}
func mix/1 locals=2 {
  load 0
  const 2654435761
  imul
  store 1
  load 1
  load 0
  iadd
  return
}";

/// Run one program to completion under `mode`, resuming through feature
/// pauses like the campaign loop does.
fn adaptive_run(program: &Arc<Program>, mode: InterpMode) -> RunResult {
    adaptive_run_cfg(
        program,
        VmConfig {
            interp: mode,
            ..VmConfig::default()
        },
    )
}

/// [`adaptive_run`] with full control of the config (dispatch profiling,
/// fusion switch).
fn adaptive_run_cfg(program: &Arc<Program>, config: VmConfig) -> RunResult {
    let vm = Vm::new(
        Arc::clone(program),
        Box::new(CostBenefitPolicy::new()),
        config,
    )
    .expect("workload programs verify");
    run_to_end(vm)
}

/// Run `vm` to completion, resuming through feature pauses.
fn run_to_end(mut vm: Vm) -> RunResult {
    loop {
        match vm.run().expect("workload programs do not trap") {
            Outcome::Finished(result) => return *result,
            Outcome::FeaturesReady => continue,
        }
    }
}

/// Wall-clock seconds for `reps` runs of `f` (after one warm-up run).
fn time_reps(reps: u64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64()
}

fn micro_row(name: &str, src: &str, config: &VmConfig, reps: u64) -> MicroRow {
    let program = Arc::new(parse(src).expect("valid asm"));
    let mut times = [0.0f64; 2];
    for (slot, mode) in [InterpMode::Fast, InterpMode::Reference]
        .into_iter()
        .enumerate()
    {
        let config = VmConfig {
            interp: mode,
            ..config.clone()
        };
        times[slot] = time_reps(reps, || {
            let mut vm = Vm::new(
                Arc::clone(&program),
                Box::new(BaselineOnlyPolicy),
                config.clone(),
            )
            .expect("verified");
            vm.run().expect("runs");
        });
    }
    MicroRow {
        name: name.to_string(),
        fast_ms_per_iter: times[0] * 1e3 / reps as f64,
        reference_ms_per_iter: times[1] * 1e3 / reps as f64,
        speedup: times[1] / times[0],
    }
}

fn workload_row(name: &str, reps: u64) -> WorkloadRow {
    let bench = workloads::by_name(name).expect("bundled workload");
    let program = &bench.inputs[0].program;
    // Both modes retire the same instruction stream (the equivalence
    // suite proves it bit for bit); take the counts from one fast run.
    let probe = adaptive_run(program, InterpMode::Fast);
    let fast_secs = time_reps(reps, || {
        adaptive_run(program, InterpMode::Fast);
    });
    let reference_secs = time_reps(reps, || {
        adaptive_run(program, InterpMode::Reference);
    });
    let per_run_instr = probe.instructions as f64;
    // Allocation counts sit outside the timed loops, so ns/instr stays a
    // pure dispatch figure.
    let (allocs_per_run, _) = counted(|| adaptive_run(program, InterpMode::Fast));
    let table =
        Arc::new(CodeTable::new(Arc::clone(program), true).expect("workload programs verify"));
    let warm_run = || {
        let policy = Box::new(CostBenefitPolicy::new());
        run_to_end(Vm::with_table(
            Arc::clone(&table),
            policy,
            VmConfig::default(),
        ))
    };
    warm_run();
    let (allocs_per_warm_run, _) = counted(warm_run);
    WorkloadRow {
        workload: name.to_string(),
        instructions: probe.instructions,
        simulated_cycles: probe.total_cycles,
        fast_ns_per_instr: fast_secs * 1e9 / (reps as f64 * per_run_instr),
        reference_ns_per_instr: reference_secs * 1e9 / (reps as f64 * per_run_instr),
        speedup: reference_secs / fast_secs,
        fast_runs_per_sec: reps as f64 / fast_secs,
        reference_runs_per_sec: reps as f64 / reference_secs,
        allocs_per_run,
        allocs_per_warm_run,
    }
}

/// One opcode class with its share of all retirements.
#[derive(Debug, Serialize, Deserialize)]
struct ClassRow {
    class: String,
    count: u64,
    share_pct: f64,
}

/// One adjacent opcode pair with its share of all retirements.
#[derive(Debug, Serialize, Deserialize)]
struct PairRow {
    prev: String,
    next: String,
    count: u64,
    share_pct: f64,
}

/// Per-workload slice of the dispatch profile.
#[derive(Debug, Serialize, Deserialize)]
struct DispatchWorkloadRow {
    workload: String,
    retired: u64,
    top_pairs: Vec<PairRow>,
}

/// Fused-vs-unfused host throughput for one workload (both runs produce
/// bit-identical virtual clocks; only host ns/instr differs).
#[derive(Debug, Serialize, Deserialize)]
struct FusionRow {
    workload: String,
    unfused_ns_per_instr: f64,
    fused_ns_per_instr: f64,
    speedup: f64,
}

/// One workload's share of the campaign-executed residual stream.
#[derive(Debug, Serialize, Deserialize)]
struct ResidualWorkloadRow {
    workload: String,
    inputs: usize,
    retired: u64,
    total_cycles: u64,
    dispatches: u64,
}

/// One adjacent dispatch pair of the fused stream. `seam` marks pairs
/// whose first instruction transfers control (a branch, terminator or
/// call), which fusion can never merge.
#[derive(Debug, Serialize, Deserialize)]
struct ResidualPairRow {
    prev: String,
    next: String,
    count: u64,
    share_pct: f64,
    seam: bool,
}

/// The fused stream campaigns execute: Default runs of every input, at
/// the levels the cost-benefit controller picks.
#[derive(Debug, Serialize, Deserialize)]
struct ResidualReport {
    seed: u64,
    retired: u64,
    dispatches: u64,
    dispatches_per_retired: f64,
    per_workload: Vec<ResidualWorkloadRow>,
    top_classes: Vec<ClassRow>,
    top_pairs: Vec<ResidualPairRow>,
}

/// The whole `BENCH_dispatch.json` report.
#[derive(Debug, Serialize, Deserialize)]
struct DispatchReport {
    generated_by: String,
    reps: u64,
    total_retired: u64,
    top_classes: Vec<ClassRow>,
    top_pairs: Vec<PairRow>,
    per_workload: Vec<DispatchWorkloadRow>,
    residual: ResidualReport,
    fusion: Vec<FusionRow>,
    fusion_aggregate_speedup: f64,
    notes: Vec<String>,
}

fn pair_rows(profile: &DispatchProfile, total: u64, limit: usize) -> Vec<PairRow> {
    profile
        .top_pairs()
        .into_iter()
        .take(limit)
        .map(|(a, b, n)| PairRow {
            prev: Instr::dispatch_class_name(a).to_string(),
            next: Instr::dispatch_class_name(b).to_string(),
            count: n,
            share_pct: 100.0 * n as f64 / total as f64,
        })
        .collect()
}

fn class_rows(profile: &DispatchProfile, total: u64, limit: usize) -> Vec<ClassRow> {
    profile
        .top_classes()
        .into_iter()
        .take(limit)
        .map(|(c, n)| ClassRow {
            class: Instr::dispatch_class_name(c).to_string(),
            count: n,
            share_pct: 100.0 * n as f64 / total as f64,
        })
        .collect()
}

/// The seed the residual profile materializes the Table I workloads from.
const RESIDUAL_SEED: u64 = 101;

/// Profile the fused stream of Default runs over every input of every
/// Table I workload materialized from [`RESIDUAL_SEED`].
fn residual() -> ResidualReport {
    let config = VmConfig {
        profile_dispatch: true,
        ..VmConfig::default()
    };
    let optimizer = Optimizer::new();
    // Whether a dispatch class transfers control, from an instance of it
    // in the code these programs compile to.
    let mut seam: Vec<Option<bool>> = vec![None; Instr::DISPATCH_CLASSES];
    let mut aggregate = DispatchProfile::new();
    let mut retired = 0;
    let mut per_workload = Vec::new();
    for name in TABLE1 {
        let bench = workloads::materialize(name, RESIDUAL_SEED).expect("bundled workload");
        let mut row = ResidualWorkloadRow {
            workload: name.to_string(),
            inputs: bench.inputs.len(),
            retired: 0,
            total_cycles: 0,
            dispatches: 0,
        };
        for input in &bench.inputs {
            let result = adaptive_run_cfg(&input.program, config.clone());
            let profile = result.profile.dispatch.expect("profiling was on");
            row.retired += result.instructions;
            row.total_cycles += result.total_cycles;
            row.dispatches += profile.total();
            aggregate.absorb(&profile);
            for id in 0..input.program.functions().len() {
                for level in OptLevel::ALL {
                    let code = optimizer.compile(&input.program, FuncId(id as u32), level);
                    for instr in code.code.iter() {
                        seam[instr.dispatch_class() as usize].get_or_insert(
                            instr.is_branch()
                                || instr.is_terminator()
                                || matches!(instr, Instr::Call(_)),
                        );
                    }
                }
            }
        }
        println!(
            "  {:12} {:>3} inputs {:>11} retired {:>13} cycles {:>11} dispatches",
            name, row.inputs, row.retired, row.total_cycles, row.dispatches
        );
        retired += row.retired;
        per_workload.push(row);
    }
    let dispatches = aggregate.total();
    let top_pairs: Vec<ResidualPairRow> = aggregate
        .top_pairs()
        .into_iter()
        .take(40)
        .map(|(a, b, n)| ResidualPairRow {
            prev: Instr::dispatch_class_name(a).to_string(),
            next: Instr::dispatch_class_name(b).to_string(),
            count: n,
            share_pct: 100.0 * n as f64 / dispatches as f64,
            seam: seam[a as usize].unwrap_or(false),
        })
        .collect();
    println!(
        "residual: {retired} retired, {dispatches} dispatches ({:.4} per retired); \
         top straight-line pairs:",
        dispatches as f64 / retired as f64
    );
    for p in top_pairs.iter().filter(|p| !p.seam).take(15) {
        println!(
            "  {:>14} -> {:<14} {:>10}  {:>5.2}%",
            p.prev, p.next, p.count, p.share_pct
        );
    }
    ResidualReport {
        seed: RESIDUAL_SEED,
        retired,
        dispatches,
        dispatches_per_retired: dispatches as f64 / retired as f64,
        per_workload,
        top_classes: class_rows(&aggregate, dispatches, 30),
        top_pairs,
    }
}

/// The `--dispatch` mode: measure the raw (fusion off) opcode-pair
/// distribution over the whole suite and the fused residual campaigns
/// execute, then time fused vs unfused fast loops.
fn run_dispatch(out_path: &str, reps: u64) {
    // The dispatch-heavy micro programs participate too: they are the
    // benchmarks the fusion set most directly targets.
    let micros = [
        ("dispatch_40k_loop", DISPATCH_SRC),
        ("calls_20k_frames", CALLS_SRC),
    ];
    let profiled = VmConfig {
        profile_dispatch: true,
        fuse: false,
        ..VmConfig::default()
    };
    let mut aggregate = DispatchProfile::new();
    let mut per_workload = Vec::new();
    println!("dispatch profile (fusion off, adaptive runs):");
    let programs: Vec<(String, Arc<Program>)> = TABLE1
        .iter()
        .map(|&w| {
            let bench = workloads::by_name(w).expect("bundled workload");
            (w.to_string(), Arc::clone(&bench.inputs[0].program))
        })
        .chain(
            micros
                .iter()
                .map(|&(name, src)| (name.to_string(), Arc::new(parse(src).expect("valid asm")))),
        )
        .collect();
    for (name, program) in &programs {
        let result = adaptive_run_cfg(program, profiled.clone());
        let profile = result
            .profile
            .dispatch
            .expect("profiling was on for this run");
        let retired = profile.total();
        let top = pair_rows(&profile, retired, 10);
        if let Some(first) = top.first() {
            println!(
                "  {:18} {:>9} retired  hottest pair {}->{} ({:.1}%)",
                name, retired, first.prev, first.next, first.share_pct
            );
        }
        aggregate.absorb(&profile);
        per_workload.push(DispatchWorkloadRow {
            workload: name.clone(),
            retired,
            top_pairs: top,
        });
    }
    let total = aggregate.total();
    let top_classes = class_rows(&aggregate, total, 20);
    let top_pairs = pair_rows(&aggregate, total, 30);
    println!("aggregate: {total} retirements; top pairs:");
    for p in top_pairs.iter().take(15) {
        println!(
            "  {:>10} -> {:<10} {:>10}  {:>5.2}%",
            p.prev, p.next, p.count, p.share_pct
        );
    }

    println!("campaign residual (fusion on, Default runs of every input, seed {RESIDUAL_SEED}):");
    let residual = residual();

    // Fused vs unfused host throughput (fast loop, profiling off; the
    // virtual clock is bit-identical between the two configs).
    println!("fused vs unfused fast loop ({reps} reps):");
    let mut fused_secs_total = 0.0;
    let mut unfused_secs_total = 0.0;
    let mut fusion = Vec::new();
    for (name, program) in &programs {
        let probe = adaptive_run_cfg(
            program,
            VmConfig {
                fuse: false,
                ..VmConfig::default()
            },
        );
        let instrs = probe.instructions as f64 * reps as f64;
        // The two sides alternate which runs first in each rep, so the
        // host's speed drift lands on both alike (after one warm-up run
        // of each).
        let mut secs = [0.0f64; 2];
        for rep in 0..=reps {
            let order = if rep % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for fuse in order {
                let t0 = Instant::now();
                adaptive_run_cfg(
                    program,
                    VmConfig {
                        fuse,
                        ..VmConfig::default()
                    },
                );
                if rep > 0 {
                    secs[usize::from(fuse)] += t0.elapsed().as_secs_f64();
                }
            }
        }
        let [unfused_secs, fused_secs] = secs;
        println!(
            "  {:18} {:>6.2} -> {:>6.2} ns/instr  ({:.2}x)",
            name,
            unfused_secs * 1e9 / instrs,
            fused_secs * 1e9 / instrs,
            unfused_secs / fused_secs
        );
        unfused_secs_total += unfused_secs;
        fused_secs_total += fused_secs;
        fusion.push(FusionRow {
            workload: name.clone(),
            unfused_ns_per_instr: unfused_secs * 1e9 / instrs,
            fused_ns_per_instr: fused_secs * 1e9 / instrs,
            speedup: unfused_secs / fused_secs,
        });
    }
    let fusion_aggregate_speedup = unfused_secs_total / fused_secs_total;
    println!("fused-vs-unfused aggregate speedup: {fusion_aggregate_speedup:.2}x");

    let report = DispatchReport {
        generated_by: "cargo run --release --example perf_sweep -- --dispatch".to_string(),
        reps,
        total_retired: total,
        top_classes,
        top_pairs,
        per_workload,
        residual,
        fusion,
        fusion_aggregate_speedup,
        notes: vec![
            "distribution measured with profile_dispatch=true and fuse=false so pairs \
             reflect the raw pre-fusion instruction stream"
                .to_string(),
            "instruction counts are retired-instruction equivalents; fused ops report \
             their component count, so totals match unfused runs bit for bit"
                .to_string(),
            "residual: fusion on, Default (cost-benefit) runs of every input of every \
             workload materialized from the seed, so most code runs at -1/O0 as in \
             campaigns; dispatches is the exact fusion counter, and its top non-seam \
             pairs are the superinstruction set in crates/opt/src/passes/fuse.rs"
                .to_string(),
        ],
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out_path, json + "\n").expect("write report");
    println!("wrote {out_path}");
}

/// Counts the calling thread's allocations, for the Table I rows'
/// allocations per run and `--relaunch`'s allocations per export.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The workload `--relaunch` learns, the real runs its histories repeat,
/// the history sizes and the launches timed at each.
const RELAUNCH_WORKLOAD: &str = "search";
const RELAUNCH_REAL_RUNS: usize = 100;
const RELAUNCH_SIZES: [(usize, usize); 3] = [(100, 40), (1_000, 20), (10_000, 8)];

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RelaunchReport {
    generated_by: String,
    workload: String,
    notes: Vec<String>,
    /// One entry per `--label`, in the order they were first written.
    labels: Vec<RelaunchLabel>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RelaunchLabel {
    label: String,
    sizes: Vec<RelaunchRow>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RelaunchRow {
    history_rows: usize,
    launches: usize,
    state_kb: f64,
    /// Medians over the launches, in microseconds.
    load_us: f64,
    observe_us: f64,
    export_us: f64,
    save_us: f64,
    /// The first export after the import, which has no earlier export to
    /// build on.
    first_export_us: f64,
    /// Median allocations of one export.
    allocs_per_export: f64,
    /// Median allocations of one observe; `null` in entries written
    /// before observes were counted.
    allocs_per_observe: Option<f64>,
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn micros<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e6, out)
}

fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Run `input` once under the plan `learner` makes, with its pauses.
fn run_planned(
    learner: &mut dyn CrossRunOptimizer,
    input: &AppInput,
    config: &EvolveConfig,
) -> RunResult {
    let RunPlan::Execute {
        policy,
        overhead_cycles,
    } = learner.prepare(input).expect("prepares")
    else {
        panic!("Evolve runs execute");
    };
    let vm_config = VmConfig {
        sample_interval_cycles: config.sample_interval_cycles,
        ..VmConfig::default()
    };
    let mut vm = Vm::new(Arc::clone(&input.program), policy, vm_config).expect("verifies");
    vm.charge_overhead(overhead_cycles).expect("charges");
    loop {
        match vm.run().expect("runs") {
            Outcome::Finished(result) => return *result,
            Outcome::FeaturesReady => learner.features_ready(&mut vm).expect("re-predicts"),
        }
    }
}

/// Warm relaunches of one Evolve key over a history of `rows` rows: the
/// key is saved once, one optimizer imports it, and every launch loads
/// the key, runs one input, observes, exports and saves — the service's
/// warm hand-off, which keeps the optimizer between launches.
fn relaunch_row(real: &EvolveState, rows: usize, launches: usize) -> RelaunchRow {
    let bench = workloads::by_name(RELAUNCH_WORKLOAD).expect("bundled workload");
    let config = EvolveConfig::default();
    let state = EvolveState {
        history: (0..rows)
            .map(|i| real.history[i % real.history.len()].clone())
            .collect(),
        confidence: real.confidence,
    };
    let blob = serde_json::to_string(&state).expect("state serializes");
    let root = std::env::temp_dir().join(format!("evovm-relaunch-{}-{rows}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ShardedStore::new(&root);
    store.save("key", &blob);
    let mut learner = optimizer::for_scenario(Scenario::Evolve, &bench, &config);
    learner.import_state(&blob).expect("history imports");

    let (mut load, mut observe, mut export, mut save, mut allocs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut observe_allocs = Vec::new();
    let mut first_export = 0.0;
    for launch in 0..launches {
        let (us, loaded) = micros(|| store.load("key"));
        load.push(us);
        assert!(loaded.is_some(), "the key holds state");
        let input = &bench.inputs[launch % bench.inputs.len()];
        let result = run_planned(learner.as_mut(), input, &config);
        let (us, (count, report)) = micros(|| counted(|| learner.observe(input, result)));
        report.expect("observes");
        observe.push(us);
        observe_allocs.push(count as f64);
        let (us, (count, exported)) = micros(|| counted(|| learner.export_state()));
        let exported = exported.expect("Evolve exports");
        if launch == 0 {
            first_export = us;
        } else {
            export.push(us);
            allocs.push(count as f64);
        }
        let (us, ()) = micros(|| store.save("key", &exported));
        save.push(us);
    }
    let state_kb = store.load("key").map_or(0, |s| s.len()) as f64 / 1024.0;
    let _ = std::fs::remove_dir_all(&root);
    RelaunchRow {
        history_rows: rows,
        launches,
        state_kb,
        load_us: median(load),
        observe_us: median(observe),
        export_us: median(export),
        save_us: median(save),
        first_export_us: first_export,
        allocs_per_export: median(allocs),
        allocs_per_observe: Some(median(observe_allocs)),
    }
}

/// The `--relaunch` mode: see the module docs.
fn run_relaunch(out_path: &str, label: &str) {
    let bench = workloads::by_name(RELAUNCH_WORKLOAD).expect("bundled workload");
    let config = EvolveConfig::default();
    let mut seed = optimizer::for_scenario(Scenario::Evolve, &bench, &config);
    for run in 0..RELAUNCH_REAL_RUNS {
        let input = &bench.inputs[run % bench.inputs.len()];
        let result = run_planned(seed.as_mut(), input, &config);
        seed.observe(input, result).expect("observes");
    }
    let real: EvolveState =
        serde_json::from_str(&seed.export_state().expect("Evolve exports")).expect("parses");

    println!("relaunch costs for `{label}` ({RELAUNCH_WORKLOAD}, medians per launch):");
    let sizes: Vec<RelaunchRow> = RELAUNCH_SIZES
        .iter()
        .map(|&(rows, launches)| {
            let row = relaunch_row(&real, rows, launches);
            println!(
                "  {:>6} rows ({:>7.1} KiB): load {:>8.1} us  observe {:>9.1} us  \
                 export {:>8.1} us (first {:>8.1})  save {:>8.1} us  {:>6.0} allocs/export  \
                 {:>6.0} allocs/observe",
                row.history_rows,
                row.state_kb,
                row.load_us,
                row.observe_us,
                row.export_us,
                row.first_export_us,
                row.save_us,
                row.allocs_per_export,
                row.allocs_per_observe.expect("measured")
            );
            row
        })
        .collect();

    let mut report = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|text| serde_json::from_str::<RelaunchReport>(&text).ok())
        .unwrap_or_else(|| RelaunchReport {
            generated_by: String::new(),
            workload: String::new(),
            notes: Vec::new(),
            labels: Vec::new(),
        });
    report.generated_by =
        "cargo run --release --example perf_sweep -- --relaunch --label <label>".to_string();
    report.workload = RELAUNCH_WORKLOAD.to_string();
    report.notes = vec![
        format!(
            "histories repeat the rows of one real {RELAUNCH_REAL_RUNS}-run Evolve history \
             of {RELAUNCH_WORKLOAD} (inputs in order), with its confidence tracker; each \
             launch then learns one real row"
        ),
        "one optimizer imports the history once and is kept between launches, as the \
         campaign service's warm hand-off keeps it; every launch loads the key, runs one \
         input, observes, exports and saves through one ShardedStore in the system temp \
         directory"
            .to_string(),
        "times are medians over the launches in microseconds; export_us and \
         allocs_per_export leave out the first launch, whose export is the first after \
         the import (first_export_us); allocs_per_observe counts every launch's observe"
            .to_string(),
        "to compare commits, build this example against each commit's library and run it \
         once per commit with its own --label, back to back on one machine: copy \
         examples/perf_sweep.rs into a checkout of the other commit and run `cargo run \
         --release --example perf_sweep -- --relaunch --label '<label>' --out <this file>` \
         there; numbers are host-dependent"
            .to_string(),
    ];
    let entry = RelaunchLabel {
        label: label.to_string(),
        sizes,
    };
    match report.labels.iter_mut().find(|l| l.label == label) {
        Some(existing) => *existing = entry,
        None => report.labels.push(entry),
    }
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out_path, json + "\n").expect("write report");
    println!("wrote {out_path}");
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut reps: u64 = 5;
    let mut dispatch = false;
    let mut relaunch = false;
    let mut label: Option<String> = None;
    let mut assert_flat: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--dispatch" => dispatch = true,
            "--relaunch" => relaunch = true,
            "--label" => label = Some(args.next().expect("--label needs a name")),
            "--reps" => {
                reps = args
                    .next()
                    .expect("--reps needs a number")
                    .parse()
                    .expect("--reps needs a number");
            }
            "--assert-flat" => {
                assert_flat = Some(
                    args.next()
                        .expect("--assert-flat needs a percentage")
                        .parse()
                        .expect("--assert-flat needs a percentage"),
                );
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    if relaunch {
        let out = out_path.unwrap_or_else(|| "BENCH_relaunch.json".to_string());
        run_relaunch(&out, &label.expect("--relaunch needs --label"));
        return;
    }
    if dispatch {
        let out = out_path.unwrap_or_else(|| "BENCH_dispatch.json".to_string());
        run_dispatch(&out, reps);
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_interp.json".to_string());

    let baseline: Option<Report> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());

    println!("microbenchmarks ({reps} reps, fast vs reference):");
    let micro = vec![
        micro_row(
            "dispatch_40k_loop",
            DISPATCH_SRC,
            &VmConfig::default(),
            reps,
        ),
        micro_row("calls_20k_frames", CALLS_SRC, &VmConfig::default(), reps),
        micro_row(
            "sampling_1k_interval",
            DISPATCH_SRC,
            &VmConfig {
                sample_interval_cycles: 1_000,
                ..VmConfig::default()
            },
            reps,
        ),
    ];
    for row in &micro {
        println!(
            "  {:24} {:>7.2}ms vs {:>7.2}ms  ({:.2}x)",
            row.name, row.fast_ms_per_iter, row.reference_ms_per_iter, row.speedup
        );
    }

    println!("Table I suite ({reps} reps, adaptive runs, fast vs reference):");
    let table1: Vec<WorkloadRow> = TABLE1.iter().map(|w| workload_row(w, reps)).collect();
    let mut fast_secs = 0.0;
    let mut reference_secs = 0.0;
    let mut instr_total = 0.0;
    for row in &table1 {
        println!(
            "  {:12} {:>9} instrs  {:>6.2} vs {:>6.2} ns/instr  ({:.2}x, {:.0} runs/s)  \
             {:>5} allocs/run ({} warm)",
            row.workload,
            row.instructions,
            row.fast_ns_per_instr,
            row.reference_ns_per_instr,
            row.speedup,
            row.fast_runs_per_sec,
            row.allocs_per_run,
            row.allocs_per_warm_run,
        );
        let per_run = row.instructions as f64 * reps as f64;
        fast_secs += row.fast_ns_per_instr * per_run / 1e9;
        reference_secs += row.reference_ns_per_instr * per_run / 1e9;
        instr_total += per_run;
    }
    let aggregate = Aggregate {
        fast_ns_per_instr: fast_secs * 1e9 / instr_total,
        reference_ns_per_instr: reference_secs * 1e9 / instr_total,
        speedup: reference_secs / fast_secs,
    };
    println!(
        "aggregate: {:.2} vs {:.2} ns/instr ({:.2}x)",
        aggregate.fast_ns_per_instr, aggregate.reference_ns_per_instr, aggregate.speedup
    );

    let baseline_delta = match &baseline {
        Some(prev) => {
            let delta = 100.0 * (aggregate.fast_ns_per_instr - prev.aggregate.fast_ns_per_instr)
                / prev.aggregate.fast_ns_per_instr;
            println!(
                "delta vs committed baseline ({out_path}): {delta:+.1}% ns/instr \
                 (baseline {:.2}, now {:.2})",
                prev.aggregate.fast_ns_per_instr, aggregate.fast_ns_per_instr
            );
            Some(delta)
        }
        None => {
            println!("no committed baseline at {out_path}; writing a fresh one");
            None
        }
    };
    if let Some(limit) = assert_flat {
        match baseline_delta {
            Some(delta) if delta.abs() <= limit => {
                println!("assert-flat: {delta:+.1}% is within ±{limit}%");
            }
            Some(delta) => {
                eprintln!(
                    "assert-flat FAILED: aggregate fast ns/instr moved {delta:+.1}%, \
                     outside ±{limit}%"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("assert-flat FAILED: no committed baseline at {out_path}");
                std::process::exit(1);
            }
        }
    }

    let report = Report {
        generated_by: "cargo run --release --example perf_sweep".to_string(),
        reps,
        microbench: micro,
        table1,
        aggregate,
        notes: vec![
            "fast and reference produce bit-identical virtual-clock results; \
             wall-clock deltas are pure host-side dispatch cost (tests/interp_equiv.rs)"
                .to_string(),
            "the reference loop shares the arena-based call path, so speedups \
             understate the win over the seed interpreter's Vec-per-frame calls"
                .to_string(),
            "numbers are host-dependent; regenerate on the machine being compared".to_string(),
            "allocs_per_run counts one fast run on a fresh Vm::new (verification, every \
             compile, the run); allocs_per_warm_run one on a CodeTable an earlier run of the \
             input filled; both are deterministic and counted outside the timed loops"
                .to_string(),
        ],
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("wrote {out_path}");
}
