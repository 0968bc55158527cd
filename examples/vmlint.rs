//! `vmlint` — whole-program static lint for evolvable-VM bytecode.
//!
//! Runs the [`evovm_bytecode::analysis`] diagnostics pass over programs
//! *as the optimizer emits them*: every program is first transformed
//! through the requested pipeline level(s) with
//! [`evolvable_vm::opt::optimize_program`] (which re-verifies every
//! function), then analyzed. Because compilation is deterministic, the
//! linted code is exactly what a VM pinned at that level executes —
//! including the superinstruction fusion pass, which runs at every
//! level, so this lint gates fused output: the analyzer must classify
//! every fused opcode (see `OpClass`) and all workload×level
//! combinations must stay clean.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example vmlint                   # all workloads × all levels
//! cargo run --release --example vmlint -- --verbose      # also print notes/profiles
//! cargo run --release --example vmlint -- file.evasm     # lint an assembly file
//! cargo run --release --example vmlint -- --level O1 file.evasm
//! ```
//!
//! Gating: `deny` findings (e.g. a loop with no exit) always fail the
//! lint. `warn` findings (unreachable code, constant branches) fail only
//! for O1/O2 output, where the optimizer is expected to have removed
//! them — our MiniJava codegen legitimately emits dead jumps at
//! Baseline/O0. `note` findings (dead functions, recursion) never fail.
//!
//! Exit status: 0 clean, 1 gating findings, 2 usage/input errors.

use std::process::ExitCode;

use evolvable_vm::bytecode::analysis::{analyze, Severity};
use evolvable_vm::bytecode::asm::parse;
use evolvable_vm::bytecode::Program;
use evolvable_vm::opt::{optimize_program, OptLevel};
use evolvable_vm::workloads;

/// The lowest severity that fails the lint for output of `level`.
fn gate_for(level: OptLevel) -> Severity {
    match level {
        OptLevel::Baseline | OptLevel::O0 => Severity::Deny,
        OptLevel::O1 | OptLevel::O2 => Severity::Warn,
    }
}

/// Lint one program at one level. Returns the number of gating findings,
/// printing each (plus non-gating ones when `verbose`).
fn lint(label: &str, program: &Program, level: OptLevel, verbose: bool) -> Result<usize, String> {
    let transformed = optimize_program(program, level)
        .map_err(|e| format!("{label}@{level}: miscompiled: {e}"))?;
    let analysis =
        analyze(&transformed).map_err(|e| format!("{label}@{level}: unverifiable: {e}"))?;
    let gate = gate_for(level);
    let mut gating = 0usize;
    for d in &analysis.diagnostics {
        let gates = d.severity >= gate;
        if gates {
            gating += 1;
        }
        if gates || verbose {
            println!("vmlint: {label}@{level}: {d}");
        }
    }
    if verbose {
        let b = analysis.bounds;
        let depth = b.call_depth.map_or("unbounded".into(), |d| d.to_string());
        let slots = b.arena_slots.map_or("unbounded".into(), |s| s.to_string());
        println!(
            "vmlint: {label}@{level}: {} function(s), call depth {depth}, arena {slots} slot(s), weighted cost {}",
            analysis.profiles.len(),
            analysis.live_weighted_cost(),
        );
    }
    Ok(gating)
}

fn run() -> Result<usize, String> {
    let mut verbose = false;
    let mut levels: Vec<OptLevel> = OptLevel::ALL.to_vec();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--level" => {
                let name = args.next().ok_or("--level needs a value")?;
                let level = match name.to_ascii_lowercase().as_str() {
                    "baseline" | "-1" => OptLevel::Baseline,
                    "o0" | "0" => OptLevel::O0,
                    "o1" | "1" => OptLevel::O1,
                    "o2" | "2" => OptLevel::O2,
                    _ => {
                        return Err(format!(
                            "unknown level `{name}` (use Baseline|O0|O1|O2 or -1|0|1|2)"
                        ))
                    }
                };
                levels = vec![level];
            }
            "--help" | "-h" => {
                println!(
                    "usage: vmlint [--verbose] [--level LEVEL] [file.evasm ...]\n\
                     With no files, lints every bundled workload at every level."
                );
                return Ok(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            file => files.push(file.to_owned()),
        }
    }

    let mut targets: Vec<(String, std::sync::Arc<Program>)> = Vec::new();
    if files.is_empty() {
        for name in workloads::names() {
            let bench = workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
            let input = bench
                .inputs
                .first()
                .ok_or_else(|| format!("{name}: no inputs"))?;
            targets.push((name.to_owned(), std::sync::Arc::clone(&input.program)));
        }
    } else {
        for file in files {
            let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let program = parse(&src).map_err(|e| format!("{file}: {e}"))?;
            targets.push((file, std::sync::Arc::new(program)));
        }
    }

    let mut gating = 0usize;
    let mut linted = 0usize;
    for (label, program) in &targets {
        for &level in &levels {
            gating += lint(label, program, level, verbose)?;
            linted += 1;
        }
    }
    println!(
        "vmlint: {} program-level combination(s) linted, {gating} gating finding(s)",
        linted
    );
    Ok(gating)
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vmlint: error: {message}");
            ExitCode::from(2)
        }
    }
}
