//! Whole-program static analysis over verified bytecode.
//!
//! Composes the verifier's per-function facts ([`crate::verify`]) and the
//! CFG/dominator/natural-loop machinery ([`crate::cfg`]) into
//! whole-program artifacts:
//!
//! - [`CallGraph`] — interprocedural call edges with SCC-based recursion
//!   detection, entry-reachability (dead-function discovery) and
//!   longest-chain bounds.
//! - [`StaticProfile`] — per-function shape summaries: instruction-mix
//!   histogram over [`OpClass`] buckets, loop-nesting depth from the
//!   dominator machinery, verifier-derived operand-stack and locals
//!   bounds, and loop-weighted static cost estimates built on the same
//!   [`Instr::base_cost`] tables the interpreter folds.
//! - [`Diagnostic`] — findings a linter can gate on: unreachable code,
//!   constant branches, trivially-infinite loops, dead functions, and
//!   unbounded (recursive) call depth.
//! - [`FrameBounds`] — the sound whole-program operand-stack/locals
//!   bound the VM uses to pre-size its frame arena.
//!
//! # Soundness contract
//!
//! Every bound here over-approximates what any execution of the analyzed
//! program can do: observed operand-stack depths never exceed
//! [`StaticProfile::max_stack`], observed call depth never exceeds
//! [`CallGraph::call_depth_bound`] (when bounded), dead functions are
//! never invoked, and the frame arena never outgrows
//! [`FrameBounds::arena_slots`] (when bounded). The workspace-level
//! `tests/analysis_soundness.rs` asserts all four against real runs for
//! every Table I workload at every optimization level.

use std::fmt;

use crate::cfg::Cfg;
use crate::instr::Instr;
use crate::program::{FuncId, Program};
use crate::verify::{self, ProgramFacts, VerifyError};

/// Assumed trip count per loop-nesting level in the loop-weighted static
/// cost estimate — the classic static-profile heuristic ("every loop runs
/// about ten times").
pub const LOOP_WEIGHT: u64 = 10;

/// Loop-nesting levels beyond this depth stop increasing the weight, so
/// the weighted cost cannot overflow on pathological nesting.
pub const LOOP_WEIGHT_CAP: u32 = 5;

/// Coarse instruction classes for the static instruction-mix histogram.
///
/// The buckets mirror the cost-model structure of [`Instr::base_cost`]:
/// generic (polymorphic) operations are separated from their quickened
/// typed variants because their ratio is exactly what the optimizer's
/// quickening pass changes — a bytecode-shape feature a cold-start
/// predictor can use before any run has executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Constants and `null`.
    Const,
    /// Local loads and stores.
    Local,
    /// `dup`/`pop`/`swap`/`nop`.
    Stack,
    /// Generic (polymorphic) arithmetic.
    GenericArith,
    /// Specialized integer arithmetic.
    IntArith,
    /// Specialized float arithmetic.
    FloatArith,
    /// Shifts and bitwise logic.
    Bitwise,
    /// Generic comparisons.
    GenericCmp,
    /// Specialized (int or float) comparisons.
    TypedCmp,
    /// `tofloat`/`toint` conversions.
    Convert,
    /// Jumps, conditional or not.
    Branch,
    /// Function calls.
    Call,
    /// Returns.
    Return,
    /// Array allocation and access.
    Array,
    /// Math intrinsics.
    Math,
    /// Host interface: `print`, `publish`, `done`.
    Host,
    /// Fused local/constant traffic (`loadload`, `loadconst`,
    /// `storeload`).
    FusedData,
    /// Fused constant-operand arithmetic, bitwise and compare forms.
    FusedArith,
    /// Fused branch forms (`storejump` and the compare-and-branch family).
    FusedBranch,
}

impl OpClass {
    /// All classes, in histogram order.
    pub const ALL: [OpClass; 19] = [
        OpClass::Const,
        OpClass::Local,
        OpClass::Stack,
        OpClass::GenericArith,
        OpClass::IntArith,
        OpClass::FloatArith,
        OpClass::Bitwise,
        OpClass::GenericCmp,
        OpClass::TypedCmp,
        OpClass::Convert,
        OpClass::Branch,
        OpClass::Call,
        OpClass::Return,
        OpClass::Array,
        OpClass::Math,
        OpClass::Host,
        OpClass::FusedData,
        OpClass::FusedArith,
        OpClass::FusedBranch,
    ];

    /// The number of classes (histogram width).
    pub const COUNT: usize = OpClass::ALL.len();

    /// Classify one instruction.
    pub fn of(instr: &Instr) -> OpClass {
        match instr {
            Instr::Const(_) | Instr::FConst(_) | Instr::Null => OpClass::Const,
            Instr::Load(_) | Instr::Store(_) => OpClass::Local,
            Instr::Dup | Instr::Pop | Instr::Swap | Instr::Nop => OpClass::Stack,
            Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem | Instr::Neg => {
                OpClass::GenericArith
            }
            Instr::IAdd | Instr::ISub | Instr::IMul | Instr::IDiv | Instr::IRem | Instr::INeg => {
                OpClass::IntArith
            }
            Instr::FAdd | Instr::FSub | Instr::FMul | Instr::FDiv | Instr::FNeg => {
                OpClass::FloatArith
            }
            Instr::Shl | Instr::Shr | Instr::BitAnd | Instr::BitOr | Instr::BitXor => {
                OpClass::Bitwise
            }
            Instr::CmpEq
            | Instr::CmpNe
            | Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe => OpClass::GenericCmp,
            Instr::ICmpEq
            | Instr::ICmpNe
            | Instr::ICmpLt
            | Instr::ICmpLe
            | Instr::ICmpGt
            | Instr::ICmpGe
            | Instr::FCmpEq
            | Instr::FCmpNe
            | Instr::FCmpLt
            | Instr::FCmpLe
            | Instr::FCmpGt
            | Instr::FCmpGe => OpClass::TypedCmp,
            Instr::ToFloat | Instr::ToInt => OpClass::Convert,
            Instr::Jump(_) | Instr::JumpIf(_) | Instr::JumpIfNot(_) => OpClass::Branch,
            Instr::Call(_) => OpClass::Call,
            Instr::Return => OpClass::Return,
            Instr::NewArray | Instr::ALoad | Instr::AStore | Instr::ALen => OpClass::Array,
            Instr::Math(_) => OpClass::Math,
            Instr::Print | Instr::Publish(_) | Instr::Done => OpClass::Host,
            Instr::LoadLoad(_, _)
            | Instr::LoadConst(_, _)
            | Instr::StoreLoad(_, _)
            | Instr::LoadALoad(_)
            | Instr::LoadLoadALoad(_, _) => OpClass::FusedData,
            Instr::ConstIBin(_, _)
            | Instr::ConstBin(_, _)
            | Instr::ConstBit(_, _)
            | Instr::ConstICmp(_, _)
            | Instr::IBinStore(_, _)
            | Instr::BinStore(_, _)
            | Instr::BitStore(_, _)
            | Instr::LoadIBin(_, _)
            | Instr::LoadBin(_, _)
            | Instr::LoadLoadBin(_, _, _)
            | Instr::LoadConstIBin(_, _, _)
            | Instr::ConstBitStoreLoad(_, _, _, _)
            | Instr::LoadBinALoad(_, _)
            | Instr::ConstBinALoad(_, _)
            | Instr::LoadConstBinStore(_, _, _, _)
            | Instr::LoadLoadBinALoad(_, _, _, _)
            | Instr::LoadLoadConstBinALoad(_, _, _, _) => OpClass::FusedArith,
            Instr::StoreJump(_, _)
            | Instr::ICmpBr(_, _, _)
            | Instr::CmpBr(_, _, _)
            | Instr::ConstICmpBr(_, _, _, _)
            | Instr::LoadLoadCmpBr(_, _, _, _, _)
            | Instr::ConstIBinStoreJump(_, _, _, _)
            | Instr::LoadCmpBr(_, _, _, _)
            | Instr::BinStoreJump(_, _, _)
            | Instr::LoadConstBinStoreJump(_, _, _, _, _) => OpClass::FusedBranch,
        }
    }

    /// Stable lowercase name for reports and feature vectors.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Const => "const",
            OpClass::Local => "local",
            OpClass::Stack => "stack",
            OpClass::GenericArith => "generic_arith",
            OpClass::IntArith => "int_arith",
            OpClass::FloatArith => "float_arith",
            OpClass::Bitwise => "bitwise",
            OpClass::GenericCmp => "generic_cmp",
            OpClass::TypedCmp => "typed_cmp",
            OpClass::Convert => "convert",
            OpClass::Branch => "branch",
            OpClass::Call => "call",
            OpClass::Return => "return",
            OpClass::Array => "array",
            OpClass::Math => "math",
            OpClass::Host => "host",
            OpClass::FusedData => "fused_data",
            OpClass::FusedArith => "fused_arith",
            OpClass::FusedBranch => "fused_branch",
        }
    }

    /// The class's position in [`OpClass::ALL`] (histogram index).
    pub fn index(self) -> usize {
        OpClass::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every class is listed")
    }
}

/// The interprocedural call graph of a verified program, built from the
/// verifier's *reachable* call sites — dead code cannot keep a callee
/// alive.
#[derive(Debug, Clone)]
pub struct CallGraph {
    callees: Vec<Vec<FuncId>>,
    callers: Vec<Vec<FuncId>>,
    live: Vec<bool>,
    recursive: Vec<bool>,
    entry: FuncId,
}

impl CallGraph {
    /// Build the call graph from verifier facts.
    pub fn build(program: &Program, facts: &ProgramFacts) -> CallGraph {
        let n = program.functions().len();
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        for (i, f) in facts.functions.iter().enumerate() {
            let mut targets: Vec<FuncId> = f.calls.iter().map(|&(_, callee)| callee).collect();
            targets.sort_unstable();
            targets.dedup();
            for &t in &targets {
                callers[t.index()].push(FuncId(i as u32));
            }
            callees[i] = targets;
        }
        // Liveness: flood from the entry function.
        let entry = program.entry();
        let mut live = vec![false; n];
        let mut work = vec![entry];
        while let Some(f) = work.pop() {
            if std::mem::replace(&mut live[f.index()], true) {
                continue;
            }
            work.extend(callees[f.index()].iter().copied());
        }
        // Recursion: a function is recursive iff it sits on a call cycle,
        // i.e. its SCC has more than one member or it calls itself.
        let mut recursive = vec![false; n];
        for scc in sccs(&callees) {
            let cyclic = scc.len() > 1 || callees[scc[0].index()].contains(&scc[0]);
            if cyclic {
                for f in scc {
                    recursive[f.index()] = true;
                }
            }
        }
        CallGraph {
            callees,
            callers,
            live,
            recursive,
            entry,
        }
    }

    /// Distinct functions `f` calls from reachable code.
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// Distinct functions calling `f` from reachable code.
    pub fn callers(&self, f: FuncId) -> &[FuncId] {
        &self.callers[f.index()]
    }

    /// Whether `f` is reachable from the entry through calls.
    pub fn is_live(&self, f: FuncId) -> bool {
        self.live[f.index()]
    }

    /// Whether `f` sits on a call cycle (direct or mutual recursion).
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.recursive[f.index()]
    }

    /// Functions unreachable from the entry, in id order. A VM executing
    /// this program can never invoke them (asserted dynamically in the
    /// soundness suite).
    pub fn dead_functions(&self) -> Vec<FuncId> {
        (0..self.live.len())
            .filter(|&i| !self.live[i])
            .map(|i| FuncId(i as u32))
            .collect()
    }

    /// Whether any recursive function is reachable from the entry.
    pub fn has_live_recursion(&self) -> bool {
        self.recursive.iter().zip(&self.live).any(|(&r, &l)| r && l)
    }

    /// Maximum call-stack depth (in frames, entry frame included) any
    /// execution can reach, or `None` when recursion reachable from the
    /// entry makes the depth statically unbounded.
    pub fn call_depth_bound(&self) -> Option<usize> {
        self.longest_chain(|_| 1)
    }

    /// Longest call chain from the entry where each function `f`
    /// contributes `weight(f)`, or `None` when live recursion makes the
    /// chain unbounded. With `weight = |_| 1` this is the frame-depth
    /// bound; with per-function frame sizes it bounds the arena.
    pub fn longest_chain(&self, weight: impl Fn(FuncId) -> usize) -> Option<usize> {
        if self.has_live_recursion() {
            return None;
        }
        // Memoized longest path over the acyclic live subgraph, iterative
        // so deep chains cannot overflow the host stack.
        let n = self.callees.len();
        let mut memo: Vec<Option<usize>> = vec![None; n];
        let mut stack: Vec<(usize, bool)> = vec![(self.entry.index(), false)];
        while let Some((f, expanded)) = stack.pop() {
            if memo[f].is_some() {
                continue;
            }
            if expanded {
                let deepest_callee = self.callees[f]
                    .iter()
                    .map(|c| memo[c.index()].expect("callees resolved first"))
                    .max()
                    .unwrap_or(0);
                memo[f] = Some(weight(FuncId(f as u32)) + deepest_callee);
            } else {
                stack.push((f, true));
                for c in &self.callees[f] {
                    if memo[c.index()].is_none() {
                        stack.push((c.index(), false));
                    }
                }
            }
        }
        memo[self.entry.index()]
    }
}

/// Strongly connected components of the call graph (Tarjan, iterative).
/// Components are returned in reverse-topological order.
fn sccs(callees: &[Vec<FuncId>]) -> Vec<Vec<FuncId>> {
    let n = callees.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut result: Vec<Vec<FuncId>> = Vec::new();
    // Explicit DFS frames: (node, next-callee cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(w) = callees[v].get(*cursor).map(|c| c.index()) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        component.push(FuncId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    result.push(component);
                }
            }
        }
    }
    result
}

/// The static shape profile of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticProfile {
    /// The profiled function.
    pub id: FuncId,
    /// Its name (for reports).
    pub name: String,
    /// Instruction count.
    pub code_len: usize,
    /// Declared local slots (arguments included).
    pub locals: u16,
    /// Verifier-proven maximum operand-stack depth.
    pub max_stack: usize,
    /// Instruction-mix histogram, indexed by [`OpClass::index`].
    pub mix: [u32; OpClass::COUNT],
    /// Number of natural loops.
    pub loops: usize,
    /// Maximum loop-nesting depth (0 for loop-free code).
    pub loop_depth: usize,
    /// Plain static cost: the sum of [`Instr::base_cost`] over the code.
    pub static_cost: u64,
    /// Loop-weighted static cost: each instruction's base cost scaled by
    /// [`LOOP_WEIGHT`]^nesting-depth (capped at [`LOOP_WEIGHT_CAP`]) —
    /// an execution-frequency estimate with no profile data.
    pub weighted_cost: u64,
}

impl StaticProfile {
    /// Fraction of instructions in `class` (0 for empty code).
    pub fn mix_fraction(&self, class: OpClass) -> f64 {
        if self.code_len == 0 {
            return 0.0;
        }
        f64::from(self.mix[class.index()]) / self.code_len as f64
    }
}

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: expected in unoptimized code or inherent to the
    /// program (e.g. recursion).
    Note,
    /// Suspicious shape the optimizer is expected to remove; gates a lint
    /// of optimized output.
    Warn,
    /// Almost certainly a bug in the program or a pass; always gates.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// What a diagnostic found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagKind {
    /// Instructions `[start, end)` can never execute.
    UnreachableCode {
        /// First dead offset.
        start: u32,
        /// One past the last dead offset.
        end: u32,
    },
    /// A conditional branch whose condition is a constant pushed
    /// immediately before it.
    ConstantBranch {
        /// Whether the branch is always taken.
        taken: bool,
    },
    /// A natural loop with no exit edge: once entered, control can never
    /// leave the loop body.
    InfiniteLoop,
    /// The function can never be invoked from the entry.
    DeadFunction,
    /// Recursion reachable from the entry makes the call depth (and the
    /// frame arena) statically unbounded.
    UnboundedCallDepth,
}

/// One finding of the diagnostics pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The function the finding is in.
    pub function: String,
    /// Instruction offset of the finding, when it has one.
    pub at: Option<u32>,
    /// How seriously a linter should take it.
    pub severity: Severity,
    /// What was found.
    pub kind: DiagKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] `{}`", self.severity, self.function)?;
        if let Some(at) = self.at {
            write!(f, " at {at}")?;
        }
        write!(f, ": ")?;
        match &self.kind {
            DiagKind::UnreachableCode { start, end } => {
                write!(f, "instructions {start}..{end} are unreachable")
            }
            DiagKind::ConstantBranch { taken } => write!(
                f,
                "branch condition is constant (always {})",
                if *taken { "taken" } else { "fall-through" }
            ),
            DiagKind::InfiniteLoop => write!(f, "loop has no exit edge"),
            DiagKind::DeadFunction => write!(f, "function is never called from the entry"),
            DiagKind::UnboundedCallDepth => {
                write!(f, "recursion makes the static call depth unbounded")
            }
        }
    }
}

/// The sound whole-program frame bounds derived from verifier facts and
/// the call graph — what the VM pre-sizes its frame arena from. `None`
/// means recursion makes the quantity statically unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameBounds {
    /// Maximum frames on the call stack, entry included.
    pub call_depth: Option<usize>,
    /// Maximum arena slots (sum of locals + operand stack over the
    /// deepest call chain).
    pub arena_slots: Option<usize>,
}

/// Compute [`FrameBounds`] from verifier facts without building CFGs —
/// cheap enough for every `Vm::new`.
pub fn frame_bounds(program: &Program, facts: &ProgramFacts) -> FrameBounds {
    let graph = CallGraph::build(program, facts);
    let slots =
        |f: FuncId| program.function(f).locals as usize + facts.functions[f.index()].max_stack;
    FrameBounds {
        call_depth: graph.call_depth_bound(),
        arena_slots: graph.longest_chain(slots),
    }
}

/// Everything the static analysis knows about one program.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Per-function shape profiles, indexed by [`FuncId::index`].
    pub profiles: Vec<StaticProfile>,
    /// The interprocedural call graph.
    pub call_graph: CallGraph,
    /// All findings, grouped by function in id order.
    pub diagnostics: Vec<Diagnostic>,
    /// Whole-program frame bounds.
    pub bounds: FrameBounds,
}

impl ProgramAnalysis {
    /// Findings at or above `severity`.
    pub fn findings(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity >= severity)
    }

    /// Total loop-weighted static cost over live functions — the
    /// whole-program cold-start cost estimate.
    pub fn live_weighted_cost(&self) -> u64 {
        self.profiles
            .iter()
            .filter(|p| self.call_graph.is_live(p.id))
            .fold(0u64, |acc, p| acc.saturating_add(p.weighted_cost))
    }
}

/// Analyze a whole program: verify it, then build profiles, the call
/// graph, frame bounds and diagnostics.
///
/// # Errors
///
/// Returns the verifier's error when the program is not verifiable —
/// analysis facts are only meaningful for verified code.
pub fn analyze(program: &Program) -> Result<ProgramAnalysis, VerifyError> {
    let facts = verify::verify_with_facts(program)?;
    let call_graph = CallGraph::build(program, &facts);
    let bounds = FrameBounds {
        call_depth: call_graph.call_depth_bound(),
        arena_slots: call_graph.longest_chain(|f| {
            program.function(f).locals as usize + facts.functions[f.index()].max_stack
        }),
    };
    let mut profiles = Vec::with_capacity(program.functions().len());
    let mut diagnostics = Vec::new();
    for (i, f) in program.functions().iter().enumerate() {
        let id = FuncId(i as u32);
        let ffacts = &facts.functions[i];
        let cfg = Cfg::build(f);
        let depths = cfg.loop_depths();
        let loops = cfg.natural_loops();

        // --- profile ---
        let mut mix = [0u32; OpClass::COUNT];
        let mut static_cost = 0u64;
        let mut weighted_cost = 0u64;
        for (pc, instr) in f.code.iter().enumerate() {
            mix[OpClass::of(instr).index()] += 1;
            let base = instr.base_cost();
            static_cost = static_cost.saturating_add(base);
            let depth = depths[cfg.block_of(pc as u32)].min(LOOP_WEIGHT_CAP as usize);
            let weight = LOOP_WEIGHT.saturating_pow(depth as u32);
            weighted_cost = weighted_cost.saturating_add(base.saturating_mul(weight));
        }
        profiles.push(StaticProfile {
            id,
            name: f.name.clone(),
            code_len: f.code.len(),
            locals: f.locals,
            max_stack: ffacts.max_stack,
            mix,
            loops: loops.len(),
            loop_depth: depths.iter().copied().max().unwrap_or(0),
            static_cost,
            weighted_cost,
        });

        // --- diagnostics ---
        if !call_graph.is_live(id) {
            diagnostics.push(Diagnostic {
                function: f.name.clone(),
                at: None,
                severity: Severity::Note,
                kind: DiagKind::DeadFunction,
            });
            // Shape findings inside dead functions would be noise: the
            // code never runs, and the entry-level finding covers it.
            continue;
        }
        // Unreachable instruction ranges, merged over adjacent offsets.
        let mut pc = 0usize;
        while pc < ffacts.reachable.len() {
            if ffacts.reachable[pc] {
                pc += 1;
                continue;
            }
            let start = pc;
            while pc < ffacts.reachable.len() && !ffacts.reachable[pc] {
                pc += 1;
            }
            diagnostics.push(Diagnostic {
                function: f.name.clone(),
                at: Some(start as u32),
                severity: Severity::Warn,
                kind: DiagKind::UnreachableCode {
                    start: start as u32,
                    end: pc as u32,
                },
            });
        }
        // Constant branches: a conditional jump fed by a constant pushed
        // immediately before it (reachable code only).
        for (pc, instr) in f.code.iter().enumerate() {
            if !matches!(instr, Instr::JumpIf(_) | Instr::JumpIfNot(_)) || !ffacts.reachable[pc] {
                continue;
            }
            let block = cfg.block_of(pc as u32);
            if pc as u32 == cfg.blocks()[block].start {
                continue;
            }
            let truthy = match f.code[pc - 1] {
                Instr::Const(v) => Some(v != 0),
                Instr::FConst(v) => Some(v != 0.0),
                Instr::Null => Some(false),
                _ => None,
            };
            if let Some(truthy) = truthy {
                let taken = match instr {
                    Instr::JumpIf(_) => truthy,
                    _ => !truthy,
                };
                diagnostics.push(Diagnostic {
                    function: f.name.clone(),
                    at: Some(pc as u32),
                    severity: Severity::Warn,
                    kind: DiagKind::ConstantBranch { taken },
                });
            }
        }
        // Trivially-infinite loops: no edge leaves the loop body.
        for l in &loops {
            let escapes = l
                .body
                .iter()
                .any(|&b| cfg.blocks()[b].succs.iter().any(|s| !l.body.contains(s)));
            if !escapes {
                diagnostics.push(Diagnostic {
                    function: f.name.clone(),
                    at: Some(cfg.blocks()[l.header].start),
                    severity: Severity::Deny,
                    kind: DiagKind::InfiniteLoop,
                });
            }
        }
    }
    if call_graph.has_live_recursion() {
        let entry_name = program.function(program.entry()).name.clone();
        diagnostics.push(Diagnostic {
            function: entry_name,
            at: None,
            severity: Severity::Note,
            kind: DiagKind::UnboundedCallDepth,
        });
    }
    Ok(ProgramAnalysis {
        profiles,
        call_graph,
        diagnostics,
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse;

    fn analyze_src(src: &str) -> ProgramAnalysis {
        analyze(&parse(src).unwrap()).unwrap()
    }

    const CALLS: &str = "entry func main/0 {
  const 1
  call a
  print
  null
  return
}
func a/1 {
  load 0
  call b
  return
}
func b/1 {
  load 0
  const 2
  imul
  return
}
func dead/0 {
  const 9
  return
}";

    #[test]
    fn call_graph_edges_liveness_and_depth() {
        let a = analyze_src(CALLS);
        let g = &a.call_graph;
        assert_eq!(g.callees(FuncId(0)), &[FuncId(1)]);
        assert_eq!(g.callees(FuncId(1)), &[FuncId(2)]);
        assert_eq!(g.callers(FuncId(2)), &[FuncId(1)]);
        assert_eq!(g.dead_functions(), vec![FuncId(3)]);
        assert!(!g.has_live_recursion());
        // main -> a -> b is three frames.
        assert_eq!(g.call_depth_bound(), Some(3));
        assert_eq!(a.bounds.call_depth, Some(3));
        assert!(a.bounds.arena_slots.is_some());
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::DeadFunction && d.function == "dead"));
    }

    #[test]
    fn recursion_is_detected_and_unbounds_the_depth() {
        let a = analyze_src(
            "entry func main/0 {
  const 5
  call fact
  print
  null
  return
}
func fact/1 {
  load 0
  const 1
  icmple
  jumpif base
  load 0
  load 0
  const 1
  isub
  call fact
  imul
  return
base:
  const 1
  return
}",
        );
        assert!(a.call_graph.is_recursive(FuncId(1)));
        assert!(!a.call_graph.is_recursive(FuncId(0)));
        assert!(a.call_graph.has_live_recursion());
        assert_eq!(a.bounds.call_depth, None);
        assert_eq!(a.bounds.arena_slots, None);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::UnboundedCallDepth));
    }

    #[test]
    fn mutual_recursion_is_detected() {
        let a = analyze_src(
            "entry func main/0 {
  const 3
  call even
  print
  null
  return
}
func even/1 {
  load 0
  jumpifnot yes
  load 0
  const 1
  isub
  call odd
  return
yes:
  const 1
  return
}
func odd/1 {
  load 0
  jumpifnot no
  load 0
  const 1
  isub
  call even
  return
no:
  const 0
  return
}",
        );
        assert!(a.call_graph.is_recursive(FuncId(1)));
        assert!(a.call_graph.is_recursive(FuncId(2)));
        assert_eq!(a.bounds.call_depth, None);
    }

    #[test]
    fn profiles_weight_loops_and_count_the_mix() {
        let a = analyze_src(
            "entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 5
  icmpge
  jumpif end
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  null
  return
}",
        );
        let p = &a.profiles[0];
        assert_eq!(p.loops, 1);
        assert_eq!(p.loop_depth, 1);
        assert_eq!(p.max_stack, 2);
        assert!(
            p.weighted_cost > p.static_cost,
            "loop body must be weighted up: {} vs {}",
            p.weighted_cost,
            p.static_cost
        );
        assert_eq!(p.mix[OpClass::Branch.index()], 2);
        assert_eq!(p.mix[OpClass::IntArith.index()], 1);
        assert_eq!(p.mix.iter().map(|&c| c as usize).sum::<usize>(), p.code_len);
    }

    #[test]
    fn diagnostics_find_unreachable_code_and_constant_branches() {
        let a = analyze_src(
            "entry func main/0 {
  const 1
  jumpif target
  const 9
  print
target:
  null
  return
  const 7
  print
  null
  return
}",
        );
        assert!(a
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ConstantBranch { taken: true })));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::UnreachableCode { start: 6, end: 10 })));
    }

    #[test]
    fn diagnostics_find_infinite_loops() {
        let a = analyze_src(
            "entry func main/0 {
top:
  const 1
  pop
  jump top
}",
        );
        let finding = a
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::InfiniteLoop)
            .expect("loop with no exit must be flagged");
        assert_eq!(finding.severity, Severity::Deny);
        assert!(a.findings(Severity::Deny).count() >= 1);
    }

    #[test]
    fn loops_with_exits_are_not_flagged_infinite() {
        let a = analyze_src(
            "entry func main/0 locals=1 {
top:
  load 0
  jumpifnot top
  null
  return
}",
        );
        assert!(a
            .diagnostics
            .iter()
            .all(|d| d.kind != DiagKind::InfiniteLoop));
    }

    #[test]
    fn frame_bounds_sum_locals_and_stacks_over_the_deepest_chain() {
        let p = parse(CALLS).unwrap();
        let facts = verify::verify_with_facts(&p).unwrap();
        let b = frame_bounds(&p, &facts);
        // main: 0 locals, stack peaks at 1 (arg) -> 1 slot.
        // a: 1 local, stack peaks at 1 -> 2 slots.
        // b: 1 local, stack peaks at 2 -> 3 slots.
        assert_eq!(b.arena_slots, Some(1 + 2 + 3));
        assert_eq!(b.call_depth, Some(3));
    }

    #[test]
    fn op_class_indexing_is_consistent() {
        for (i, class) in OpClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
            assert!(!class.name().is_empty());
        }
    }
}
