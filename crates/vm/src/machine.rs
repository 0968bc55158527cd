//! The execution engine: a resumable interpreter with a virtual cycle
//! clock, timer-based sampling profiler and policy-driven recompilation.
//!
//! # Execution model
//!
//! - Every method is compiled by the **baseline** compiler on its first
//!   invocation (Jikes level −1); the active [`AosPolicy`] may immediately
//!   request a recompilation (the evolvable VM's proactive path) or do so
//!   later on a timer sample (the reactive path).
//! - Each executed instruction charges `base_cost × quality(level)` virtual
//!   cycles; compilations charge their own cost at the moment they happen.
//!   The clock is deterministic, so speedups and overheads are exactly
//!   reproducible.
//! - Every [`VmConfig::sample_interval_cycles`] cycles, one sample is
//!   attributed to the currently-executing method and the policy is
//!   consulted — mirroring Jikes RVM's timer-based sample organizer.
//! - Frames hold an `Arc` of their compiled code: a method recompiled
//!   mid-run keeps executing old code in active frames and picks up the
//!   new code on the next call, exactly like a real JIT.
//! - The `Done` instruction (XICL's `done()` call) pauses the machine and
//!   yields [`Outcome::FeaturesReady`] so the host can run prediction and
//!   swap the policy before resuming.
//!
//! # Program context vs run state
//!
//! A [`Vm`] is split in two (see `DESIGN.md` §13):
//!
//! - the **program context** — the verified program, engine config,
//!   optimizer and the statically proven frame bounds — is fixed for the
//!   life of the machine;
//! - the **run state** (`RunState`) — frame stack, value arena, heap, virtual
//!   clock/budget accounting, sampler state, profile, pending publishes
//!   *and* the compiled-code caches (recompilation is a run event that
//!   moves the clock, so compilation state is run state) — is everything
//!   execution mutates.
//!
//! Because the clock is virtual, a cloned `RunState` replays *exactly*:
//! [`Vm::snapshot`] captures one at any host-side window boundary,
//! [`Vm::resume`] rebuilds a machine around it, and the continuation is
//! bit-identical to never having snapshotted (`tests/fork_equiv.rs`).
//! With [`VmConfig::fork_snapshots`] set, the engine also self-captures at
//! recompilation decisions — the fork points the compilation-forking data
//! factory replays under counterfactual levels (`evovm_core::fork`). A
//! finished run stamps its total onto the fork points the host did not
//! intervene after ([`RunSnapshot::factual_total_cycles`]), so the
//! factory need not replay the decision the run itself took.
//!
//! # Host-side performance (the interpreter hot path)
//!
//! The virtual clock above defines *what* a run costs; this section is
//! about how cheaply the host computes it. Three structural choices keep
//! the per-instruction path tight, all invisible to the virtual clock
//! (see `DESIGN.md` § "Interpreter internals" and the equivalence suite
//! `tests/interp_equiv.rs`):
//!
//! - **Fuel-based event accounting** — sample delivery and cycle-budget
//!   exhaustion only matter at clock thresholds, so the dispatch loop
//!   computes the next event deadline once per window and decrements a
//!   local fuel counter; the division, `Option` check and sample
//!   comparison of the naive loop run only at event boundaries.
//! - **Folded cost tables** — [`CompiledCode::cost_milli`] precomputes
//!   `base_cost × quality_milli` per instruction at compile time; the hot
//!   loop does one indexed load.
//! - **Frame arena** — operand stacks and locals of all active frames
//!   live in one contiguous [`Vec<Value>`]; calls reuse the caller's
//!   argument slots in place and allocate nothing.
//!
//! [`InterpMode::Reference`] selects a deliberately naive dispatch loop
//! (per-instruction checks, multiplies and re-borrows) kept as the golden
//! oracle for differential tests and as the "before" side of the
//! dispatch microbenchmark.

use std::sync::Arc;

use evovm_bytecode::analysis::{frame_bounds, FrameBounds};
use evovm_bytecode::program::Program;
use evovm_bytecode::scalar::{self, BinOp, BitOp, CmpOp, Scalar};
use evovm_bytecode::{FuncId, Instr, StrId};
use evovm_opt::{CompiledCode, OptLevel, Optimizer};

use crate::error::{Trap, VmError};
use crate::policy::{AosContext, AosPolicy};
use crate::profile::{DispatchProfile, RecompileEvent, RunProfile};
use crate::value::{Heap, Value};

/// Virtual cycles per simulated second; converts clock readings into the
/// "running time" figures the experiments report.
pub const CYCLES_PER_SECOND: u64 = 100_000_000;

/// Cap on how many arena slots [`Vm::new`] preallocates from the static
/// bound, so a deep-but-bounded call chain cannot make construction
/// reserve absurd memory up front (the arena still grows on demand past
/// the cap, exactly as before pre-sizing existed).
const ARENA_PRESIZE_CAP_SLOTS: usize = 1 << 16;

/// Which dispatch loop executes the program. Both produce bit-identical
/// virtual-clock results (cycles, samples, recompilations, output); they
/// differ only in host-side cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpMode {
    /// The production hot path: fuel-based event windows, folded cost
    /// tables, arena frames.
    #[default]
    Fast,
    /// The straight-line reference loop: per-instruction budget check
    /// (with its division), per-instruction sample polling, a
    /// `base_cost × quality` multiply per instruction and a
    /// `frames.last_mut()` re-borrow per step. Kept as the differential-
    /// testing oracle and the microbenchmark baseline.
    Reference,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Virtual cycles between profiler samples (Jikes-style timer ticks).
    pub sample_interval_cycles: u64,
    /// Maximum call depth before a [`Trap::StackOverflow`].
    pub max_call_depth: usize,
    /// Optional hard cycle budget (guards against runaway programs).
    pub cycle_budget: Option<u64>,
    /// Which dispatch loop to run (differential-testing hook; defaults to
    /// [`InterpMode::Fast`]).
    pub interp: InterpMode,
    /// Collect per-opcode and opcode-pair frequency counters into
    /// [`RunProfile::dispatch`]. Off by default: the fast loop is compiled
    /// in two monomorphic flavours, so the counters cost nothing when
    /// disabled.
    pub profile_dispatch: bool,
    /// Let the optimizer fuse hot opcode pairs into superinstructions at
    /// every level (see [`Optimizer::with_fusion`]). On by default; the
    /// off switch exists so the dispatch profiler can measure the raw
    /// pre-fusion pair distribution and so tests can compare fused
    /// against unfused runs (the virtual clock is bit-identical either
    /// way).
    pub fuse: bool,
    /// Maximum number of fork points the engine self-captures at
    /// recompilation decisions (a [`RunSnapshot`] taken right before each
    /// decision applies, drained via [`Vm::take_fork_snapshots`]). Zero —
    /// the default — disables capture entirely; the check lives on the
    /// sample tick path, never in the dispatch loop, so production runs
    /// pay nothing.
    pub fork_snapshots: usize,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            sample_interval_cycles: 100_000,
            max_call_depth: 2048,
            cycle_budget: None,
            interp: InterpMode::Fast,
            profile_dispatch: false,
            fuse: true,
            fork_snapshots: 0,
        }
    }
}

/// Why the machine returned control.
#[derive(Debug)]
pub enum Outcome {
    /// The program ran to completion. Boxed: one `Outcome` moves per run,
    /// and keeping the enum a pointer wide spares every pause/resume
    /// round-trip from copying an inline [`RunResult`].
    Finished(Box<RunResult>),
    /// The program executed `Done` (XICL `done()`): published features are
    /// complete and the host may predict + swap the policy, then call
    /// [`Vm::run`] again.
    FeaturesReady,
}

/// Everything observable about one finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Values printed by the program, in order.
    pub output: Vec<String>,
    /// Features published via `Publish`, in order.
    pub published: Vec<(String, Scalar)>,
    /// Total virtual cycles (execution + compilation).
    pub total_cycles: u64,
    /// Cycles spent executing program instructions.
    pub exec_cycles: u64,
    /// Cycles spent compiling.
    pub compile_cycles: u64,
    /// Program instructions retired. A host-throughput denominator (see
    /// `examples/perf_sweep.rs`); it has no effect on the virtual clock.
    pub instructions: u64,
    /// What the profiler saw.
    pub profile: RunProfile,
}

impl RunResult {
    /// The run's simulated wall-clock duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / CYCLES_PER_SECOND as f64
    }
}

/// One active call: plain metadata into the shared arena. The records
/// live in a pooled `Vec` (popping keeps capacity), so steady-state calls
/// allocate nothing.
#[derive(Debug, Clone)]
struct Frame {
    method: FuncId,
    code: Arc<Vec<Instr>>,
    cost_milli: Arc<Vec<u64>>,
    quality_milli: u64,
    ip: usize,
    /// First arena slot of this frame's locals; the frame's operand
    /// stack is the arena tail above them. Everything below belongs to
    /// callers and is untouchable (the verifier bounds stack depth).
    locals_base: usize,
}

/// What [`step_op`] asks the dispatch loop to do next.
enum Step {
    /// Keep executing the current frame.
    Next,
    /// Push a frame for the callee.
    Call(FuncId),
    /// Pop the current frame.
    Return,
    /// Pause the machine (XICL `done()`).
    Done,
}

/// One monomorphic call-site cache entry: everything a frame push needs,
/// resolved once per (callee, compiled code) and reused until the callee
/// recompiles. Because calls name their callee statically, caching per
/// callee is exactly caching per call site.
#[derive(Debug, Clone)]
struct CallTarget {
    arity: usize,
    locals: u16,
    max_stack: u32,
    quality_milli: u64,
    code: Arc<Vec<Instr>>,
    cost_milli: Arc<Vec<u64>>,
}

/// What ended a fuel window.
enum Pending {
    /// Fuel exhausted: a sample is due and/or the budget deadline passed.
    Event,
    /// A `Call` needs a frame push (and possibly a compilation).
    Call(FuncId),
    /// A `Return` needs a frame pop.
    Return,
    /// `Done` pauses the machine.
    Done,
    /// A trap or runtime error surfaced mid-window.
    Fault(VmError),
}

/// The run-mutable half of a [`Vm`]: everything execution changes.
///
/// This includes the compiled-code and call-site caches and the per-method
/// levels — recompilations happen mid-run and charge the virtual clock, so
/// compilation state *is* run state and must travel with a snapshot for
/// the continuation to replay bit-identically. The immutable program
/// context (program, config, optimizer, static bounds) stays on [`Vm`].
#[derive(Debug, Clone)]
struct RunState {
    cache: Vec<Option<CompiledCode>>,
    /// Monomorphic call-site cache, indexed like `cache`; entries are
    /// invalidated whenever the callee recompiles.
    call_cache: Vec<Option<CallTarget>>,
    levels: Vec<OptLevel>,
    heap: Heap,
    frames: Vec<Frame>,
    /// Locals + operand stacks of all active frames, contiguously.
    arena: Vec<Value>,
    clock_milli: u64,
    exec_milli: u64,
    compile_milli: u64,
    next_sample_milli: u64,
    instructions: u64,
    profile: RunProfile,
    output: Vec<String>,
    published: Vec<(String, Scalar)>,
    /// Publishes since the last pause, as interned ids: the hot loop
    /// never allocates a feature name; ids resolve in [`Vm::flush_published`]
    /// at the next `Done` pause or at finish.
    pending_publish: Vec<(StrId, Scalar)>,
    started: bool,
    finished: bool,
}

/// A point-in-time copy of one run, taken at a window boundary — either
/// by the host via [`Vm::snapshot`] (between [`Vm::run`] calls) or by the
/// engine itself at a recompilation decision when
/// [`VmConfig::fork_snapshots`] is set.
///
/// A snapshot is self-contained and `Send`: it carries the program, the
/// config, a forked copy of the policy ([`AosPolicy::fork_box`]) and the
/// full run state, so [`Vm::resume`] can rebuild the machine anywhere —
/// on another worker thread, under a different cycle budget, or under a
/// counterfactual level decision ([`RunSnapshot::override_decision`]).
/// Resuming and running to completion is bit-identical to never having
/// snapshotted, in both [`InterpMode`]s (`tests/fork_equiv.rs`).
#[derive(Debug)]
pub struct RunSnapshot {
    program: Arc<Program>,
    config: VmConfig,
    static_bounds: FrameBounds,
    policy: Box<dyn AosPolicy>,
    state: RunState,
    /// The recompilation decision captured at a fork point: the sampled
    /// method and the level the live policy chose. `None` for host-side
    /// snapshots.
    decision: Option<(FuncId, OptLevel)>,
    /// The level [`Vm::resume`] will actually compile `decision`'s method
    /// to. Starts equal to the captured decision; forks override it per
    /// counterfactual. `None` suppresses the recompilation entirely (the
    /// "keep the current level" arm — and because upward-only recompile
    /// semantics make any target `<=` the current level a no-op, lower
    /// counterfactuals degrade to this arm naturally).
    applied: Option<OptLevel>,
    /// Arena capacity at capture. Cloning a `Vec` copies contents, not
    /// spare capacity, and the dispatch loop's unchecked pushes rely on
    /// the operand headroom reserved at frame entry — resume re-reserves
    /// to this figure before executing anything.
    arena_capacity: usize,
    /// The capturing machine's host-intervention epoch at capture (see
    /// `Vm::host_epoch`). Meaningful for fork points only.
    capture_epoch: u64,
    /// See [`RunSnapshot::factual_total_cycles`].
    factual_total_cycles: Option<u64>,
}

impl Clone for RunSnapshot {
    fn clone(&self) -> RunSnapshot {
        RunSnapshot {
            program: Arc::clone(&self.program),
            config: self.config.clone(),
            static_bounds: self.static_bounds,
            policy: self.policy.fork_box(),
            state: self.state.clone(),
            decision: self.decision,
            applied: self.applied,
            arena_capacity: self.arena_capacity,
            capture_epoch: self.capture_epoch,
            factual_total_cycles: self.factual_total_cycles,
        }
    }
}

impl RunSnapshot {
    /// Virtual clock at capture, in cycles.
    pub fn cycles(&self) -> u64 {
        self.state.clock_milli / 1000
    }

    /// Instructions retired up to capture.
    pub fn instructions(&self) -> u64 {
        self.state.instructions
    }

    /// The recompilation decision pending at capture (`None` for
    /// host-side snapshots): the sampled method and the level the live
    /// policy chose for it.
    pub fn pending_decision(&self) -> Option<(FuncId, OptLevel)> {
        self.decision
    }

    /// The compiled level `method` had at capture.
    pub fn level_of(&self, method: FuncId) -> OptLevel {
        self.state.levels[method.index()]
    }

    /// Replace the level [`Vm::resume`] applies for the captured decision.
    /// `None` suppresses the recompilation (the counterfactual "stay where
    /// you are"). No effect on host-side snapshots, which carry no
    /// decision.
    pub fn override_decision(&mut self, level: Option<OptLevel>) {
        if self.decision.is_some() {
            self.applied = level;
        }
    }

    /// Total cycles of the run this fork point was captured in, when
    /// resuming the snapshot under its captured decision provably
    /// reproduces that run: the run finished, and the host did not
    /// intervene ([`Vm::charge_overhead`], [`Vm::apply_strategy`],
    /// [`Vm::replace_policy`]) between capture and finish. A resume skips
    /// nothing else — `FeaturesReady` pauses where the host only reads
    /// features are invisible to the clock — so the captured decision's
    /// continuation is exactly the factual run's remainder.
    ///
    /// `None` for host-side snapshots, for runs that trapped or were
    /// abandoned, for fork points drained before the run finished, and
    /// after [`RunSnapshot::set_cycle_budget`].
    pub fn factual_total_cycles(&self) -> Option<u64> {
        self.factual_total_cycles
    }

    /// Replace the cycle budget the resumed machine runs under. Forks use
    /// this to lift a budget that already tripped, or to bound
    /// counterfactual continuations. Drops the factual stamp: the factual
    /// run finished under the capture-time budget, which a tighter one
    /// could trip.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.config.cycle_budget = budget;
        self.factual_total_cycles = None;
    }
}

/// The virtual machine: the immutable program context plus one run
/// state (see the module docs on the split).
#[derive(Debug)]
pub struct Vm {
    program: Arc<Program>,
    config: VmConfig,
    policy: Box<dyn AosPolicy>,
    optimizer: Optimizer,
    /// Static call-depth/arena bounds proven at construction; used to
    /// pre-size `frames` and `arena` and exposed for soundness checks.
    static_bounds: FrameBounds,
    state: RunState,
    /// Fork points self-captured at recompilation decisions, in decision
    /// order, up to [`VmConfig::fork_snapshots`]. Kept outside `state` so
    /// snapshots never nest.
    fork_points: Vec<RunSnapshot>,
    /// Host-intervention epoch: bumped on entry to every host call that
    /// can change the run between pauses in a way a resumed fork does not
    /// repeat (`charge_overhead`, `apply_strategy`, `replace_policy`).
    /// Fork points captured in the final epoch get the factual stamp.
    host_epoch: u64,
}

impl Vm {
    /// Create a machine for `program` under `policy`.
    ///
    /// Verification also yields the whole-program frame bounds
    /// ([`evovm_bytecode::analysis::frame_bounds`]); when the program's
    /// call graph is recursion-free, the frame arena and the frame stack
    /// are preallocated to the proven maxima of the verified bytecode, so
    /// execution at levels that preserve locals counts performs no arena
    /// growth at all (O2 inlining may add locals and grow past the hint;
    /// recursion falls back to on-demand growth as before).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Verify`] if the program fails verification.
    pub fn new(
        program: Arc<Program>,
        policy: Box<dyn AosPolicy>,
        config: VmConfig,
    ) -> Result<Vm, VmError> {
        let facts = evovm_bytecode::verify::verify_with_facts(&program)?;
        let static_bounds = frame_bounds(&program, &facts);
        let arena_capacity = static_bounds
            .arena_slots
            .unwrap_or(0)
            .min(ARENA_PRESIZE_CAP_SLOTS);
        let frame_capacity = static_bounds
            .call_depth
            .unwrap_or(0)
            .min(config.max_call_depth);
        let n = program.functions().len();
        let mut profile = RunProfile::new(n);
        if config.profile_dispatch {
            profile.dispatch = Some(DispatchProfile::new());
        }
        Ok(Vm {
            program,
            optimizer: Optimizer::new().with_fusion(config.fuse),
            state: RunState {
                cache: (0..n).map(|_| None).collect(),
                call_cache: (0..n).map(|_| None).collect(),
                levels: vec![OptLevel::Baseline; n],
                heap: Heap::new(),
                frames: Vec::with_capacity(frame_capacity),
                arena: Vec::with_capacity(arena_capacity),
                clock_milli: 0,
                exec_milli: 0,
                compile_milli: 0,
                next_sample_milli: config.sample_interval_cycles * 1000,
                instructions: 0,
                profile,
                output: Vec::new(),
                published: Vec::new(),
                pending_publish: Vec::new(),
                started: false,
                finished: false,
            },
            config,
            policy,
            static_bounds,
            fork_points: Vec::new(),
            host_epoch: 0,
        })
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The static call-depth/arena bounds proven at construction. `None`
    /// fields mean recursion makes the quantity statically unbounded.
    pub fn static_bounds(&self) -> FrameBounds {
        self.static_bounds
    }

    /// Features published so far. Complete at every `FeaturesReady` pause
    /// and after the run finishes (names resolve from the string table at
    /// those points, not per `Publish`).
    pub fn published(&self) -> &[(String, Scalar)] {
        &self.state.published
    }

    /// Swap the recompilation policy, returning the old one. Intended for
    /// the `FeaturesReady` pause, where the host installs a predicted
    /// strategy before resuming.
    pub fn replace_policy(&mut self, policy: Box<dyn AosPolicy>) -> Box<dyn AosPolicy> {
        self.host_epoch += 1;
        std::mem::replace(&mut self.policy, policy)
    }

    /// Current virtual clock in cycles.
    pub fn cycles(&self) -> u64 {
        self.state.clock_milli / 1000
    }

    /// Capture the run as a [`RunSnapshot`]. Valid at any point where the
    /// host holds control — before the first [`Vm::run`], at a
    /// `FeaturesReady` pause, or after an error returned with the state
    /// intact (e.g. a tripped cycle budget) — which are exactly the event-
    /// window boundaries: frame ips and accounting are fully written back
    /// there, so the copy resumes bit-identically.
    pub fn snapshot(&self) -> RunSnapshot {
        self.make_snapshot(None)
    }

    /// Drain the fork points self-captured at recompilation decisions
    /// (none unless [`VmConfig::fork_snapshots`] is set).
    pub fn take_fork_snapshots(&mut self) -> Vec<RunSnapshot> {
        std::mem::take(&mut self.fork_points)
    }

    /// Rebuild a machine from `snapshot` and re-enter the run exactly
    /// where it was captured. If the snapshot carries a recompilation
    /// decision (a fork point), the decision — or its counterfactual
    /// override — is applied first, then any sample ticks the compilation
    /// pushed the clock past are delivered, exactly continuing the
    /// sampler loop the capture interrupted. The resumed machine never
    /// self-captures fork points of its own (forks don't fork).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Miscompile`] if replaying the captured decision
    /// fails to produce verifiable code.
    pub fn resume(snapshot: RunSnapshot) -> Result<Vm, VmError> {
        let RunSnapshot {
            program,
            mut config,
            static_bounds,
            policy,
            mut state,
            decision,
            applied,
            arena_capacity,
            ..
        } = snapshot;
        config.fork_snapshots = 0;
        // Re-establish the unchecked-push invariant: every active frame's
        // entry reserved `locals + max_stack` arena slots and capacity
        // never shrinks, so the capture-time capacity covers the verified
        // operand headroom of every frame on the stack.
        state
            .arena
            .reserve(arena_capacity.saturating_sub(state.arena.len()));
        let mut vm = Vm {
            optimizer: Optimizer::new().with_fusion(config.fuse),
            program,
            config,
            policy,
            static_bounds,
            state,
            fork_points: Vec::new(),
            host_epoch: 0,
        };
        if decision.is_some() {
            if let (Some((method, _)), Some(level)) = (decision, applied) {
                vm.recompile(method, level)?;
            }
            vm.maybe_sample()?;
        }
        Ok(vm)
    }

    /// Apply a per-method level strategy to methods that are *already*
    /// compiled, recompiling upward where the target exceeds the current
    /// level. Methods not yet compiled are unaffected (the active policy's
    /// `on_first_compile` covers them). Used by the evolvable VM when a
    /// prediction arrives at a `FeaturesReady` pause.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Miscompile`] if a pipeline emits unverifiable
    /// code for one of the recompiled methods.
    pub fn apply_strategy(&mut self, levels: &[Option<OptLevel>]) -> Result<(), VmError> {
        self.host_epoch += 1;
        for (i, target) in levels.iter().enumerate() {
            let (Some(level), true) = (target, self.state.cache[i].is_some()) else {
                continue;
            };
            self.recompile(FuncId(i as u32), *level)?;
        }
        Ok(())
    }

    /// Charge extra virtual cycles to the clock (the evolvable VM charges
    /// its feature-extraction and prediction overheads this way, so they
    /// appear in the run's total time exactly as in the paper).
    ///
    /// Overhead goes through the same event accounting as execution:
    /// timer ticks falling inside the charged span are delivered here —
    /// attributed to the currently-executing method, or skipped when the
    /// machine is not running (before start, the usual case for launch
    /// overhead) — rather than being silently deferred or swallowed.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Miscompile`] if a sample delivered inside the
    /// charged span triggers a recompilation whose pipeline emits
    /// unverifiable code.
    pub fn charge_overhead(&mut self, cycles: u64) -> Result<(), VmError> {
        self.host_epoch += 1;
        self.state.clock_milli += cycles * 1000;
        self.maybe_sample()
    }

    /// Run (or resume) the program until it finishes or pauses.
    ///
    /// # Errors
    ///
    /// Runtime traps, budget exhaustion, or [`VmError::AlreadyFinished`]
    /// if called again after completion.
    pub fn run(&mut self) -> Result<Outcome, VmError> {
        if self.state.finished {
            return Err(VmError::AlreadyFinished);
        }
        if !self.state.started {
            self.state.started = true;
            let entry = self.program.entry();
            self.invoke(entry, 0)?;
        }
        match self.config.interp {
            InterpMode::Fast => {
                // Two monomorphic flavours: dispatch profiling off is the
                // production path and pays nothing for the counters.
                if self.state.profile.dispatch.is_some() {
                    self.execute::<true>()
                } else {
                    self.execute::<false>()
                }
            }
            InterpMode::Reference => self.execute_reference(),
        }
    }

    // --- snapshotting ---

    fn make_snapshot(&self, decision: Option<(FuncId, OptLevel)>) -> RunSnapshot {
        RunSnapshot {
            program: Arc::clone(&self.program),
            config: self.config.clone(),
            static_bounds: self.static_bounds,
            policy: self.policy.fork_box(),
            state: self.state.clone(),
            decision,
            applied: decision.map(|(_, level)| level),
            arena_capacity: self.state.arena.capacity(),
            capture_epoch: self.host_epoch,
            factual_total_cycles: None,
        }
    }

    // --- compilation management ---

    /// Compile `method` at `level` and install the result. The pipeline's
    /// output is re-verified in every build profile; unverifiable code is
    /// rejected as [`VmError::Miscompile`] before it can execute.
    fn compile_to(&mut self, method: FuncId, level: OptLevel) -> Result<(), VmError> {
        let compiled = self
            .optimizer
            .compile_checked(&self.program, method, level)?;
        self.state.clock_milli += compiled.compile_cycles * 1000;
        self.state.compile_milli += compiled.compile_cycles * 1000;
        self.state.levels[method.index()] = level;
        self.state.cache[method.index()] = Some(compiled);
        // New code: any cached call target for this method is stale.
        self.state.call_cache[method.index()] = None;
        Ok(())
    }

    fn recompile(&mut self, method: FuncId, to: OptLevel) -> Result<(), VmError> {
        let from = self.state.levels[method.index()];
        if to <= from {
            return Ok(());
        }
        self.compile_to(method, to)?;
        self.state.profile.recompilations.push(RecompileEvent {
            at_cycles: self.state.clock_milli / 1000,
            method,
            from,
            to,
        });
        Ok(())
    }

    fn ensure_compiled(&mut self, method: FuncId) -> Result<(), VmError> {
        if self.state.cache[method.index()].is_some() {
            return Ok(());
        }
        // First invocation: baseline-compile, then give the policy its
        // proactive chance.
        self.compile_to(method, OptLevel::Baseline)?;
        let target = self.policy.on_first_compile(
            method,
            AosContext {
                program: &self.program,
                samples: &self.state.profile.samples,
                levels: &self.state.levels,
                sample_interval_cycles: self.config.sample_interval_cycles,
            },
        );
        if let Some(level) = target {
            self.recompile(method, level)?;
        }
        Ok(())
    }

    /// Push a frame for `method`. The callee's `arity` arguments are the
    /// topmost arena values (the caller's stack tail) and become the
    /// head of the callee's locals in place — no argument vector, no
    /// locals vector, no operand-stack vector is allocated.
    fn invoke(&mut self, method: FuncId, arity: usize) -> Result<(), VmError> {
        if self.state.frames.len() >= self.config.max_call_depth {
            return Err(VmError::Trap(Trap::StackOverflow));
        }
        self.ensure_compiled(method)?;
        self.state.profile.invocations[method.index()] += 1;
        let compiled = self.state.cache[method.index()]
            .as_ref()
            .expect("just compiled");
        let locals_base = self.state.arena.len() - arity;
        // Zero-fill the non-argument locals, then reserve the verified
        // operand-stack bound: while this frame is on top the arena never
        // outgrows `locals_base + locals + max_stack`, so the dispatch
        // loop's push sites can skip the capacity check (see
        // `push_tracked`). Capacity never shrinks, so the guarantee
        // survives event windows and deeper calls (each reserves its own).
        self.state
            .arena
            .resize(locals_base + compiled.locals as usize, Value::Null);
        self.state.arena.reserve(compiled.max_stack as usize);
        self.state.frames.push(Frame {
            method,
            code: Arc::clone(&compiled.code),
            cost_milli: Arc::clone(&compiled.cost_milli),
            quality_milli: compiled.quality_milli,
            ip: 0,
            locals_base,
        });
        self.state.profile.peak_call_depth = self
            .state
            .profile
            .peak_call_depth
            .max(self.state.frames.len());
        self.state.profile.peak_arena_slots = self
            .state
            .profile
            .peak_arena_slots
            .max(self.state.arena.len());
        Ok(())
    }

    /// [`Vm::invoke`] through the monomorphic call-site cache: on a hit
    /// the frame push reads everything from one [`CallTarget`] record —
    /// no function-table walk, no compiled-code cache probe, no policy
    /// consultation (a hit implies the callee is already compiled, so
    /// [`Vm::ensure_compiled`] would be a no-op anyway). A miss takes the
    /// full [`Vm::invoke`] path and then primes the cache. Accounting
    /// (depth check, invocation count, peaks) is identical in both paths
    /// and the virtual clock is untouched either way.
    fn invoke_cached(&mut self, callee: FuncId) -> Result<(), VmError> {
        if self.state.call_cache[callee.index()].is_none() {
            let arity = self.program.function(callee).arity as usize;
            self.invoke(callee, arity)?;
            let compiled = self.state.cache[callee.index()]
                .as_ref()
                .expect("just compiled");
            self.state.call_cache[callee.index()] = Some(CallTarget {
                arity,
                locals: compiled.locals,
                max_stack: compiled.max_stack,
                quality_milli: compiled.quality_milli,
                code: Arc::clone(&compiled.code),
                cost_milli: Arc::clone(&compiled.cost_milli),
            });
            return Ok(());
        }
        if self.state.frames.len() >= self.config.max_call_depth {
            return Err(VmError::Trap(Trap::StackOverflow));
        }
        self.state.profile.invocations[callee.index()] += 1;
        let target = self.state.call_cache[callee.index()]
            .as_ref()
            .expect("checked");
        let locals_base = self.state.arena.len() - target.arity;
        // Same reservation as `Vm::invoke`: locals zero-filled, then the
        // verified operand bound so hot-loop pushes can skip the capacity
        // check.
        self.state
            .arena
            .resize(locals_base + target.locals as usize, Value::Null);
        self.state.arena.reserve(target.max_stack as usize);
        self.state.frames.push(Frame {
            method: callee,
            code: Arc::clone(&target.code),
            cost_milli: Arc::clone(&target.cost_milli),
            quality_milli: target.quality_milli,
            ip: 0,
            locals_base,
        });
        self.state.profile.peak_call_depth = self
            .state
            .profile
            .peak_call_depth
            .max(self.state.frames.len());
        self.state.profile.peak_arena_slots = self
            .state
            .profile
            .peak_arena_slots
            .max(self.state.arena.len());
        Ok(())
    }

    fn take_sample(&mut self) -> Result<(), VmError> {
        let method = self
            .state
            .frames
            .last()
            .expect("sampling requires a frame")
            .method;
        self.state.profile.samples[method.index()] += 1;
        let target = self.policy.on_sample(
            method,
            AosContext {
                program: &self.program,
                samples: &self.state.profile.samples,
                levels: &self.state.levels,
                sample_interval_cycles: self.config.sample_interval_cycles,
            },
        );
        if let Some(level) = target {
            // Fork capture: the state is a consistent window boundary here
            // (both dispatch loops write frame ips and accounting back
            // before delivering samples), and the decision has not applied
            // yet — so a resumed snapshot can replay it, or any
            // counterfactual. Only genuine upgrades are fork points;
            // `recompile` would no-op on the rest.
            if self.fork_points.len() < self.config.fork_snapshots
                && level > self.state.levels[method.index()]
            {
                let snap = self.make_snapshot(Some((method, level)));
                self.fork_points.push(snap);
            }
            self.recompile(method, level)?;
        }
        Ok(())
    }

    /// Resolve the pending publish ids against the string table. Runs at
    /// `Done` pauses and at finish, keeping the name allocation out of
    /// the dispatch loop.
    fn flush_published(&mut self) {
        for (id, value) in self.state.pending_publish.drain(..) {
            self.state
                .published
                .push((self.program.string(id).to_owned(), value));
        }
    }

    /// Close the run. Fork points captured since the last host
    /// intervention get the run's total as their factual stamp
    /// ([`RunSnapshot::factual_total_cycles`]); earlier ones saw the host
    /// change the run after capture, so their decided-level continuation
    /// need not reproduce it.
    fn finish(&mut self) -> RunResult {
        self.state.finished = true;
        self.flush_published();
        self.state.profile.final_levels = self.state.levels.clone();
        let total_cycles = self.state.clock_milli / 1000;
        for point in &mut self.fork_points {
            if point.capture_epoch == self.host_epoch {
                point.factual_total_cycles = Some(total_cycles);
            }
        }
        RunResult {
            output: std::mem::take(&mut self.state.output),
            published: std::mem::take(&mut self.state.published),
            total_cycles,
            exec_cycles: self.state.exec_milli / 1000,
            compile_cycles: self.state.compile_milli / 1000,
            instructions: self.state.instructions,
            profile: std::mem::take(&mut self.state.profile),
        }
    }

    // --- event accounting ---

    /// First clock reading (in milli-cycles) at which the slow path must
    /// run: the next sample tick or the budget deadline, whichever comes
    /// first. The budget trips when `cycles() > budget`, i.e. at
    /// `(budget + 1) * 1000` milli.
    fn event_deadline_milli(&self) -> u64 {
        let budget_deadline = self
            .config
            .cycle_budget
            .map_or(u64::MAX, |b| b.saturating_add(1).saturating_mul(1000));
        self.state.next_sample_milli.min(budget_deadline)
    }

    fn check_budget(&self) -> Result<(), VmError> {
        if let Some(budget) = self.config.cycle_budget {
            if self.state.clock_milli / 1000 > budget {
                return Err(VmError::CycleBudgetExceeded { budget });
            }
        }
        Ok(())
    }

    fn maybe_sample(&mut self) -> Result<(), VmError> {
        while self.state.clock_milli >= self.state.next_sample_milli {
            self.state.next_sample_milli += self.config.sample_interval_cycles * 1000;
            if !self.state.frames.is_empty() {
                self.take_sample()?;
            }
        }
        Ok(())
    }

    // --- the interpreters ---

    /// The production dispatch loop: executes fuel windows of
    /// straight-line work and falls into the slow path only at event
    /// boundaries (sample ticks, budget deadline) and frame switches.
    ///
    /// `PROFILE` selects the dispatch-profiling flavour (counters bumped
    /// at every fetch); [`Vm::run`] picks it from whether
    /// [`RunProfile::dispatch`] is present, so the plain flavour carries
    /// no trace of the counters.
    fn execute<const PROFILE: bool>(&mut self) -> Result<Outcome, VmError> {
        self.check_budget()?;
        // Arena high-water mark, kept in a local so the hot loop's
        // net-push arms can bump it without touching the profile;
        // written back at every window boundary. Exact: the arena only
        // grows at net-push instructions (tracked in `step_op`) and at
        // frame pushes (tracked in `invoke`) — a `Return` can never set a
        // new maximum because the popped frame already reached at least
        // the post-return height while it ran.
        let mut peak = self.state.profile.peak_arena_slots;
        loop {
            // One event window: no sample can become due and the budget
            // cannot trip while `fuel` stays positive, because only
            // instruction costs move the clock inside the window. Calls
            // and returns between frames stay *inside* the window on
            // their hot paths (cached callee, depth in range, non-final
            // return): a frame switch moves no clock, so the deadline is
            // unchanged and the remaining fuel carries over — only the
            // cold paths (first invocation, which charges compilation;
            // depth overflow; the final return) fall out to the slow
            // path below.
            let fuel0 = i64::try_from(
                self.event_deadline_milli()
                    .saturating_sub(self.state.clock_milli),
            )
            .unwrap_or(i64::MAX);
            let mut fuel = fuel0;
            let mut retired: u64 = 0;
            let pending = 'frames: loop {
                // A shared borrow of the frame alongside mutable borrows
                // of the disjoint execution state — no `Arc` clones and
                // no `last_mut()` re-borrow per instruction. The borrow
                // ends at every segment break below, freeing `frames`
                // for the inline push/pop.
                let frame = self.state.frames.last().expect("running without a frame");
                let code: &[Instr] = &frame.code;
                // Equal-length reslice so the optimizer can fold the two
                // per-instruction bounds checks into one (the compiler
                // emits the tables in lockstep).
                let costs: &[u64] = &frame.cost_milli[..code.len()];
                let locals_base = frame.locals_base;
                let mut ip = frame.ip;
                let segment = loop {
                    // SAFETY: `ip` is always a valid pc of verified code.
                    // The verifier rejects empty functions (`EmptyCode`,
                    // so the entry pc 0 is valid), any branch whose target
                    // is not `< code.len()` (`BranchOutOfRange` — and
                    // `step_op` only assigns `ip` from such targets), and
                    // any non-terminator at the last pc (`FallsOffEnd`,
                    // so the `ip + 1` fall-through of a `Step::Next`
                    // instruction is in range). `costs` is resliced to
                    // `code.len()` above. The reference loop keeps its
                    // checked fetch and the differential suite pins the
                    // two loops instruction-for-instruction.
                    let (instr, cost) = unsafe {
                        debug_assert!(ip < code.len());
                        (*code.get_unchecked(ip), *costs.get_unchecked(ip))
                    };
                    ip += 1;
                    fuel -= cost as i64;
                    retired += 1;
                    if PROFILE {
                        self.state
                            .profile
                            .dispatch
                            .as_mut()
                            .expect("PROFILE flavour implies a dispatch profile")
                            .record(instr.dispatch_class());
                    }
                    match step_op(
                        &mut self.state.arena,
                        &mut self.state.heap,
                        &mut self.state.output,
                        &mut self.state.pending_publish,
                        instr,
                        &mut ip,
                        locals_base,
                        &mut retired,
                        &mut peak,
                    ) {
                        Ok(Step::Next) => {
                            // Events fire *after* the instruction that
                            // crosses the deadline, exactly like the
                            // per-instruction reference loop.
                            if fuel <= 0 {
                                break Pending::Event;
                            }
                        }
                        Ok(Step::Call(callee)) => break Pending::Call(callee),
                        Ok(Step::Return) => break Pending::Return,
                        Ok(Step::Done) => break Pending::Done,
                        Err(e) => break Pending::Fault(e),
                    }
                };
                match segment {
                    Pending::Call(callee) => {
                        let idx = callee.index();
                        if self.state.call_cache[idx].is_some()
                            && self.state.frames.len() < self.config.max_call_depth
                        {
                            // In-window frame push: the same work as
                            // `invoke_cached`'s hit path, minus the window
                            // teardown. A sample or budget check due *at*
                            // the call instruction is not lost: `fuel <= 0`
                            // breaks to the event path below, and because
                            // the push moves no clock, the event fires with
                            // the callee on top — exactly where the
                            // window-per-call structure sampled it.
                            self.state.frames.last_mut().expect("frame").ip = ip;
                            self.state.profile.invocations[idx] += 1;
                            let target = self.state.call_cache[idx].as_ref().expect("checked");
                            let locals_base = self.state.arena.len() - target.arity;
                            // Same locals fill + operand-bound reservation
                            // as `Vm::invoke` (see there for the
                            // `push_tracked` capacity invariant).
                            self.state
                                .arena
                                .resize(locals_base + target.locals as usize, Value::Null);
                            self.state.arena.reserve(target.max_stack as usize);
                            self.state.frames.push(Frame {
                                method: callee,
                                code: Arc::clone(&target.code),
                                cost_milli: Arc::clone(&target.cost_milli),
                                quality_milli: target.quality_milli,
                                ip: 0,
                                locals_base,
                            });
                            self.state.profile.peak_call_depth = self
                                .state
                                .profile
                                .peak_call_depth
                                .max(self.state.frames.len());
                            peak = peak.max(self.state.arena.len());
                            if fuel <= 0 {
                                // The callee frame's ip is already 0; no
                                // write-back needed.
                                break 'frames Pending::Event;
                            }
                            continue 'frames;
                        }
                        self.state.frames.last_mut().expect("frame").ip = ip;
                        break 'frames Pending::Call(callee);
                    }
                    Pending::Return => {
                        if self.state.frames.len() > 1 {
                            // In-window frame pop: identical to the slow
                            // path below except the window survives. The
                            // caller frame's ip was stored when it made
                            // the call.
                            let value = self.state.arena.pop().expect("verified");
                            let locals_base = self.state.frames.last().expect("frame").locals_base;
                            self.state.arena.truncate(locals_base);
                            self.state.frames.pop();
                            self.state.arena.push(value);
                            if fuel <= 0 {
                                break 'frames Pending::Event;
                            }
                            continue 'frames;
                        }
                        break 'frames Pending::Return;
                    }
                    Pending::Event | Pending::Done => {
                        self.state.frames.last_mut().expect("frame").ip = ip;
                        break 'frames segment;
                    }
                    Pending::Fault(_) => break 'frames segment,
                }
            };
            let spent = (fuel0 - fuel) as u64;
            self.state.clock_milli += spent;
            self.state.exec_milli += spent;
            self.state.instructions += retired;
            if peak > self.state.profile.peak_arena_slots {
                self.state.profile.peak_arena_slots = peak;
            }
            match pending {
                Pending::Event => {
                    self.maybe_sample()?;
                    self.check_budget()?;
                }
                Pending::Call(callee) => {
                    // Cold call: first invocation of the callee (compile +
                    // cache priming, which moves the clock) or a depth
                    // overflow about to trap.
                    self.invoke_cached(callee)?;
                    // The frame push may have grown the arena.
                    peak = self.state.profile.peak_arena_slots;
                    self.maybe_sample()?;
                    self.check_budget()?;
                }
                Pending::Return => {
                    // Final return: the program is done.
                    let value = self.state.arena.pop().expect("verified");
                    let locals_base = self.state.frames.last().expect("frame").locals_base;
                    self.state.arena.truncate(locals_base);
                    self.state.frames.pop();
                    if self.state.frames.is_empty() {
                        return Ok(Outcome::Finished(Box::new(self.finish())));
                    }
                    self.state.arena.push(value);
                    self.maybe_sample()?;
                    self.check_budget()?;
                }
                Pending::Done => {
                    // Pause *after* advancing ip, then give the host
                    // control with resolved feature names.
                    self.flush_published();
                    self.maybe_sample()?;
                    return Ok(Outcome::FeaturesReady);
                }
                Pending::Fault(e) => return Err(e),
            }
        }
    }

    /// The naive per-instruction loop: the "old accounting" structure
    /// (division + `Option` budget check, sample poll and
    /// `frames.last_mut()` re-borrow on every instruction, cost
    /// recomputed as a multiply). Semantically bit-identical to
    /// [`Vm::execute`]; kept as the differential-testing oracle and the
    /// dispatch microbenchmark baseline.
    fn execute_reference(&mut self) -> Result<Outcome, VmError> {
        loop {
            if let Some(budget) = self.config.cycle_budget {
                if self.state.clock_milli / 1000 > budget {
                    return Err(VmError::CycleBudgetExceeded { budget });
                }
            }
            let frame = self.state.frames.last().expect("running without a frame");
            let ip = frame.ip;
            let instr = frame.code[ip];
            let locals_base = frame.locals_base;
            let cost = instr.base_cost() * frame.quality_milli;
            self.state.frames.last_mut().expect("frame").ip = ip + 1;
            self.state.clock_milli += cost;
            self.state.exec_milli += cost;
            self.state.instructions += 1;
            if let Some(d) = self.state.profile.dispatch.as_mut() {
                // Recorded at fetch, exactly like the fast loop, so the
                // two modes see the same global retirement order.
                d.record(instr.dispatch_class());
            }
            let mut next_ip = ip + 1;
            let mut peak = self.state.profile.peak_arena_slots;
            match step_op(
                &mut self.state.arena,
                &mut self.state.heap,
                &mut self.state.output,
                &mut self.state.pending_publish,
                instr,
                &mut next_ip,
                locals_base,
                &mut self.state.instructions,
                &mut peak,
            )? {
                Step::Next => self.state.frames.last_mut().expect("frame").ip = next_ip,
                Step::Call(callee) => {
                    let arity = self.program.function(callee).arity as usize;
                    self.invoke(callee, arity)?;
                }
                Step::Return => {
                    let value = self.state.arena.pop().expect("verified");
                    self.state.arena.truncate(locals_base);
                    self.state.frames.pop();
                    match self.state.frames.last() {
                        Some(_) => self.state.arena.push(value),
                        None => return Ok(Outcome::Finished(Box::new(self.finish()))),
                    }
                }
                Step::Done => {
                    self.flush_published();
                    self.maybe_sample()?;
                    return Ok(Outcome::FeaturesReady);
                }
            }
            // Exact arena-peak tracking: fold in the step's net-push
            // high-water mark (which sees transient heights inside fused
            // instructions) plus the post-step length.
            self.state.profile.peak_arena_slots = peak.max(self.state.arena.len());
            self.maybe_sample()?;
        }
    }
}

/// Execute one instruction against the arena and tell the dispatch loop
/// what to do next. A free function over the *disjoint* pieces of VM
/// state it touches, so callers can keep a shared borrow of the current
/// frame (code, cost table, locals base) alive across the call — no
/// `Arc` clone or `frames.last_mut()` re-borrow per instruction.
///
/// `retired` is the caller's retired-instruction counter, already bumped
/// by one for this dispatch; fused superinstructions add their remaining
/// component count so retirement totals stay identical to unfused code.
/// `peak` is the arena high-water mark; every net-push arm maxes it, which
/// together with the frame-push tracking in `Vm::invoke` keeps the peak
/// exact (see `RunProfile::peak_arena_slots`).
/// Read local `n` of the running frame without a bounds check.
///
/// SAFETY: every program the VM runs has passed [`evovm_bytecode::verify`],
/// which rejects any `Load`/`Store`-family operand with `n >= f.locals`
/// (`LocalOutOfRange`, including the fused forms), and `Vm::invoke`
/// establishes the frame layout `arena.len() >= locals_base + locals`
/// before the first dispatch. Operand pops can never shrink the arena
/// below `locals_base + locals` because the verifier proves the operand
/// depth at every pc covers every pop (`InconsistentDepth` /
/// `StackUnderflow` rejections), so `locals_base + n` stays in bounds
/// for the whole life of the frame.
#[inline(always)]
fn local(stack: &[Value], locals_base: usize, n: u16) -> Value {
    debug_assert!(locals_base + (n as usize) < stack.len());
    unsafe { *stack.get_unchecked(locals_base + n as usize) }
}

/// Write local `n` of the running frame without a bounds check.
///
/// SAFETY: identical argument to [`local`].
#[inline(always)]
fn set_local(stack: &mut [Value], locals_base: usize, n: u16, v: Value) {
    debug_assert!(locals_base + (n as usize) < stack.len());
    unsafe {
        *stack.get_unchecked_mut(locals_base + n as usize) = v;
    }
}

#[inline(always)]
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn step_op(
    stack: &mut Vec<Value>,
    heap: &mut Heap,
    output: &mut Vec<String>,
    pending_publish: &mut Vec<(StrId, Scalar)>,
    instr: Instr,
    ip: &mut usize,
    locals_base: usize,
    retired: &mut u64,
    peak: &mut usize,
) -> Result<Step, VmError> {
    // Arm order follows the measured retirement distribution in
    // BENCH_dispatch.json: local traffic (load 36%, const 12%, store
    // 10%), their fused forms, then branches lead the match.
    match instr {
        Instr::Load(n) => {
            let v = local(stack, locals_base, n);
            push_tracked(stack, peak, v);
        }
        Instr::Store(n) => {
            let v = pop(stack);
            set_local(stack, locals_base, n, v);
        }
        Instr::Const(v) => push_tracked(stack, peak, Value::Int(v)),

        // Fused superinstructions (formed by `evovm_opt`'s fusion pass).
        // Each arm bumps `retired` once per extra component, placed so a
        // trapping component leaves the same retirement count as its
        // unfused expansion (components before the trapping one counted,
        // later ones not).
        Instr::LoadLoad(a, b) => {
            *retired += 1;
            let v = local(stack, locals_base, a);
            push_tracked(stack, peak, v);
            let v = local(stack, locals_base, b);
            push_tracked(stack, peak, v);
        }
        Instr::LoadConst(n, v) => {
            *retired += 1;
            let l = local(stack, locals_base, n);
            push_tracked(stack, peak, l);
            push_tracked(stack, peak, Value::Int(v));
        }
        Instr::StoreLoad(n, m) => {
            *retired += 1;
            let v = pop(stack);
            set_local(stack, locals_base, n, v);
            let v = local(stack, locals_base, m);
            push_tracked(stack, peak, v);
        }
        Instr::StoreJump(n, t) => {
            *retired += 1;
            let v = pop(stack);
            set_local(stack, locals_base, n, v);
            *ip = t as usize;
        }
        // In `const v; op` the constant is the most recently pushed
        // operand, so the op computes `a op v` with `a` the prior top.
        Instr::ConstIBin(op, v) | Instr::ConstBin(op, v) => {
            *retired += 1;
            let slot = top_mut(stack);
            if let Value::Int(x) = *slot {
                *slot = scalar::binop(op, x.into(), v.into())?.into();
            } else {
                let a = (*slot).as_scalar()?;
                *slot = scalar::binop(op, a, v.into())?.into();
            }
        }
        Instr::ConstBit(op, v) => {
            *retired += 1;
            let slot = top_mut(stack);
            let a = (*slot).as_scalar()?;
            *slot = scalar::bitop(op, a, v.into())?.into();
        }
        Instr::ConstICmp(op, v) => {
            *retired += 1;
            let slot = top_mut(stack);
            *slot = cmp_values(op, *slot, Value::Int(v))?;
        }
        Instr::ICmpBr(op, t, when) | Instr::CmpBr(op, t, when) => {
            let b = pop(stack);
            let a = pop(stack);
            let taken = cmp_values(op, a, b)?.truthy();
            *retired += 1;
            if taken == when {
                *ip = t as usize;
            }
        }
        Instr::ConstICmpBr(op, v, t, when) => {
            *retired += 1;
            let a = pop(stack);
            let taken = cmp_values(op, a, Value::Int(v))?.truthy();
            *retired += 1;
            if taken == when {
                *ip = t as usize;
            }
        }
        // `op; store n`: the store component retires only once the op
        // has produced a value, exactly as the unfused pair would.
        Instr::IBinStore(op, n) | Instr::BinStore(op, n) => {
            binary(stack, op)?;
            *retired += 1;
            let r = pop(stack);
            set_local(stack, locals_base, n, r);
        }
        Instr::BitStore(op, n) => {
            bitwise(stack, op)?;
            *retired += 1;
            let r = pop(stack);
            set_local(stack, locals_base, n, r);
        }
        // `load n; op`: the loaded local is the most recently pushed
        // operand, so the op computes `a op locals[n]`.
        Instr::LoadIBin(op, n) | Instr::LoadBin(op, n) => {
            *retired += 1;
            let b = local(stack, locals_base, n);
            let slot = top_mut(stack);
            if let (Value::Int(x), Value::Int(y)) = (*slot, b) {
                *slot = scalar::binop(op, x.into(), y.into())?.into();
            } else {
                let b = b.as_scalar()?;
                let a = (*slot).as_scalar()?;
                *slot = scalar::binop(op, a, b)?.into();
            }
        }
        // `load n; aload`: the local is the element index, the array is
        // the prior stack top; index conversion traps first, as unfused.
        Instr::LoadALoad(n) => {
            *retired += 1;
            let index = local(stack, locals_base, n).as_int()?;
            let slot = top_mut(stack);
            *slot = heap.load(*slot, index)?;
        }
        // Tier-3 forms. Retirement bumps bracket the first component
        // that can trap, so a fault leaves the same retired count as the
        // unfused sequence (loads and consts retire before the op, the
        // trailing store/branch components after it succeeds).
        Instr::LoadLoadBin(op, a, b) => {
            *retired += 2;
            let x = local(stack, locals_base, a);
            let y = local(stack, locals_base, b);
            let r: Value = if let (Value::Int(x), Value::Int(y)) = (x, y) {
                scalar::binop(op, x.into(), y.into())?.into()
            } else {
                scalar::binop(op, x.as_scalar()?, y.as_scalar()?)?.into()
            };
            push_tracked(stack, peak, r);
        }
        Instr::LoadConstIBin(op, n, v) => {
            *retired += 2;
            let a = local(stack, locals_base, n);
            let r: Value = if let Value::Int(x) = a {
                scalar::binop(op, x.into(), v.into())?.into()
            } else {
                scalar::binop(op, a.as_scalar()?, v.into())?.into()
            };
            push_tracked(stack, peak, r);
        }
        Instr::LoadLoadCmpBr(op, a, b, t, when) => {
            *retired += 2;
            let x = local(stack, locals_base, a);
            let y = local(stack, locals_base, b);
            let taken = cmp_values(op, x, y)?.truthy();
            *retired += 1;
            if taken == when {
                *ip = t as usize;
            }
        }
        // `const v; bit; store n; load m`: mask the top of stack into
        // local `n`, then start the next statement from local `m`. The
        // store lands before the load so `n == m` reloads the stored
        // value, exactly as the unfused sequence would.
        Instr::ConstBitStoreLoad(op, v, n, m) => {
            *retired += 1;
            let a = (*top_mut(stack)).as_scalar()?;
            let r: Value = scalar::bitop(op, a, v.into())?.into();
            *retired += 2;
            set_local(stack, locals_base, n, r);
            let next = local(stack, locals_base, m);
            *top_mut(stack) = next;
        }
        Instr::ConstIBinStoreJump(op, v, n, t) => {
            *retired += 1;
            let a = pop(stack);
            let r: Value = if let Value::Int(x) = a {
                scalar::binop(op, x.into(), v.into())?.into()
            } else {
                scalar::binop(op, a.as_scalar()?, v.into())?.into()
            };
            *retired += 2;
            set_local(stack, locals_base, n, r);
            *ip = t as usize;
        }
        // Residual forms (generic arithmetic and compares, mostly run at
        // −1/O0), bracketed the same way.
        Instr::LoadCmpBr(op, n, t, when) => {
            *retired += 1;
            let a = pop(stack);
            let taken = cmp_values(op, a, local(stack, locals_base, n))?.truthy();
            *retired += 1;
            if taken == when {
                *ip = t as usize;
            }
        }
        Instr::BinStoreJump(op, n, t) => {
            binary(stack, op)?;
            *retired += 2;
            let r = pop(stack);
            set_local(stack, locals_base, n, r);
            *ip = t as usize;
        }
        Instr::LoadLoadALoad(a, b) => {
            *retired += 2;
            let index = local(stack, locals_base, b).as_int()?;
            let v = heap.load(local(stack, locals_base, a), index)?;
            push_tracked(stack, peak, v);
        }
        // `load n; op; aload` / `const v; op; aload`: offset the index on
        // top of stack, then index the array below it.
        Instr::LoadBinALoad(op, n) => {
            *retired += 1;
            let i = arith(op, pop(stack), local(stack, locals_base, n))?;
            *retired += 1;
            let slot = top_mut(stack);
            *slot = heap.load(*slot, i.as_int()?)?;
        }
        Instr::ConstBinALoad(op, v) => {
            *retired += 1;
            let i = arith(op, pop(stack), Value::Int(v))?;
            *retired += 1;
            let slot = top_mut(stack);
            *slot = heap.load(*slot, i.as_int()?)?;
        }
        Instr::LoadConstBinStore(op, n, v, m) => {
            *retired += 2;
            let r = arith(op, local(stack, locals_base, n), Value::Int(v))?;
            *retired += 1;
            set_local(stack, locals_base, m, r);
        }
        Instr::LoadLoadBinALoad(op, a, b, n) => {
            *retired += 3;
            let i = arith(
                op,
                local(stack, locals_base, b),
                local(stack, locals_base, n),
            )?;
            *retired += 1;
            let v = heap.load(local(stack, locals_base, a), i.as_int()?)?;
            push_tracked(stack, peak, v);
        }
        Instr::LoadLoadConstBinALoad(op, a, b, v) => {
            *retired += 3;
            let i = arith(op, local(stack, locals_base, b), Value::Int(v))?;
            *retired += 1;
            let v = heap.load(local(stack, locals_base, a), i.as_int()?)?;
            push_tracked(stack, peak, v);
        }
        Instr::LoadConstBinStoreJump(op, n, v, m, t) => {
            *retired += 2;
            let r = arith(op, local(stack, locals_base, n), Value::Int(i64::from(v)))?;
            *retired += 2;
            set_local(stack, locals_base, m, r);
            *ip = t as usize;
        }

        Instr::Jump(t) => *ip = t as usize,
        Instr::JumpIf(t) => {
            if pop(stack).truthy() {
                *ip = t as usize;
            }
        }
        Instr::JumpIfNot(t) => {
            if !pop(stack).truthy() {
                *ip = t as usize;
            }
        }

        Instr::FConst(v) => push_tracked(stack, peak, Value::Float(v)),
        Instr::Null => push_tracked(stack, peak, Value::Null),
        Instr::Dup => {
            let v = *top_mut(stack);
            push_tracked(stack, peak, v);
        }
        Instr::Pop => {
            stack.pop();
        }
        Instr::Swap => {
            let n = stack.len();
            stack.swap(n - 1, n - 2);
        }

        Instr::Add | Instr::IAdd | Instr::FAdd => binary(stack, BinOp::Add)?,
        Instr::Sub | Instr::ISub | Instr::FSub => binary(stack, BinOp::Sub)?,
        Instr::Mul | Instr::IMul | Instr::FMul => binary(stack, BinOp::Mul)?,
        Instr::Div | Instr::IDiv | Instr::FDiv => binary(stack, BinOp::Div)?,
        Instr::Rem | Instr::IRem => binary(stack, BinOp::Rem)?,
        Instr::Neg | Instr::INeg | Instr::FNeg => {
            let slot = top_mut(stack);
            let a = (*slot).as_scalar()?;
            *slot = scalar::neg(a).into();
        }

        Instr::Shl => bitwise(stack, BitOp::Shl)?,
        Instr::Shr => bitwise(stack, BitOp::Shr)?,
        Instr::BitAnd => bitwise(stack, BitOp::And)?,
        Instr::BitOr => bitwise(stack, BitOp::Or)?,
        Instr::BitXor => bitwise(stack, BitOp::Xor)?,

        Instr::CmpEq | Instr::ICmpEq | Instr::FCmpEq => compare(stack, CmpOp::Eq)?,
        Instr::CmpNe | Instr::ICmpNe | Instr::FCmpNe => compare(stack, CmpOp::Ne)?,
        Instr::CmpLt | Instr::ICmpLt | Instr::FCmpLt => compare(stack, CmpOp::Lt)?,
        Instr::CmpLe | Instr::ICmpLe | Instr::FCmpLe => compare(stack, CmpOp::Le)?,
        Instr::CmpGt | Instr::ICmpGt | Instr::FCmpGt => compare(stack, CmpOp::Gt)?,
        Instr::CmpGe | Instr::ICmpGe | Instr::FCmpGe => compare(stack, CmpOp::Ge)?,

        Instr::ToFloat => {
            let slot = top_mut(stack);
            let a = (*slot).as_scalar()?;
            *slot = scalar::to_float(a).into();
        }
        Instr::ToInt => {
            let slot = top_mut(stack);
            let a = (*slot).as_scalar()?;
            *slot = scalar::to_int(a).into();
        }

        Instr::NewArray => {
            let slot = top_mut(stack);
            let len = (*slot).as_int()?;
            *slot = heap.alloc(len)?;
        }
        Instr::ALoad => {
            let index = pop(stack).as_int()?;
            let slot = top_mut(stack);
            *slot = heap.load(*slot, index)?;
        }
        Instr::AStore => {
            let value = pop(stack);
            let index = pop(stack).as_int()?;
            let array = pop(stack);
            heap.store(array, index, value)?;
        }
        Instr::ALen => {
            let slot = top_mut(stack);
            *slot = Value::Int(heap.len(*slot)?);
        }

        Instr::Math(m) => {
            if m.arity() == 1 {
                let slot = top_mut(stack);
                let a = (*slot).as_scalar()?;
                *slot = scalar::math1(m, a).into();
            } else {
                let b = pop(stack).as_scalar()?;
                let slot = top_mut(stack);
                let a = (*slot).as_scalar()?;
                *slot = scalar::math2(m, a, b).into();
            }
        }

        Instr::Print => {
            let v = pop(stack);
            output.push(v.to_string());
        }
        Instr::Publish(s) => {
            let v = pop(stack);
            match v.as_scalar() {
                Ok(value) => pending_publish.push((s, value)),
                Err(_) => return Err(VmError::Trap(Trap::TypeError)),
            }
        }
        Instr::Nop => {}

        Instr::Call(callee) => return Ok(Step::Call(callee)),
        Instr::Return => return Ok(Step::Return),
        Instr::Done => return Ok(Step::Done),
    }
    Ok(Step::Next)
}

/// Push onto the operand stack and keep the arena high-water mark
/// current. Only the net-push arms of [`step_op`] go through here — every
/// other instruction leaves the stack no taller than it found it.
///
/// SAFETY: skips `Vec::push`'s capacity check. `Vm::invoke` /
/// `Vm::invoke_cached` reserve `locals + max_stack` arena slots at every
/// frame entry, where `max_stack` is the operand-depth bound the verifier
/// proved for the frame's code (`CompiledCode::max_stack`), and `Vec`
/// capacity never shrinks (a resumed snapshot re-reserves the capture-time
/// capacity before executing, preserving the bound across `Vm::resume`).
/// Every `step_op` push happens under a verified depth `< max_stack` of
/// the top frame, so `len < capacity` holds here.
#[inline(always)]
fn push_tracked(stack: &mut Vec<Value>, peak: &mut usize, v: Value) {
    let len = stack.len();
    debug_assert!(len < stack.capacity());
    unsafe {
        std::ptr::write(stack.as_mut_ptr().add(len), v);
        stack.set_len(len + 1);
    }
    if len + 1 > *peak {
        *peak = len + 1;
    }
}

/// Pop the operand-stack top without the emptiness check.
///
/// SAFETY: only called from [`step_op`] arms whose pop count the verifier
/// proved is covered by the operand depth at that pc (`StackUnderflow` /
/// `InconsistentDepth` rejections), so the stack is never empty here.
#[inline(always)]
fn pop(stack: &mut Vec<Value>) -> Value {
    debug_assert!(!stack.is_empty());
    unsafe {
        let len = stack.len() - 1;
        let v = *stack.get_unchecked(len);
        stack.set_len(len);
        v
    }
}

/// The operand-stack top, mutably, without the emptiness check.
///
/// SAFETY: identical argument to [`pop`].
#[inline(always)]
fn top_mut(stack: &mut [Value]) -> &mut Value {
    debug_assert!(!stack.is_empty());
    unsafe {
        let len = stack.len() - 1;
        stack.get_unchecked_mut(len)
    }
}

// The two-operand helpers pop the right operand and overwrite the left
// operand's slot in place: one length decrement and one store instead of
// a second pop plus a (capacity-checked) push.

#[inline(always)]
fn binary(stack: &mut Vec<Value>, op: BinOp) -> Result<(), VmError> {
    let b = pop(stack);
    let slot = top_mut(stack);
    *slot = arith(op, *slot, b)?;
    Ok(())
}

#[inline(always)]
fn bitwise(stack: &mut Vec<Value>, op: BitOp) -> Result<(), VmError> {
    let b = pop(stack);
    let slot = top_mut(stack);
    if let (Value::Int(x), Value::Int(y)) = (*slot, b) {
        *slot = scalar::bitop(op, x.into(), y.into())?.into();
        return Ok(());
    }
    let b = b.as_scalar()?;
    let a = (*slot).as_scalar()?;
    *slot = scalar::bitop(op, a, b)?.into();
    Ok(())
}

#[inline(always)]
fn compare(stack: &mut Vec<Value>, op: CmpOp) -> Result<(), VmError> {
    let b = pop(stack);
    let a = *top_mut(stack);
    let result = cmp_values(op, a, b)?;
    *top_mut(stack) = result;
    Ok(())
}

/// Generic arithmetic on two values, shared by [`binary`] and the fused
/// forms. Int×int first, skipping the Value↔Scalar round-trips;
/// `scalar::binop` stays the single source of the arithmetic semantics
/// either way.
#[inline(always)]
fn arith(op: BinOp, a: Value, b: Value) -> Result<Value, VmError> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Ok(scalar::binop(op, x.into(), y.into())?.into());
    }
    let b = b.as_scalar()?;
    let a = a.as_scalar()?;
    Ok(scalar::binop(op, a, b)?.into())
}

/// The comparison semantics shared by plain compares and the fused
/// compare-with-constant / compare-and-branch forms.
#[inline(always)]
fn cmp_values(op: CmpOp, a: Value, b: Value) -> Result<Value, VmError> {
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => scalar::cmp(op, x.into(), y.into()).into(),
        // Reference/null equality is identity; ordering is a type error.
        (Value::Null, Value::Null) => match op {
            CmpOp::Eq => Value::Int(1),
            CmpOp::Ne => Value::Int(0),
            _ => return Err(VmError::Trap(Trap::TypeError)),
        },
        (Value::Ref(x), Value::Ref(y)) => match op {
            CmpOp::Eq => Value::Int((x == y) as i64),
            CmpOp::Ne => Value::Int((x != y) as i64),
            _ => return Err(VmError::Trap(Trap::TypeError)),
        },
        (Value::Null, Value::Ref(_)) | (Value::Ref(_), Value::Null) => match op {
            CmpOp::Eq => Value::Int(0),
            CmpOp::Ne => Value::Int(1),
            _ => return Err(VmError::Trap(Trap::TypeError)),
        },
        _ => scalar::cmp(op, a.as_scalar()?, b.as_scalar()?).into(),
    })
}
