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
//! - Every version of every method compiled in a run stays in the run's
//!   version table (at most one per [`OptLevel`], since recompilation
//!   only moves a method up), and a frame names the version it runs by
//!   table index: a method recompiled mid-run keeps executing its old code
//!   *and* old cost table in active frames and picks up the new version on
//!   the next call, exactly like a real JIT.
//! - The `Done` instruction (XICL's `done()` call) pauses the machine and
//!   yields [`Outcome::FeaturesReady`] so the host can run prediction and
//!   swap the policy before resuming.
//!
//! # Program context vs run state
//!
//! A [`Vm`] is split in two (see `DESIGN.md` §13):
//!
//! - the **program context** — a shared [`CodeTable`] (the verified
//!   program, its statically proven frame bounds and its compiled
//!   versions) and the engine config — is fixed for the life of the
//!   machine;
//! - the **run state** (`RunState`) — frame stack, value arena, heap, virtual
//!   clock/budget accounting, sampler state, profile, pending publishes
//!   *and* the versions this run has installed (recompilation is a run
//!   event that moves the clock, so which code a run has compiled is run
//!   state) — is everything execution mutates.
//!
//! The host compiles each (method, level) of a table once, whichever run
//! asks first; every run that installs a version still charges its
//! compile cycles, so a warm table changes no clock reading.
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
//! about how cheaply the host computes it. Four structural choices keep
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
//!   argument slots in place and allocate nothing, and a frame push or pop
//!   copies a plain record (version index, ip, locals base) with no
//!   reference counting.
//! - **Register-resident stack** — for each frame segment (the run of
//!   instructions between two frame switches or events) the fast loop
//!   derives a raw operand-stack pointer and a locals pointer from the
//!   arena once, and every push, pop and local access goes through them;
//!   the arena's length and high-water mark are written back at every
//!   segment break, so the arena is exact whenever anything else reads
//!   it.
//!
//! [`InterpMode::Reference`] selects a deliberately naive dispatch loop
//! (per-instruction checks, multiplies and re-borrows) kept as the golden
//! oracle for differential tests and as the "before" side of the
//! dispatch microbenchmark.

use std::sync::Arc;

use evovm_bytecode::analysis::FrameBounds;
use evovm_bytecode::program::Program;
use evovm_bytecode::scalar::{self, BinOp, BitOp, CmpOp, Scalar};
use evovm_bytecode::{FuncId, Instr, StrId};
use evovm_opt::{CompiledCode, OptLevel};

use crate::code_table::{version_slot, CodeTable, VERSIONS_PER_METHOD};
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
    /// every level (see [`evovm_opt::Optimizer::with_fusion`]). On by
    /// default; the off switch exists so the dispatch profiler can
    /// measure the raw pre-fusion pair distribution and so tests can
    /// compare fused against unfused runs (the virtual clock is
    /// bit-identical either way).
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
/// allocate nothing, and a frame names its code by version slot, so a
/// push or pop does no reference counting.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The compiled version this frame runs, as a `RunState::versions`
    /// slot fixed at entry: a later recompilation of the method fills
    /// another slot and leaves this frame on its old code and costs.
    version: usize,
    ip: usize,
    /// First arena slot of this frame's locals; the frame's operand
    /// stack is the arena tail above them. Everything below belongs to
    /// callers and is untouchable (the verifier bounds stack depth).
    locals_base: usize,
}

impl Frame {
    fn method(&self) -> FuncId {
        FuncId((self.version / VERSIONS_PER_METHOD) as u32)
    }
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
/// resolved once per (callee, compiled version) and reused until the
/// callee recompiles. Because calls name their callee statically, caching
/// per callee is exactly caching per call site.
#[derive(Debug, Clone, Copy)]
struct CallTarget {
    /// The callee's current version slot in `RunState::versions`.
    version: usize,
    arity: usize,
    locals: u16,
    max_stack: u32,
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
/// This includes the installed versions, the call-site cache and the
/// per-method levels — recompilations happen mid-run and charge the
/// virtual clock, so compilation state *is* run state and must travel
/// with a snapshot for the continuation to replay bit-identically. The
/// immutable program context (the [`CodeTable`] and the config) stays on
/// [`Vm`].
#[derive(Debug, Clone)]
struct RunState {
    /// Every version of every method installed in this run, copied from
    /// the [`CodeTable`] (a copy shares the table's buffers):
    /// [`VERSIONS_PER_METHOD`] slots per method, `version_slot(m, level)`
    /// holding `m` compiled at `level`. Sized once per machine; each slot
    /// is filled at most once, and old versions stay for the frames still
    /// running them. A method's current version is the slot of its entry
    /// in `levels`.
    versions: Vec<Option<CompiledCode>>,
    /// Monomorphic call-site cache, indexed by callee; entries are
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

impl RunState {
    /// `method`'s current compiled version, if it has been compiled.
    fn current(&self, method: FuncId) -> Option<&CompiledCode> {
        self.versions[version_slot(method, self.levels[method.index()])].as_ref()
    }

    /// Push a frame running `target`: the one frame push behind every
    /// call path. The callee's `arity` arguments are the topmost arena
    /// values (the caller's stack tail) and become the head of the
    /// callee's locals in place — no argument, locals or operand-stack
    /// vector is allocated. The caller checks the depth limit first.
    fn push_frame(&mut self, target: CallTarget) {
        let frame = Frame {
            version: target.version,
            ip: 0,
            locals_base: self.arena.len() - target.arity,
        };
        self.profile.invocations[frame.method().index()] += 1;
        // Zero-fill the non-argument locals, then reserve the verified
        // operand-stack bound: while this frame is on top the arena never
        // outgrows `locals_base + locals + max_stack`, so the dispatch
        // loop's pushes can skip the capacity check (see
        // `FrameRegs::push`). Capacity never shrinks, so the guarantee
        // survives event windows and deeper calls (each reserves its own).
        self.arena
            .resize(frame.locals_base + target.locals as usize, Value::Null);
        self.arena.reserve(target.max_stack as usize);
        self.frames.push(frame);
        self.profile.peak_call_depth = self.profile.peak_call_depth.max(self.frames.len());
        self.profile.peak_arena_slots = self.profile.peak_arena_slots.max(self.arena.len());
    }

    /// Pop the top frame and move its return value (the operand-stack
    /// top) onto the caller's stack. Returns `false` when the popped
    /// frame was the last one: the program is done. A return never sets
    /// a new arena peak — the popped frame already reached the
    /// post-return height while it ran — so the peak is left alone.
    fn pop_frame(&mut self) -> bool {
        let value = self.arena.pop().expect("verified: return pops a value");
        let frame = self.frames.pop().expect("returning without a frame");
        self.arena.truncate(frame.locals_base);
        if self.frames.is_empty() {
            return false;
        }
        self.arena.push(value);
        true
    }
}

/// A point-in-time copy of one run, taken at a window boundary — either
/// by the host via [`Vm::snapshot`] (between [`Vm::run`] calls) or by the
/// engine itself at a recompilation decision when
/// [`VmConfig::fork_snapshots`] is set.
///
/// A snapshot is self-contained and `Send`: it carries the shared
/// [`CodeTable`], the config, a forked copy of the policy
/// ([`AosPolicy::fork_box`]) and the full run state, so [`Vm::resume`]
/// can rebuild the machine anywhere — on another worker thread, under a
/// different cycle budget, or under a counterfactual level decision
/// ([`RunSnapshot::override_decision`]) — without re-verifying the
/// program or recompiling a version the table already holds.
/// Resuming and running to completion is bit-identical to never having
/// snapshotted, in both [`InterpMode`]s (`tests/fork_equiv.rs`).
#[derive(Debug)]
pub struct RunSnapshot {
    table: Arc<CodeTable>,
    config: VmConfig,
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
            table: Arc::clone(&self.table),
            config: self.config.clone(),
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
    /// The verified program, its static call-depth/arena bounds (used to
    /// pre-size `frames` and `arena`) and its compiled versions.
    table: Arc<CodeTable>,
    config: VmConfig,
    policy: Box<dyn AosPolicy>,
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
    /// Create a machine for `program` under `policy`, on a private
    /// [`CodeTable`] built with the config's fusion setting.
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
        let table = CodeTable::new(program, config.fuse)?;
        Ok(Vm::with_table(Arc::new(table), policy, config))
    }

    /// Create a machine for `table`'s program under `policy`, sharing the
    /// table's verification results and compiled versions with every other
    /// machine built on it. The run is bit-identical to one on a private
    /// table ([`Vm::new`]): each version it installs charges its compile
    /// cycles whether or not another run compiled it first.
    ///
    /// # Panics
    ///
    /// Panics when `config.fuse` differs from the table's fusion setting.
    pub fn with_table(table: Arc<CodeTable>, policy: Box<dyn AosPolicy>, config: VmConfig) -> Vm {
        assert_eq!(
            config.fuse,
            table.fuse(),
            "a machine runs its code table's fusion setting"
        );
        let static_bounds = table.frame_bounds();
        let arena_capacity = static_bounds
            .arena_slots
            .unwrap_or(0)
            .min(ARENA_PRESIZE_CAP_SLOTS);
        let frame_capacity = static_bounds
            .call_depth
            .unwrap_or(0)
            .min(config.max_call_depth);
        let n = table.program().functions().len();
        let mut profile = RunProfile::new(n);
        if config.profile_dispatch {
            profile.dispatch = Some(DispatchProfile::new());
        }
        Vm {
            table,
            state: RunState {
                versions: (0..n * VERSIONS_PER_METHOD).map(|_| None).collect(),
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
            fork_points: Vec::new(),
            host_epoch: 0,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        self.table.program()
    }

    /// The static call-depth/arena bounds proven at construction. `None`
    /// fields mean recursion makes the quantity statically unbounded.
    pub fn static_bounds(&self) -> FrameBounds {
        self.table.frame_bounds()
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
            table,
            mut config,
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
            table,
            config,
            policy,
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
            let method = FuncId(i as u32);
            let (Some(level), true) = (target, self.state.current(method).is_some()) else {
                continue;
            };
            self.recompile(method, *level)?;
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
            let entry = self.table.program().entry();
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

    /// How many versions of `method` this run has compiled so far (old
    /// versions stay while frames may still run them).
    #[cfg(test)]
    pub(crate) fn compiled_versions(&self, method: FuncId) -> usize {
        let first = version_slot(method, OptLevel::Baseline);
        self.state.versions[first..first + VERSIONS_PER_METHOD]
            .iter()
            .filter(|v| v.is_some())
            .count()
    }

    // --- snapshotting ---

    fn make_snapshot(&self, decision: Option<(FuncId, OptLevel)>) -> RunSnapshot {
        RunSnapshot {
            table: Arc::clone(&self.table),
            config: self.config.clone(),
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

    /// Install `method` at `level` from the code table (compiling it there
    /// on the table's first request) and charge its compile cycles. The
    /// pipeline's output is re-verified in every build profile;
    /// unverifiable code is rejected as [`VmError::Miscompile`] before it
    /// can execute.
    fn compile_to(&mut self, method: FuncId, level: OptLevel) -> Result<(), VmError> {
        let compiled = self.table.version(method, level)?;
        self.state.clock_milli += compiled.compile_cycles * 1000;
        self.state.compile_milli += compiled.compile_cycles * 1000;
        let slot = version_slot(method, level);
        debug_assert!(
            self.state.versions[slot].is_none(),
            "each version is compiled at most once per run"
        );
        self.state.levels[method.index()] = level;
        self.state.versions[slot] = Some(compiled);
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
        if self.state.current(method).is_some() {
            return Ok(());
        }
        // First invocation: baseline-compile, then give the policy its
        // proactive chance.
        self.compile_to(method, OptLevel::Baseline)?;
        let target = self.policy.on_first_compile(
            method,
            AosContext {
                program: self.table.program(),
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

    /// Push a frame for `method`, compiling it first if this is its first
    /// invocation, and return the call target the push used.
    fn invoke(&mut self, method: FuncId, arity: usize) -> Result<CallTarget, VmError> {
        if self.state.frames.len() >= self.config.max_call_depth {
            return Err(VmError::Trap(Trap::StackOverflow));
        }
        self.ensure_compiled(method)?;
        let version = version_slot(method, self.state.levels[method.index()]);
        let compiled = self.state.versions[version]
            .as_ref()
            .expect("just compiled");
        let target = CallTarget {
            version,
            arity,
            locals: compiled.locals,
            max_stack: compiled.max_stack,
        };
        self.state.push_frame(target);
        Ok(target)
    }

    /// [`Vm::invoke`] through the monomorphic call-site cache: on a hit
    /// the frame push reads everything from one [`CallTarget`] record —
    /// no function-table walk, no compiled-code probe, no policy
    /// consultation (a hit implies the callee is already compiled, so
    /// [`Vm::ensure_compiled`] would be a no-op anyway). A miss takes the
    /// full [`Vm::invoke`] path and then primes the cache. Accounting
    /// (depth check, invocation count, peaks) is identical in both paths
    /// and the virtual clock is untouched either way.
    fn invoke_cached(&mut self, callee: FuncId) -> Result<(), VmError> {
        if let Some(target) = self.state.call_cache[callee.index()] {
            if self.state.frames.len() >= self.config.max_call_depth {
                return Err(VmError::Trap(Trap::StackOverflow));
            }
            self.state.push_frame(target);
            return Ok(());
        }
        let arity = self.table.program().function(callee).arity as usize;
        let target = self.invoke(callee, arity)?;
        self.state.call_cache[callee.index()] = Some(target);
        Ok(())
    }

    fn take_sample(&mut self) -> Result<(), VmError> {
        let method = self
            .state
            .frames
            .last()
            .expect("sampling requires a frame")
            .method();
        self.state.profile.samples[method.index()] += 1;
        let target = self.policy.on_sample(
            method,
            AosContext {
                program: self.table.program(),
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
                .push((self.table.program().string(id).to_owned(), value));
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
    /// boundaries (sample ticks, budget deadline) and cold frame switches.
    ///
    /// `PROFILE` selects the dispatch-profiling flavour (counters bumped
    /// at every fetch); [`Vm::run`] picks it from whether
    /// [`RunProfile::dispatch`] is present, so the plain flavour carries
    /// no trace of the counters.
    fn execute<const PROFILE: bool>(&mut self) -> Result<Outcome, VmError> {
        self.check_budget()?;
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
                // One frame segment. Shared borrows of the frame's code
                // and cost table sit alongside mutable borrows of the
                // disjoint execution state, and the operand stack and
                // locals live in `regs`: no per-instruction re-borrow
                // through `self` and no arena length load or store.
                let frame = *self.state.frames.last().expect("running without a frame");
                let compiled = self.state.versions[frame.version]
                    .as_ref()
                    .expect("frames run compiled versions");
                let code: &[Instr] = &compiled.code;
                // Equal-length reslice so the optimizer can fold the two
                // per-instruction bounds checks into one (the compiler
                // emits the tables in lockstep).
                let costs: &[u64] = &compiled.cost_milli[..code.len()];
                let mut ip = frame.ip;
                // SAFETY: the frame's entry (`RunState::push_frame`) sized
                // the arena to cover its locals and reserved its verified
                // operand bound, and the arena has not been touched since
                // the last segment break wrote it back.
                let mut regs = unsafe {
                    FrameRegs::derive(
                        &mut self.state.arena,
                        frame.locals_base,
                        compiled.locals,
                        self.state.profile.peak_arena_slots,
                    )
                };
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
                        (code.get_unchecked(ip), *costs.get_unchecked(ip))
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
                        &mut regs,
                        &mut self.state.heap,
                        &mut self.state.output,
                        &mut self.state.pending_publish,
                        instr,
                        &mut ip,
                        &mut retired,
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
                // Segment break: the arena and the frame's ip become exact
                // again before anything else can read or resize them.
                // SAFETY: `regs` was derived from the arena above and
                // nothing has resized it since.
                unsafe {
                    regs.write_back(
                        &mut self.state.arena,
                        &mut self.state.profile.peak_arena_slots,
                    );
                }
                self.state.frames.last_mut().expect("frame").ip = ip;
                match segment {
                    Pending::Call(callee) => {
                        // In-window frame push: the same push as
                        // `invoke_cached`'s hit path, minus the window
                        // teardown. A sample or budget check due *at* the
                        // call instruction is not lost: `fuel <= 0`
                        // breaks to the event path below, and because the
                        // push moves no clock, the event fires with the
                        // callee on top — exactly where the
                        // window-per-call structure sampled it.
                        match self.state.call_cache[callee.index()] {
                            Some(target)
                                if self.state.frames.len() < self.config.max_call_depth =>
                            {
                                self.state.push_frame(target);
                            }
                            _ => break 'frames segment,
                        }
                    }
                    // In-window frame pop; the final return leaves the
                    // window to finish the run.
                    Pending::Return if self.state.frames.len() > 1 => {
                        self.state.pop_frame();
                    }
                    _ => break 'frames segment,
                }
                if fuel <= 0 {
                    break 'frames Pending::Event;
                }
            };
            let spent = (fuel0 - fuel) as u64;
            self.state.clock_milli += spent;
            self.state.exec_milli += spent;
            self.state.instructions += retired;
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
                    self.maybe_sample()?;
                    self.check_budget()?;
                }
                Pending::Return => {
                    // The final return: non-final ones stay in the window.
                    let more = self.state.pop_frame();
                    debug_assert!(!more, "only the last frame's return leaves the window");
                    return Ok(Outcome::Finished(Box::new(self.finish())));
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
            let frame = *self.state.frames.last().expect("running without a frame");
            let compiled = self.state.versions[frame.version]
                .as_ref()
                .expect("frames run compiled versions");
            let ip = frame.ip;
            let instr = compiled.code[ip];
            let cost = instr.base_cost() * compiled.quality_milli;
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
            // One instruction's registers: derived from the arena and
            // written straight back, so the arena is exact between steps.
            // SAFETY: as in `Vm::execute` — the frame's entry sized the
            // arena for it, and the previous step wrote the arena back.
            let mut regs = unsafe {
                FrameRegs::derive(
                    &mut self.state.arena,
                    frame.locals_base,
                    compiled.locals,
                    self.state.profile.peak_arena_slots,
                )
            };
            let step = step_op(
                &mut regs,
                &mut self.state.heap,
                &mut self.state.output,
                &mut self.state.pending_publish,
                &instr,
                &mut next_ip,
                &mut self.state.instructions,
            );
            // SAFETY: derived just above; nothing has resized the arena.
            unsafe {
                regs.write_back(
                    &mut self.state.arena,
                    &mut self.state.profile.peak_arena_slots,
                );
            }
            match step? {
                Step::Next => self.state.frames.last_mut().expect("frame").ip = next_ip,
                Step::Call(callee) => {
                    let arity = self.table.program().function(callee).arity as usize;
                    self.invoke(callee, arity)?;
                }
                Step::Return => {
                    if !self.state.pop_frame() {
                        return Ok(Outcome::Finished(Box::new(self.finish())));
                    }
                }
                Step::Done => {
                    self.flush_published();
                    self.maybe_sample()?;
                    return Ok(Outcome::FeaturesReady);
                }
            }
            // Exact arena-peak tracking: the step's net-push high-water
            // mark (which sees transient heights inside fused
            // instructions) is already folded in; add the post-step
            // length.
            self.state.profile.peak_arena_slots = self
                .state
                .profile
                .peak_arena_slots
                .max(self.state.arena.len());
            self.maybe_sample()?;
        }
    }
}

/// The running frame's operand stack and locals as raw arena pointers:
/// the fast loop holds them in registers for one frame segment, the
/// reference loop for one instruction.
///
/// # Invariant
///
/// [`FrameRegs::derive`] reads the pointers off the arena and
/// [`FrameRegs::write_back`] stores the stack height and high-water mark
/// back; in between, only these pointers touch the arena. Everything that
/// can resize or reallocate the arena (frame pushes and pops, sample
/// ticks and the compilations they trigger, fork snapshots, the host)
/// runs only after a write-back, and the next segment derives fresh
/// pointers — so no pointer outlives the buffer it points into, and
/// `RunState::arena` is exact whenever anything else reads it.
///
/// Inside a segment the pointers stay in bounds because every program the
/// VM runs has passed [`evovm_bytecode::verify`]:
///
/// - locals: `Load`/`Store`-family operands are `< locals`
///   (`LocalOutOfRange`, fused forms included), and frame entry sized the
///   arena to `locals_base + locals`;
/// - pops: the verified operand depth at every pc covers every pop
///   (`StackUnderflow` / `InconsistentDepth`), so `sp` never drops below
///   `lp + locals`;
/// - pushes: frame entry reserved `locals + max_stack` slots, where
///   `max_stack` is the verified operand-depth bound of the frame's code
///   (`CompiledCode::max_stack`), and `Vec` capacity never shrinks (a
///   resumed snapshot re-reserves the capture-time capacity before
///   executing), so `sp` stays below the arena's capacity.
///
/// `floor` and `limit` carry those bounds for the `debug_assert!`s on
/// every access; release builds never read them.
struct FrameRegs {
    /// One past the operand-stack top.
    sp: *mut Value,
    /// The frame's local 0.
    lp: *mut Value,
    /// One past the highest arena slot reached in this run.
    peak: *mut Value,
    /// `lp + locals`: the lowest `sp` the frame's stack can have.
    floor: *mut Value,
    /// One past the arena's capacity.
    limit: *mut Value,
}

impl FrameRegs {
    /// Derive the registers of the frame whose locals start at
    /// `locals_base`, with the run's arena high-water mark `peak`.
    ///
    /// # Safety
    ///
    /// The frame layout must hold — `locals_base + locals <= arena.len()`
    /// and `peak <= arena.capacity()` — and the caller must call
    /// [`FrameRegs::write_back`] before anything else reads or resizes
    /// the arena.
    #[inline(always)]
    unsafe fn derive(arena: &mut Vec<Value>, locals_base: usize, locals: u16, peak: usize) -> Self {
        let floor = locals_base + locals as usize;
        debug_assert!(
            floor <= arena.len(),
            "arena does not cover the frame's locals"
        );
        debug_assert!(peak <= arena.capacity(), "arena peak past its capacity");
        let base = arena.as_mut_ptr();
        // SAFETY: every offset is at most `arena.capacity()`, by the
        // caller's contract and `len <= capacity`.
        unsafe {
            FrameRegs {
                sp: base.add(arena.len()),
                lp: base.add(locals_base),
                peak: base.add(peak),
                floor: base.add(floor),
                limit: base.add(arena.capacity()),
            }
        }
    }

    /// Store the stack height into `arena` and the high-water mark into
    /// `peak`.
    ///
    /// # Safety
    ///
    /// `self` must have been derived from `arena`, which must not have
    /// been resized since.
    #[inline(always)]
    unsafe fn write_back(&self, arena: &mut Vec<Value>, peak: &mut usize) {
        let base = arena.as_ptr();
        // SAFETY: both pointers lie in `arena`'s buffer at most at its
        // capacity; every slot below `sp` is initialized (frame entry
        // filled the locals, every push wrote its slot before moving `sp`
        // past it), and `Value` is `Copy`, so shortening drops nothing.
        unsafe {
            arena.set_len(self.sp.offset_from_unsigned(base));
            *peak = self.peak.offset_from_unsigned(base);
        }
    }

    /// Push onto the operand stack and keep the high-water mark current.
    /// Only the net-push arms of [`step_op`] go through here — every
    /// other instruction leaves the stack no taller than it found it.
    #[inline(always)]
    fn push(&mut self, v: Value) {
        debug_assert!(
            self.sp >= self.floor,
            "operand stack below the frame's locals"
        );
        debug_assert!(self.sp < self.limit, "push past the reserved operand bound");
        // SAFETY: `sp < limit` (type invariant: verified depth bound
        // within the reserved capacity).
        unsafe {
            self.sp.write(v);
            self.sp = self.sp.add(1);
        }
        if self.sp > self.peak {
            self.peak = self.sp;
        }
    }

    /// Pop the operand-stack top.
    #[inline(always)]
    fn pop(&mut self) -> Value {
        debug_assert!(self.sp > self.floor, "pop from an empty operand stack");
        debug_assert!(self.sp <= self.limit);
        // SAFETY: `sp > floor` (type invariant: verified depth covers the
        // pop), and the slot below `sp` is initialized.
        unsafe {
            self.sp = self.sp.sub(1);
            self.sp.read()
        }
    }

    /// The operand-stack top, mutably.
    #[inline(always)]
    fn top(&mut self) -> &mut Value {
        debug_assert!(self.sp > self.floor, "empty operand stack has no top");
        debug_assert!(self.sp <= self.limit);
        // SAFETY: as in `pop`; the reference borrows `self`, so no push
        // or pop can move `sp` while it lives.
        unsafe { &mut *self.sp.sub(1) }
    }

    /// Exchange the two topmost operands.
    #[inline(always)]
    fn swap(&mut self) {
        debug_assert!(
            self.sp.wrapping_sub(2) >= self.floor,
            "swap needs two operands"
        );
        // SAFETY: as in `pop`, for two operands.
        unsafe { std::ptr::swap(self.sp.sub(1), self.sp.sub(2)) }
    }

    /// Local `n` of the running frame.
    #[inline(always)]
    fn local(&self, n: u16) -> Value {
        debug_assert!(
            self.lp.wrapping_add(n as usize) < self.floor,
            "local out of range"
        );
        // SAFETY: `n < locals` (type invariant: verified local operand).
        unsafe { self.lp.add(n as usize).read() }
    }

    /// Overwrite local `n` of the running frame.
    #[inline(always)]
    fn set_local(&mut self, n: u16, v: Value) {
        debug_assert!(
            self.lp.wrapping_add(n as usize) < self.floor,
            "local out of range"
        );
        // SAFETY: as in `local`.
        unsafe { self.lp.add(n as usize).write(v) }
    }

    // The two-operand helpers pop the right operand and overwrite the
    // left operand's slot in place: one pointer decrement and one store
    // instead of a second pop plus a push.

    #[inline(always)]
    fn binary(&mut self, op: BinOp) -> Result<(), VmError> {
        let b = self.pop();
        let slot = self.top();
        *slot = arith(op, *slot, b)?;
        Ok(())
    }

    #[inline(always)]
    fn bitwise(&mut self, op: BitOp) -> Result<(), VmError> {
        let b = self.pop();
        let slot = self.top();
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
    fn compare(&mut self, op: CmpOp) -> Result<(), VmError> {
        let b = self.pop();
        let slot = self.top();
        *slot = cmp_values(op, *slot, b)?;
        Ok(())
    }
}

/// Execute one instruction on the running frame's registers and tell the
/// dispatch loop what to do next. A free function over the *disjoint*
/// pieces of VM state it touches, so callers can keep a shared borrow of
/// the current frame's code and cost table alive across the call — no
/// `frames.last_mut()` re-borrow per instruction.
///
/// `retired` is the caller's retired-instruction counter, already bumped
/// by one for this dispatch; fused superinstructions add their remaining
/// component count so retirement totals stay identical to unfused code.
/// Every net-push arm goes through [`FrameRegs::push`], which together
/// with the frame-push tracking in `RunState::push_frame` keeps the arena
/// peak exact (see `RunProfile::peak_arena_slots`). `instr` comes by
/// reference so each arm loads only the operands it uses: passed by
/// value, the whole instruction was decoded into registers ahead of the
/// dispatch jump, pushing the loop's own state out to the stack.
#[inline(always)]
#[allow(clippy::too_many_lines)]
fn step_op(
    regs: &mut FrameRegs,
    heap: &mut Heap,
    output: &mut Vec<String>,
    pending_publish: &mut Vec<(StrId, Scalar)>,
    instr: &Instr,
    ip: &mut usize,
    retired: &mut u64,
) -> Result<Step, VmError> {
    // Arm order follows the measured retirement distribution in
    // BENCH_dispatch.json: local traffic (load 36%, const 12%, store
    // 10%), their fused forms, then branches lead the match.
    match *instr {
        Instr::Load(n) => {
            let v = regs.local(n);
            regs.push(v);
        }
        Instr::Store(n) => {
            let v = regs.pop();
            regs.set_local(n, v);
        }
        Instr::Const(v) => regs.push(Value::Int(v)),

        // Fused superinstructions (formed by `evovm_opt`'s fusion pass).
        // Each arm bumps `retired` once per extra component, placed so a
        // trapping component leaves the same retirement count as its
        // unfused expansion (components before the trapping one counted,
        // later ones not).
        Instr::LoadLoad(a, b) => {
            *retired += 1;
            let v = regs.local(a);
            regs.push(v);
            let v = regs.local(b);
            regs.push(v);
        }
        Instr::LoadConst(n, v) => {
            *retired += 1;
            let l = regs.local(n);
            regs.push(l);
            regs.push(Value::Int(v));
        }
        Instr::StoreLoad(n, m) => {
            *retired += 1;
            let v = regs.pop();
            regs.set_local(n, v);
            let v = regs.local(m);
            regs.push(v);
        }
        Instr::StoreJump(n, t) => {
            *retired += 1;
            let v = regs.pop();
            regs.set_local(n, v);
            *ip = t as usize;
        }
        // In `const v; op` the constant is the most recently pushed
        // operand, so the op computes `a op v` with `a` the prior top.
        Instr::ConstIBin(op, v) | Instr::ConstBin(op, v) => {
            *retired += 1;
            let slot = regs.top();
            if let Value::Int(x) = *slot {
                *slot = scalar::binop(op, x.into(), v.into())?.into();
            } else {
                let a = (*slot).as_scalar()?;
                *slot = scalar::binop(op, a, v.into())?.into();
            }
        }
        Instr::ConstBit(op, v) => {
            *retired += 1;
            let slot = regs.top();
            let a = (*slot).as_scalar()?;
            *slot = scalar::bitop(op, a, v.into())?.into();
        }
        Instr::ConstICmp(op, v) => {
            *retired += 1;
            let slot = regs.top();
            *slot = cmp_values(op, *slot, Value::Int(v))?;
        }
        Instr::ICmpBr(op, t, when) | Instr::CmpBr(op, t, when) => {
            let b = regs.pop();
            let a = regs.pop();
            let taken = cmp_values(op, a, b)?.truthy();
            *retired += 1;
            if taken == when {
                *ip = t as usize;
            }
        }
        Instr::ConstICmpBr(op, v, t, when) => {
            *retired += 1;
            let a = regs.pop();
            let taken = cmp_values(op, a, Value::Int(v))?.truthy();
            *retired += 1;
            if taken == when {
                *ip = t as usize;
            }
        }
        // `op; store n`: the store component retires only once the op
        // has produced a value, exactly as the unfused pair would.
        Instr::IBinStore(op, n) | Instr::BinStore(op, n) => {
            regs.binary(op)?;
            *retired += 1;
            let r = regs.pop();
            regs.set_local(n, r);
        }
        Instr::BitStore(op, n) => {
            regs.bitwise(op)?;
            *retired += 1;
            let r = regs.pop();
            regs.set_local(n, r);
        }
        // `load n; op`: the loaded local is the most recently pushed
        // operand, so the op computes `a op locals[n]`.
        Instr::LoadIBin(op, n) | Instr::LoadBin(op, n) => {
            *retired += 1;
            let b = regs.local(n);
            let slot = regs.top();
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
            let index = regs.local(n).as_int()?;
            let slot = regs.top();
            *slot = heap.load(*slot, index)?;
        }
        // Tier-3 forms. Retirement bumps bracket the first component
        // that can trap, so a fault leaves the same retired count as the
        // unfused sequence (loads and consts retire before the op, the
        // trailing store/branch components after it succeeds).
        Instr::LoadLoadBin(op, a, b) => {
            *retired += 2;
            let x = regs.local(a);
            let y = regs.local(b);
            let r: Value = if let (Value::Int(x), Value::Int(y)) = (x, y) {
                scalar::binop(op, x.into(), y.into())?.into()
            } else {
                scalar::binop(op, x.as_scalar()?, y.as_scalar()?)?.into()
            };
            regs.push(r);
        }
        Instr::LoadConstIBin(op, n, v) => {
            *retired += 2;
            let a = regs.local(n);
            let r: Value = if let Value::Int(x) = a {
                scalar::binop(op, x.into(), v.into())?.into()
            } else {
                scalar::binop(op, a.as_scalar()?, v.into())?.into()
            };
            regs.push(r);
        }
        Instr::LoadLoadCmpBr(op, a, b, t, when) => {
            *retired += 2;
            let x = regs.local(a);
            let y = regs.local(b);
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
            let a = (*regs.top()).as_scalar()?;
            let r: Value = scalar::bitop(op, a, v.into())?.into();
            *retired += 2;
            regs.set_local(n, r);
            let next = regs.local(m);
            *regs.top() = next;
        }
        Instr::ConstIBinStoreJump(op, v, n, t) => {
            *retired += 1;
            let a = regs.pop();
            let r: Value = if let Value::Int(x) = a {
                scalar::binop(op, x.into(), v.into())?.into()
            } else {
                scalar::binop(op, a.as_scalar()?, v.into())?.into()
            };
            *retired += 2;
            regs.set_local(n, r);
            *ip = t as usize;
        }
        // Residual forms (generic arithmetic and compares, mostly run at
        // −1/O0), bracketed the same way.
        Instr::LoadCmpBr(op, n, t, when) => {
            *retired += 1;
            let a = regs.pop();
            let taken = cmp_values(op, a, regs.local(n))?.truthy();
            *retired += 1;
            if taken == when {
                *ip = t as usize;
            }
        }
        Instr::BinStoreJump(op, n, t) => {
            regs.binary(op)?;
            *retired += 2;
            let r = regs.pop();
            regs.set_local(n, r);
            *ip = t as usize;
        }
        Instr::LoadLoadALoad(a, b) => {
            *retired += 2;
            let index = regs.local(b).as_int()?;
            let v = heap.load(regs.local(a), index)?;
            regs.push(v);
        }
        // `load n; op; aload` / `const v; op; aload`: offset the index on
        // top of stack, then index the array below it.
        Instr::LoadBinALoad(op, n) => {
            *retired += 1;
            let i = arith(op, regs.pop(), regs.local(n))?;
            *retired += 1;
            let slot = regs.top();
            *slot = heap.load(*slot, i.as_int()?)?;
        }
        Instr::ConstBinALoad(op, v) => {
            *retired += 1;
            let i = arith(op, regs.pop(), Value::Int(v))?;
            *retired += 1;
            let slot = regs.top();
            *slot = heap.load(*slot, i.as_int()?)?;
        }
        Instr::LoadConstBinStore(op, n, v, m) => {
            *retired += 2;
            let r = arith(op, regs.local(n), Value::Int(v))?;
            *retired += 1;
            regs.set_local(m, r);
        }
        Instr::LoadLoadBinALoad(op, a, b, n) => {
            *retired += 3;
            let i = arith(op, regs.local(b), regs.local(n))?;
            *retired += 1;
            let v = heap.load(regs.local(a), i.as_int()?)?;
            regs.push(v);
        }
        Instr::LoadLoadConstBinALoad(op, a, b, v) => {
            *retired += 3;
            let i = arith(op, regs.local(b), Value::Int(v))?;
            *retired += 1;
            let v = heap.load(regs.local(a), i.as_int()?)?;
            regs.push(v);
        }
        Instr::LoadConstBinStoreJump(op, n, v, m, t) => {
            *retired += 2;
            let r = arith(op, regs.local(n), Value::Int(i64::from(v)))?;
            *retired += 2;
            regs.set_local(m, r);
            *ip = t as usize;
        }

        Instr::Jump(t) => *ip = t as usize,
        Instr::JumpIf(t) => {
            if regs.pop().truthy() {
                *ip = t as usize;
            }
        }
        Instr::JumpIfNot(t) => {
            if !regs.pop().truthy() {
                *ip = t as usize;
            }
        }

        Instr::FConst(v) => regs.push(Value::Float(v)),
        Instr::Null => regs.push(Value::Null),
        Instr::Dup => {
            let v = *regs.top();
            regs.push(v);
        }
        Instr::Pop => {
            regs.pop();
        }
        Instr::Swap => regs.swap(),

        Instr::Add | Instr::IAdd | Instr::FAdd => regs.binary(BinOp::Add)?,
        Instr::Sub | Instr::ISub | Instr::FSub => regs.binary(BinOp::Sub)?,
        Instr::Mul | Instr::IMul | Instr::FMul => regs.binary(BinOp::Mul)?,
        Instr::Div | Instr::IDiv | Instr::FDiv => regs.binary(BinOp::Div)?,
        Instr::Rem | Instr::IRem => regs.binary(BinOp::Rem)?,
        Instr::Neg | Instr::INeg | Instr::FNeg => {
            let slot = regs.top();
            let a = (*slot).as_scalar()?;
            *slot = scalar::neg(a).into();
        }

        Instr::Shl => regs.bitwise(BitOp::Shl)?,
        Instr::Shr => regs.bitwise(BitOp::Shr)?,
        Instr::BitAnd => regs.bitwise(BitOp::And)?,
        Instr::BitOr => regs.bitwise(BitOp::Or)?,
        Instr::BitXor => regs.bitwise(BitOp::Xor)?,

        Instr::CmpEq | Instr::ICmpEq | Instr::FCmpEq => regs.compare(CmpOp::Eq)?,
        Instr::CmpNe | Instr::ICmpNe | Instr::FCmpNe => regs.compare(CmpOp::Ne)?,
        Instr::CmpLt | Instr::ICmpLt | Instr::FCmpLt => regs.compare(CmpOp::Lt)?,
        Instr::CmpLe | Instr::ICmpLe | Instr::FCmpLe => regs.compare(CmpOp::Le)?,
        Instr::CmpGt | Instr::ICmpGt | Instr::FCmpGt => regs.compare(CmpOp::Gt)?,
        Instr::CmpGe | Instr::ICmpGe | Instr::FCmpGe => regs.compare(CmpOp::Ge)?,

        Instr::ToFloat => {
            let slot = regs.top();
            let a = (*slot).as_scalar()?;
            *slot = scalar::to_float(a).into();
        }
        Instr::ToInt => {
            let slot = regs.top();
            let a = (*slot).as_scalar()?;
            *slot = scalar::to_int(a).into();
        }

        Instr::NewArray => {
            let slot = regs.top();
            let len = (*slot).as_int()?;
            *slot = heap.alloc(len)?;
        }
        Instr::ALoad => {
            let index = regs.pop().as_int()?;
            let slot = regs.top();
            *slot = heap.load(*slot, index)?;
        }
        Instr::AStore => {
            let value = regs.pop();
            let index = regs.pop().as_int()?;
            let array = regs.pop();
            heap.store(array, index, value)?;
        }
        Instr::ALen => {
            let slot = regs.top();
            *slot = Value::Int(heap.len(*slot)?);
        }

        Instr::Math(m) => {
            if m.arity() == 1 {
                let slot = regs.top();
                let a = (*slot).as_scalar()?;
                *slot = scalar::math1(m, a).into();
            } else {
                let b = regs.pop().as_scalar()?;
                let slot = regs.top();
                let a = (*slot).as_scalar()?;
                *slot = scalar::math2(m, a, b).into();
            }
        }

        Instr::Print => {
            let v = regs.pop();
            output.push(v.to_string());
        }
        Instr::Publish(s) => {
            let v = regs.pop();
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

/// Generic arithmetic on two values, shared by [`FrameRegs::binary`] and the fused
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
