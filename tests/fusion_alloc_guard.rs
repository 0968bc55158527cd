//! Allocation guard for superinstruction fusion, which now runs on every
//! first-call (Baseline) compile: a counting global allocator pins how
//! many allocations one fusion and one fused Baseline compile make. The
//! counts are deterministic, so they are gated exactly; a fusion pass
//! that allocates per fixpoint round, or a compile path that copies the
//! code once more, fails.

mod alloc_counter;

use alloc_counter::allocations;
use evolvable_vm::bytecode::{FuncId, Instr};
use evolvable_vm::opt::passes::fuse;
use evolvable_vm::opt::{OptLevel, Optimizer};
use evolvable_vm::workloads;

/// `i = i + 1; continue` repeated: each copy closes in three fixpoint
/// rounds, so `copies` sets the size but not the round count.
fn loop_increments(copies: usize) -> Vec<Instr> {
    let mut code = Vec::new();
    for _ in 0..copies {
        let top = code.len() as u32;
        code.extend([
            Instr::Load(0),
            Instr::Const(1),
            Instr::Add,
            Instr::Store(0),
            Instr::Jump(top),
        ]);
    }
    code
}

#[test]
fn fusion_allocates_once_whatever_its_round_count() {
    // Zero, one, two and three rounds of fusion on the same length class.
    let no_pair = vec![Instr::Pop; 10];
    let one_round = vec![Instr::Load(0); 10];
    let two_rounds = [
        Instr::Load(0),
        Instr::Load(1),
        Instr::Load(2),
        Instr::CmpLt,
        Instr::JumpIf(0),
    ]
    .repeat(2);
    for (rounds, code) in [no_pair, one_round, two_rounds, loop_increments(2)]
        .into_iter()
        .enumerate()
    {
        let input = code.clone();
        let (n, fused) = allocations(|| fuse::run(input));
        assert_eq!(n, 1, "{rounds} rounds: only the slot table is allocated");
        assert_eq!(fused.is_empty(), code.is_empty());
    }
    let long = loop_increments(200);
    let (n, fused) = allocations(|| fuse::run(long));
    assert_eq!(fused.len(), 200);
    assert_eq!(n, 1, "a long function still allocates once");
}

#[test]
fn fused_baseline_compiles_allocate_a_pinned_count() {
    let bench = workloads::by_name("db").expect("bundled");
    let program = &bench.inputs[0].program;
    let optimizer = Optimizer::new();
    let functions = program.functions().len();
    let compile_all = |opt: &Optimizer| {
        allocations(|| {
            (0..functions)
                .map(|id| opt.compile(program, FuncId(id as u32), OptLevel::Baseline))
                .collect::<Vec<_>>()
        })
    };
    let (fused, first) = compile_all(&optimizer);
    let (again, second) = compile_all(&optimizer);
    assert_eq!(fused, again, "allocation count repeats");
    assert_eq!(first.len(), second.len());
    let (unfused, _) = compile_all(&optimizer.clone().with_fusion(false));
    // Fusion costs exactly its slot table per function. The compile path
    // hands the code to the verifier and back instead of copying it, and
    // verifies under an empty name instead of a copy of the function's,
    // so a fused Baseline compile still makes fewer allocations than the
    // unfused one did before fusion reached Baseline (96 for these 9
    // functions).
    assert_eq!(fused, unfused + functions as u64);
    assert_eq!(
        (functions, fused, unfused),
        (9, 87, 78),
        "pinned allocation counts"
    );
}
