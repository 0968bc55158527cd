//! Superinstruction fusion: merge hot adjacent instruction pairs into
//! single fused opcodes.
//!
//! The pass runs at *every* level: it is the whole Baseline/O0 pipeline
//! and the last step of the O1/O2 pipeline (see
//! [`crate::pipeline::Optimizer`]), so code starts fused from a method's
//! first invocation. Fusion is a pure host-side dispatch optimization:
//! every fused instruction's `base_cost` is exactly the sum of its
//! components and it reports its component count to the
//! retired-instruction counter, so the virtual clock, sampling and
//! instruction totals are bit-identical to unfused execution
//! (`tests/dispatch_profile.rs` proves it at each level).
//!
//! It only merges adjacent instructions the earlier passes decided to
//! keep, never across a branch target (the second instruction of a pair
//! must not be a leader) and never starting at a branch, terminator or
//! call. The pair set is chosen from the dispatch profile of the code
//! campaigns execute (`BENCH_dispatch.json`, regenerate with
//! `cargo run --release --example perf_sweep -- --dispatch`).

use evovm_bytecode::scalar::{BinOp, BitOp, CmpOp};
use evovm_bytecode::Instr;

/// Per-source-pc bookkeeping shared by every fixpoint round and the final
/// compaction, so a whole fusion costs one scratch allocation however
/// many rounds it takes.
#[derive(Clone, Copy)]
struct Slot {
    /// A branch target, the entry, or the fall-through of a branch or
    /// return: never the second instruction of a pair.
    leader: bool,
    /// Still holds an instruction (false once absorbed into the fused
    /// instruction at an earlier live pc).
    live: bool,
    /// The pc this slot's instruction has after compaction.
    new_pc: u32,
}

/// Fuse hot adjacent pairs until no more fusion applies (iterating lets
/// chains like `Const; ICmpLt; JumpIf` first become `ConstICmpLt; JumpIf`
/// and then a single branch-fused triple).
///
/// The rounds work in place on `code`'s original pc space: a fused
/// instruction sits at its first component's pc and the slots it absorbed
/// go dead, so leaders and branch targets keep their source pcs until one
/// compaction at the end remaps them. The only allocation is the slot
/// table.
pub fn run(mut code: Vec<Instr>) -> Vec<Instr> {
    let n = code.len();
    if n < 2 {
        return code;
    }
    let mut slots = vec![
        Slot {
            leader: false,
            live: true,
            new_pc: 0,
        };
        n
    ];
    slots[0].leader = true;
    for (pc, instr) in code.iter().enumerate() {
        if let Some(t) = instr.branch_target() {
            slots[t as usize].leader = true;
        }
        if (instr.is_branch() || matches!(instr, Instr::Return)) && pc + 1 < n {
            slots[pc + 1].leader = true;
        }
    }
    let next_live = |slots: &[Slot], pc: usize| (pc + 1..n).find(|&i| slots[i].live);
    let mut fused_any = false;
    loop {
        // One left-to-right sweep over non-overlapping adjacent live pairs.
        let mut changed = false;
        let mut pc = 0;
        while let Some(next) = next_live(&slots, pc) {
            // Never fuse across a control-flow seam: the second
            // instruction must not be reachable on its own, and the first
            // must fall through into it.
            let first = code[pc];
            if slots[next].leader || first.is_branch() || first.is_terminator() {
                pc = next;
                continue;
            }
            let Some(fused) = fuse_pair(first, code[next]) else {
                pc = next;
                continue;
            };
            code[pc] = fused;
            slots[next].live = false;
            changed = true;
            match next_live(&slots, next) {
                Some(after) => pc = after,
                None => break,
            }
        }
        if !changed {
            break;
        }
        fused_any = true;
    }
    if fused_any {
        compact(&mut code, &mut slots);
    }
    code
}

/// Drop the dead slots and remap branch targets into the compacted pc
/// space. Targets are leaders, and leaders are never absorbed, so every
/// target is live.
fn compact(code: &mut Vec<Instr>, slots: &mut [Slot]) {
    let mut live = 0u32;
    for slot in slots.iter_mut() {
        slot.new_pc = live;
        live += u32::from(slot.live);
    }
    let mut w = 0;
    for r in 0..code.len() {
        if !slots[r].live {
            continue;
        }
        let instr = code[r];
        code[w] = match instr.branch_target() {
            Some(t) => instr.with_branch_target(slots[t as usize].new_pc),
            None => instr,
        };
        w += 1;
    }
    code.truncate(w);
}

/// The fused-pair table. Returns the superinstruction replacing
/// `first; second`, or `None` if the pair is not in the fusion set.
///
/// The pair set now comes from the campaign-executed residual: the
/// fused stream of Default runs over every input of every workload
/// (`residual` in `BENCH_dispatch.json`), where most code runs at −1/O0.
/// Tiers 1–3 below were first chosen from the pinned-level sweep; the
/// residual tier adds the hottest straight-line pairs that stream still
/// dispatched once −1/O0 code was fused too: `load;cmpbr` 2.9%,
/// `loadload;loadbin` 2.9%, `binstore;jump` 2.8%, `loadbin;aload` 2.8%,
/// `loadload;aload` 2.6%, `loadconst;binstore` 1.8% and `constbin;aload`
/// 1.7% of its dispatches — generic forms, because −1/O0 code is
/// unquickened.
///
/// Tiers 1–3 cover the top of the measured pair distribution
/// (`BENCH_dispatch.json`): `load;load` 14.2%, `load;const` 7.6%,
/// `store;load` 5.6%, `store;jump` 3.6% (loop back-edges), `const`
/// feeding arithmetic/bitwise/compares ~9%, and compare-then-branch
/// ~4.9%. A second tier picks up the next band: arithmetic/bitwise
/// results flowing straight into a store (`iadd;store` 2.3%, `band;store`
/// 2.2%) and locals feeding an op or array read (`load;isub` 1.9%,
/// `load;aload` 1.5%) — the shapes left over once `load;const` pairs
/// have been consumed by the first tier. A third tier pairs the fused
/// forms themselves, covering the three- and four-instruction chains
/// that dominate the *residual* distribution once tiers 1–2 have run
/// (profiled with fusion on): `loadload;cmpbr` 4.4%, the
/// `constbit;storeload` mask-store seam 3.1%, the
/// `constibin;storejump` back-edge 2.9%, `loadconst;imul` 2.3% and
/// `loadload;mul` (11% of mtrt/raytracer dispatches). `Div`/`Rem` stay
/// unfused so a divide-by-zero trap keeps its own program counter;
/// float-specialized compares stay unfused because their dispatch cost
/// differs from the generic forms the fused costs encode.
fn fuse_pair(first: Instr, second: Instr) -> Option<Instr> {
    use Instr::{Const, Jump, JumpIf, JumpIfNot, Load, Store};
    Some(match (first, second) {
        (Load(a), Load(b)) => Instr::LoadLoad(a, b),
        (Load(n), Const(v)) => Instr::LoadConst(n, v),
        (Load(n), Instr::IAdd) => Instr::LoadIBin(BinOp::Add, n),
        (Load(n), Instr::ISub) => Instr::LoadIBin(BinOp::Sub, n),
        (Load(n), Instr::IMul) => Instr::LoadIBin(BinOp::Mul, n),
        (Load(n), Instr::Add) => Instr::LoadBin(BinOp::Add, n),
        (Load(n), Instr::Sub) => Instr::LoadBin(BinOp::Sub, n),
        (Load(n), Instr::Mul) => Instr::LoadBin(BinOp::Mul, n),
        (Load(n), Instr::ALoad) => Instr::LoadALoad(n),
        (Store(n), Load(m)) => Instr::StoreLoad(n, m),
        (Store(n), Jump(t)) => Instr::StoreJump(n, t),
        (Instr::IAdd, Store(n)) => Instr::IBinStore(BinOp::Add, n),
        (Instr::ISub, Store(n)) => Instr::IBinStore(BinOp::Sub, n),
        (Instr::IMul, Store(n)) => Instr::IBinStore(BinOp::Mul, n),
        (Instr::Add, Store(n)) => Instr::BinStore(BinOp::Add, n),
        (Instr::Sub, Store(n)) => Instr::BinStore(BinOp::Sub, n),
        (Instr::Mul, Store(n)) => Instr::BinStore(BinOp::Mul, n),
        (Instr::Shl, Store(n)) => Instr::BitStore(BitOp::Shl, n),
        (Instr::Shr, Store(n)) => Instr::BitStore(BitOp::Shr, n),
        (Instr::BitAnd, Store(n)) => Instr::BitStore(BitOp::And, n),
        (Instr::BitOr, Store(n)) => Instr::BitStore(BitOp::Or, n),
        (Instr::BitXor, Store(n)) => Instr::BitStore(BitOp::Xor, n),
        (Const(v), Instr::IAdd) => Instr::ConstIBin(BinOp::Add, v),
        (Const(v), Instr::ISub) => Instr::ConstIBin(BinOp::Sub, v),
        (Const(v), Instr::IMul) => Instr::ConstIBin(BinOp::Mul, v),
        (Const(v), Instr::Add) => Instr::ConstBin(BinOp::Add, v),
        (Const(v), Instr::Sub) => Instr::ConstBin(BinOp::Sub, v),
        (Const(v), Instr::Mul) => Instr::ConstBin(BinOp::Mul, v),
        (Const(v), Instr::Shl) => Instr::ConstBit(BitOp::Shl, v),
        (Const(v), Instr::Shr) => Instr::ConstBit(BitOp::Shr, v),
        (Const(v), Instr::BitAnd) => Instr::ConstBit(BitOp::And, v),
        (Const(v), Instr::BitOr) => Instr::ConstBit(BitOp::Or, v),
        (Const(v), Instr::BitXor) => Instr::ConstBit(BitOp::Xor, v),
        (Const(v), second) => Instr::ConstICmp(icmp_op(second)?, v),
        (Instr::ConstICmp(op, v), JumpIf(t)) => Instr::ConstICmpBr(op, v, t, true),
        (Instr::ConstICmp(op, v), JumpIfNot(t)) => Instr::ConstICmpBr(op, v, t, false),
        // Tier 3: the left element is itself a pair formed by an earlier
        // sweep, so these only arise on the second fixpoint round.
        (Instr::LoadLoad(a, b), Instr::Add) => Instr::LoadLoadBin(BinOp::Add, a, b),
        (Instr::LoadLoad(a, b), Instr::Sub) => Instr::LoadLoadBin(BinOp::Sub, a, b),
        (Instr::LoadLoad(a, b), Instr::Mul) => Instr::LoadLoadBin(BinOp::Mul, a, b),
        (Instr::LoadLoad(a, b), Instr::CmpBr(op, t, when)) => {
            Instr::LoadLoadCmpBr(op, a, b, t, when)
        }
        (Instr::LoadConst(n, v), Instr::IAdd) => Instr::LoadConstIBin(BinOp::Add, n, v),
        (Instr::LoadConst(n, v), Instr::ISub) => Instr::LoadConstIBin(BinOp::Sub, n, v),
        (Instr::LoadConst(n, v), Instr::IMul) => Instr::LoadConstIBin(BinOp::Mul, n, v),
        (Instr::ConstBit(op, v), Instr::StoreLoad(n, m)) => Instr::ConstBitStoreLoad(op, v, n, m),
        (Instr::ConstIBin(op, v), Instr::StoreJump(n, t))
            if !matches!(op, BinOp::Div | BinOp::Rem) =>
        {
            Instr::ConstIBinStoreJump(op, v, n, t)
        }
        // Residual tier: the hottest fusable pairs left in the stream
        // campaigns execute once the tiers above have run, where most
        // code is unquickened −1/O0 code (generic ops).
        (Load(n), Instr::CmpBr(op, t, when)) => Instr::LoadCmpBr(op, n, t, when),
        (Instr::BinStore(op, n), Jump(t)) => Instr::BinStoreJump(op, n, t),
        (Instr::LoadLoad(a, b), Instr::ALoad) => Instr::LoadLoadALoad(a, b),
        (Instr::LoadBin(op, n), Instr::ALoad) => Instr::LoadBinALoad(op, n),
        (Instr::ConstBin(op, v), Instr::ALoad) => Instr::ConstBinALoad(op, v),
        (Instr::LoadConst(n, v), Instr::BinStore(op, m)) => Instr::LoadConstBinStore(op, n, v, m),
        // Their closing rounds: the array reads `a[b ⊕ n]` / `a[b ⊕ v]`
        // and the loop-increment back-edge.
        (Instr::LoadLoad(a, b), Instr::LoadBinALoad(op, n)) => Instr::LoadLoadBinALoad(op, a, b, n),
        (Instr::LoadLoad(a, b), Instr::ConstBinALoad(op, v)) => {
            Instr::LoadLoadConstBinALoad(op, a, b, v)
        }
        (Instr::LoadConstBinStore(op, n, v, m), Jump(t)) => {
            Instr::LoadConstBinStoreJump(op, n, i32::try_from(v).ok()?, m, t)
        }
        (first, JumpIf(t)) => match icmp_op(first) {
            Some(op) => Instr::ICmpBr(op, t, true),
            None => Instr::CmpBr(generic_cmp_op(first)?, t, true),
        },
        (first, JumpIfNot(t)) => match icmp_op(first) {
            Some(op) => Instr::ICmpBr(op, t, false),
            None => Instr::CmpBr(generic_cmp_op(first)?, t, false),
        },
        _ => return None,
    })
}

/// The comparison operator of an int-specialized compare.
fn icmp_op(i: Instr) -> Option<CmpOp> {
    Some(match i {
        Instr::ICmpEq => CmpOp::Eq,
        Instr::ICmpNe => CmpOp::Ne,
        Instr::ICmpLt => CmpOp::Lt,
        Instr::ICmpLe => CmpOp::Le,
        Instr::ICmpGt => CmpOp::Gt,
        Instr::ICmpGe => CmpOp::Ge,
        _ => return None,
    })
}

/// The comparison operator of a generic compare.
fn generic_cmp_op(i: Instr) -> Option<CmpOp> {
    Some(match i {
        Instr::CmpEq => CmpOp::Eq,
        Instr::CmpNe => CmpOp::Ne,
        Instr::CmpLt => CmpOp::Lt,
        Instr::CmpLe => CmpOp::Le,
        Instr::CmpGt => CmpOp::Gt,
        Instr::CmpGe => CmpOp::Ge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuses_straightline_pairs() {
        let code = vec![
            Instr::Load(1),
            Instr::Load(0),
            Instr::Const(3),
            Instr::IMul,
            Instr::Const(255),
            Instr::BitAnd,
            Instr::IAdd,
            Instr::Store(2),
            Instr::Return,
        ];
        assert_eq!(
            run(code.clone()),
            vec![
                Instr::LoadLoad(1, 0),
                Instr::ConstIBin(BinOp::Mul, 3),
                Instr::ConstBit(BitOp::And, 255),
                Instr::IBinStore(BinOp::Add, 2),
                Instr::Return,
            ]
        );
    }

    #[test]
    fn fuses_op_store_and_load_op_pairs() {
        // `x = x & mask` / `acc += a[i]` shapes from the bench corpus:
        // load;const pairs first, freeing the op;store tail to fuse too.
        let code = vec![
            Instr::Load(0),
            Instr::Const(255),
            Instr::BitAnd,
            Instr::Store(0),
            Instr::Load(1),
            Instr::ALoad,
            Instr::Load(2),
            Instr::IAdd,
            Instr::Return,
        ];
        assert_eq!(
            run(code.clone()),
            vec![
                Instr::LoadConst(0, 255),
                Instr::BitStore(BitOp::And, 0),
                Instr::LoadALoad(1),
                Instr::LoadIBin(BinOp::Add, 2),
                Instr::Return,
            ]
        );
    }

    #[test]
    fn iterates_to_the_branch_fused_triple() {
        // Round 1 fuses const+icmpge, round 2 folds in the branch. (The
        // const must not follow a fusable load, or the greedy sweep pairs
        // load+const instead — also correct, but a different shape.)
        let code = vec![
            Instr::Pop,
            Instr::Const(10),
            Instr::ICmpGe,
            Instr::JumpIf(5),
            Instr::Nop,
            Instr::Return,
        ];
        assert_eq!(
            run(code.clone()),
            vec![
                Instr::Pop,
                Instr::ConstICmpBr(CmpOp::Ge, 10, 3, true),
                Instr::Nop,
                Instr::Return,
            ]
        );
    }

    #[test]
    fn loop_head_fuses_to_loadconst_and_icmpbr() {
        // The canonical counted-loop head: load i; const N; icmpge; jumpif.
        // Greedy left-to-right pairs load+const first, then cmp+branch:
        // four dispatches become two.
        let code = vec![
            Instr::Load(0),
            Instr::Const(10),
            Instr::ICmpGe,
            Instr::JumpIf(5),
            Instr::Nop,
            Instr::Return,
        ];
        assert_eq!(
            run(code.clone()),
            vec![
                Instr::LoadConst(0, 10),
                Instr::ICmpBr(CmpOp::Ge, 3, true),
                Instr::Nop,
                Instr::Return,
            ]
        );
    }

    #[test]
    fn never_fuses_across_a_branch_target() {
        // pc 1 is the target of the jump, so load;load must stay split.
        let code = vec![Instr::Load(0), Instr::Load(1), Instr::Jump(1)];
        assert_eq!(run(code.clone()), code);
    }

    #[test]
    fn remaps_targets_after_compaction() {
        // Fusing pcs 0-1 shifts the branch target at pc 3 down by one.
        let code = vec![Instr::Load(0), Instr::Load(1), Instr::Pop, Instr::Jump(2)];
        assert_eq!(
            run(code.clone()),
            vec![Instr::LoadLoad(0, 1), Instr::Pop, Instr::Jump(1)]
        );
    }

    #[test]
    fn second_round_builds_tier3_chains() {
        // A realistic loop body: the first sweep forms loadload, constbit
        // and constibin/storejump seams; the second folds them into 3- and
        // 4-component superinstructions. Seven source instructions end as
        // two dispatches, and a counted-loop head (load;load;cmplt;jumpif)
        // becomes one.
        let code = vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::Mul,
            Instr::Const(255),
            Instr::BitAnd,
            Instr::Store(2),
            Instr::Load(3),
            Instr::Return,
        ];
        assert_eq!(
            run(code.clone()),
            vec![
                Instr::LoadLoadBin(BinOp::Mul, 0, 1),
                Instr::ConstBitStoreLoad(BitOp::And, 255, 2, 3),
                Instr::Return,
            ]
        );
        let head = vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::CmpLt,
            Instr::JumpIf(5),
            Instr::Nop,
            Instr::Return,
        ];
        assert_eq!(
            run(head),
            vec![
                Instr::LoadLoadCmpBr(CmpOp::Lt, 0, 1, 2, true),
                Instr::Nop,
                Instr::Return,
            ]
        );
        // The back-edge `i += step; jump top` tail: const+iadd fuses in
        // round 1, store+jump in round 1 too, then the pair merges.
        let tail = vec![
            Instr::Pop,
            Instr::Const(1),
            Instr::IAdd,
            Instr::Store(0),
            Instr::Jump(0),
        ];
        assert_eq!(
            run(tail),
            vec![Instr::Pop, Instr::ConstIBinStoreJump(BinOp::Add, 1, 0, 0),]
        );
    }

    #[test]
    fn leaves_trapping_and_float_pairs_alone() {
        let code = vec![
            Instr::Const(0),
            Instr::IDiv,
            Instr::FCmpLt,
            Instr::JumpIf(0),
        ];
        // Only the compare-branch stays unfused too: FCmpLt has its own
        // dispatch cost, so no CmpBr is formed.
        assert_eq!(run(code.clone()), code);
    }

    #[test]
    fn residual_tier_fuses_the_generic_loop_exit() {
        // `while (a[i] < n)` at −1: the array read becomes `loadloadaload`
        // and the generic compare-branch absorbs the load of `n`.
        let code = vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::ALoad,
            Instr::Load(2),
            Instr::CmpLt,
            Instr::JumpIfNot(7),
            Instr::Nop,
            Instr::Return,
        ];
        assert_eq!(
            run(code),
            vec![
                Instr::LoadLoadALoad(0, 1),
                Instr::LoadCmpBr(CmpOp::Lt, 2, 3, false),
                Instr::Nop,
                Instr::Return,
            ]
        );
    }

    #[test]
    fn residual_tier_fuses_generic_store_jump() {
        // `x = a + b; continue` whose operands come from elsewhere.
        let code = vec![Instr::Pop, Instr::Add, Instr::Store(0), Instr::Jump(0)];
        assert_eq!(
            run(code),
            vec![Instr::Pop, Instr::BinStoreJump(BinOp::Add, 0, 0)]
        );
    }

    #[test]
    fn residual_tier_builds_array_reads() {
        // `a[i - n]`: round 1 forms loadload and loadbin, round 2 folds
        // the aload into loadbinaload, round 3 closes the five-component
        // read.
        let local_offset = vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::Load(2),
            Instr::Sub,
            Instr::ALoad,
            Instr::Return,
        ];
        assert_eq!(
            run(local_offset),
            vec![Instr::LoadLoadBinALoad(BinOp::Sub, 0, 1, 2), Instr::Return]
        );
        // `a[i + 1]` by the same three rounds.
        let const_offset = vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::Const(1),
            Instr::Add,
            Instr::ALoad,
            Instr::Return,
        ];
        assert_eq!(
            run(const_offset),
            vec![
                Instr::LoadLoadConstBinALoad(BinOp::Add, 0, 1, 1),
                Instr::Return
            ]
        );
        // Without the leading loadload the three-component forms remain.
        let partial = vec![
            Instr::Pop,
            Instr::Load(2),
            Instr::Sub,
            Instr::ALoad,
            Instr::Pop,
            Instr::Const(1),
            Instr::Mul,
            Instr::ALoad,
            Instr::Return,
        ];
        assert_eq!(
            run(partial),
            vec![
                Instr::Pop,
                Instr::LoadBinALoad(BinOp::Sub, 2),
                Instr::Pop,
                Instr::ConstBinALoad(BinOp::Mul, 1),
                Instr::Return,
            ]
        );
    }

    #[test]
    fn residual_tier_builds_the_loop_increment() {
        // `i = i + 1; continue`: loadconst and binstore in round 1, their
        // merge in round 2, the back-edge jump in round 3.
        let code = vec![
            Instr::Load(0),
            Instr::Const(1),
            Instr::Add,
            Instr::Store(0),
            Instr::Jump(0),
        ];
        assert_eq!(
            run(code),
            vec![Instr::LoadConstBinStoreJump(BinOp::Add, 0, 1, 0, 0)]
        );
        // A plain statement keeps the four-component form ...
        let statement = vec![
            Instr::Load(0),
            Instr::Const(3),
            Instr::Mul,
            Instr::Store(1),
            Instr::Return,
        ];
        assert_eq!(
            run(statement),
            vec![Instr::LoadConstBinStore(BinOp::Mul, 0, 3, 1), Instr::Return]
        );
        // ... and so does a back-edge whose constant does not fit in i32.
        let wide = 1i64 << 40;
        let code = vec![
            Instr::Load(0),
            Instr::Const(wide),
            Instr::Sub,
            Instr::Store(0),
            Instr::Jump(0),
        ];
        assert_eq!(
            run(code),
            vec![
                Instr::LoadConstBinStore(BinOp::Sub, 0, wide, 0),
                Instr::Jump(0)
            ]
        );
    }

    #[test]
    fn generic_div_keeps_its_own_pc() {
        // `i = i / 2; continue`: no residual form takes the divide, so a
        // divide-by-zero trap still reports the div's own pc.
        let code = vec![
            Instr::Load(0),
            Instr::Const(2),
            Instr::Div,
            Instr::Store(0),
            Instr::Jump(0),
        ];
        assert_eq!(
            run(code),
            vec![Instr::LoadConst(0, 2), Instr::Div, Instr::StoreJump(0, 0)]
        );
    }

    /// The pass as it was before the in-place rewrite, kept as an oracle:
    /// every round recomputes leaders on freshly compacted code.
    fn reference(code: &[Instr]) -> Vec<Instr> {
        let mut code = code.to_vec();
        loop {
            let is_leader = crate::passes::leaders(&code);
            let mut out = code.clone();
            let mut keep = vec![true; code.len()];
            let mut changed = false;
            let mut pc = 0;
            while pc + 1 < code.len() {
                if is_leader[pc + 1] || code[pc].is_branch() || code[pc].is_terminator() {
                    pc += 1;
                    continue;
                }
                if let Some(fused) = fuse_pair(code[pc], code[pc + 1]) {
                    out[pc] = fused;
                    keep[pc + 1] = false;
                    changed = true;
                    pc += 2;
                } else {
                    pc += 1;
                }
            }
            if !changed {
                return code;
            }
            code = crate::util::compact(&out, &keep);
        }
    }

    #[test]
    fn in_place_rounds_match_the_compacting_reference() {
        // Random straight-line soup with branches into it: every pair
        // rule, leaders in awkward places, and chains that take three
        // rounds to close.
        let mut state: u64 = 0x5eed;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut deepest = 0;
        for _ in 0..4000 {
            let len = 1 + next(40) as usize;
            let code: Vec<Instr> = (0..len)
                .map(|_| {
                    let local = next(3) as u16;
                    let target = next(len as u64) as u32;
                    match next(22) {
                        0..=4 => Instr::Load(local),
                        5 => Instr::Store(local),
                        6 => Instr::Const(if next(4) == 0 { 1 << 40 } else { 1 }),
                        7 => Instr::Add,
                        8 => Instr::Sub,
                        9 => Instr::Mul,
                        10 => Instr::Div,
                        11 => Instr::IAdd,
                        12 => Instr::BitAnd,
                        13 => Instr::CmpLt,
                        14 => Instr::ICmpGe,
                        15 => Instr::ALoad,
                        16 => Instr::JumpIf(target),
                        17 => Instr::JumpIfNot(target),
                        18 => Instr::Jump(target),
                        19 => Instr::Return,
                        20 => Instr::Pop,
                        _ => Instr::FCmpLt,
                    }
                })
                .collect();
            let fused = run(code.clone());
            assert_eq!(fused, reference(&code), "{code:?}");
            // Fused code is a fixpoint: fusing it again changes nothing.
            assert_eq!(run(fused.clone()), fused, "{code:?}");
            deepest = fused
                .iter()
                .map(Instr::component_count)
                .fold(deepest, u64::max);
        }
        assert_eq!(deepest, 5, "the soup never closed a five-component chain");
    }
}
