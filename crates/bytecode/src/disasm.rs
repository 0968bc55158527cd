//! Disassembler: renders programs in the textual assembly format accepted
//! by [`crate::asm::parse`], so `parse(disassemble(p)) == p` up to label
//! naming.

use std::fmt::Write as _;

use crate::instr::Instr;
use crate::program::{FuncId, Function, Program};

/// Render a whole program as assembly text.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for (i, f) in program.functions().iter().enumerate() {
        let id = FuncId(i as u32);
        if id == program.entry() {
            out.push_str("entry ");
        }
        disassemble_function(program, f, &mut out);
        out.push('\n');
    }
    out
}

/// Render a single function.
pub fn disassemble_function(program: &Program, f: &Function, out: &mut String) {
    let _ = writeln!(out, "func {}/{} locals={} {{", f.name, f.arity, f.locals);
    // Collect branch targets so we can emit labels.
    let mut targets: Vec<u32> = f.code.iter().filter_map(Instr::branch_target).collect();
    targets.sort_unstable();
    targets.dedup();
    let label_of = |pc: u32| -> Option<usize> { targets.binary_search(&pc).ok() };
    for (pc, instr) in f.code.iter().enumerate() {
        if let Some(l) = label_of(pc as u32) {
            let _ = writeln!(out, "L{l}:");
        }
        let _ = write!(out, "  ");
        let _ = writeln!(out, "{}", render(program, instr, &label_of));
    }
    // A label may point one past the last instruction only in malformed
    // code; the verifier rejects that, so we do not render it.
    out.push_str("}\n");
}

fn render(program: &Program, instr: &Instr, label_of: &dyn Fn(u32) -> Option<usize>) -> String {
    let lbl = |t: u32| match label_of(t) {
        Some(l) => format!("L{l}"),
        None => format!("@{t}"),
    };
    match instr {
        Instr::Const(v) => format!("const {v}"),
        Instr::FConst(v) => {
            // Keep a decimal point so the assembler can distinguish floats.
            if v.fract() == 0.0 && v.is_finite() {
                format!("fconst {v:.1}")
            } else {
                format!("fconst {v}")
            }
        }
        Instr::Null => "null".into(),
        Instr::Load(n) => format!("load {n}"),
        Instr::Store(n) => format!("store {n}"),
        Instr::Dup => "dup".into(),
        Instr::Pop => "pop".into(),
        Instr::Swap => "swap".into(),
        Instr::Add => "add".into(),
        Instr::Sub => "sub".into(),
        Instr::Mul => "mul".into(),
        Instr::Div => "div".into(),
        Instr::Rem => "rem".into(),
        Instr::Neg => "neg".into(),
        Instr::IAdd => "iadd".into(),
        Instr::ISub => "isub".into(),
        Instr::IMul => "imul".into(),
        Instr::IDiv => "idiv".into(),
        Instr::IRem => "irem".into(),
        Instr::INeg => "ineg".into(),
        Instr::FAdd => "fadd".into(),
        Instr::FSub => "fsub".into(),
        Instr::FMul => "fmul".into(),
        Instr::FDiv => "fdiv".into(),
        Instr::FNeg => "fneg".into(),
        Instr::Shl => "shl".into(),
        Instr::Shr => "shr".into(),
        Instr::BitAnd => "band".into(),
        Instr::BitOr => "bor".into(),
        Instr::BitXor => "bxor".into(),
        Instr::CmpEq => "cmpeq".into(),
        Instr::CmpNe => "cmpne".into(),
        Instr::CmpLt => "cmplt".into(),
        Instr::CmpLe => "cmple".into(),
        Instr::CmpGt => "cmpgt".into(),
        Instr::CmpGe => "cmpge".into(),
        Instr::ICmpEq => "icmpeq".into(),
        Instr::ICmpNe => "icmpne".into(),
        Instr::ICmpLt => "icmplt".into(),
        Instr::ICmpLe => "icmple".into(),
        Instr::ICmpGt => "icmpgt".into(),
        Instr::ICmpGe => "icmpge".into(),
        Instr::FCmpEq => "fcmpeq".into(),
        Instr::FCmpNe => "fcmpne".into(),
        Instr::FCmpLt => "fcmplt".into(),
        Instr::FCmpLe => "fcmple".into(),
        Instr::FCmpGt => "fcmpgt".into(),
        Instr::FCmpGe => "fcmpge".into(),
        Instr::ToFloat => "tofloat".into(),
        Instr::ToInt => "toint".into(),
        Instr::Jump(t) => format!("jump {}", lbl(*t)),
        Instr::JumpIf(t) => format!("jumpif {}", lbl(*t)),
        Instr::JumpIfNot(t) => format!("jumpifnot {}", lbl(*t)),
        Instr::Call(id) => format!("call {}", program.function(*id).name),
        Instr::Return => "return".into(),
        Instr::NewArray => "newarray".into(),
        Instr::ALoad => "aload".into(),
        Instr::AStore => "astore".into(),
        Instr::ALen => "alen".into(),
        Instr::Math(m) => format!("math {m}"),
        Instr::Print => "print".into(),
        Instr::Publish(s) => format!("publish {:?}", program.string(*s)),
        Instr::Done => "done".into(),
        Instr::Nop => "nop".into(),
        Instr::LoadLoad(a, b) => format!("loadload {a} {b}"),
        Instr::LoadConst(n, v) => format!("loadconst {n} {v}"),
        Instr::StoreLoad(n, m) => format!("storeload {n} {m}"),
        Instr::StoreJump(n, t) => format!("storejump {n} {}", lbl(*t)),
        Instr::ConstIBin(op, v) => format!("constibin {} {v}", op.name()),
        Instr::ConstBin(op, v) => format!("constbin {} {v}", op.name()),
        Instr::ConstBit(op, v) => format!("constbit {} {v}", op.name()),
        Instr::ConstICmp(op, v) => format!("consticmp {} {v}", op.name()),
        Instr::ICmpBr(op, t, when) => {
            format!("icmpbr {} {} {}", op.name(), when_name(*when), lbl(*t))
        }
        Instr::CmpBr(op, t, when) => {
            format!("cmpbr {} {} {}", op.name(), when_name(*when), lbl(*t))
        }
        Instr::ConstICmpBr(op, v, t, when) => format!(
            "consticmpbr {} {v} {} {}",
            op.name(),
            when_name(*when),
            lbl(*t)
        ),
        Instr::IBinStore(op, n) => format!("ibinstore {} {n}", op.name()),
        Instr::BinStore(op, n) => format!("binstore {} {n}", op.name()),
        Instr::BitStore(op, n) => format!("bitstore {} {n}", op.name()),
        Instr::LoadIBin(op, n) => format!("loadibin {} {n}", op.name()),
        Instr::LoadBin(op, n) => format!("loadbin {} {n}", op.name()),
        Instr::LoadALoad(n) => format!("loadaload {n}"),
        Instr::LoadLoadBin(op, a, b) => format!("loadloadbin {} {a} {b}", op.name()),
        Instr::LoadConstIBin(op, n, v) => format!("loadconstibin {} {n} {v}", op.name()),
        Instr::LoadLoadCmpBr(op, a, b, t, when) => {
            format!(
                "loadloadcmpbr {} {} {a} {b} {}",
                op.name(),
                when_name(*when),
                lbl(*t)
            )
        }
        Instr::ConstBitStoreLoad(op, v, n, m) => {
            format!("constbitstoreload {} {v} {n} {m}", op.name())
        }
        Instr::ConstIBinStoreJump(op, v, n, t) => {
            format!("constibinstorejump {} {v} {n} {}", op.name(), lbl(*t))
        }
        Instr::LoadCmpBr(op, n, t, when) => {
            format!(
                "loadcmpbr {} {} {n} {}",
                op.name(),
                when_name(*when),
                lbl(*t)
            )
        }
        Instr::BinStoreJump(op, n, t) => format!("binstorejump {} {n} {}", op.name(), lbl(*t)),
        Instr::LoadLoadALoad(a, b) => format!("loadloadaload {a} {b}"),
        Instr::LoadBinALoad(op, n) => format!("loadbinaload {} {n}", op.name()),
        Instr::ConstBinALoad(op, v) => format!("constbinaload {} {v}", op.name()),
        Instr::LoadConstBinStore(op, n, v, m) => {
            format!("loadconstbinstore {} {n} {v} {m}", op.name())
        }
        Instr::LoadLoadBinALoad(op, a, b, n) => {
            format!("loadloadbinaload {} {a} {b} {n}", op.name())
        }
        Instr::LoadLoadConstBinALoad(op, a, b, v) => {
            format!("loadloadconstbinaload {} {a} {b} {v}", op.name())
        }
        Instr::LoadConstBinStoreJump(op, n, v, m, t) => format!(
            "loadconstbinstorejump {} {n} {v} {m} {}",
            op.name(),
            lbl(*t)
        ),
    }
}

/// The branch-sense keyword of the fused compare-and-branch forms:
/// `if` branches when the compare is truthy (a fused `jumpif`), `ifnot`
/// when it is falsy.
fn when_name(when: bool) -> &'static str {
    if when {
        "if"
    } else {
        "ifnot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn renders_labels_and_calls() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main", 0);
        let helper = pb.declare("helper", 1);
        let mut h = pb.function(helper, 0);
        h.emit(Instr::Load(0));
        h.emit(Instr::Return);
        h.finish().unwrap();
        let mut f = pb.function(main, 0);
        let l = f.new_label();
        f.emit(Instr::Const(1));
        f.jump_if(l);
        f.emit(Instr::Const(5));
        f.emit(Instr::Call(helper));
        f.emit(Instr::Pop);
        f.bind(l);
        f.emit(Instr::Null);
        f.emit(Instr::Return);
        f.finish().unwrap();
        let p = pb.build(main).unwrap();
        let text = disassemble(&p);
        assert!(text.contains("entry func main/0"), "{text}");
        assert!(text.contains("jumpif L0"), "{text}");
        assert!(text.contains("call helper"), "{text}");
        assert!(text.contains("L0:"), "{text}");
    }

    #[test]
    fn float_constants_keep_a_decimal_point() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main", 0);
        let mut f = pb.function(main, 0);
        f.emit(Instr::FConst(2.0));
        f.emit(Instr::Return);
        f.finish().unwrap();
        let p = pb.build(main).unwrap();
        assert!(disassemble(&p).contains("fconst 2.0"));
    }
}
