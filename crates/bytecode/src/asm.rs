//! Textual assembler for the bytecode.
//!
//! The format mirrors the disassembler's output:
//!
//! ```text
//! entry func main/0 locals=2 {
//!   const 0
//!   store 0
//! top:
//!   load 0
//!   const 10
//!   icmpge
//!   jumpif end
//!   load 0
//!   call helper
//!   print
//!   load 0
//!   const 1
//!   iadd
//!   store 0
//!   jump top
//! end:
//!   null
//!   return
//! }
//!
//! func helper/1 locals=1 {
//!   load 0
//!   const 2
//!   imul
//!   return
//! }
//! ```
//!
//! - Exactly one function must be marked `entry` (arity 0).
//! - Labels are identifiers followed by `:` on their own line.
//! - `call` takes a function name; forward references are allowed.
//! - `publish` takes a double-quoted string.
//! - `#` starts a line comment.

use std::collections::HashMap;

use crate::builder::ProgramBuilder;
use crate::instr::{Instr, MathFn};
use crate::program::{FuncId, Function, Program};
use crate::scalar::{BinOp, BitOp, CmpOp};
use crate::BytecodeError;

/// Parse assembly text into a verified-shape [`Program`].
///
/// # Errors
///
/// Returns [`BytecodeError::Parse`] on malformed text, and the builder's
/// errors for duplicate/missing functions or a bad entry.
pub fn parse(text: &str) -> Result<Program, BytecodeError> {
    let mut pb = ProgramBuilder::new();
    // Pass 1: declare all functions so calls can forward-reference.
    let mut headers = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if let Some(rest) = header_of(line) {
            let (name, arity, locals) = parse_header(rest, lineno + 1)?;
            let id = pb.declare(&name, arity);
            headers.push((id, locals, line.starts_with("entry ")));
        }
    }
    if headers.is_empty() {
        return Err(BytecodeError::Parse {
            line: 0,
            message: "no functions found".into(),
        });
    }
    let entry_count = headers.iter().filter(|(_, _, e)| *e).count();
    if entry_count != 1 {
        return Err(BytecodeError::Parse {
            line: 0,
            message: format!("expected exactly one `entry` function, found {entry_count}"),
        });
    }

    // Pass 2: parse bodies.
    let mut lines = text.lines().enumerate().peekable();
    let mut func_idx = 0usize;
    let mut entry = None;
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if header_of(line).is_none() {
            if !line.is_empty() {
                return Err(BytecodeError::Parse {
                    line: lineno + 1,
                    message: format!("expected function header, found `{line}`"),
                });
            }
            continue;
        }
        let (id, locals, is_entry) = headers[func_idx];
        func_idx += 1;
        if is_entry {
            entry = Some(id);
        }
        let (mut body, strings) = parse_body(&mut lines, &pb, id, locals)?;
        for (at, literal) in strings {
            body.code[at] = Instr::Publish(pb.intern(&literal));
        }
        pb.define(id, body)?;
    }
    let entry = entry.expect("checked above that exactly one entry exists");
    pb.build(entry)
}

fn strip_comment(line: &str) -> &str {
    // Don't cut inside string literals (publish "a#b").
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn header_of(line: &str) -> Option<&str> {
    line.strip_prefix("entry func ")
        .or_else(|| line.strip_prefix("func "))
}

fn parse_header(rest: &str, line: usize) -> Result<(String, u16, u16), BytecodeError> {
    let err = |message: String| BytecodeError::Parse { line, message };
    let rest = rest
        .strip_suffix('{')
        .ok_or_else(|| err("function header must end with `{`".into()))?
        .trim();
    let mut parts = rest.split_whitespace();
    let sig = parts
        .next()
        .ok_or_else(|| err("missing function signature".into()))?;
    let (name, arity) = sig
        .split_once('/')
        .ok_or_else(|| err(format!("signature `{sig}` must look like name/arity")))?;
    let arity: u16 = arity
        .parse()
        .map_err(|_| err(format!("bad arity in `{sig}`")))?;
    let mut locals = arity;
    if let Some(tok) = parts.next() {
        let v = tok
            .strip_prefix("locals=")
            .ok_or_else(|| err(format!("unexpected token `{tok}`")))?;
        locals = v
            .parse()
            .map_err(|_| err(format!("bad locals count `{v}`")))?;
        if locals < arity {
            return Err(err(format!("locals={locals} smaller than arity {arity}")));
        }
    }
    Ok((name.to_owned(), arity, locals))
}

/// Parses one function body. Returns the function plus the `publish`
/// string literals to intern, as `(code index, literal)` pairs — interning
/// needs `&mut ProgramBuilder`, which the caller holds.
fn parse_body<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = (usize, &'a str)>>,
    pb: &ProgramBuilder,
    id: FuncId,
    locals: u16,
) -> Result<(Function, Vec<(usize, String)>), BytecodeError> {
    let mut code: Vec<Instr> = Vec::new();
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut fixups: Vec<(usize, String, usize)> = Vec::new();
    let mut strings: Vec<(usize, String)> = Vec::new(); // (code index, literal)
    let mut closed = false;
    for (lineno, raw) in lines.by_ref() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            closed = true;
            break;
        }
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if labels.insert(label.to_owned(), code.len() as u32).is_some() {
                return Err(BytecodeError::Parse {
                    line: lineno + 1,
                    message: format!("label `{label}` bound twice"),
                });
            }
            continue;
        }
        let instr = parse_instr(line, lineno + 1, pb, &mut fixups, &mut strings, code.len())?;
        code.push(instr);
    }
    if !closed {
        return Err(BytecodeError::Parse {
            line: 0,
            message: format!("function `{}` not closed with `}}`", pb.name_of(id)),
        });
    }
    for (at, label, lineno) in fixups {
        let target = *labels.get(&label).ok_or_else(|| BytecodeError::Parse {
            line: lineno,
            message: format!("unknown label `{label}`"),
        })?;
        code[at] = code[at].with_branch_target(target);
    }
    Ok((
        Function {
            name: pb.name_of(id),
            arity: pb.arity(id),
            locals,
            code,
        },
        strings,
    ))
}

fn parse_instr(
    line: &str,
    lineno: usize,
    pb: &ProgramBuilder,
    fixups: &mut Vec<(usize, String, usize)>,
    strings: &mut Vec<(usize, String)>,
    at: usize,
) -> Result<Instr, BytecodeError> {
    let err = |message: String| BytecodeError::Parse {
        line: lineno,
        message,
    };
    let (op, arg) = match line.split_once(char::is_whitespace) {
        Some((op, rest)) => (op, rest.trim()),
        None => (line, ""),
    };
    let need_u16 = |arg: &str| -> Result<u16, BytecodeError> {
        arg.parse()
            .map_err(|_| err(format!("`{op}` needs a small integer, got `{arg}`")))
    };
    let simple = |i: Instr| -> Result<Instr, BytecodeError> {
        if arg.is_empty() {
            Ok(i)
        } else {
            Err(err(format!("`{op}` takes no operand")))
        }
    };
    match op {
        "const" => arg
            .parse::<i64>()
            .map(Instr::Const)
            .map_err(|_| err(format!("bad integer `{arg}`"))),
        "fconst" => arg
            .parse::<f64>()
            .map(Instr::FConst)
            .map_err(|_| err(format!("bad float `{arg}`"))),
        "null" => simple(Instr::Null),
        "load" => Ok(Instr::Load(need_u16(arg)?)),
        "store" => Ok(Instr::Store(need_u16(arg)?)),
        "dup" => simple(Instr::Dup),
        "pop" => simple(Instr::Pop),
        "swap" => simple(Instr::Swap),
        "add" => simple(Instr::Add),
        "sub" => simple(Instr::Sub),
        "mul" => simple(Instr::Mul),
        "div" => simple(Instr::Div),
        "rem" => simple(Instr::Rem),
        "neg" => simple(Instr::Neg),
        "iadd" => simple(Instr::IAdd),
        "isub" => simple(Instr::ISub),
        "imul" => simple(Instr::IMul),
        "idiv" => simple(Instr::IDiv),
        "irem" => simple(Instr::IRem),
        "ineg" => simple(Instr::INeg),
        "fadd" => simple(Instr::FAdd),
        "fsub" => simple(Instr::FSub),
        "fmul" => simple(Instr::FMul),
        "fdiv" => simple(Instr::FDiv),
        "fneg" => simple(Instr::FNeg),
        "shl" => simple(Instr::Shl),
        "shr" => simple(Instr::Shr),
        "band" => simple(Instr::BitAnd),
        "bor" => simple(Instr::BitOr),
        "bxor" => simple(Instr::BitXor),
        "cmpeq" => simple(Instr::CmpEq),
        "cmpne" => simple(Instr::CmpNe),
        "cmplt" => simple(Instr::CmpLt),
        "cmple" => simple(Instr::CmpLe),
        "cmpgt" => simple(Instr::CmpGt),
        "cmpge" => simple(Instr::CmpGe),
        "icmpeq" => simple(Instr::ICmpEq),
        "icmpne" => simple(Instr::ICmpNe),
        "icmplt" => simple(Instr::ICmpLt),
        "icmple" => simple(Instr::ICmpLe),
        "icmpgt" => simple(Instr::ICmpGt),
        "icmpge" => simple(Instr::ICmpGe),
        "fcmpeq" => simple(Instr::FCmpEq),
        "fcmpne" => simple(Instr::FCmpNe),
        "fcmplt" => simple(Instr::FCmpLt),
        "fcmple" => simple(Instr::FCmpLe),
        "fcmpgt" => simple(Instr::FCmpGt),
        "fcmpge" => simple(Instr::FCmpGe),
        "tofloat" => simple(Instr::ToFloat),
        "toint" => simple(Instr::ToInt),
        "jump" | "jumpif" | "jumpifnot" => {
            if arg.is_empty() {
                return Err(err(format!("`{op}` needs a label")));
            }
            fixups.push((at, arg.to_owned(), lineno));
            Ok(match op {
                "jump" => Instr::Jump(u32::MAX),
                "jumpif" => Instr::JumpIf(u32::MAX),
                _ => Instr::JumpIfNot(u32::MAX),
            })
        }
        "call" => {
            let id = pb
                .find(arg)
                .ok_or_else(|| err(format!("unknown function `{arg}`")))?;
            Ok(Instr::Call(id))
        }
        "return" => simple(Instr::Return),
        "newarray" => simple(Instr::NewArray),
        "aload" => simple(Instr::ALoad),
        "astore" => simple(Instr::AStore),
        "alen" => simple(Instr::ALen),
        "math" => MathFn::from_mnemonic(arg)
            .map(Instr::Math)
            .ok_or_else(|| err(format!("unknown math intrinsic `{arg}`"))),
        "print" => simple(Instr::Print),
        "publish" => {
            let lit = arg
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| err("`publish` needs a quoted string".into()))?;
            strings.push((at, lit.to_owned()));
            // Sentinel; `parse` interns the literal and patches the id.
            Ok(Instr::Publish(crate::program::StrId(u32::MAX)))
        }
        "done" => simple(Instr::Done),
        "nop" => simple(Instr::Nop),

        // Fused superinstructions, in the disassembler's syntax: branch
        // targets are labels, operators and the `if`/`ifnot` branch sense
        // are keywords.
        "loadload" | "storeload" => {
            let [a, b] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let (a, b) = (need_u16(a)?, need_u16(b)?);
            Ok(match op {
                "loadload" => Instr::LoadLoad(a, b),
                _ => Instr::StoreLoad(a, b),
            })
        }
        "loadconst" => {
            let [n, v] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            Ok(Instr::LoadConst(need_u16(n)?, need_i64(v, lineno)?))
        }
        "storejump" => {
            let [n, label] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            fixups.push((at, label.to_owned(), lineno));
            Ok(Instr::StoreJump(need_u16(n)?, u32::MAX))
        }
        "constibin" | "constbin" => {
            let [o, v] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let v = need_i64(v, lineno)?;
            Ok(match op {
                "constibin" => Instr::ConstIBin(o, v),
                _ => Instr::ConstBin(o, v),
            })
        }
        "constbit" => {
            let [o, v] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BitOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::ConstBit(o, need_i64(v, lineno)?))
        }
        "consticmp" => {
            let [o, v] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let o = CmpOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::ConstICmp(o, need_i64(v, lineno)?))
        }
        "icmpbr" | "cmpbr" => {
            let [o, when, label] = toks(arg, 3, op, lineno)?[..] else {
                unreachable!()
            };
            let o = CmpOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let when = need_when(when, lineno)?;
            fixups.push((at, label.to_owned(), lineno));
            Ok(match op {
                "icmpbr" => Instr::ICmpBr(o, u32::MAX, when),
                _ => Instr::CmpBr(o, u32::MAX, when),
            })
        }
        "consticmpbr" => {
            let [o, v, when, label] = toks(arg, 4, op, lineno)?[..] else {
                unreachable!()
            };
            let o = CmpOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let v = need_i64(v, lineno)?;
            let when = need_when(when, lineno)?;
            fixups.push((at, label.to_owned(), lineno));
            Ok(Instr::ConstICmpBr(o, v, u32::MAX, when))
        }
        "ibinstore" | "binstore" | "loadibin" | "loadbin" => {
            let [o, n] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let n = need_u16(n)?;
            Ok(match op {
                "ibinstore" => Instr::IBinStore(o, n),
                "binstore" => Instr::BinStore(o, n),
                "loadibin" => Instr::LoadIBin(o, n),
                _ => Instr::LoadBin(o, n),
            })
        }
        "bitstore" => {
            let [o, n] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BitOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::BitStore(o, need_u16(n)?))
        }
        "loadaload" => Ok(Instr::LoadALoad(need_u16(arg)?)),
        "loadloadbin" => {
            let [o, a, b] = toks(arg, 3, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::LoadLoadBin(o, need_u16(a)?, need_u16(b)?))
        }
        "loadconstibin" => {
            let [o, n, v] = toks(arg, 3, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::LoadConstIBin(o, need_u16(n)?, need_i64(v, lineno)?))
        }
        "loadloadcmpbr" => {
            let [o, when, a, b, label] = toks(arg, 5, op, lineno)?[..] else {
                unreachable!()
            };
            let o = CmpOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let when = need_when(when, lineno)?;
            let (a, b) = (need_u16(a)?, need_u16(b)?);
            fixups.push((at, label.to_owned(), lineno));
            Ok(Instr::LoadLoadCmpBr(o, a, b, u32::MAX, when))
        }
        "constbitstoreload" => {
            let [o, v, n, m] = toks(arg, 4, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BitOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let v = need_i64(v, lineno)?;
            Ok(Instr::ConstBitStoreLoad(o, v, need_u16(n)?, need_u16(m)?))
        }
        "constibinstorejump" => {
            let [o, v, n, label] = toks(arg, 4, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let v = need_i64(v, lineno)?;
            let n = need_u16(n)?;
            fixups.push((at, label.to_owned(), lineno));
            Ok(Instr::ConstIBinStoreJump(o, v, n, u32::MAX))
        }
        "loadcmpbr" => {
            let [o, when, n, label] = toks(arg, 4, op, lineno)?[..] else {
                unreachable!()
            };
            let o = CmpOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let when = need_when(when, lineno)?;
            let n = need_u16(n)?;
            fixups.push((at, label.to_owned(), lineno));
            Ok(Instr::LoadCmpBr(o, n, u32::MAX, when))
        }
        "binstorejump" => {
            let [o, n, label] = toks(arg, 3, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let n = need_u16(n)?;
            fixups.push((at, label.to_owned(), lineno));
            Ok(Instr::BinStoreJump(o, n, u32::MAX))
        }
        "loadloadaload" => {
            let [a, b] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            Ok(Instr::LoadLoadALoad(need_u16(a)?, need_u16(b)?))
        }
        "loadbinaload" => {
            let [o, n] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::LoadBinALoad(o, need_u16(n)?))
        }
        "constbinaload" => {
            let [o, v] = toks(arg, 2, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::ConstBinALoad(o, need_i64(v, lineno)?))
        }
        "loadconstbinstore" => {
            let [o, n, v, m] = toks(arg, 4, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let v = need_i64(v, lineno)?;
            Ok(Instr::LoadConstBinStore(o, need_u16(n)?, v, need_u16(m)?))
        }
        "loadloadbinaload" => {
            let [o, a, b, n] = toks(arg, 4, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            Ok(Instr::LoadLoadBinALoad(
                o,
                need_u16(a)?,
                need_u16(b)?,
                need_u16(n)?,
            ))
        }
        "loadloadconstbinaload" => {
            let [o, a, b, v] = toks(arg, 4, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let v = need_i64(v, lineno)?;
            Ok(Instr::LoadLoadConstBinALoad(
                o,
                need_u16(a)?,
                need_u16(b)?,
                v,
            ))
        }
        "loadconstbinstorejump" => {
            let [o, n, v, m, label] = toks(arg, 5, op, lineno)?[..] else {
                unreachable!()
            };
            let o = BinOp::from_name(o).ok_or_else(|| err(format!("unknown operator `{o}`")))?;
            let v = i32::try_from(need_i64(v, lineno)?)
                .map_err(|_| err(format!("constant `{v}` does not fit in i32")))?;
            let (n, m) = (need_u16(n)?, need_u16(m)?);
            fixups.push((at, label.to_owned(), lineno));
            Ok(Instr::LoadConstBinStoreJump(o, n, v, m, u32::MAX))
        }
        other => Err(err(format!("unknown instruction `{other}`"))),
    }
}

/// Split `arg` into exactly `n` whitespace-separated tokens.
fn toks<'a>(arg: &'a str, n: usize, op: &str, line: usize) -> Result<Vec<&'a str>, BytecodeError> {
    let v: Vec<&str> = arg.split_whitespace().collect();
    if v.len() == n {
        Ok(v)
    } else {
        Err(BytecodeError::Parse {
            line,
            message: format!("`{op}` needs {n} operands, got {}", v.len()),
        })
    }
}

fn need_i64(arg: &str, line: usize) -> Result<i64, BytecodeError> {
    arg.parse().map_err(|_| BytecodeError::Parse {
        line,
        message: format!("bad integer `{arg}`"),
    })
}

/// Parse the branch sense of the fused compare-and-branch forms.
fn need_when(tok: &str, line: usize) -> Result<bool, BytecodeError> {
    match tok {
        "if" => Ok(true),
        "ifnot" => Ok(false),
        other => Err(BytecodeError::Parse {
            line,
            message: format!("expected `if` or `ifnot`, got `{other}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;

    const LOOPY: &str = r#"
entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 10
  icmpge
  jumpif end
  load 0
  call double
  print
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  null
  return
}

func double/1 {
  load 0
  const 2
  imul
  return
}
"#;

    #[test]
    fn parses_a_loop() {
        let p = parse(LOOPY).unwrap();
        assert_eq!(p.functions().len(), 2);
        let main = p.function(p.entry());
        assert_eq!(main.name, "main");
        assert_eq!(main.code[5], Instr::JumpIf(14));
        assert_eq!(main.code[13], Instr::Jump(2));
        let double = p.function(p.find("double").unwrap());
        assert_eq!(double.arity, 1);
        assert_eq!(double.locals, 1);
    }

    #[test]
    fn roundtrips_through_disassembler() {
        let p = parse(LOOPY).unwrap();
        let text = disassemble(&p);
        let p2 = parse(&text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let src = "
# a program
entry func main/0 {
  null   # push null
  return
}
";
        let p = parse(src).unwrap();
        assert_eq!(p.function(p.entry()).code.len(), 2);
    }

    #[test]
    fn publish_interns_strings() {
        let src =
            "entry func main/0 {\n  const 42\n  publish \"nodes\"\n  done\n  null\n  return\n}\n";
        let p = parse(src).unwrap();
        let main = p.function(p.entry());
        match main.code[1] {
            Instr::Publish(s) => assert_eq!(p.string(s), "nodes"),
            ref other => panic!("expected publish, got {other:?}"),
        }
        // Round-trips through the disassembler too.
        let p2 = parse(&disassemble(&p)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn fused_instructions_roundtrip() {
        let src = "
entry func main/0 locals=1 {
  const 0
  store 0
top:
  loadconst 0 10
  icmpbr ge if end
  loadload 0 0
  constibin mul 3
  constbit and 255
  consticmp lt 7
  pop
  constbin add 1
  storejump 0 top
end:
  load 0
  consticmpbr eq 0 ifnot other
  null
  return
other:
  null
  return
}
";
        let p = parse(src).unwrap();
        let main = p.function(p.entry());
        assert_eq!(main.code[2], Instr::LoadConst(0, 10));
        assert_eq!(
            main.code[3],
            Instr::ICmpBr(crate::scalar::CmpOp::Ge, 11, true)
        );
        assert_eq!(main.code[10], Instr::StoreJump(0, 2));
        assert_eq!(
            main.code[12],
            Instr::ConstICmpBr(crate::scalar::CmpOp::Eq, 0, 15, false)
        );
        let p2 = parse(&disassemble(&p)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn residual_fused_instructions_roundtrip() {
        let src = "
entry func main/0 locals=3 {
  const 0
  store 0
top:
  null
  loadcmpbr lt ifnot 0 end
  loadloadaload 1 0
  load 0
  loadbinaload sub 0
  pop
  load 1
  load 0
  constbinaload add 1
  pop
  loadloadbinaload add 1 0 2
  loadloadconstbinaload sub 1 0 -1
  pop
  pop
  loadconstbinstore mul 0 2 1
  null
  null
  binstorejump add 2 next
next:
  loadconstbinstorejump add 0 1 0 top
end:
  null
  return
}
";
        use crate::scalar::{BinOp, CmpOp};
        let p = parse(src).unwrap();
        crate::verify::verify(&p).unwrap();
        let main = p.function(p.entry());
        assert_eq!(main.code[3], Instr::LoadCmpBr(CmpOp::Lt, 0, 21, false));
        assert_eq!(main.code[4], Instr::LoadLoadALoad(1, 0));
        assert_eq!(main.code[6], Instr::LoadBinALoad(BinOp::Sub, 0));
        assert_eq!(main.code[10], Instr::ConstBinALoad(BinOp::Add, 1));
        assert_eq!(main.code[12], Instr::LoadLoadBinALoad(BinOp::Add, 1, 0, 2));
        assert_eq!(
            main.code[13],
            Instr::LoadLoadConstBinALoad(BinOp::Sub, 1, 0, -1)
        );
        assert_eq!(main.code[16], Instr::LoadConstBinStore(BinOp::Mul, 0, 2, 1));
        assert_eq!(main.code[19], Instr::BinStoreJump(BinOp::Add, 2, 20));
        assert_eq!(
            main.code[20],
            Instr::LoadConstBinStoreJump(BinOp::Add, 0, 1, 0, 2)
        );
        let p2 = parse(&disassemble(&p)).unwrap();
        assert_eq!(p, p2);
        // The back-edge form's constant is narrowed to i32.
        let wide = src.replace(
            "loadconstbinstorejump add 0 1",
            "loadconstbinstorejump add 0 4294967296",
        );
        assert!(parse(&wide).is_err());
    }

    #[test]
    fn error_on_unknown_instruction() {
        let src = "entry func main/0 {\n  frobnicate\n}\n";
        let e = parse(src).unwrap_err();
        assert!(matches!(e, BytecodeError::Parse { line: 2, .. }), "{e}");
    }

    #[test]
    fn error_on_unknown_label() {
        let src = "entry func main/0 {\n  jump nowhere\n}\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn error_on_missing_entry() {
        let src = "func main/0 {\n  null\n  return\n}\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn error_on_two_entries() {
        let src = "entry func a/0 {\n null\n return\n}\nentry func b/0 {\n null\n return\n}\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn error_on_locals_below_arity() {
        let src =
            "entry func main/0 {\n null\n return\n}\nfunc f/3 locals=1 {\n null\n return\n}\n";
        assert!(parse(src).is_err());
    }
}
