//! Parser for the textual IR syntax produced by [`crate::print`].
//!
//! Parsing the printer's output reconstructs a structurally identical module
//! (instruction and block ids are reassigned densely, which is exactly how
//! the printer names them, so `print(parse(print(m))) == print(m)`).

use crate::module::{Function, Inst, Module};
use crate::opcode::{Cmp, Op};
use crate::types::Type;
use crate::value::{BlockId, InstId, Value};
use std::error::Error;
use std::fmt;

/// An error produced while parsing IR text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(char),
    Arrow,
}

struct Lexer {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            ';' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < bytes.len() && bytes[i] != '"' {
                    s.push(bytes[i]);
                    i += 1;
                }
                if i == bytes.len() {
                    return Err(ParseError {
                        line,
                        msg: "unterminated string".into(),
                    });
                }
                i += 1;
                toks.push((Tok::Str(s), line));
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == '>' => {
                toks.push((Tok::Arrow, line));
                i += 2;
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                // "-inf" after a '-' sign.
                if i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    let mut w = String::new();
                    while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                        w.push(bytes[i]);
                        i += 1;
                    }
                    if w == "inf" {
                        toks.push((Tok::Float(f64::NEG_INFINITY), line));
                        continue;
                    }
                    return Err(ParseError {
                        line,
                        msg: format!("bad numeric token -{w}"),
                    });
                }
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] {
                        '0'..='9' => i += 1,
                        '.' => {
                            is_float = true;
                            i += 1;
                        }
                        'e' | 'E' => {
                            is_float = true;
                            i += 1;
                            if i < bytes.len() && (bytes[i] == '-' || bytes[i] == '+') {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                if is_float {
                    let v: f64 = text.parse().map_err(|_| ParseError {
                        line,
                        msg: format!("bad float {text}"),
                    })?;
                    toks.push((Tok::Float(v), line));
                } else {
                    let v: i64 = text.parse().map_err(|_| ParseError {
                        line,
                        msg: format!("bad integer {text}"),
                    })?;
                    toks.push((Tok::Int(v), line));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '%' || c == '@' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == '.')
                {
                    i += 1;
                }
                toks.push((Tok::Ident(bytes[start..i].iter().collect()), line));
            }
            '(' | ')' | '{' | '}' | '[' | ']' | ',' | '=' | ':' | '<' | '>' => {
                toks.push((Tok::Punct(c), line));
                i += 1;
            }
            other => {
                return Err(ParseError {
                    line,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

impl Lexer {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        // Report the line of the most recently consumed token when one
        // exists; errors are usually raised just after consuming the
        // offending token.
        let idx = self
            .pos
            .saturating_sub(1)
            .min(self.toks.len().saturating_sub(1));
        self.toks.get(idx).map(|(_, l)| *l).unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.err(format!("expected {c:?}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

/// The deepest `ptr<…>` nesting [`parse_module`] accepts. The printer
/// emits a few levels; the bound keeps hostile text from recursing the
/// parser off the end of its stack.
pub const MAX_TYPE_DEPTH: usize = 1024;

fn parse_type(lx: &mut Lexer) -> Result<Type, ParseError> {
    parse_type_within(lx, MAX_TYPE_DEPTH)
}

/// A type with at most `levels` further `ptr<` levels.
fn parse_type_within(lx: &mut Lexer, levels: usize) -> Result<Type, ParseError> {
    let name = lx.expect_ident()?;
    match name.as_str() {
        "void" => Ok(Type::Void),
        "i1" => Ok(Type::I1),
        "i8" => Ok(Type::I8),
        "i32" => Ok(Type::I32),
        "i64" => Ok(Type::I64),
        "f64" => Ok(Type::F64),
        "ptr" if levels == 0 => Err(lx.err(format!(
            "type nested deeper than {MAX_TYPE_DEPTH} ptr levels"
        ))),
        "ptr" => {
            lx.expect_punct('<')?;
            let inner = parse_type_within(lx, levels - 1)?;
            lx.expect_punct('>')?;
            Ok(Type::ptr(inner))
        }
        other => Err(lx.err(format!("unknown type {other}"))),
    }
}

fn is_type_head(s: &str) -> bool {
    matches!(s, "void" | "i1" | "i8" | "i32" | "i64" | "f64" | "ptr")
}

fn parse_value(lx: &mut Lexer) -> Result<Value, ParseError> {
    match lx.peek().cloned() {
        Some(Tok::Ident(s)) if s.starts_with("%v") => {
            lx.next();
            let n: u32 = s[2..]
                .parse()
                .map_err(|_| lx.err(format!("bad value name {s}")))?;
            Ok(Value::Inst(InstId(n)))
        }
        Some(Tok::Ident(s)) if s.starts_with("%p") => {
            lx.next();
            let n: u32 = s[2..]
                .parse()
                .map_err(|_| lx.err(format!("bad parameter name {s}")))?;
            Ok(Value::Param(n))
        }
        Some(Tok::Ident(s)) if s == "undef" => {
            lx.next();
            let ty = parse_type(lx)?;
            Ok(Value::Undef(ty))
        }
        Some(Tok::Ident(s)) if is_type_head(&s) => {
            let ty = parse_type(lx)?;
            if ty == Type::F64 {
                match lx.next() {
                    Some(Tok::Float(v)) => Ok(Value::ConstFloat(v)),
                    Some(Tok::Int(v)) => Ok(Value::ConstFloat(v as f64)),
                    Some(Tok::Ident(s)) if s == "nan" => Ok(Value::ConstFloat(f64::NAN)),
                    Some(Tok::Ident(s)) if s == "inf" => Ok(Value::ConstFloat(f64::INFINITY)),
                    other => Err(lx.err(format!("expected float literal, found {other:?}"))),
                }
            } else {
                match lx.next() {
                    Some(Tok::Int(v)) => { let w = ty.wrap(v); Ok(Value::ConstInt(ty, w)) }
                    other => Err(lx.err(format!("expected integer literal, found {other:?}"))),
                }
            }
        }
        other => Err(lx.err(format!("expected value, found {other:?}"))),
    }
}

fn parse_block_ref(lx: &mut Lexer) -> Result<BlockId, ParseError> {
    let name = lx.expect_ident()?;
    if let Some(rest) = name.strip_prefix('b') {
        if let Ok(n) = rest.parse::<u32>() {
            return Ok(BlockId(n));
        }
    }
    Err(lx.err(format!("expected block label, found {name}")))
}

fn parse_inst(lx: &mut Lexer) -> Result<(Option<u32>, Inst), ParseError> {
    // Optional "%vN =" prefix, recorded so references can be resolved even
    // when the text's numbering differs from arena positions.
    let mut written_name = None;
    if matches!(lx.peek(), Some(Tok::Ident(s)) if s.starts_with("%v")) {
        if let Some(Tok::Ident(s)) = lx.next() {
            let n: u32 = s[2..]
                .parse()
                .map_err(|_| lx.err(format!("bad result name {s}")))?;
            written_name = Some(n);
        }
        lx.expect_punct('=')?;
    }
    let mnemonic = lx.expect_ident()?;
    let op = Op::from_name(&mnemonic).ok_or_else(|| lx.err(format!("unknown opcode {mnemonic}")))?;
    let mut inst = Inst::new(op, Type::Void, vec![]);
    match op {
        Op::Ret => {
            // "ret" with an optional value (value heads: %, undef, type).
            if matches!(lx.peek(), Some(Tok::Ident(s)) if s.starts_with('%') || s == "undef" || is_type_head(s))
            {
                inst.args.push(parse_value(lx)?);
            }
        }
        Op::Br => inst.blocks.push(parse_block_ref(lx)?),
        Op::CondBr => {
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            inst.blocks.push(parse_block_ref(lx)?);
            lx.expect_punct(',')?;
            inst.blocks.push(parse_block_ref(lx)?);
        }
        Op::Switch => {
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            if !lx.eat_keyword("default") {
                return Err(lx.err("expected 'default'"));
            }
            inst.blocks.push(parse_block_ref(lx)?);
            while lx.eat_punct(',') {
                lx.expect_punct('[')?;
                inst.args.push(parse_value(lx)?);
                match lx.next() {
                    Some(Tok::Arrow) => {}
                    other => return Err(lx.err(format!("expected '->', found {other:?}"))),
                }
                inst.blocks.push(parse_block_ref(lx)?);
                lx.expect_punct(']')?;
            }
        }
        Op::Unreachable => {}
        Op::Alloca => {
            let elem = parse_type(lx)?;
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
            inst.ty = Type::ptr(elem);
        }
        Op::Load => {
            inst.ty = parse_type(lx)?;
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
        }
        Op::Store => {
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
        }
        Op::Gep => {
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
            inst.ty = Type::Void; // fixed up below: same as pointer operand
        }
        Op::Phi => {
            inst.ty = parse_type(lx)?;
            loop {
                lx.expect_punct('[')?;
                inst.args.push(parse_value(lx)?);
                lx.expect_punct(',')?;
                inst.blocks.push(parse_block_ref(lx)?);
                lx.expect_punct(']')?;
                if !lx.eat_punct(',') {
                    break;
                }
            }
        }
        Op::Call => {
            inst.ty = parse_type(lx)?;
            let callee = lx.expect_ident()?;
            let callee = callee
                .strip_prefix('@')
                .ok_or_else(|| lx.err("expected @callee"))?;
            inst.callee = Some(callee.to_string());
            lx.expect_punct('(')?;
            if !lx.eat_punct(')') {
                loop {
                    inst.args.push(parse_value(lx)?);
                    if lx.eat_punct(')') {
                        break;
                    }
                    lx.expect_punct(',')?;
                }
            }
        }
        Op::ICmp | Op::FCmp => {
            let p = lx.expect_ident()?;
            inst.pred =
                Some(Cmp::from_name(&p).ok_or_else(|| lx.err(format!("unknown predicate {p}")))?);
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
            inst.ty = Type::I1;
        }
        Op::Select => {
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
        }
        op if op.is_cast() => {
            inst.args.push(parse_value(lx)?);
            if !lx.eat_keyword("to") {
                return Err(lx.err("expected 'to' in cast"));
            }
            inst.ty = parse_type(lx)?;
        }
        Op::FNeg => {
            inst.args.push(parse_value(lx)?);
            inst.ty = Type::F64;
        }
        op if op.is_int_binop() || op.is_float_binop() => {
            inst.ty = parse_type(lx)?;
            inst.args.push(parse_value(lx)?);
            lx.expect_punct(',')?;
            inst.args.push(parse_value(lx)?);
        }
        _ => {
            // Exotic opcodes: a comma-separated operand list.
            while matches!(lx.peek(), Some(Tok::Ident(s)) if s.starts_with('%') || s == "undef" || is_type_head(s))
            {
                inst.args.push(parse_value(lx)?);
                if !lx.eat_punct(',') {
                    break;
                }
            }
        }
    }
    Ok((written_name, inst))
}

fn parse_function(lx: &mut Lexer) -> Result<Function, ParseError> {
    let is_decl = if lx.eat_keyword("declare") {
        true
    } else if lx.eat_keyword("define") {
        false
    } else {
        return Err(lx.err("expected 'define' or 'declare'"));
    };
    let ret = parse_type(lx)?;
    let name = lx.expect_ident()?;
    let name = name
        .strip_prefix('@')
        .ok_or_else(|| lx.err("expected @name"))?
        .to_string();
    lx.expect_punct('(')?;
    let mut params = Vec::new();
    if !lx.eat_punct(')') {
        loop {
            params.push(parse_type(lx)?);
            // Optional parameter name.
            if matches!(lx.peek(), Some(Tok::Ident(s)) if s.starts_with("%p")) {
                lx.next();
            }
            if lx.eat_punct(')') {
                break;
            }
            lx.expect_punct(',')?;
        }
    }
    let mut func = Function::new(name, params, ret);
    if is_decl {
        return Ok(func);
    }
    lx.expect_punct('{')?;
    // Written result name -> positional arena id.
    let mut name_map: std::collections::HashMap<u32, InstId> = std::collections::HashMap::new();
    while !lx.eat_punct('}') {
        // A block label; labels must appear densely in order (b0, b1, …).
        let label = lx.expect_ident()?;
        if !label.starts_with('b') {
            return Err(lx.err(format!("expected block label, found {label}")));
        }
        let ln: u32 = label[1..]
            .parse()
            .map_err(|_| lx.err(format!("bad block label {label}")))?;
        if ln as usize != func.num_blocks() {
            return Err(lx.err(format!(
                "block labels must be dense and in order: found {label}, expected b{}",
                func.num_blocks()
            )));
        }
        lx.expect_punct(':')?;
        let b = func.add_block();
        // Instructions until the next label or '}'.
        loop {
            match lx.peek() {
                Some(Tok::Punct('}')) => break,
                Some(Tok::Ident(s))
                    if s.starts_with('b')
                        && s[1..].chars().all(|c| c.is_ascii_digit())
                        && !s[1..].is_empty()
                        && lx.toks.get(lx.pos + 1).map(|(t, _)| t) == Some(&Tok::Punct(':')) =>
                {
                    break
                }
                None => return Err(lx.err("unexpected end of input in function body")),
                _ => {
                    let (written, inst) = parse_inst(lx)?;
                    let id = func.push_inst(b, inst);
                    if let Some(n) = written {
                        name_map.insert(n, id);
                    }
                }
            }
        }
    }
    // Resolve written result names to positional ids.
    let ids: Vec<InstId> = func.iter_insts().map(|(_, i)| i).collect();
    for id in &ids {
        let nargs = func.inst(*id).args.len();
        for ai in 0..nargs {
            if let Value::Inst(written) = func.inst(*id).args[ai] {
                let resolved = *name_map.get(&written.0).ok_or_else(|| ParseError {
                    line: 0,
                    msg: format!("use of undefined value %v{} in @{}", written.0, func.name),
                })?;
                func.inst_mut(*id).args[ai] = Value::Inst(resolved);
            }
        }
    }
    // Fix up result types that the syntax leaves implicit: gep inherits
    // its pointer operand's type, select its arms' type.
    for id in ids {
        match func.inst(id).op {
            Op::Gep => {
                let ty = func.value_type(&func.inst(id).args[0]);
                func.inst_mut(id).ty = ty;
            }
            Op::Select => {
                let ty = func.value_type(&func.inst(id).args[1]);
                func.inst_mut(id).ty = ty;
            }
            _ => {}
        }
    }
    Ok(func)
}

/// Parses a module from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending line when the
/// text is not syntactically valid IR.
///
/// # Examples
///
/// ```
/// let text = "module \"m\"\n\ndefine i64 @id(i64 %p0) {\nb0:\n  ret %p0\n}\n";
/// let m = yali_ir::parse_module(text)?;
/// assert_eq!(m.functions.len(), 1);
/// # Ok::<(), yali_ir::ParseError>(())
/// ```
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut lx = Lexer { toks, pos: 0 };
    if !lx.eat_keyword("module") {
        return Err(lx.err("expected 'module'"));
    }
    let name = match lx.next() {
        Some(Tok::Str(s)) => s,
        other => return Err(lx.err(format!("expected module name string, found {other:?}"))),
    };
    let mut m = Module::new(name);
    while lx.peek().is_some() {
        m.functions.push(parse_function(&mut lx)?);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::print_module;

    const SAMPLE: &str = r#"module "demo"

declare void @print_int(i64)

define i64 @abs(i64 %p0) {
b0:
  %v0 = icmp slt %p0, i64 0
  condbr %v0, b1, b2
b1:
  %v1 = sub i64 i64 0, %p0
  br b2
b2:
  %v2 = phi i64 [%p0, b0], [%v1, b1]
  call void @print_int(%v2)
  ret %v2
}
"#;

    #[test]
    fn parses_the_sample() {
        let m = parse_module(SAMPLE).unwrap();
        assert_eq!(m.functions.len(), 2);
        let abs = m.function("abs").unwrap();
        assert_eq!(abs.num_blocks(), 3);
        // icmp, condbr, sub, br, phi, call, ret
        assert_eq!(abs.num_insts(), 7);
    }

    #[test]
    fn print_parse_print_is_identity() {
        let m = parse_module(SAMPLE).unwrap();
        let once = print_module(&m);
        let twice = print_module(&parse_module(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn reports_unknown_opcode() {
        let bad = "module \"m\"\ndefine void @f() {\nb0:\n  frobnicate\n}\n";
        let err = parse_module(bad).unwrap_err();
        assert!(err.msg.contains("unknown opcode"), "{err}");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn parses_switch_syntax() {
        let text = "module \"m\"\n\ndefine void @s(i32 %p0) {\nb0:\n  switch %p0, default b1, [i32 1 -> b2], [i32 9 -> b1]\nb1:\n  ret\nb2:\n  ret\n}\n";
        let m = parse_module(text).unwrap();
        let f = m.function("s").unwrap();
        let t = f.terminator(f.entry()).unwrap();
        assert_eq!(f.inst(t).op, Op::Switch);
        assert_eq!(f.inst(t).blocks.len(), 3);
        let out = print_module(&m);
        assert_eq!(out, print_module(&parse_module(&out).unwrap()));
    }

    #[test]
    fn parses_float_constants() {
        let text =
            "module \"m\"\n\ndefine f64 @c() {\nb0:\n  %v0 = fadd f64 f64 1.5, f64 -inf\n  ret %v0\n}\n";
        let m = parse_module(text).unwrap();
        let f = m.function("c").unwrap();
        let (_, id) = f.iter_insts().next().unwrap();
        assert_eq!(f.inst(id).args[0], Value::ConstFloat(1.5));
        assert_eq!(f.inst(id).args[1], Value::ConstFloat(f64::NEG_INFINITY));
    }

    #[test]
    fn parses_memory_ops() {
        let text = "module \"m\"\n\ndefine i32 @mem() {\nb0:\n  %v0 = alloca i32, i64 4\n  %v1 = gep %v0, i64 2\n  store i32 7, %v1\n  %v3 = load i32, %v1\n  ret %v3\n}\n";
        let m = parse_module(text).unwrap();
        let f = m.function("mem").unwrap();
        assert_eq!(f.num_insts(), 5);
        let gep = InstId(1);
        assert_eq!(f.inst(gep).ty, Type::ptr(Type::I32));
        let out = print_module(&m);
        assert_eq!(out, print_module(&parse_module(&out).unwrap()));
    }

    #[test]
    fn type_nesting_is_bounded() {
        let declare = |levels: usize| {
            format!(
                "module \"m\"\n\ndeclare void @f({}i64{})\n",
                "ptr<".repeat(levels),
                ">".repeat(levels)
            )
        };
        // A small stack, as on a serving thread: the unbounded parser
        // overflowed it at 100,000 levels.
        let results = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                (
                    parse_module(&declare(100_000)).map(|_| ()),
                    parse_module(&declare(MAX_TYPE_DEPTH + 1)).map(|_| ()),
                    parse_module(&declare(MAX_TYPE_DEPTH)).map(|_| ()),
                )
            })
            .unwrap()
            .join()
            .expect("deep types must not overflow the stack");
        let (deep, over, at) = results;
        for err in [deep.unwrap_err(), over.unwrap_err()] {
            assert!(err.msg.contains(&MAX_TYPE_DEPTH.to_string()), "{err}");
        }
        at.expect("the limit itself parses");
    }
}
