//! Lexer and recursive-descent parser for MiniC source text.
//!
//! The grammar is a compact subset of C. Compound assignments (`+=` …) and
//! postfix `++`/`--` in statement position are accepted as sugar and
//! desugared during parsing, mirroring how clang's AST would present them
//! to later passes.
//!
//! Source can come from outside the process (a `yali-serve` SCAN request),
//! and the parser, the type checker, the lowering and the AST's `Drop` all
//! recurse on the tree. The parser therefore refuses any program that
//! nests deeper than [`MAX_DEPTH`] with a [`SyntaxError`], so no input
//! can overflow a default thread stack.

use crate::ast::*;
use std::error::Error;
use std::fmt;

/// The deepest nesting the parser accepts: enclosing statements plus the
/// height of the expression tree, where every operator of a
/// left-associative chain such as `1 + 1 + 1` adds one level.
pub const MAX_DEPTH: usize = 256;

/// A syntax error with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// The offending line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error at line {}: {}", self.line, self.msg)
    }
}

impl Error for SyntaxError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Punct(&'static str),
}

const PUNCTS: &[&str] = &[
    "<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "+=", "-=", "*=", "/=", "%=",
    "++", "--", "&=", "|=", "^=", "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ":",
];

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, SyntaxError> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '/' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
            i += 2;
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                if chars[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 2).min(chars.len());
            continue;
        }
        if c.is_ascii_digit() || (c == '.' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit())
        {
            let start = i;
            let mut is_float = false;
            while i < chars.len() {
                match chars[i] {
                    '0'..='9' => i += 1,
                    '.' => {
                        is_float = true;
                        i += 1;
                    }
                    'e' | 'E' if i > start => {
                        is_float = true;
                        i += 1;
                        if i < chars.len() && (chars[i] == '+' || chars[i] == '-') {
                            i += 1;
                        }
                    }
                    _ => break,
                }
            }
            let text: String = chars[start..i].iter().collect();
            if is_float {
                let v = text.parse::<f64>().map_err(|_| SyntaxError {
                    line,
                    msg: format!("bad float literal {text}"),
                })?;
                toks.push((Tok::Float(v), line));
            } else {
                let v = text.parse::<i64>().map_err(|_| SyntaxError {
                    line,
                    msg: format!("bad integer literal {text}"),
                })?;
                toks.push((Tok::Int(v), line));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push((Tok::Ident(chars[start..i].iter().collect()), line));
            continue;
        }
        // Punctuation: longest match.
        let rest: String = chars[i..(i + 3).min(chars.len())].iter().collect();
        let mut matched = None;
        for p in PUNCTS {
            if rest.starts_with(p) {
                matched = Some(*p);
                break;
            }
        }
        match matched {
            Some(p) => {
                toks.push((Tok::Punct(p), line));
                i += p.len();
            }
            None => {
                return Err(SyntaxError {
                    line,
                    msg: format!("unexpected character {c:?}"),
                })
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Enclosing statements and unary/postfix expressions being parsed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        let idx = self.pos.min(self.toks.len().saturating_sub(1));
        self.toks.get(idx).map(|(_, l)| *l).unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> SyntaxError {
        SyntaxError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    /// Fails when `levels` more levels below the current nesting would
    /// pass [`MAX_DEPTH`].
    fn fits(&self, levels: usize) -> Result<(), SyntaxError> {
        if self.depth + levels > MAX_DEPTH {
            Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
        } else {
            Ok(())
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, p: &str) -> bool {
        if self.peek() == Some(&Tok::Punct(punct_of(p))) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, p: &str) -> Result<(), SyntaxError> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, SyntaxError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn peek_type(&self) -> Option<Ty> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == "int" => Some(Ty::Int),
            Some(Tok::Ident(s)) if s == "float" => Some(Ty::Float),
            Some(Tok::Ident(s)) if s == "void" => Some(Ty::Void),
            _ => None,
        }
    }

    fn parse_program(&mut self) -> Result<Program, SyntaxError> {
        let mut funcs = Vec::new();
        while self.peek().is_some() {
            funcs.push(self.parse_func()?);
        }
        Ok(Program { funcs })
    }

    fn parse_func(&mut self) -> Result<FuncDecl, SyntaxError> {
        let ret = self
            .peek_type()
            .ok_or_else(|| self.err("expected return type"))?;
        self.pos += 1;
        let name = self.expect_ident()?;
        self.expect("(")?;
        let mut params = Vec::new();
        if !self.eat(")") {
            loop {
                let mut ty = self
                    .peek_type()
                    .ok_or_else(|| self.err("expected parameter type"))?;
                if ty == Ty::Void {
                    return Err(self.err("void parameter"));
                }
                self.pos += 1;
                let pname = self.expect_ident()?;
                if self.eat("[") {
                    self.expect("]")?;
                    ty = match ty {
                        Ty::Int => Ty::IntArray,
                        Ty::Float => Ty::FloatArray,
                        _ => return Err(self.err("bad array parameter")),
                    };
                }
                params.push(Param { name: pname, ty });
                if self.eat(")") {
                    break;
                }
                self.expect(",")?;
            }
        }
        let body = self.parse_block()?;
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
        })
    }

    fn parse_block(&mut self) -> Result<Block, SyntaxError> {
        self.expect("{")?;
        let mut stmts = Vec::new();
        while !self.eat("}") {
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input in block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(Block::new(stmts))
    }

    /// A block, or a single statement treated as a one-statement block.
    fn parse_block_or_stmt(&mut self) -> Result<Block, SyntaxError> {
        if self.peek() == Some(&Tok::Punct("{")) {
            self.parse_block()
        } else {
            Ok(Block::new(vec![self.parse_stmt()?]))
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, SyntaxError> {
        self.fits(1)?;
        self.depth += 1;
        let stmt = self.parse_stmt_inner();
        self.depth -= 1;
        stmt
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, SyntaxError> {
        if let Some(ty) = self.peek_type() {
            if ty == Ty::Void {
                return Err(self.err("void declaration"));
            }
            self.pos += 1;
            let s = self.parse_decl_tail(ty)?;
            self.expect(";")?;
            return Ok(s);
        }
        if self.eat_kw("if") {
            self.expect("(")?;
            let cond = self.parse_expr()?;
            self.expect(")")?;
            let then_b = self.parse_block_or_stmt()?;
            let else_b = if self.eat_kw("else") {
                Some(self.parse_block_or_stmt()?)
            } else {
                None
            };
            return Ok(Stmt::If(cond, then_b, else_b));
        }
        if self.eat_kw("while") {
            self.expect("(")?;
            let cond = self.parse_expr()?;
            self.expect(")")?;
            let body = self.parse_block_or_stmt()?;
            return Ok(Stmt::While(cond, body));
        }
        if self.eat_kw("do") {
            let body = self.parse_block_or_stmt()?;
            if !self.eat_kw("while") {
                return Err(self.err("expected 'while' after do-body"));
            }
            self.expect("(")?;
            let cond = self.parse_expr()?;
            self.expect(")")?;
            self.expect(";")?;
            return Ok(Stmt::DoWhile(body, cond));
        }
        if self.eat_kw("for") {
            self.expect("(")?;
            let init = if self.eat(";") {
                None
            } else {
                let s = if let Some(ty) = self.peek_type() {
                    self.pos += 1;
                    self.parse_decl_tail(ty)?
                } else {
                    self.parse_assign_like()?
                };
                self.expect(";")?;
                Some(Box::new(s))
            };
            let cond = if self.eat(";") {
                None
            } else {
                let e = self.parse_expr()?;
                self.expect(";")?;
                Some(e)
            };
            let step = if self.eat(")") {
                None
            } else {
                let s = self.parse_assign_like()?;
                self.expect(")")?;
                Some(Box::new(s))
            };
            let body = self.parse_block_or_stmt()?;
            return Ok(Stmt::For(init, cond, step, body));
        }
        if self.eat_kw("switch") {
            self.expect("(")?;
            let scrutinee = self.parse_expr()?;
            self.expect(")")?;
            self.expect("{")?;
            let mut cases = Vec::new();
            let mut default = None;
            while !self.eat("}") {
                if self.eat_kw("case") {
                    let v = match self.next() {
                        Some(Tok::Int(v)) => v,
                        Some(Tok::Punct("-")) => match self.next() {
                            Some(Tok::Int(v)) => -v,
                            other => {
                                return Err(self.err(format!("bad case value {other:?}")))
                            }
                        },
                        other => return Err(self.err(format!("bad case value {other:?}"))),
                    };
                    self.expect(":")?;
                    let mut stmts = Vec::new();
                    while !matches!(self.peek(), Some(Tok::Ident(s)) if s == "case" || s == "default")
                        && self.peek() != Some(&Tok::Punct("}"))
                    {
                        stmts.push(self.parse_stmt()?);
                    }
                    // A trailing `break;` in a case is implicit in MiniC.
                    if stmts.last() == Some(&Stmt::Break) {
                        stmts.pop();
                    }
                    cases.push((v, Block::new(stmts)));
                } else if self.eat_kw("default") {
                    self.expect(":")?;
                    let mut stmts = Vec::new();
                    while !matches!(self.peek(), Some(Tok::Ident(s)) if s == "case" || s == "default")
                        && self.peek() != Some(&Tok::Punct("}"))
                    {
                        stmts.push(self.parse_stmt()?);
                    }
                    if stmts.last() == Some(&Stmt::Break) {
                        stmts.pop();
                    }
                    default = Some(Block::new(stmts));
                } else {
                    return Err(self.err("expected 'case' or 'default'"));
                }
            }
            return Ok(Stmt::Switch(scrutinee, cases, default));
        }
        if self.eat_kw("break") {
            self.expect(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_kw("continue") {
            self.expect(";")?;
            return Ok(Stmt::Continue);
        }
        if self.eat_kw("return") {
            if self.eat(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.parse_expr()?;
            self.expect(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.peek() == Some(&Tok::Punct("{")) {
            return Ok(Stmt::Block(self.parse_block()?));
        }
        let s = self.parse_assign_like()?;
        self.expect(";")?;
        Ok(s)
    }

    fn parse_decl_tail(&mut self, ty: Ty) -> Result<Stmt, SyntaxError> {
        let name = self.expect_ident()?;
        if self.eat("[") {
            let size = self.parse_expr()?;
            self.expect("]")?;
            return Ok(Stmt::DeclArray(name, ty, size));
        }
        let init = if self.eat("=") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::DeclScalar(name, ty, init))
    }

    /// Parses an assignment, compound assignment, `++`/`--`, or a bare call,
    /// as allowed in statement position and `for` clauses.
    fn parse_assign_like(&mut self) -> Result<Stmt, SyntaxError> {
        let name = match self.peek() {
            Some(Tok::Ident(s)) => s.clone(),
            other => return Err(self.err(format!("expected statement, found {other:?}"))),
        };
        // A bare call?
        if self.peek2() == Some(&Tok::Punct("(")) {
            let e = self.parse_expr()?;
            return Ok(Stmt::ExprStmt(e));
        }
        self.pos += 1;
        let lv = if self.eat("[") {
            let idx = self.parse_expr()?;
            self.expect("]")?;
            LValue::Index(name.clone(), idx)
        } else {
            LValue::Var(name.clone())
        };
        let lv_expr = match &lv {
            LValue::Var(n) => Expr::Var(n.clone()),
            LValue::Index(n, i) => Expr::Index(n.clone(), Box::new(i.clone())),
        };
        let compound = |op: BinOp, rhs: Expr| -> Stmt {
            Stmt::Assign(lv.clone(), Expr::bin(op, lv_expr.clone(), rhs))
        };
        match self.next() {
            Some(Tok::Punct("=")) => Ok(Stmt::Assign(lv, self.parse_expr()?)),
            Some(Tok::Punct("+=")) => Ok(compound(BinOp::Add, self.parse_expr()?)),
            Some(Tok::Punct("-=")) => Ok(compound(BinOp::Sub, self.parse_expr()?)),
            Some(Tok::Punct("*=")) => Ok(compound(BinOp::Mul, self.parse_expr()?)),
            Some(Tok::Punct("/=")) => Ok(compound(BinOp::Div, self.parse_expr()?)),
            Some(Tok::Punct("%=")) => Ok(compound(BinOp::Rem, self.parse_expr()?)),
            Some(Tok::Punct("&=")) => Ok(compound(BinOp::BitAnd, self.parse_expr()?)),
            Some(Tok::Punct("|=")) => Ok(compound(BinOp::BitOr, self.parse_expr()?)),
            Some(Tok::Punct("^=")) => Ok(compound(BinOp::BitXor, self.parse_expr()?)),
            Some(Tok::Punct("<<=")) => Ok(compound(BinOp::Shl, self.parse_expr()?)),
            Some(Tok::Punct(">>=")) => Ok(compound(BinOp::Shr, self.parse_expr()?)),
            Some(Tok::Punct("++")) => Ok(compound(BinOp::Add, Expr::Int(1))),
            Some(Tok::Punct("--")) => Ok(compound(BinOp::Sub, Expr::Int(1))),
            other => Err(self.err(format!("expected assignment operator, found {other:?}"))),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, SyntaxError> {
        Ok(self.parse_bin(0)?.0)
    }

    /// Precedence climbing. Returns the expression with its height (a
    /// leaf is 1), which a left-associative chain grows without
    /// recursing, so the depth limit is checked here per operator.
    fn parse_bin(&mut self, min_prec: u8) -> Result<(Expr, usize), SyntaxError> {
        let (mut lhs, mut height) = self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(Tok::Punct("||")) => (BinOp::Or, 1),
                Some(Tok::Punct("&&")) => (BinOp::And, 2),
                Some(Tok::Punct("|")) => (BinOp::BitOr, 3),
                Some(Tok::Punct("^")) => (BinOp::BitXor, 4),
                Some(Tok::Punct("&")) => (BinOp::BitAnd, 5),
                Some(Tok::Punct("==")) => (BinOp::Eq, 6),
                Some(Tok::Punct("!=")) => (BinOp::Ne, 6),
                Some(Tok::Punct("<")) => (BinOp::Lt, 7),
                Some(Tok::Punct("<=")) => (BinOp::Le, 7),
                Some(Tok::Punct(">")) => (BinOp::Gt, 7),
                Some(Tok::Punct(">=")) => (BinOp::Ge, 7),
                Some(Tok::Punct("<<")) => (BinOp::Shl, 8),
                Some(Tok::Punct(">>")) => (BinOp::Shr, 8),
                Some(Tok::Punct("+")) => (BinOp::Add, 9),
                Some(Tok::Punct("-")) => (BinOp::Sub, 9),
                Some(Tok::Punct("*")) => (BinOp::Mul, 10),
                Some(Tok::Punct("/")) => (BinOp::Div, 10),
                Some(Tok::Punct("%")) => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let (rhs, rhs_height) = self.parse_bin(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
            height = 1 + height.max(rhs_height);
            self.fits(height)?;
        }
        Ok((lhs, height))
    }

    /// A unary expression with its height, one nesting level deeper.
    fn parse_unary(&mut self) -> Result<(Expr, usize), SyntaxError> {
        self.fits(1)?;
        self.depth += 1;
        let expr = self.parse_unary_inner();
        self.depth -= 1;
        expr
    }

    fn parse_unary_inner(&mut self) -> Result<(Expr, usize), SyntaxError> {
        if self.eat("-") {
            // Fold negation of literals so `(-5)` and a constructed
            // `Expr::Int(-5)` are the same AST.
            return Ok(match self.parse_unary()? {
                (Expr::Int(v), h) => (Expr::Int(v.wrapping_neg()), h),
                (Expr::Float(v), h) => (Expr::Float(-v), h),
                (e, h) => (Expr::Unary(UnOp::Neg, Box::new(e)), h + 1),
            });
        }
        if self.eat("!") {
            let (e, h) = self.parse_unary()?;
            return Ok((Expr::Unary(UnOp::Not, Box::new(e)), h + 1));
        }
        if self.eat("~") {
            let (e, h) = self.parse_unary()?;
            return Ok((Expr::Unary(UnOp::BitNot, Box::new(e)), h + 1));
        }
        // Cast: "(" type ")" unary
        if self.peek() == Some(&Tok::Punct("(")) {
            let cast_ty = match self.peek2() {
                Some(Tok::Ident(s)) if s == "int" => Some(Ty::Int),
                Some(Tok::Ident(s)) if s == "float" => Some(Ty::Float),
                _ => None,
            };
            if let Some(ty) = cast_ty {
                if self.toks.get(self.pos + 2).map(|(t, _)| t) == Some(&Tok::Punct(")")) {
                    self.pos += 3;
                    let (e, h) = self.parse_unary()?;
                    return Ok((Expr::Cast(ty, Box::new(e)), h + 1));
                }
            }
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<(Expr, usize), SyntaxError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok((Expr::Int(v), 1)),
            Some(Tok::Float(v)) => Ok((Expr::Float(v), 1)),
            Some(Tok::Punct("(")) => {
                let e = self.parse_bin(0)?;
                self.expect(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.eat("(") {
                    let mut args = Vec::new();
                    let mut height = 0;
                    if !self.eat(")") {
                        loop {
                            let (arg, h) = self.parse_bin(0)?;
                            args.push(arg);
                            height = height.max(h);
                            if self.eat(")") {
                                break;
                            }
                            self.expect(",")?;
                        }
                    }
                    Ok((Expr::Call(name, args), height + 1))
                } else if self.eat("[") {
                    let (idx, h) = self.parse_bin(0)?;
                    self.expect("]")?;
                    Ok((Expr::Index(name, Box::new(idx)), h + 1))
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

fn punct_of(p: &str) -> &'static str {
    PUNCTS
        .iter()
        .find(|&&q| q == p)
        .copied()
        .unwrap_or_else(|| panic!("unknown punct {p}"))
}

/// Parses a MiniC program from source text.
///
/// # Errors
///
/// Returns a [`SyntaxError`] pointing at the first offending line, also
/// when the program nests deeper than [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// let src = "int twice(int x) { return x * 2; }";
/// let prog = yali_minic::parse(src)?;
/// assert_eq!(prog.funcs[0].name, "twice");
/// # Ok::<(), yali_minic::SyntaxError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, SyntaxError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_gcd() {
        let src = r#"
            int gcd(int a, int b) {
                while (b != 0) {
                    int t = a % b;
                    a = b;
                    b = t;
                }
                return a;
            }
            void main() {
                int n = read_int();
                int m = read_int();
                print_int(gcd(n, m));
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.funcs.len(), 2);
        assert_eq!(p.funcs[0].params.len(), 2);
        assert_eq!(p.funcs[1].ret, Ty::Void);
    }

    #[test]
    fn precedence_binds_mul_tighter_than_add() {
        let p = parse("int f() { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return(Some(Expr::Binary(BinOp::Add, _, rhs))) = &p.funcs[0].body.stmts[0]
        else {
            panic!("expected add at top");
        };
        assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn comparison_below_logical() {
        let p = parse("int f(int x) { return x > 1 && x < 10; }").unwrap();
        let Stmt::Return(Some(Expr::Binary(BinOp::And, _, _))) = &p.funcs[0].body.stmts[0] else {
            panic!("expected && at top");
        };
    }

    #[test]
    fn desugars_compound_assignment_and_increment() {
        let p = parse("void f() { int x = 0; x += 5; x++; }").unwrap();
        let body = &p.funcs[0].body.stmts;
        assert!(matches!(
            &body[1],
            Stmt::Assign(LValue::Var(_), Expr::Binary(BinOp::Add, _, _))
        ));
        assert!(matches!(
            &body[2],
            Stmt::Assign(LValue::Var(_), Expr::Binary(BinOp::Add, _, _))
        ));
    }

    #[test]
    fn parses_for_loops() {
        let p = parse("void f() { for (int i = 0; i < 10; i++) { print_int(i); } }").unwrap();
        let Stmt::For(init, cond, step, body) = &p.funcs[0].body.stmts[0] else {
            panic!("expected for");
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(step.is_some());
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn parses_arrays() {
        let p = parse("int sum(int a[], int n) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } return s; } void main() { int v[10]; v[0] = 3; print_int(sum(v, 10)); }").unwrap();
        assert_eq!(p.funcs[0].params[0].ty, Ty::IntArray);
        assert!(matches!(
            p.funcs[1].body.stmts[0],
            Stmt::DeclArray(_, Ty::Int, _)
        ));
    }

    #[test]
    fn parses_switch_without_fallthrough() {
        let src = "void f(int x) { switch (x) { case 1: print_int(1); break; case 2: print_int(2); default: print_int(0); } }";
        let p = parse(src).unwrap();
        let Stmt::Switch(_, cases, default) = &p.funcs[0].body.stmts[0] else {
            panic!("expected switch");
        };
        assert_eq!(cases.len(), 2);
        assert!(default.is_some());
        // the explicit break was absorbed
        assert_eq!(cases[0].1.stmts.len(), 1);
    }

    #[test]
    fn parses_do_while_and_casts() {
        let src = "float f(int n) { float s = 0.0; do { s = s + (float)n; n--; } while (n > 0); return s; }";
        let p = parse(src).unwrap();
        assert!(matches!(p.funcs[0].body.stmts[1], Stmt::DoWhile(_, _)));
    }

    #[test]
    fn error_has_line_number() {
        let err = parse("int f() {\n  return $;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn float_literals() {
        let p = parse("float f() { return 3.5e2; }").unwrap();
        let Stmt::Return(Some(Expr::Float(v))) = &p.funcs[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(*v, 350.0);
    }

    #[test]
    fn if_without_braces() {
        let p = parse("int f(int x) { if (x > 0) return 1; else return 0; }").unwrap();
        let Stmt::If(_, t, e) = &p.funcs[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(t.stmts.len(), 1);
        assert!(e.is_some());
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// leading\nint f() { /* inner\nmultiline */ return 1; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn negative_case_labels() {
        let p = parse("void f(int x) { switch (x) { case -1: print_int(0); } }").unwrap();
        let Stmt::Switch(_, cases, _) = &p.funcs[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(cases[0].0, -1);
    }
}
