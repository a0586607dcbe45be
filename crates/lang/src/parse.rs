//! Recursive-descent parser producing a resolved [`Program`] (array
//! names and locals are resolved to indices during parsing).

use crate::ast::*;
use crate::error::LangError;
use crate::token::{lex, Tok, Token};
use std::collections::HashMap;

/// Parse a full program.
pub fn parse(src: &str) -> Result<Program, LangError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        arrays: Vec::new(),
        array_ids: HashMap::new(),
        scalar_ids: HashMap::new(),
        counter: None,
        locals: Vec::new(),
        num_locals: 0,
        loop_var: String::new(),
    };
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    arrays: Vec<ArrayDeclAst>,
    array_ids: HashMap<String, usize>,
    /// Scalars desugar to hidden size-1 arrays: name -> array id.
    scalar_ids: HashMap<String, usize>,
    /// The induction counter, when declared.
    counter: Option<(String, usize)>,
    /// Lexically visible locals: (name, slot), innermost last.
    locals: Vec<(String, usize)>,
    num_locals: usize,
    loop_var: String,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LangError> {
        let t = self.peek();
        Err(LangError::at(t.line, t.col, msg.into()))
    }

    fn expect_punct(&mut self, c: char) -> Result<(), LangError> {
        if self.peek().kind == Tok::Punct(c) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected '{c}', found {}", self.peek().kind))
        }
    }

    fn expect_op(&mut self, op: &'static str) -> Result<(), LangError> {
        if self.peek().kind == Tok::Op(op) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected '{op}', found {}", self.peek().kind))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), LangError> {
        match &self.peek().kind {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => {
                let msg = format!("expected '{kw}', found {other}");
                self.err(msg)
            }
        }
    }

    fn ident(&mut self) -> Result<(String, u32, u32), LangError> {
        match self.peek().kind.clone() {
            Tok::Ident(s) => {
                let t = self.bump();
                Ok((s, t.line, t.col))
            }
            other => {
                let msg = format!("expected identifier, found {other}");
                self.err(msg)
            }
        }
    }

    fn number(&mut self) -> Result<f64, LangError> {
        match self.peek().kind {
            Tok::Num(n) => {
                self.bump();
                Ok(n)
            }
            ref other => {
                let msg = format!("expected number, found {other}");
                self.err(msg)
            }
        }
    }

    fn usize_lit(&mut self) -> Result<usize, LangError> {
        let n = self.number()?;
        if n < 0.0 || n.fract() != 0.0 {
            return self.err("expected a non-negative integer");
        }
        Ok(n as usize)
    }

    fn program(&mut self) -> Result<Program, LangError> {
        // Declarations come first.
        loop {
            match self.peek().kind.clone() {
                Tok::Ident(s) if s == "array" => self.array_decl()?,
                Tok::Ident(s) if s == "scalar" => self.scalar_decl()?,
                Tok::Ident(s) if s == "counter" => self.counter_decl()?,
                _ => break,
            }
        }

        // Then one or more (optionally cost-annotated) loops.
        let mut loops = Vec::new();
        loop {
            let mut cost = 1.0;
            if matches!(&self.peek().kind, Tok::Ident(s) if s == "cost") {
                self.bump();
                cost = self.number()?;
                if cost <= 0.0 {
                    return self.err("cost must be positive");
                }
                self.expect_punct(';')?;
            }
            let span = {
                let t = self.peek();
                Span::at(t.line, t.col)
            };
            self.expect_keyword("for")?;
            let (var, ..) = self.ident()?;
            self.loop_var = var.clone();
            self.num_locals = 0;
            self.locals.clear();
            self.expect_keyword("in")?;
            let lo = self.usize_lit()?;
            self.expect_op("..")?;
            let hi = self.usize_lit()?;
            if hi < lo {
                return self.err(format!("empty or inverted range {lo}..{hi}"));
            }
            let body = self.block()?;
            loops.push(LoopNest {
                loop_var: var,
                range: (lo, hi),
                cost,
                body,
                num_locals: self.num_locals,
                span,
            });
            if self.peek().kind == Tok::Eof {
                break;
            }
        }
        Ok(Program {
            arrays: std::mem::take(&mut self.arrays),
            counter: self.counter.take(),
            loops,
        })
    }

    /// `counter NAME (= INIT)?;` — the conditionally-incremented
    /// induction variable of the EXTEND pattern. At most one.
    fn counter_decl(&mut self) -> Result<(), LangError> {
        self.expect_keyword("counter")?;
        let (name, line, col) = self.ident()?;
        if self.counter.is_some() {
            return Err(LangError::at(line, col, "only one counter is supported"));
        }
        if self.array_ids.contains_key(&name) || self.scalar_ids.contains_key(&name) {
            return Err(LangError::at(line, col, format!("'{name}' declared twice")));
        }
        let init = if self.peek().kind == Tok::Op("=") {
            self.bump();
            self.usize_lit()?
        } else {
            0
        };
        self.expect_punct(';')?;
        self.counter = Some((name, init));
        Ok(())
    }

    fn array_decl(&mut self) -> Result<(), LangError> {
        self.expect_keyword("array")?;
        let (name, line, _) = self.ident()?;
        if self.array_ids.contains_key(&name) {
            return self.err(format!("array '{name}' declared twice"));
        }
        self.expect_punct('[')?;
        let size = self.usize_lit()?;
        self.expect_punct(']')?;
        let init = if self.peek().kind == Tok::Op("=") {
            self.bump();
            self.signed_number()?
        } else {
            0.0
        };
        let hint = if self.peek().kind == Tok::Punct(':') {
            self.bump();
            Some(self.kind_hint()?)
        } else {
            None
        };
        self.expect_punct(';')?;
        self.array_ids.insert(name.clone(), self.arrays.len());
        self.arrays.push(ArrayDeclAst {
            name,
            size,
            init,
            hint,
            line,
        });
        Ok(())
    }

    /// `scalar NAME (= INIT)?;` — desugars to a hidden one-element
    /// array. The run-time test then discovers the scalar's nature
    /// dynamically: write-first scalars privatize (one stage),
    /// `s += e` scalars become reductions, genuinely loop-carried
    /// scalars serialize under the R-LRPD test — all without any
    /// scalar-specific machinery.
    fn scalar_decl(&mut self) -> Result<(), LangError> {
        self.expect_keyword("scalar")?;
        let (name, line, col) = self.ident()?;
        if self.array_ids.contains_key(&name) || self.scalar_ids.contains_key(&name) {
            return Err(LangError::at(line, col, format!("'{name}' declared twice")));
        }
        let init = if self.peek().kind == Tok::Op("=") {
            self.bump();
            self.signed_number()?
        } else {
            0.0
        };
        self.expect_punct(';')?;
        let id = self.arrays.len();
        self.scalar_ids.insert(name.clone(), id);
        self.arrays.push(ArrayDeclAst {
            name,
            size: 1,
            init,
            hint: None,
            line,
        });
        Ok(())
    }

    fn signed_number(&mut self) -> Result<f64, LangError> {
        if self.peek().kind == Tok::Op("-") {
            self.bump();
            Ok(-self.number()?)
        } else {
            self.number()
        }
    }

    fn kind_hint(&mut self) -> Result<KindHint, LangError> {
        let (kw, ..) = self.ident()?;
        match kw.as_str() {
            "tested" => Ok(KindHint::Tested),
            "untested" => Ok(KindHint::Untested),
            "reduction" => {
                self.expect_punct('(')?;
                let op = match self.peek().kind {
                    Tok::Op("+") => UpdateOp::Add,
                    Tok::Op("*") => UpdateOp::Mul,
                    ref other => {
                        let msg = format!("expected '+' or '*', found {other}");
                        return self.err(msg);
                    }
                };
                self.bump();
                self.expect_punct(')')?;
                Ok(KindHint::Reduction(op))
            }
            other => self.err(format!("unknown kind hint '{other}'")),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect_punct('{')?;
        let scope_depth = self.locals.len();
        let mut stmts = Vec::new();
        while self.peek().kind != Tok::Punct('}') {
            if self.peek().kind == Tok::Eof {
                return self.err("unclosed block");
            }
            stmts.push(self.stmt()?);
        }
        self.bump(); // '}'
        self.locals.truncate(scope_depth);
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        match self.peek().kind.clone() {
            Tok::Ident(s) if s == "let" => {
                self.bump();
                let (name, ..) = self.ident()?;
                self.expect_op("=")?;
                let expr = self.expr()?;
                self.expect_punct(';')?;
                let slot = self.num_locals;
                self.num_locals += 1;
                self.locals.push((name, slot));
                Ok(Stmt::Let { slot, expr })
            }
            Tok::Ident(s) if s == "bump" => {
                self.bump();
                let (name, line, col) = self.ident()?;
                match &self.counter {
                    Some((c, _)) if *c == name => {}
                    _ => {
                        return Err(LangError::at(
                            line,
                            col,
                            format!("'{name}' is not the declared counter"),
                        ))
                    }
                }
                self.expect_punct(';')?;
                Ok(Stmt::Bump)
            }
            Tok::Ident(s) if s == "break" => {
                self.bump();
                self.expect_keyword("if")?;
                let cond = self.expr()?;
                self.expect_punct(';')?;
                Ok(Stmt::Break { cond })
            }
            Tok::Ident(s) if s == "if" => {
                let kw = self.bump();
                let span = Span::at(kw.line, kw.col);
                let cond = self.expr()?;
                let then_body = self.block()?;
                let else_body = if matches!(&self.peek().kind, Tok::Ident(s) if s == "else") {
                    self.bump();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                })
            }
            Tok::Ident(name) => {
                let (_, line, col) = self.ident()?;
                let span = Span::at(line, col);
                if let Some(&array) = self.scalar_ids.get(&name) {
                    return self.assignment(array, Expr::Num(0.0), span);
                }
                let Some(&array) = self.array_ids.get(&name) else {
                    return Err(LangError::at(
                        line,
                        col,
                        format!("'{name}' is not a declared array or scalar"),
                    ));
                };
                self.expect_punct('[')?;
                let index = self.expr()?;
                self.expect_punct(']')?;
                self.assignment(array, index, span)
            }
            other => {
                let msg = format!("expected a statement, found {other}");
                self.err(msg)
            }
        }
    }

    /// `(= | += | *=) expr ;` after an assignment target: `array[index]`,
    /// or a scalar, which is its hidden array at index 0.
    fn assignment(&mut self, array: usize, index: Expr, span: Span) -> Result<Stmt, LangError> {
        let op = match self.peek().kind {
            Tok::Op("=") => None,
            Tok::Op("+=") => Some(UpdateOp::Add),
            Tok::Op("*=") => Some(UpdateOp::Mul),
            ref other => {
                let msg = format!("expected '=', '+=' or '*=', found {other}");
                return self.err(msg);
            }
        };
        self.bump();
        let expr = self.expr()?;
        self.expect_punct(';')?;
        Ok(match op {
            None => Stmt::Assign {
                array,
                index,
                expr,
                span,
            },
            Some(op) => Stmt::Update {
                array,
                index,
                op,
                expr,
                span,
            },
        })
    }

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.and_expr()?;
        while self.peek().kind == Tok::Op("||") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Bin {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek().kind == Tok::Op("&&") {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, LangError> {
        let lhs = self.add_expr()?;
        let op = match self.peek().kind {
            Tok::Op("==") => BinOp::Eq,
            Tok::Op("!=") => BinOp::Ne,
            Tok::Op("<") => BinOp::Lt,
            Tok::Op("<=") => BinOp::Le,
            Tok::Op(">") => BinOp::Gt,
            Tok::Op(">=") => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn add_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().kind {
                Tok::Op("+") => BinOp::Add,
                Tok::Op("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().kind {
                Tok::Op("*") => BinOp::Mul,
                Tok::Op("/") => BinOp::Div,
                Tok::Op("%") => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        match self.peek().kind {
            Tok::Op("-") => {
                self.bump();
                Ok(Expr::Neg(Box::new(self.unary_expr()?)))
            }
            Tok::Op("!") => {
                self.bump();
                Ok(Expr::Not(Box::new(self.unary_expr()?)))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        match self.peek().kind.clone() {
            Tok::Num(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            Tok::Punct('(') => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(')')?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let (_, line, col) = self.ident()?;
                if self.peek().kind == Tok::Punct('(') {
                    let func = match name.as_str() {
                        "min" => (Intrinsic::Min, 2),
                        "max" => (Intrinsic::Max, 2),
                        "abs" => (Intrinsic::Abs, 1),
                        "sqrt" => (Intrinsic::Sqrt, 1),
                        "floor" => (Intrinsic::Floor, 1),
                        other => {
                            return Err(LangError::at(
                                line,
                                col,
                                format!("unknown function '{other}'"),
                            ))
                        }
                    };
                    self.bump();
                    let mut args = vec![self.expr()?];
                    while self.peek().kind == Tok::Punct(',') {
                        self.bump();
                        args.push(self.expr()?);
                    }
                    self.expect_punct(')')?;
                    if args.len() != func.1 {
                        return Err(LangError::at(
                            line,
                            col,
                            format!("'{name}' takes {} argument(s), got {}", func.1, args.len()),
                        ));
                    }
                    Ok(Expr::Call { func: func.0, args })
                } else if self.peek().kind == Tok::Punct('[') {
                    let Some(&array) = self.array_ids.get(&name) else {
                        return Err(LangError::at(line, col, format!("unknown array '{name}'")));
                    };
                    self.bump();
                    let index = self.expr()?;
                    self.expect_punct(']')?;
                    Ok(Expr::Read {
                        array,
                        index: Box::new(index),
                        span: Span::at(line, col),
                    })
                } else if name == self.loop_var {
                    Ok(Expr::LoopVar)
                } else if let Some(&(_, slot)) = self.locals.iter().rev().find(|(n, _)| *n == name)
                {
                    Ok(Expr::Local(slot))
                } else if let Some(&array) = self.scalar_ids.get(&name) {
                    Ok(Expr::Read {
                        array,
                        index: Box::new(Expr::Num(0.0)),
                        span: Span::at(line, col),
                    })
                } else if matches!(&self.counter, Some((c, _)) if *c == name) {
                    Ok(Expr::Counter)
                } else {
                    Err(LangError::at(line, col, format!("unknown name '{name}'")))
                }
            }
            other => {
                let msg = format!("expected an expression, found {other}");
                self.err(msg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_program() {
        let p = parse(
            "array A[10];\n\
             array B[10] = 1 : untested;\n\
             cost 5;\n\
             for i in 0..10 {\n\
                 let v = A[i] + B[i];\n\
                 if v > 2 { A[i] = v; } else { A[i] = i; }\n\
             }",
        )
        .unwrap();
        assert_eq!(p.arrays.len(), 2);
        assert_eq!(p.arrays[1].init, 1.0);
        assert_eq!(p.arrays[1].hint, Some(KindHint::Untested));
        assert_eq!(p.loops.len(), 1);
        assert_eq!(p.loops[0].range, (0, 10));
        assert_eq!(p.loops[0].cost, 5.0);
        assert_eq!(p.loops[0].body.len(), 2);
        assert_eq!(p.loops[0].num_locals, 1);
    }

    #[test]
    fn update_ops_parse_as_updates() {
        let p = parse("array Y[4];\nfor i in 0..4 { Y[i % 4] += i; }").unwrap();
        match &p.loops[0].body[0] {
            Stmt::Update { op, .. } => assert_eq!(*op, UpdateOp::Add),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_is_conventional() {
        let p = parse("array A[4];\nfor i in 0..4 { A[0] = 1 + 2 * 3; }").unwrap();
        match &p.loops[0].body[0] {
            Stmt::Assign {
                expr:
                    Expr::Bin {
                        op: BinOp::Add,
                        rhs,
                        ..
                    },
                ..
            } => {
                assert!(matches!(**rhs, Expr::Bin { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn locals_are_scoped_to_their_block() {
        let err =
            parse("array A[4];\nfor i in 0..4 { if i > 0 { let v = 1; } A[i] = v; }").unwrap_err();
        assert!(err.message.contains("unknown name 'v'"), "{err}");
    }

    #[test]
    fn unknown_array_is_a_resolution_error() {
        let err = parse("for i in 0..4 { A[i] = 1; }").unwrap_err();
        assert!(err.message.contains("not a declared array"), "{err}");
    }

    #[test]
    fn duplicate_array_rejected() {
        let err = parse("array A[4];\narray A[4];\nfor i in 0..1 { A[0] = 0; }").unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn reduction_hint_parses() {
        let p = parse("array Y[4] : reduction(*);\nfor i in 0..4 { Y[0] *= 2; }").unwrap();
        assert_eq!(p.arrays[0].hint, Some(KindHint::Reduction(UpdateOp::Mul)));
    }

    #[test]
    fn a_bad_assignment_operator_is_named_at_its_position() {
        // Pinned before scalar and array targets shared one parser.
        for (src, line, col) in [
            ("scalar s;\nfor i in 0..4 {\n  s - 1;\n}", 3, 5),
            ("array A[4];\nfor i in 0..4 {\n  A[i] - 1;\n}", 3, 8),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!(
                err.message, "expected '=', '+=' or '*=', found '-'",
                "{src}"
            );
            assert_eq!((err.line, err.col), (line, col), "{src}");
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("array A[4]\nfor i in 0..4 { }").unwrap_err();
        assert_eq!(err.line, 2, "the missing ';' is noticed at 'for'");
    }
}
