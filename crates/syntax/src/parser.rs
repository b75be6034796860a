//! Recursive-descent parser for nml.
//!
//! Operator precedence, loosest to tightest:
//!
//! 1. `lambda`, `if`, `letrec`/`let` (prefix forms, extend to the right)
//! 2. comparisons `= <> < <= > >=` (non-associative)
//! 3. `::` (right-associative, sugar for `cons`)
//! 4. `+` `-` (left-associative)
//! 5. `*` `/` (left-associative)
//! 6. application (left-associative)
//! 7. atoms: literals, identifiers, `[..]` list literals, `( e )`,
//!    `( e : ty )` ascriptions

use crate::ast::{Binding, Const, Expr, ExprKind, NodeId, Prim, Program, TyExpr};
use crate::error::{SyntaxError, SyntaxErrorKind};
use crate::lexer::lex;
use crate::span::Span;
use crate::symbol::Symbol;
use crate::token::{Token, TokenKind};
use std::collections::HashSet;
use std::ops::Range;

/// Parses a complete nml program.
///
/// A program is `letrec x1 = e1; ...; xn = en in e` (paper §3.1); a bare
/// expression is also accepted and treated as a program with no bindings.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_program(src: &str) -> Result<Program, SyntaxError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut body = p.expr()?;
    p.expect_eof()?;
    resolve_consts(&mut body, &mut Vec::new());
    let span = body.span;
    // Hoist a top-level letrec into the program's bindings so that passes
    // can address the paper's `letrec ... in e` program form directly.
    let (bindings, body) = match body.kind {
        ExprKind::Letrec(bindings, inner) => (bindings, *inner),
        _ => (Vec::new(), body),
    };
    Ok(Program {
        bindings,
        body,
        span,
        next_node_id: p.next_id,
    })
}

/// A program text cut, after one lexing pass, into its top-level `letrec`
/// bindings and body, each of which parses on its own.
///
/// The cuts are the top-level `;` and `in` tokens, found with a depth
/// counter over `letrec`/`let` … `in`: `;` occurs only as a `letrec`
/// separator, and every nested `letrec` or `let` ends at its own `in`.
/// When every chunk parses and consumes exactly its tokens, the chunks
/// together are the program [`parse_program`] returns for the same text,
/// node ids aside. Chunk parses report no errors: text that does not
/// split or chunk-parse cleanly goes through [`parse_program`], so syntax
/// errors have one source.
#[derive(Debug)]
pub struct Chunks {
    tokens: Vec<Token>,
    /// Token range of each binding, in program order.
    bindings: Vec<Range<usize>>,
    names: Vec<Symbol>,
    /// Token range of the body.
    body: Range<usize>,
    /// The top-level binders named like a constant (`nil`, `car`, …).
    shadows: Vec<Symbol>,
}

impl Chunks {
    /// Lexes `src` and cuts it. `None` when the text does not lex, is not
    /// `letrec … in …` (or `let … in …`) at the top level, or has an empty
    /// or duplicate binding.
    pub fn split(src: &str) -> Option<Chunks> {
        let tokens = lex(src).ok()?;
        if !matches!(tokens[0].kind, TokenKind::Letrec | TokenKind::Let) {
            return None;
        }
        let eof = tokens.len() - 1;
        let mut bindings = Vec::new();
        let mut start = 1;
        let mut depth = 0usize;
        let mut body = None;
        for (i, t) in tokens.iter().enumerate().take(eof).skip(1) {
            match t.kind {
                TokenKind::Letrec | TokenKind::Let => depth += 1,
                TokenKind::In if depth > 0 => depth -= 1,
                TokenKind::In => {
                    bindings.push(start..i);
                    body = Some(i + 1..eof);
                    break;
                }
                TokenKind::Semi if depth == 0 => {
                    bindings.push(start..i);
                    start = i + 1;
                }
                _ => {}
            }
        }
        let body = body.filter(|b| !b.is_empty())?;
        // The parser accepts one `;` after the last binding.
        if bindings.len() > 1 && bindings.last().is_some_and(Range::is_empty) {
            bindings.pop();
        }
        let mut seen = HashSet::new();
        let mut names = Vec::with_capacity(bindings.len());
        for r in &bindings {
            match tokens[r.start..r.end].first().map(|t| t.kind) {
                Some(TokenKind::Ident(name)) if seen.insert(name) => names.push(name),
                _ => return None,
            }
        }
        let shadows = names
            .iter()
            .copied()
            .filter(|x| const_named(*x).is_some())
            .collect();
        Some(Chunks {
            tokens,
            bindings,
            names,
            body,
            shadows,
        })
    }

    /// The binding names, in program order.
    pub fn names(&self) -> &[Symbol] {
        &self.names
    }

    /// The top-level binders that shadow a constant. Two texts whose
    /// shadows agree resolve identical chunk bytes to identical trees.
    pub fn shadows(&self) -> &[Symbol] {
        &self.shadows
    }

    /// Byte range of binding `i`, from its first token to its last.
    pub fn binding_bytes(&self, i: usize) -> Range<usize> {
        self.bytes(&self.bindings[i])
    }

    /// Byte range of the body, from its first token to its last.
    pub fn body_bytes(&self) -> Range<usize> {
        self.bytes(&self.body)
    }

    fn bytes(&self, r: &Range<usize>) -> Range<usize> {
        self.tokens[r.start].span.start as usize..self.tokens[r.end - 1].span.end as usize
    }

    /// Parses binding `i` with node ids from `*next_id` on, advancing it.
    /// `None` if the chunk does not parse as exactly one binding.
    pub fn parse_binding(&self, i: usize, next_id: &mut u32) -> Option<Binding> {
        let mut b = self.parse_chunk(&self.bindings[i], next_id, Parser::binding)?;
        resolve_consts(&mut b.expr, &mut self.shadows.clone());
        Some(b)
    }

    /// Parses the body with node ids from `*next_id` on, advancing it.
    /// `None` if the chunk does not parse as exactly one expression.
    pub fn parse_body(&self, next_id: &mut u32) -> Option<Expr> {
        let mut e = self.parse_chunk(&self.body, next_id, Parser::expr)?;
        resolve_consts(&mut e, &mut self.shadows.clone());
        Some(e)
    }

    /// The span [`parse_program`] gives the program whose body spans
    /// `body`.
    pub fn program_span(&self, body: Span) -> Span {
        self.tokens[0].span.to(body)
    }

    fn parse_chunk<T>(
        &self,
        r: &Range<usize>,
        next_id: &mut u32,
        parse: impl FnOnce(&mut Parser) -> Result<T, SyntaxError>,
    ) -> Option<T> {
        let end = self.tokens[r.end - 1].span.end;
        let mut tokens = self.tokens[r.start..r.end].to_vec();
        tokens.push(Token::new(TokenKind::Eof, Span::new(end, end)));
        let mut p = Parser {
            tokens,
            pos: 0,
            next_id: *next_id,
        };
        let t = parse(&mut p).ok()?;
        if !p.at(TokenKind::Eof) {
            return None;
        }
        *next_id = p.next_id;
        Some(t)
    }
}

/// Resolves unbound occurrences of `nil` and the primitive names to their
/// constants, respecting lexical scope: `letrec pair x = ... in pair`
/// refers to the user's `pair`, while a program with no such binding gets
/// the primitive.
///
/// Only a binder that could shadow a constant changes how a `Var`
/// resolves, so `shadows` holds just the binders in scope whose name is a
/// constant name. It stays empty for almost every program, and the name
/// test comes before the (then usually empty) scope search: the pass is
/// linear in the size of the expression, not in the number of names in
/// scope.
fn resolve_consts(e: &mut Expr, shadows: &mut Vec<Symbol>) {
    match &mut e.kind {
        ExprKind::Var(x) => {
            if let Some(c) = const_named(*x) {
                if !shadows.contains(x) {
                    e.kind = ExprKind::Const(c);
                }
            }
        }
        ExprKind::Const(_) => {}
        ExprKind::App(f, a) => {
            resolve_consts(f, shadows);
            resolve_consts(a, shadows);
        }
        ExprKind::Lambda(x, b) => {
            let outer = shadows.len();
            note_binder(shadows, *x);
            resolve_consts(b, shadows);
            shadows.truncate(outer);
        }
        ExprKind::If(c, t, f) => {
            resolve_consts(c, shadows);
            resolve_consts(t, shadows);
            resolve_consts(f, shadows);
        }
        ExprKind::Letrec(bs, b) => {
            let outer = shadows.len();
            for binding in bs.iter() {
                note_binder(shadows, binding.name);
            }
            for binding in bs.iter_mut() {
                resolve_consts(&mut binding.expr, shadows);
            }
            resolve_consts(b, shadows);
            shadows.truncate(outer);
        }
        ExprKind::Annot(inner, _) => resolve_consts(inner, shadows),
    }
}

/// The constants of [`CONSTANT_NAMES`](crate::symbol::CONSTANT_NAMES),
/// position by position.
const CONSTANTS: [Const; 8] = [
    Const::Nil,
    Const::Prim(Prim::Cons),
    Const::Prim(Prim::Car),
    Const::Prim(Prim::Cdr),
    Const::Prim(Prim::Null),
    Const::Prim(Prim::MkPair),
    Const::Prim(Prim::Fst),
    Const::Prim(Prim::Snd),
];

/// The constant an unshadowed occurrence of `x` denotes, if any.
fn const_named(x: Symbol) -> Option<Const> {
    x.constant_index().map(|i| CONSTANTS[i])
}

/// Records binder `x` in `shadows` if it shadows a constant.
fn note_binder(shadows: &mut Vec<Symbol>, x: Symbol) {
    if const_named(x).is_some() {
        shadows.push(x);
    }
}

/// Parses a single nml expression (useful in tests and the REPL-style
/// driver).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_expr(src: &str) -> Result<Expr, SyntaxError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut e = p.expr()?;
    p.expect_eof()?;
    resolve_consts(&mut e, &mut Vec::new());
    Ok(e)
}

/// Parses a single nml expression that will live under the given names in
/// scope — typically the RHS of a top-level binding being replaced, with
/// `scope` the program's binding names. Unlike [`parse_expr`], occurrences
/// of `nil` or primitive names that are shadowed by `scope` stay variable
/// references instead of resolving to constants.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_expr_in_scope(src: &str, scope: &[Symbol]) -> Result<Expr, SyntaxError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut e = p.expr()?;
    p.expect_eof()?;
    let mut shadows: Vec<Symbol> = scope
        .iter()
        .copied()
        .filter(|x| const_named(*x).is_some())
        .collect();
    resolve_consts(&mut e, &mut shadows);
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_id: 0,
        }
    }

    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek().kind == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Token, SyntaxError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> SyntaxError {
        let t = self.peek();
        SyntaxError::new(
            SyntaxErrorKind::UnexpectedToken {
                found: t.kind,
                expected: expected.to_owned(),
            },
            t.span,
        )
    }

    fn expect_eof(&mut self) -> Result<(), SyntaxError> {
        if self.at(TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn node(&mut self, span: Span, kind: ExprKind) -> Expr {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        Expr { id, span, kind }
    }

    fn ident(&mut self, what: &str) -> Result<(Symbol, Span), SyntaxError> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                let t = self.bump();
                Ok((s, t.span))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, SyntaxError> {
        match self.peek().kind {
            TokenKind::Lambda => self.lambda(),
            TokenKind::If => self.if_expr(),
            TokenKind::Letrec | TokenKind::Let => self.letrec(),
            _ => self.comparison(),
        }
    }

    fn lambda(&mut self) -> Result<Expr, SyntaxError> {
        let start = self.expect(TokenKind::Lambda, "`lambda`")?.span;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                params.push(self.ident("parameter name")?.0);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        if params.is_empty() {
            return Err(SyntaxError::new(SyntaxErrorKind::EmptyLambdaParams, start));
        }
        self.expect(TokenKind::RParen, "`)`")?;
        self.expect(TokenKind::Dot, "`.`")?;
        let body = self.expr()?;
        let span = start.to(body.span);
        let mut e = body;
        for &p in params.iter().rev() {
            e = self.node(span, ExprKind::Lambda(p, Box::new(e)));
        }
        Ok(e)
    }

    fn if_expr(&mut self) -> Result<Expr, SyntaxError> {
        let start = self.expect(TokenKind::If, "`if`")?.span;
        let cond = self.expr()?;
        self.expect(TokenKind::Then, "`then`")?;
        let then_e = self.expr()?;
        self.expect(TokenKind::Else, "`else`")?;
        let else_e = self.expr()?;
        let span = start.to(else_e.span);
        Ok(self.node(
            span,
            ExprKind::If(Box::new(cond), Box::new(then_e), Box::new(else_e)),
        ))
    }

    fn letrec(&mut self) -> Result<Expr, SyntaxError> {
        let start = self.bump().span; // `letrec` or `let`
        let mut bindings = Vec::new();
        let mut seen: HashSet<Symbol> = HashSet::new();
        loop {
            if self.at(TokenKind::In) {
                break;
            }
            let b = self.binding()?;
            if !seen.insert(b.name) {
                return Err(SyntaxError::new(
                    SyntaxErrorKind::DuplicateBinding(b.name.to_string()),
                    b.span,
                ));
            }
            bindings.push(b);
            if !self.eat(TokenKind::Semi) {
                break;
            }
        }
        if bindings.is_empty() {
            return Err(SyntaxError::new(SyntaxErrorKind::EmptyLetrec, start));
        }
        self.expect(TokenKind::In, "`in`")?;
        let body = self.expr()?;
        let span = start.to(body.span);
        Ok(self.node(span, ExprKind::Letrec(bindings, Box::new(body))))
    }

    /// `name param* = expr`; parameters desugar to curried lambdas.
    fn binding(&mut self) -> Result<Binding, SyntaxError> {
        let (name, name_span) = self.ident("binding name")?;
        let mut params = Vec::new();
        while let TokenKind::Ident(p) = self.peek().kind {
            self.bump();
            params.push(p);
        }
        self.expect(TokenKind::Eq, "`=`")?;
        let body = self.expr()?;
        let span = name_span.to(body.span);
        let mut expr = body;
        for &p in params.iter().rev() {
            expr = self.node(span, ExprKind::Lambda(p, Box::new(expr)));
        }
        Ok(Binding {
            name,
            span: name_span,
            expr,
        })
    }

    fn comparison(&mut self) -> Result<Expr, SyntaxError> {
        let lhs = self.cons_chain()?;
        let prim = match self.peek().kind {
            TokenKind::Eq => Prim::Eq,
            TokenKind::Ne => Prim::Ne,
            TokenKind::Lt => Prim::Lt,
            TokenKind::Le => Prim::Le,
            TokenKind::Gt => Prim::Gt,
            TokenKind::Ge => Prim::Ge,
            _ => return Ok(lhs),
        };
        let op_span = self.bump().span;
        let rhs = self.cons_chain()?;
        Ok(self.binop(prim, op_span, lhs, rhs))
    }

    fn cons_chain(&mut self) -> Result<Expr, SyntaxError> {
        let head = self.additive()?;
        if self.at(TokenKind::ColonColon) {
            let op_span = self.bump().span;
            let tail = self.cons_chain()?; // right-associative
            Ok(self.binop(Prim::Cons, op_span, head, tail))
        } else {
            Ok(head)
        }
    }

    fn additive(&mut self) -> Result<Expr, SyntaxError> {
        // Allow a leading unary minus: `-e` parses as `0 - e`.
        let mut lhs = if self.at(TokenKind::Minus) {
            let op_span = self.bump().span;
            let zero = self.node(op_span, ExprKind::Const(Const::Int(0)));
            let rhs = self.multiplicative()?;
            self.binop(Prim::Sub, op_span, zero, rhs)
        } else {
            self.multiplicative()?
        };
        loop {
            let prim = match self.peek().kind {
                TokenKind::Plus => Prim::Add,
                TokenKind::Minus => Prim::Sub,
                _ => break,
            };
            let op_span = self.bump().span;
            let rhs = self.multiplicative()?;
            lhs = self.binop(prim, op_span, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, SyntaxError> {
        let mut lhs = self.application()?;
        loop {
            let prim = match self.peek().kind {
                TokenKind::Star => Prim::Mul,
                TokenKind::Slash => Prim::Div,
                _ => break,
            };
            let op_span = self.bump().span;
            let rhs = self.application()?;
            lhs = self.binop(prim, op_span, lhs, rhs);
        }
        Ok(lhs)
    }

    fn binop(&mut self, prim: Prim, op_span: Span, lhs: Expr, rhs: Expr) -> Expr {
        let span = lhs.span.to(rhs.span);
        let c = self.node(op_span, ExprKind::Const(Const::Prim(prim)));
        let app1 = self.node(span, ExprKind::App(Box::new(c), Box::new(lhs)));
        self.node(span, ExprKind::App(Box::new(app1), Box::new(rhs)))
    }

    fn application(&mut self) -> Result<Expr, SyntaxError> {
        let mut e = self.atom()?;
        while self.starts_atom() {
            let arg = self.atom()?;
            let span = e.span.to(arg.span);
            e = self.node(span, ExprKind::App(Box::new(e), Box::new(arg)));
        }
        Ok(e)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek().kind,
            TokenKind::Int(_)
                | TokenKind::True
                | TokenKind::False
                | TokenKind::Ident(_)
                | TokenKind::LBracket
                | TokenKind::LParen
        )
    }

    fn atom(&mut self) -> Result<Expr, SyntaxError> {
        let t = self.peek();
        match t.kind {
            TokenKind::Int(n) => {
                self.bump();
                Ok(self.node(t.span, ExprKind::Const(Const::Int(n))))
            }
            TokenKind::True => {
                self.bump();
                Ok(self.node(t.span, ExprKind::Const(Const::Bool(true))))
            }
            TokenKind::False => {
                self.bump();
                Ok(self.node(t.span, ExprKind::Const(Const::Bool(false))))
            }
            TokenKind::Ident(s) => {
                self.bump();
                // `nil` and primitive names become constants only if no
                // lexical binding shadows them — decided by the
                // post-parse resolution pass (`resolve_consts`), since
                // the parser cannot see scope.
                Ok(self.node(t.span, ExprKind::Var(s)))
            }
            TokenKind::LBracket => self.list_literal(),
            TokenKind::LParen => {
                let start = self.bump().span;
                // Operator section `(+)`: the primitive as a first-class
                // value (this is also what the pretty-printer emits for a
                // bare infix constant).
                if let Some(p) = section_prim(self.peek().kind) {
                    if self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
                        == TokenKind::RParen
                    {
                        self.bump();
                        let end = self.expect(TokenKind::RParen, "`)`")?.span;
                        return Ok(self.node(start.to(end), ExprKind::Const(Const::Prim(p))));
                    }
                }
                let inner = self.expr()?;
                if self.eat(TokenKind::Colon) {
                    let ty = self.ty()?;
                    let end = self.expect(TokenKind::RParen, "`)`")?.span;
                    let span = start.to(end);
                    Ok(self.node(span, ExprKind::Annot(Box::new(inner), ty)))
                } else if self.eat(TokenKind::Comma) {
                    // Tuple literal `(e1, e2)`, sugar for `pair e1 e2`.
                    // Longer tuples nest rightward: `(a, b, c)` is
                    // `(a, (b, c))`.
                    let mut items = vec![inner];
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(TokenKind::RParen, "`)`")?.span;
                    let span = start.to(end);
                    let mut e = items.pop().expect("at least two items");
                    for item in items.into_iter().rev() {
                        let c = self.node(span, ExprKind::Const(Const::Prim(Prim::MkPair)));
                        let app1 = self.node(span, ExprKind::App(Box::new(c), Box::new(item)));
                        e = self.node(span, ExprKind::App(Box::new(app1), Box::new(e)));
                    }
                    Ok(e)
                } else {
                    let end = self.expect(TokenKind::RParen, "`)`")?.span;
                    let mut e = inner;
                    e.span = start.to(end);
                    Ok(e)
                }
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    /// `[e1, e2, ..., en]` desugars to `cons e1 (cons e2 ... nil)`.
    fn list_literal(&mut self) -> Result<Expr, SyntaxError> {
        let start = self.expect(TokenKind::LBracket, "`[`")?.span;
        let mut items = Vec::new();
        if !self.at(TokenKind::RBracket) {
            loop {
                items.push(self.expr()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(TokenKind::RBracket, "`]`")?.span;
        let span = start.to(end);
        let mut e = self.node(span, ExprKind::Const(Const::Nil));
        for item in items.into_iter().rev() {
            let c = self.node(span, ExprKind::Const(Const::Prim(Prim::Cons)));
            let app1 = self.node(span, ExprKind::App(Box::new(c), Box::new(item)));
            e = self.node(span, ExprKind::App(Box::new(app1), Box::new(e)));
        }
        Ok(e)
    }

    // ---- types ------------------------------------------------------------

    /// `ty := ty-prod ('->' ty)?` where `ty-prod := ty-postfix ('*'
    /// ty-prod)?` and `ty-postfix := atom 'list'*`.
    fn ty(&mut self) -> Result<TyExpr, SyntaxError> {
        let lhs = self.ty_prod()?;
        if self.eat(TokenKind::Arrow) {
            let rhs = self.ty()?; // right-associative
            Ok(TyExpr::Fun(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn ty_prod(&mut self) -> Result<TyExpr, SyntaxError> {
        let lhs = self.ty_postfix()?;
        if self.eat(TokenKind::Star) {
            let rhs = self.ty_prod()?; // right-associative
            Ok(TyExpr::Prod(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn ty_postfix(&mut self) -> Result<TyExpr, SyntaxError> {
        let mut t = self.ty_atom()?;
        while let TokenKind::Ident(s) = self.peek().kind {
            if s.as_str() == "list" {
                self.bump();
                t = TyExpr::List(Box::new(t));
            } else {
                break;
            }
        }
        Ok(t)
    }

    fn ty_atom(&mut self) -> Result<TyExpr, SyntaxError> {
        let t = self.peek();
        match t.kind {
            TokenKind::Ident(s) if s.as_str() == "int" => {
                self.bump();
                Ok(TyExpr::Int)
            }
            TokenKind::Ident(s) if s.as_str() == "bool" => {
                self.bump();
                Ok(TyExpr::Bool)
            }
            TokenKind::TyVar(s) => {
                self.bump();
                Ok(TyExpr::Var(s))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.ty()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(inner)
            }
            _ => Err(self.unexpected("a type")),
        }
    }
}

/// The primitive an operator token denotes in a section `(op)`.
fn section_prim(kind: TokenKind) -> Option<Prim> {
    Some(match kind {
        TokenKind::Plus => Prim::Add,
        TokenKind::Minus => Prim::Sub,
        TokenKind::Star => Prim::Mul,
        TokenKind::Slash => Prim::Div,
        TokenKind::Eq => Prim::Eq,
        TokenKind::Ne => Prim::Ne,
        TokenKind::Lt => Prim::Lt,
        TokenKind::Le => Prim::Le,
        TokenKind::Gt => Prim::Gt,
        TokenKind::Ge => Prim::Ge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Expr {
        parse_expr(src).expect("parse ok")
    }

    #[test]
    fn constant_table_matches_the_names() {
        for (name, c) in crate::symbol::CONSTANT_NAMES.iter().zip(CONSTANTS) {
            let by_name = if *name == "nil" {
                Some(Const::Nil)
            } else {
                Prim::from_name(name).map(Const::Prim)
            };
            assert_eq!(by_name, Some(c), "{name}");
            assert_eq!(const_named(Symbol::intern(name)), Some(c), "{name}");
        }
        assert_eq!(const_named(Symbol::intern("nill")), None);
    }

    #[test]
    fn tuple_literals_desugar_to_pair() {
        let e = parse("(1, 2)");
        let (head, args) = e.uncurry_app();
        assert!(matches!(
            head.kind,
            ExprKind::Const(Const::Prim(Prim::MkPair))
        ));
        assert_eq!(args.len(), 2);
        // Triples nest rightward.
        let t = parse("(1, 2, 3)");
        let (_, targs) = t.uncurry_app();
        let (inner_head, _) = targs[1].uncurry_app();
        assert!(matches!(
            inner_head.kind,
            ExprKind::Const(Const::Prim(Prim::MkPair))
        ));
        // fst/snd are primitive constants.
        assert!(matches!(
            parse("fst").kind,
            ExprKind::Const(Const::Prim(Prim::Fst))
        ));
        assert!(matches!(
            parse("snd").kind,
            ExprKind::Const(Const::Prim(Prim::Snd))
        ));
    }

    #[test]
    fn user_bindings_shadow_primitive_names() {
        // `pair` is a primitive, but a letrec binding of the same name
        // must win in its scope.
        let p = parse_program("letrec pair x = x in pair 1").unwrap();
        let (head, _) = p.body.uncurry_app();
        assert!(matches!(head.kind, ExprKind::Var(_)), "user pair is a Var");
        // Outside any binding, `pair` is the primitive.
        assert!(matches!(
            parse("pair").kind,
            ExprKind::Const(Const::Prim(Prim::MkPair))
        ));
        // Lambda parameters shadow too.
        let e = parse("lambda(cons). cons");
        if let ExprKind::Lambda(_, body) = &e.kind {
            assert!(matches!(body.kind, ExprKind::Var(_)));
        } else {
            panic!("expected lambda");
        }
    }

    #[test]
    fn shadowing_ends_with_its_scope() {
        // Inside the lambda `car` is its parameter; in the argument, outside
        // the lambda, it is the primitive again.
        let e = parse("(lambda(car). car) (car [1])");
        let (f, args) = e.uncurry_app();
        let ExprKind::Lambda(_, body) = &f.kind else {
            panic!("expected lambda, got {f:?}");
        };
        assert!(matches!(body.kind, ExprKind::Var(_)));
        let (head, _) = args[0].uncurry_app();
        assert!(matches!(head.kind, ExprKind::Const(Const::Prim(Prim::Car))));
    }

    #[test]
    fn nil_letrec_binder_shadows_the_constant() {
        let p = parse_program("letrec nil = 0; f x = nil in f nil").unwrap();
        let ExprKind::Lambda(_, f_body) = &p.bindings[1].expr.kind else {
            panic!("expected lambda, got {:?}", p.bindings[1].expr);
        };
        assert!(matches!(f_body.kind, ExprKind::Var(_)));
        let (_, args) = p.body.uncurry_app();
        assert!(matches!(args[0].kind, ExprKind::Var(_)));
        // A nested letrec's binder stops shadowing after its body.
        let e = parse("cons (letrec nil = 0 in nil) nil");
        let (_, args) = e.uncurry_app();
        let ExprKind::Letrec(_, inner) = &args[0].kind else {
            panic!("expected letrec, got {:?}", args[0]);
        };
        assert!(matches!(inner.kind, ExprKind::Var(_)));
        assert!(matches!(args[1].kind, ExprKind::Const(Const::Nil)));
    }

    #[test]
    fn scope_shadows_only_constant_names() {
        let scope = [
            Symbol::intern("cons"),
            Symbol::intern("map"),
            Symbol::intern("xs"),
        ];
        let e = parse_expr_in_scope("cons (car xs) (map nil)", &scope).unwrap();
        let (head, args) = e.uncurry_app();
        assert!(matches!(head.kind, ExprKind::Var(_)), "scope shadows cons");
        let (car, car_args) = args[0].uncurry_app();
        assert!(matches!(car.kind, ExprKind::Const(Const::Prim(Prim::Car))));
        assert!(matches!(car_args[0].kind, ExprKind::Var(_)));
        let (map, map_args) = args[1].uncurry_app();
        assert!(matches!(map.kind, ExprKind::Var(_)));
        assert!(matches!(map_args[0].kind, ExprKind::Const(Const::Nil)));
    }

    #[test]
    fn product_types_parse() {
        let e = parse("(nil : (int * bool) list)");
        match &e.kind {
            ExprKind::Annot(_, ty) => assert_eq!(ty.to_string(), "(int * bool) list"),
            other => panic!("expected annot, got {other:?}"),
        }
        let f = parse("(f : int * bool -> int)");
        match &f.kind {
            ExprKind::Annot(_, ty) => assert_eq!(ty.to_string(), "int * bool -> int"),
            other => panic!("expected annot, got {other:?}"),
        }
    }

    #[test]
    fn operator_sections_parse() {
        assert!(matches!(
            parse("(+)").kind,
            ExprKind::Const(Const::Prim(Prim::Add))
        ));
        assert!(matches!(
            parse("(<=)").kind,
            ExprKind::Const(Const::Prim(Prim::Le))
        ));
        // Application of a section.
        let e = parse("f (+) 1");
        let (_, args) = e.uncurry_app();
        assert!(matches!(
            args[0].kind,
            ExprKind::Const(Const::Prim(Prim::Add))
        ));
        // Not confused with parenthesized unary minus.
        let neg = parse("(-5)");
        let (head, _) = neg.uncurry_app();
        assert!(matches!(head.kind, ExprKind::Const(Const::Prim(Prim::Sub))));
    }

    #[test]
    fn parses_application_left_assoc() {
        let e = parse("f x y");
        let (head, args) = e.uncurry_app();
        assert!(matches!(head.kind, ExprKind::Var(_)));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn parses_lambda_multi_param() {
        let e = parse("lambda(x, y). x");
        assert_eq!(e.lambda_arity(), 2);
    }

    #[test]
    fn empty_lambda_params_rejected() {
        assert!(matches!(
            parse_expr("lambda(). 1").unwrap_err().kind,
            SyntaxErrorKind::EmptyLambdaParams
        ));
    }

    #[test]
    fn parses_if() {
        let e = parse("if true then 1 else 2");
        assert!(matches!(e.kind, ExprKind::If(..)));
    }

    #[test]
    fn parses_letrec_with_params() {
        let p = parse_program("letrec id x = x in id 3").unwrap();
        assert_eq!(p.bindings.len(), 1);
        assert_eq!(p.bindings[0].name.as_str(), "id");
        assert_eq!(p.bindings[0].expr.lambda_arity(), 1);
    }

    #[test]
    fn letrec_duplicate_binding_rejected() {
        assert!(matches!(
            parse_program("letrec f = 1; f = 2 in f").unwrap_err().kind,
            SyntaxErrorKind::DuplicateBinding(_)
        ));
    }

    #[test]
    fn empty_letrec_rejected() {
        assert!(matches!(
            parse_expr("letrec in 1").unwrap_err().kind,
            SyntaxErrorKind::EmptyLetrec
        ));
    }

    #[test]
    fn bare_expression_program() {
        let p = parse_program("1 + 2").unwrap();
        assert!(p.bindings.is_empty());
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3  ==  (+ 1 (* 2 3))
        let e = parse("1 + 2 * 3");
        let (head, args) = e.uncurry_app();
        assert!(matches!(head.kind, ExprKind::Const(Const::Prim(Prim::Add))));
        assert!(matches!(args[0].kind, ExprKind::Const(Const::Int(1))));
        let (inner_head, _) = args[1].uncurry_app();
        assert!(matches!(
            inner_head.kind,
            ExprKind::Const(Const::Prim(Prim::Mul))
        ));
    }

    #[test]
    fn comparison_binds_loosest() {
        let e = parse("1 + 2 = 3");
        let (head, _) = e.uncurry_app();
        assert!(matches!(head.kind, ExprKind::Const(Const::Prim(Prim::Eq))));
    }

    #[test]
    fn cons_is_right_associative() {
        // 1 :: 2 :: nil == cons 1 (cons 2 nil)
        let e = parse("1 :: 2 :: nil");
        let (head, args) = e.uncurry_app();
        assert!(matches!(
            head.kind,
            ExprKind::Const(Const::Prim(Prim::Cons))
        ));
        assert!(matches!(args[0].kind, ExprKind::Const(Const::Int(1))));
        let (h2, a2) = args[1].uncurry_app();
        assert!(matches!(h2.kind, ExprKind::Const(Const::Prim(Prim::Cons))));
        assert!(matches!(a2[1].kind, ExprKind::Const(Const::Nil)));
    }

    #[test]
    fn list_literal_desugars_to_cons() {
        let e = parse("[1, 2]");
        let (head, args) = e.uncurry_app();
        assert!(matches!(
            head.kind,
            ExprKind::Const(Const::Prim(Prim::Cons))
        ));
        assert!(matches!(args[0].kind, ExprKind::Const(Const::Int(1))));
        let empty = parse("[]");
        assert!(matches!(empty.kind, ExprKind::Const(Const::Nil)));
    }

    #[test]
    fn primitive_names_are_constants() {
        assert!(matches!(
            parse("cons").kind,
            ExprKind::Const(Const::Prim(Prim::Cons))
        ));
        assert!(matches!(parse("nil").kind, ExprKind::Const(Const::Nil)));
        assert!(matches!(parse("map").kind, ExprKind::Var(_)));
    }

    #[test]
    fn unary_minus_desugars() {
        let e = parse("-5");
        let (head, args) = e.uncurry_app();
        assert!(matches!(head.kind, ExprKind::Const(Const::Prim(Prim::Sub))));
        assert!(matches!(args[0].kind, ExprKind::Const(Const::Int(0))));
        assert!(matches!(args[1].kind, ExprKind::Const(Const::Int(5))));
    }

    #[test]
    fn ascription_parses_types() {
        let e = parse("(nil : int list list)");
        match &e.kind {
            ExprKind::Annot(_, ty) => assert_eq!(ty.to_string(), "int list list"),
            other => panic!("expected annot, got {other:?}"),
        }
    }

    #[test]
    fn ascription_function_types() {
        let e = parse("(f : (int -> int) -> int list)");
        match &e.kind {
            ExprKind::Annot(_, ty) => assert_eq!(ty.to_string(), "(int -> int) -> int list"),
            other => panic!("expected annot, got {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_expr("1 2)").is_err());
    }

    #[test]
    fn node_ids_unique() {
        let p = parse_program("letrec f x = x + 1 in f 2").unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in p.exprs() {
            assert!(seen.insert(e.id), "duplicate node id {:?}", e.id);
        }
    }

    /// The program the chunks of `src` assemble to, with `parse_program`'s
    /// node ids copied over so the two compare with `==`.
    fn via_chunks(src: &str) -> Option<Program> {
        let whole = parse_program(src).expect("test sources parse");
        let c = Chunks::split(src)?;
        let mut next = 0;
        let mut bindings = (0..c.names().len())
            .map(|i| c.parse_binding(i, &mut next))
            .collect::<Option<Vec<_>>>()?;
        let mut body = c.parse_body(&mut next)?;
        for (b, w) in bindings.iter_mut().zip(&whole.bindings) {
            assert!(
                crate::visit::same_tree(&b.expr, &w.expr),
                "{src}: {}",
                b.name
            );
            crate::visit::copy_node_ids(&mut b.expr, &w.expr);
        }
        crate::visit::copy_node_ids(&mut body, &whole.body);
        Some(Program {
            span: c.program_span(body.span),
            bindings,
            body,
            next_node_id: whole.next_node_id,
        })
    }

    #[test]
    fn chunks_assemble_to_the_whole_parse() {
        for src in [
            "letrec f x = x + 1;\n  g y = f (y : int)\nin g 1",
            "let a = letrec b = 1; c = 2 in b + c; d = (a) in d -- trailing comment",
            "letrec f = lambda(l). let g = 1 in car l + g; in (f [1, 2])",
            "letrec car = lambda(l). 0; h = lambda(x). car (cdr x) in h nil",
            "letrec f x = (if x then 1 else 2) (* c *) in f true",
        ] {
            let got = via_chunks(src).unwrap_or_else(|| panic!("{src}: did not split"));
            assert_eq!(got, parse_program(src).unwrap(), "{src}");
        }
        let c = Chunks::split("letrec car = 1; f x = x in car").unwrap();
        assert_eq!(c.shadows(), &[Symbol::intern("car")]);
        assert_eq!(c.binding_bytes(1), 16..23);
        assert_eq!(c.body_bytes(), 27..30);
    }

    #[test]
    fn chunks_decline_what_they_cannot_cut() {
        for src in [
            "1 + 2",
            "(letrec f = 1 in f)",
            "letrec in 1",
            "letrec f = 1; f = 2 in f",
            "letrec f = 1 in",
            "letrec ; in 1",
            "letrec f = 1 $ in f",
        ] {
            assert!(Chunks::split(src).is_none(), "{src}");
        }
        // Splits, but a chunk does not parse on its own.
        let c = Chunks::split("letrec f = (1 in f").unwrap();
        assert!(c.parse_binding(0, &mut 0).is_none());
        let c = Chunks::split("letrec f = 1 in f; 2").unwrap();
        assert!(c.parse_body(&mut 0).is_none());
    }

    #[test]
    fn paper_appendix_partition_sort_parses() {
        let src = r#"
            letrec
              append x y = if (null x) then y
                           else cons (car x) (append (cdr x) y);
              split p x l h =
                if (null x) then (cons l (cons h nil))
                else if (car x) < p
                     then split p (cdr x) (cons (car x) l) h
                     else split p (cdr x) l (cons (car x) h);
              ps x = if (null x) then nil
                     else append (ps (car (split (car x) (cdr x) nil nil)))
                                 (cons (car x) (ps (car (cdr (split (car x) (cdr x) nil nil)))))
            in ps [5, 2, 7, 1, 3, 4]
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.bindings.len(), 3);
    }
}
