//! Recursive-descent parser for the Fortran 90 subset.
//!
//! The grammar covers exactly what the Connection Machine Convolution
//! Compiler consumes: expressions over names, literals, `+ - * /`, calls
//! with positional or keyword arguments, whole-array assignment statements,
//! and `SUBROUTINE … END` units with `REAL, ARRAY(:,:) :: …` declarations.

use crate::ast::{Arg, Assign, BinOp, Decl, DirectedStmt, Expr, Program, Subroutine, UnaryOp};
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::span::Spanned;
use crate::token::{Token, TokenKind};

/// The deepest expression the parser accepts. A statement's nesting
/// depth is the most levels on one path from its root to a leaf, where
/// every binary operator, sign, call, parenthesis and operand is one
/// level. Every later stage walks the expression tree recursively, so a
/// deeper statement is refused here — with a [`ParseError`] — before it
/// can exhaust a thread's stack. The deepest accepted statement runs on
/// a default-sized (2 MiB) thread stack in an unoptimized build.
pub const MAX_NESTING: usize = 128;

/// Parses a single assignment statement, e.g.
/// `R = C1 * CSHIFT(X, DIM=1, SHIFT=-1) + C3 * X`.
///
/// Trailing newlines are permitted; any other trailing tokens are an error.
///
/// # Errors
///
/// Returns a [`ParseError`] with a span on malformed input.
///
/// # Examples
///
/// ```
/// use cmcc_front::parser::parse_assignment;
///
/// let stmt = parse_assignment("R = C1 * CSHIFT(X, 1, -1) + C2 * X")?;
/// assert_eq!(stmt.target.value, "R");
/// # Ok::<(), cmcc_front::error::ParseError>(())
/// ```
pub fn parse_assignment(source: &str) -> Result<Assign> {
    let mut p = Parser::new(source)?;
    p.skip_newlines();
    let stmt = p.assignment()?;
    p.skip_newlines();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a complete `SUBROUTINE … END` unit.
///
/// # Errors
///
/// Returns a [`ParseError`] with a span on malformed input.
///
/// # Examples
///
/// ```
/// use cmcc_front::parser::parse_subroutine;
///
/// let src = "
/// SUBROUTINE CROSS (R, X, C1)
/// REAL, ARRAY(:, :) :: R, X, C1
/// R = C1 * X
/// END
/// ";
/// let sub = parse_subroutine(src)?;
/// assert_eq!(sub.name.value, "CROSS");
/// assert_eq!(sub.params.len(), 3);
/// assert_eq!(sub.body.len(), 1);
/// # Ok::<(), cmcc_front::error::ParseError>(())
/// ```
pub fn parse_subroutine(source: &str) -> Result<Subroutine> {
    let mut p = Parser::new(source)?;
    p.skip_newlines();
    let sub = p.subroutine()?;
    p.skip_newlines();
    p.expect_eof()?;
    Ok(sub)
}

/// Parses a whole program unit: a sequence of assignment statements,
/// each optionally preceded by a `!CMF$ …` structured-comment directive
/// on its own line (paper §6).
///
/// # Errors
///
/// Returns a [`ParseError`] with a span on malformed input.
///
/// # Examples
///
/// ```
/// use cmcc_front::parser::parse_program;
///
/// let program = parse_program(
///     "Q = A + B\n\
///      !CMF$ STENCIL\n\
///      R = C1 * CSHIFT(X, 1, -1) + C2 * X\n",
/// )?;
/// assert_eq!(program.stmts.len(), 2);
/// assert!(program.stmts[0].directive.is_none());
/// assert_eq!(program.stmts[1].directive.as_ref().unwrap().value, "STENCIL");
/// # Ok::<(), cmcc_front::error::ParseError>(())
/// ```
pub fn parse_program(source: &str) -> Result<Program> {
    let mut p = Parser::new(source)?;
    let mut stmts = Vec::new();
    loop {
        p.skip_newlines();
        let directive = p.take_directive()?;
        p.skip_newlines();
        if p.at(&TokenKind::Eof) {
            if let Some(d) = directive {
                return Err(ParseError::new(
                    "directive is not followed by a statement",
                    d.span,
                ));
            }
            break;
        }
        let stmt = p.assignment()?;
        p.end_of_statement()?;
        stmts.push(DirectedStmt { directive, stmt });
    }
    Ok(Program { stmts })
}

/// Parses an expression on its own (used by tests and the s-expression
/// front end).
///
/// # Errors
///
/// Returns a [`ParseError`] with a span on malformed input.
pub fn parse_expression(source: &str) -> Result<Expr> {
    let mut p = Parser::new(source)?;
    p.skip_newlines();
    let (expr, _) = p.expression()?;
    p.skip_newlines();
    p.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Factors open on the call stack: every recursion of the expression
    /// grammar passes through [`Parser::factor`].
    open: usize,
}

impl Parser {
    fn new(source: &str) -> Result<Self> {
        Ok(Parser {
            tokens: lex(source)?,
            pos: 0,
            open: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let tok = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("expected {}", kind.describe())))
        }
    }

    fn unexpected(&self, what: &str) -> ParseError {
        let tok = self.peek();
        ParseError::new(format!("{what}, found {}", tok.kind.describe()), tok.span)
    }

    /// The nesting depth of a node whose deepest part is `depth` deep,
    /// refused past [`MAX_NESTING`].
    fn deeper(&self, depth: usize) -> Result<usize> {
        if depth >= MAX_NESTING {
            return Err(ParseError::new(
                format!("expression nested more than {MAX_NESTING} levels deep"),
                self.peek().span,
            ));
        }
        Ok(depth + 1)
    }

    fn skip_newlines(&mut self) {
        while self.at(&TokenKind::Newline) {
            self.bump();
        }
    }

    fn end_of_statement(&mut self) -> Result<()> {
        match &self.peek().kind {
            TokenKind::Newline => {
                self.skip_newlines();
                Ok(())
            }
            TokenKind::Eof => Ok(()),
            _ => Err(self.unexpected("expected end of statement")),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("expected end of input"))
        }
    }

    /// Consumes a directive token, if one is next.
    fn take_directive(&mut self) -> Result<Option<Spanned<String>>> {
        let tok = self.peek().clone();
        if let TokenKind::Directive(text) = tok.kind {
            self.bump();
            return Ok(Some(Spanned::new(text, tok.span)));
        }
        Ok(None)
    }

    fn ident(&mut self) -> Result<Spanned<String>> {
        let tok = self.peek().clone();
        match tok.kind {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Spanned::new(name, tok.span))
            }
            _ => Err(self.unexpected("expected an identifier")),
        }
    }

    fn keyword(&mut self, word: &str) -> Result<Token> {
        if self.peek().kind.is_keyword(word) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("expected `{word}`")))
        }
    }

    // Each expression production returns its result's nesting depth
    // (see `MAX_NESTING`) alongside it.

    // expression := term (('+' | '-') term)*
    fn expression(&mut self) -> Result<(Expr, usize)> {
        self.chain(Self::term, |kind| match kind {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    // term := factor (('*' | '/') factor)*
    fn term(&mut self) -> Result<(Expr, usize)> {
        self.chain(Self::factor, |kind| match kind {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// A left-associative chain of `operand`s joined by the operators
    /// `op` recognizes.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<(Expr, usize)>,
        op: fn(&TokenKind) -> Option<BinOp>,
    ) -> Result<(Expr, usize)> {
        let (mut lhs, mut depth) = operand(self)?;
        while let Some(op) = op(&self.peek().kind) {
            self.bump();
            let (rhs, rhs_depth) = operand(self)?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok((lhs, depth))
    }

    // factor := ('+' | '-') factor | primary
    //
    // Every recursion of the grammar passes through here, and each open
    // factor is at least one level of its result's depth, so refusing
    // the factor past `MAX_NESTING` bounds the parser's own recursion.
    fn factor(&mut self) -> Result<(Expr, usize)> {
        self.deeper(self.open)?;
        self.open += 1;
        let parsed = self.signed();
        self.open -= 1;
        parsed
    }

    fn signed(&mut self) -> Result<(Expr, usize)> {
        let tok = self.peek().clone();
        let op = match tok.kind {
            TokenKind::Plus => UnaryOp::Plus,
            TokenKind::Minus => UnaryOp::Neg,
            _ => return self.primary(),
        };
        self.bump();
        let (operand, depth) = self.factor()?;
        let span = tok.span.merge(operand.span());
        let unary = Expr::Unary {
            op,
            operand: Box::new(operand),
            span,
        };
        Ok((unary, self.deeper(depth)?))
    }

    // primary := name | name '(' args ')' | literal | '(' expression ')'
    fn primary(&mut self) -> Result<(Expr, usize)> {
        let tok = self.peek().clone();
        let leaf = match tok.kind {
            TokenKind::Ident(name) => {
                self.bump();
                let name = Spanned::new(name, tok.span);
                if self.at(&TokenKind::LParen) {
                    return self.call(name);
                }
                Expr::Name(name)
            }
            TokenKind::Int(v) => {
                self.bump();
                Expr::IntLit(Spanned::new(v, tok.span))
            }
            TokenKind::Real(v) => {
                self.bump();
                Expr::RealLit(Spanned::new(v, tok.span))
            }
            TokenKind::LParen => {
                self.bump();
                let (inner, depth) = self.expression()?;
                self.expect(TokenKind::RParen)?;
                return Ok((inner, self.deeper(depth)?));
            }
            _ => return Err(self.unexpected("expected an expression")),
        };
        Ok((leaf, 1))
    }

    fn call(&mut self, name: Spanned<String>) -> Result<(Expr, usize)> {
        self.expect(TokenKind::LParen)?;
        let (mut args, mut depth) = (Vec::new(), 0);
        if !self.at(&TokenKind::RParen) {
            loop {
                let (arg, arg_depth) = self.argument()?;
                args.push(arg);
                depth = depth.max(arg_depth);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let close = self.expect(TokenKind::RParen)?;
        let span = name.span.merge(close.span);
        Ok((Expr::Call { name, args, span }, self.deeper(depth)?))
    }

    // argument := IDENT '=' expression | expression
    fn argument(&mut self) -> Result<(Arg, usize)> {
        // Keyword form requires lookahead: IDENT followed by '='.
        if let TokenKind::Ident(name) = &self.peek().kind {
            let name = name.clone();
            let span = self.peek().span;
            if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Equals) {
                self.bump(); // ident
                self.bump(); // '='
                let (value, depth) = self.expression()?;
                return Ok((Arg::keyword(Spanned::new(name, span), value), depth));
            }
        }
        let (value, depth) = self.expression()?;
        Ok((Arg::positional(value), depth))
    }

    // assignment := IDENT '=' expression
    fn assignment(&mut self) -> Result<Assign> {
        let target = self.ident()?;
        self.expect(TokenKind::Equals)?;
        let (value, _) = self.expression()?;
        let span = target.span.merge(value.span());
        Ok(Assign {
            target,
            value,
            span,
        })
    }

    // subroutine := 'SUBROUTINE' IDENT '(' params ')' NEWLINE
    //               decl* assign* 'END' ['SUBROUTINE' [IDENT]]
    fn subroutine(&mut self) -> Result<Subroutine> {
        let kw = self.keyword("SUBROUTINE")?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        self.end_of_statement()?;

        let mut decls = Vec::new();
        while self.peek().kind.is_keyword("REAL")
            || self.peek().kind.is_keyword("INTEGER")
            || self.peek().kind.is_keyword("DOUBLE")
        {
            decls.push(self.declaration()?);
            self.end_of_statement()?;
        }

        let mut body = Vec::new();
        while !self.peek().kind.is_keyword("END") {
            if self.at(&TokenKind::Eof) {
                return Err(self.unexpected("expected `END`"));
            }
            body.push(self.assignment()?);
            self.end_of_statement()?;
        }
        let mut end_tok = self.keyword("END")?;
        if self.peek().kind.is_keyword("SUBROUTINE") {
            end_tok = self.bump();
            if matches!(self.peek().kind, TokenKind::Ident(_)) {
                end_tok = self.bump();
            }
        }
        Ok(Subroutine {
            span: kw.span.merge(end_tok.span),
            name,
            params,
            decls,
            body,
        })
    }

    // declaration := type [',' 'ARRAY' '(' ':' (',' ':')* ')'] '::' names
    //              | type names          (F77-style, no '::')
    fn declaration(&mut self) -> Result<Decl> {
        let type_name = self.ident()?;
        // Consume `PRECISION` of `DOUBLE PRECISION`.
        if type_name.value.eq_ignore_ascii_case("DOUBLE") {
            self.keyword("PRECISION")?;
        }
        let mut rank = 0;
        if self.eat(&TokenKind::Comma) {
            self.keyword("ARRAY")?;
            self.expect(TokenKind::LParen)?;
            loop {
                self.expect(TokenKind::Colon)?;
                rank += 1;
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        self.eat(&TokenKind::ColonColon);
        let mut names = Vec::new();
        loop {
            names.push(self.ident()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Decl {
            type_name,
            rank,
            names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_five_point_cross() {
        let src = "R = C1 * CSHIFT (X, DIM=1, SHIFT=-1) &
                     + C2 * CSHIFT (X, DIM=2, SHIFT=-1) &
                     + C3 * X &
                     + C4 * CSHIFT (X, DIM=2, SHIFT=+1) &
                     + C5 * CSHIFT (X, DIM=1, SHIFT=+1)";
        let stmt = parse_assignment(src).unwrap();
        assert_eq!(stmt.target.value, "R");
        // Left-associated chain of four adds.
        let mut adds = 0;
        let mut cur = &stmt.value;
        while let Expr::Binary {
            op: BinOp::Add,
            lhs,
            ..
        } = cur
        {
            adds += 1;
            cur = lhs;
        }
        assert_eq!(adds, 4);
    }

    #[test]
    fn keyword_and_positional_args() {
        let e = parse_expression("CSHIFT(X, DIM=1, SHIFT=-1)").unwrap();
        let Expr::Call { name, args, .. } = e else {
            panic!("not a call")
        };
        assert_eq!(name.value, "CSHIFT");
        assert_eq!(args.len(), 3);
        assert!(args[0].keyword.is_none());
        assert_eq!(args[1].keyword.as_ref().unwrap().value, "DIM");
        assert_eq!(args[2].value.as_const_int(), Some(-1));
    }

    #[test]
    fn nested_cshift_parses() {
        let e = parse_expression("CSHIFT(CSHIFT(X, 1, -1), 2, +1)").unwrap();
        let Expr::Call { args, .. } = &e else {
            panic!()
        };
        assert!(matches!(args[0].value, Expr::Call { .. }));
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expression("A + B * C").unwrap();
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &e
        else {
            panic!("expected top-level add: {e}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn unary_minus_binds_tighter_than_add() {
        let e = parse_expression("-A + B").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn parenthesized_expression() {
        let e = parse_expression("(A + B) * C").unwrap();
        let Expr::Binary {
            op: BinOp::Mul,
            lhs,
            ..
        } = &e
        else {
            panic!()
        };
        assert!(matches!(**lhs, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn parses_paper_subroutine() {
        let src = "
SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)
REAL, ARRAY( :, : ) :: R, X, C1, C2, C3, C4, C5
R = C1 * CSHIFT (X, 1, -1) &
  + C2 * CSHIFT (X, 2, -1) &
  + C3 * X &
  + C4 * CSHIFT (X, 2, +1) &
  + C5 * CSHIFT (X, 1, +1)
END
";
        let sub = parse_subroutine(src).unwrap();
        assert_eq!(sub.name.value, "CROSS");
        assert_eq!(sub.params.len(), 7);
        assert_eq!(sub.decls.len(), 1);
        assert_eq!(sub.decls[0].rank, 2);
        assert_eq!(sub.decls[0].names.len(), 7);
        assert_eq!(sub.body.len(), 1);
        assert_eq!(sub.rank_of("x"), Some(2));
    }

    #[test]
    fn end_subroutine_with_name() {
        let src = "SUBROUTINE S (R, X)\nREAL, ARRAY(:,:) :: R, X\nR = X\nEND SUBROUTINE S";
        let sub = parse_subroutine(src).unwrap();
        assert_eq!(sub.body.len(), 1);
    }

    #[test]
    fn multiple_assignments_in_body() {
        let src = "SUBROUTINE S (R, Q, X)\nREAL, ARRAY(:,:) :: R, Q, X\nR = X\nQ = X\nEND";
        let sub = parse_subroutine(src).unwrap();
        assert_eq!(sub.body.len(), 2);
    }

    #[test]
    fn missing_end_reports_error() {
        let err = parse_subroutine("SUBROUTINE S (X)\nREAL, ARRAY(:,:) :: X\n").unwrap_err();
        assert!(err.message().contains("END"), "{}", err.message());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_assignment("R = X Y").unwrap_err();
        assert!(
            err.message().contains("end of statement") || err.message().contains("end of input")
        );
    }

    #[test]
    fn error_spans_point_at_problem() {
        let src = "R = C1 * ,";
        let err = parse_assignment(src).unwrap_err();
        assert_eq!(err.span().slice(src), ",");
    }

    #[test]
    fn division_parses() {
        let e = parse_expression("A / B / C").unwrap();
        // Left associative: (A/B)/C
        let Expr::Binary {
            op: BinOp::Div,
            lhs,
            ..
        } = &e
        else {
            panic!()
        };
        assert!(matches!(**lhs, Expr::Binary { op: BinOp::Div, .. }));
    }

    #[test]
    fn subtraction_of_terms() {
        let e = parse_expression("A - B * X").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Sub, .. }));
    }

    #[test]
    fn empty_argument_list() {
        let e = parse_expression("F()").unwrap();
        let Expr::Call { args, .. } = e else { panic!() };
        assert!(args.is_empty());
    }

    /// Every operator, sign, call, parenthesis and operand on a path is
    /// one level: exactly `MAX_NESTING` levels parse, one more does not,
    /// and hostile nesting — 10,000-level parentheses, a 100,000-term
    /// sum — is refused before the parser's recursion or a deep tree can
    /// exhaust the stack.
    #[test]
    fn nesting_past_the_limit_is_refused() {
        let wrap = |n: usize, open: &str, close: &str| {
            format!("R = {}X{}", open.repeat(n - 1), close.repeat(n - 1))
        };
        let shapes: [&dyn Fn(usize) -> String; 5] = [
            &|n| wrap(n, "(", ")"),
            &|n| wrap(n, "CSHIFT(", ", 1, 1)"),
            &|n| wrap(n, "-", ""),
            &|n| format!("R = {}", vec!["X"; n].join(" + ")),
            // A deep operand on the left of a chain counts with the chain.
            &|n| wrap(n - 1, "-", "") + " + X",
        ];
        for shape in shapes {
            assert!(
                parse_assignment(&shape(MAX_NESTING)).is_ok(),
                "{}",
                shape(3)
            );
            for n in [MAX_NESTING + 1, 10_000, 100_000] {
                assert!(
                    parse_assignment(&shape(n))
                        .is_err_and(|e| e.message().contains("nested more than 128 levels")),
                    "{}, {n} levels",
                    shape(3)
                );
            }
        }
    }
}
