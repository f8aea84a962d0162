//! The `defstencil` s-expression front end.
//!
//! The paper's first implementation was prototyped in Lucid Common Lisp and
//! accepted definitions of the form:
//!
//! ```lisp
//! (defstencil cross (r x c1 c2 c3 c4 c5)
//!   (single-float single-float)
//!   (:= r (+ (* c1 (cshift x 1 -1))
//!            (* c2 (cshift x 2 -1))
//!            (* c3 x)
//!            (* c4 (cshift x 2 +1))
//!            (* c5 (cshift x 1 +1)))))
//! ```
//!
//! This module parses that form into the same [`crate::ast`] the Fortran
//! parser produces, so both front ends feed one recognizer.

use crate::ast::{Arg, Assign, BinOp, Expr, UnaryOp};
use crate::error::{ParseError, Result};
use crate::parser::MAX_NESTING;
use crate::span::{Span, Spanned};

/// A parsed `defstencil` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct DefStencil {
    /// The stencil function name.
    pub name: String,
    /// Parameter names (result, source, coefficients), in order.
    pub params: Vec<String>,
    /// The element-type declaration pair, kept verbatim (e.g.
    /// `["single-float", "single-float"]`).
    pub types: Vec<String>,
    /// The assignment body, as ordinary AST.
    pub body: Assign,
}

/// Parses one `defstencil` form.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not a well-formed `defstencil`.
///
/// # Examples
///
/// ```
/// use cmcc_front::sexp::parse_defstencil;
///
/// let def = parse_defstencil(
///     "(defstencil id (r x c) (single-float single-float) (:= r (* c x)))",
/// )?;
/// assert_eq!(def.name, "id");
/// assert_eq!(def.params, vec!["r", "x", "c"]);
/// # Ok::<(), cmcc_front::error::ParseError>(())
/// ```
pub fn parse_defstencil(source: &str) -> Result<DefStencil> {
    let sexp = read_sexp(source)?;
    lower_defstencil(&sexp)
}

/// An s-expression: an atom or a list, with a source span.
#[derive(Debug, Clone, PartialEq)]
pub enum Sexp {
    /// A symbol or number.
    Atom(Spanned<String>),
    /// A parenthesized list.
    List(Vec<Sexp>, Span),
}

impl Sexp {
    /// The span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Sexp::Atom(a) => a.span,
            Sexp::List(_, span) => *span,
        }
    }

    fn as_atom(&self) -> Option<&str> {
        match self {
            Sexp::Atom(a) => Some(&a.value),
            Sexp::List(..) => None,
        }
    }

    fn as_list(&self) -> Option<&[Sexp]> {
        match self {
            Sexp::List(items, _) => Some(items),
            Sexp::Atom(_) => None,
        }
    }
}

/// Reads a single s-expression from `source`.
///
/// Lists nest at most [`MAX_NESTING`] deep, the Fortran parser's bound:
/// the reader, the lowering and the tree's drop all recurse once per
/// level, so a deeper form is refused before it can exhaust the stack.
///
/// # Errors
///
/// Returns a [`ParseError`] on unbalanced parentheses, lists nested
/// deeper than [`MAX_NESTING`], or trailing input.
pub fn read_sexp(source: &str) -> Result<Sexp> {
    let mut reader = Reader {
        bytes: source.as_bytes(),
        pos: 0,
        depth: 0,
    };
    reader.skip_ws();
    let sexp = reader.read()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(ParseError::new(
            "unexpected input after s-expression",
            Span::point(reader.pos),
        ));
    }
    Ok(sexp)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Lists open around the read position.
    depth: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b';' => {
                    while self.bytes.get(self.pos).is_some_and(|&c| c != b'\n') {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn read(&mut self) -> Result<Sexp> {
        match self.bytes.get(self.pos) {
            None => Err(ParseError::new(
                "unexpected end of input",
                Span::point(self.pos),
            )),
            Some(b'(') => {
                let start = self.pos;
                if self.depth == MAX_NESTING {
                    return Err(ParseError::new(
                        format!("s-expression nested more than {MAX_NESTING} lists deep"),
                        Span::point(start),
                    ));
                }
                self.depth += 1;
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        None => {
                            return Err(ParseError::new("unclosed parenthesis", Span::point(start)))
                        }
                        Some(b')') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Sexp::List(items, Span::new(start, self.pos)));
                        }
                        _ => items.push(self.read()?),
                    }
                }
            }
            Some(b')') => Err(ParseError::new(
                "unbalanced `)`",
                Span::new(self.pos, self.pos + 1),
            )),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    !matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b'(' | b')' | b';')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| {
                        ParseError::new("atom is not valid UTF-8", Span::new(start, self.pos))
                    })?
                    .to_owned();
                Ok(Sexp::Atom(Spanned::new(text, Span::new(start, self.pos))))
            }
        }
    }
}

fn lower_defstencil(sexp: &Sexp) -> Result<DefStencil> {
    let items = sexp
        .as_list()
        .ok_or_else(|| ParseError::new("expected a `defstencil` list", sexp.span()))?;
    let [head, name, params, types, body] = items else {
        return Err(ParseError::new(
            format!(
                "`defstencil` takes 4 arguments, found {}",
                items.len().saturating_sub(1)
            ),
            sexp.span(),
        ));
    };
    if head.as_atom().map(str::to_ascii_lowercase).as_deref() != Some("defstencil") {
        return Err(ParseError::new("expected `defstencil`", head.span()));
    }
    let name = name
        .as_atom()
        .ok_or_else(|| ParseError::new("stencil name must be a symbol", name.span()))?
        .to_owned();
    let params: Vec<String> = params
        .as_list()
        .ok_or_else(|| ParseError::new("parameter list must be a list", params.span()))?
        .iter()
        .map(|p| {
            p.as_atom()
                .map(str::to_owned)
                .ok_or_else(|| ParseError::new("parameter must be a symbol", p.span()))
        })
        .collect::<Result<_>>()?;
    let types: Vec<String> = types
        .as_list()
        .ok_or_else(|| ParseError::new("type list must be a list", types.span()))?
        .iter()
        .map(|t| {
            t.as_atom()
                .map(str::to_owned)
                .ok_or_else(|| ParseError::new("type must be a symbol", t.span()))
        })
        .collect::<Result<_>>()?;
    let body = lower_assign(body)?;
    Ok(DefStencil {
        name,
        params,
        types,
        body,
    })
}

fn lower_assign(sexp: &Sexp) -> Result<Assign> {
    let items = sexp
        .as_list()
        .ok_or_else(|| ParseError::new("body must be a `(:= r expr)` form", sexp.span()))?;
    let [op, target, value] = items else {
        return Err(ParseError::new(
            "body must have the form `(:= r expr)`",
            sexp.span(),
        ));
    };
    if op.as_atom() != Some(":=") {
        return Err(ParseError::new("expected `:=`", op.span()));
    }
    let Sexp::Atom(target) = target else {
        return Err(ParseError::new(
            "assignment target must be a symbol",
            target.span(),
        ));
    };
    let value = lower_expr(value)?;
    Ok(Assign {
        target: target.clone(),
        span: sexp.span(),
        value,
    })
}

fn lower_expr(sexp: &Sexp) -> Result<Expr> {
    match sexp {
        Sexp::Atom(atom) => lower_atom(atom),
        Sexp::List(items, span) => {
            let Some(head) = items.first() else {
                return Err(ParseError::new("empty expression", *span));
            };
            let head_name = head
                .as_atom()
                .ok_or_else(|| ParseError::new("operator must be a symbol", head.span()))?;
            match head_name.to_ascii_lowercase().as_str() {
                "+" => lower_variadic(BinOp::Add, &items[1..], *span),
                "-" => {
                    if items.len() == 2 {
                        let operand = lower_expr(&items[1])?;
                        Ok(Expr::Unary {
                            op: UnaryOp::Neg,
                            operand: Box::new(operand),
                            span: *span,
                        })
                    } else {
                        lower_variadic(BinOp::Sub, &items[1..], *span)
                    }
                }
                "*" => lower_variadic(BinOp::Mul, &items[1..], *span),
                "cshift" | "eoshift" => {
                    let args = items[1..]
                        .iter()
                        .map(|a| Ok(Arg::positional(lower_expr(a)?)))
                        .collect::<Result<Vec<_>>>()?;
                    Ok(Expr::Call {
                        name: Spanned::new(head_name.to_ascii_uppercase(), head.span()),
                        args,
                        span: *span,
                    })
                }
                other => Err(ParseError::new(
                    format!("unsupported operator `{other}` in stencil body"),
                    head.span(),
                )),
            }
        }
    }
}

fn lower_variadic(op: BinOp, operands: &[Sexp], span: Span) -> Result<Expr> {
    if operands.len() < 2 {
        return Err(ParseError::new(
            format!("`{}` needs at least two operands", op.symbol()),
            span,
        ));
    }
    let mut acc = lower_expr(&operands[0])?;
    for rhs in &operands[1..] {
        acc = Expr::Binary {
            op,
            lhs: Box::new(acc),
            rhs: Box::new(lower_expr(rhs)?),
        };
    }
    Ok(acc)
}

fn lower_atom(atom: &Spanned<String>) -> Result<Expr> {
    let text = &atom.value;
    if let Ok(v) = text.parse::<i64>() {
        return Ok(Expr::IntLit(Spanned::new(v, atom.span)));
    }
    // Accept explicit `+1` integers.
    if let Some(stripped) = text.strip_prefix('+') {
        if let Ok(v) = stripped.parse::<i64>() {
            return Ok(Expr::IntLit(Spanned::new(v, atom.span)));
        }
    }
    if let Ok(v) = text.parse::<f64>() {
        return Ok(Expr::RealLit(Spanned::new(v, atom.span)));
    }
    Ok(Expr::Name(atom.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CROSS: &str = "(defstencil cross (r x c1 c2 c3 c4 c5)
       (single-float single-float)
       (:= r (+ (* c1 (cshift x 1 -1))
                (* c2 (cshift x 2 -1))
                (* c3 x)
                (* c4 (cshift x 2 +1))
                (* c5 (cshift x 1 +1)))))";

    #[test]
    fn parses_paper_defstencil() {
        let def = parse_defstencil(CROSS).unwrap();
        assert_eq!(def.name, "cross");
        assert_eq!(def.params.len(), 7);
        assert_eq!(def.types, vec!["single-float", "single-float"]);
        assert_eq!(def.body.target.value, "r");
    }

    #[test]
    fn variadic_add_left_associates() {
        let def = parse_defstencil(
            "(defstencil s (r x a b c) (single-float single-float) (:= r (+ a b c)))",
        )
        .unwrap();
        let Expr::Binary {
            op: BinOp::Add,
            lhs,
            ..
        } = &def.body.value
        else {
            panic!()
        };
        assert!(matches!(**lhs, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn unary_minus_from_single_operand() {
        let def = parse_defstencil(
            "(defstencil s (r x c) (single-float single-float) (:= r (- (* c x))))",
        )
        .unwrap();
        assert!(matches!(
            def.body.value,
            Expr::Unary {
                op: UnaryOp::Neg,
                ..
            }
        ));
    }

    #[test]
    fn nested_cshift_lowered_as_call() {
        let def = parse_defstencil(
            "(defstencil s (r x c) (single-float single-float)
               (:= r (* c (cshift (cshift x 1 -1) 2 +1))))",
        )
        .unwrap();
        let Expr::Binary { rhs, .. } = &def.body.value else {
            panic!()
        };
        let Expr::Call { name, args, .. } = rhs.as_ref() else {
            panic!()
        };
        assert_eq!(name.value, "CSHIFT");
        assert!(matches!(args[0].value, Expr::Call { .. }));
        assert_eq!(args[2].value.as_const_int(), Some(1));
    }

    #[test]
    fn comments_are_skipped() {
        let def = parse_defstencil(
            "; the identity stencil\n(defstencil id (r x c) (a b) (:= r (* c x)))",
        )
        .unwrap();
        assert_eq!(def.name, "id");
    }

    #[test]
    fn unbalanced_parens_rejected() {
        assert!(read_sexp("(a (b)").is_err());
        assert!(read_sexp("a)").is_err());
        assert!(read_sexp("(a))").is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let err = parse_defstencil("(defstencil s (r x))").unwrap_err();
        assert!(err.message().contains("4 arguments"));
    }

    #[test]
    fn unsupported_operator_rejected() {
        let err = parse_defstencil("(defstencil s (r x c) (a b) (:= r (/ c x)))").unwrap_err();
        assert!(err.message().contains('/'), "{}", err.message());
    }

    #[test]
    fn atoms_classify_numbers_and_names() {
        assert!(matches!(
            lower_atom(&Spanned::new("3".into(), Span::point(0))).unwrap(),
            Expr::IntLit(_)
        ));
        assert!(matches!(
            lower_atom(&Spanned::new("+2".into(), Span::point(0))).unwrap(),
            Expr::IntLit(_)
        ));
        assert!(matches!(
            lower_atom(&Spanned::new("1.5".into(), Span::point(0))).unwrap(),
            Expr::RealLit(_)
        ));
        assert!(matches!(
            lower_atom(&Spanned::new("x".into(), Span::point(0))).unwrap(),
            Expr::Name(_)
        ));
    }

    /// `(defstencil s (r x) (single-float single-float) (:= r E))` whose
    /// expression `E` nests `depth` additions around `x`: the whole form
    /// is `depth + 2` lists deep.
    fn nested_defstencil(depth: usize) -> String {
        format!(
            "(defstencil s (r x) (single-float single-float) (:= r {}x{}))",
            "(+ ".repeat(depth),
            " 1)".repeat(depth)
        )
    }

    #[test]
    fn nesting_is_bounded() {
        for depth in [10_000, 100_000] {
            let err = parse_defstencil(&nested_defstencil(depth)).unwrap_err();
            assert!(err.message().contains("nested"), "{err}");
        }
        let at_limit = format!("{}x{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert!(read_sexp(&at_limit).is_ok());
        let past = format!("({at_limit})");
        assert!(read_sexp(&past).is_err());
        let def = parse_defstencil(&nested_defstencil(MAX_NESTING - 2)).unwrap();
        assert_eq!(def.name, "s");
    }
}
