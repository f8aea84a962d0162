//! Pattern-matching Fortran assignment statements into stencil IR.
//!
//! The compiler "processes single arithmetic assignment statements of the
//! form `R = T + T + ... + T`" where each term is `c*s(x)`, `s(x)*c`,
//! `s(x)`, or `c`, and `s(x)` is a nesting of `CSHIFT`/`EOSHIFT`
//! applications over a single array name (§2). This module is that
//! pattern matcher. Statements outside the form are rejected with a
//! spanned [`RecognizeError`] — the feedback the paper's structured
//! comment directive was designed to surface ("a warning if the statement
//! could not be processed by this technique after all", §6).
//!
//! ## Argument convention
//!
//! The paper consistently writes positional shifts as
//! `CSHIFT(array, dim, shift)` — e.g. `CSHIFT(X, 1, -1)` for
//! `DIM=1, SHIFT=-1` — which differs from the Fortran 90 standard order
//! `CSHIFT(array, shift, dim)`. This implementation follows the *paper's*
//! convention for positional arguments and also accepts the unambiguous
//! keyword forms `DIM=`/`SHIFT=`.

use crate::offset::Offset;
use crate::stencil::{Boundary, CoeffRef, Stencil, Tap};
use cmcc_front::ast::{Arg, Assign, BinOp, Expr, UnaryOp};
use cmcc_front::span::Span;
use std::fmt;

/// A coefficient operand as written in the source.
#[derive(Debug, Clone, PartialEq)]
pub enum CoeffSpec {
    /// A whole-array reference by name.
    Named(String),
    /// A scalar literal (an extension over the paper, executed by
    /// streaming from a constant-filled page).
    Literal(f32),
}

impl fmt::Display for CoeffSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoeffSpec::Named(name) => f.write_str(name),
            CoeffSpec::Literal(v) => write!(f, "{v:?}"),
        }
    }
}

/// A fully recognized stencil statement: the IR plus the name bindings
/// the run-time library needs to marshal arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilSpec {
    /// The assigned array name.
    pub target: String,
    /// The shifted source array names, indexed by [`crate::stencil::Tap::source`].
    /// The paper's form has exactly one; [`recognize_extended`] admits
    /// several (its §9 future work).
    pub sources: Vec<String>,
    /// Coefficient operands; [`CoeffRef::Array`] indexes into this list.
    pub coeffs: Vec<CoeffSpec>,
    /// The stencil itself.
    pub stencil: Stencil,
}

impl StencilSpec {
    /// The primary (first) source array name.
    pub fn source(&self) -> &str {
        &self.sources[0]
    }
}

/// A statement that does not match the convolution form.
#[derive(Debug, Clone, PartialEq)]
pub struct RecognizeError {
    message: String,
    span: Span,
}

impl RecognizeError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        RecognizeError {
            message: message.into(),
            span,
        }
    }

    /// The explanation, phrased for the user's benefit.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The offending source span.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for RecognizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a stencil statement: {}", self.message)
    }
}

impl std::error::Error for RecognizeError {}

/// Recognizes an assignment statement as a stencil computation.
///
/// # Errors
///
/// Returns [`RecognizeError`] when the statement is outside the sum-of-
/// products form: subtraction or division, shifts of more than one
/// variable, non-constant or out-of-range shift amounts, mixed
/// `CSHIFT`/`EOSHIFT`, or products of two shifted references.
///
/// # Examples
///
/// ```
/// use cmcc_front::parser::parse_assignment;
/// use cmcc_core::recognize::recognize;
///
/// let stmt = parse_assignment(
///     "R = C1 * CSHIFT(X, 1, -1) + C2 * X + C3 * CSHIFT(X, 1, +1)",
/// )?;
/// let spec = recognize(&stmt)?;
/// assert_eq!(spec.source(), "X");
/// assert_eq!(spec.stencil.taps().len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn recognize(stmt: &Assign) -> Result<StencilSpec, RecognizeError> {
    let _span = cmcc_obs::span(cmcc_obs::Phase::Recognize);
    Recognizer {
        multi: false,
        ..Recognizer::default()
    }
    .run(stmt)
}

/// Recognizes an assignment statement, additionally admitting shifts of
/// **several** source arrays in one statement — the paper's §9 future
/// work ("Future versions of the compiler should be able to handle all
/// ten terms as one stencil pattern"). Each distinct shifted variable
/// becomes a source, in order of first appearance.
///
/// # Errors
///
/// As for [`recognize`], except that multiple shifted variables are
/// accepted rather than rejected.
///
/// # Examples
///
/// ```
/// use cmcc_front::parser::parse_assignment;
/// use cmcc_core::recognize::recognize_extended;
///
/// // The Gordon Bell statement fused: nine taps on P plus the tenth
/// // term on P2 (the wavefield two steps before), one stencil.
/// let stmt = parse_assignment(
///     "R = C1 * CSHIFT(P, 1, -1) + C2 * P + C3 * CSHIFT(P, 1, +1) + C10 * CSHIFT(P2, 1, 0)",
/// )?;
/// let spec = recognize_extended(&stmt)?;
/// assert_eq!(spec.sources, vec!["P", "P2"]);
/// assert!(spec.stencil.is_multi_source());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn recognize_extended(stmt: &Assign) -> Result<StencilSpec, RecognizeError> {
    let _span = cmcc_obs::span(cmcc_obs::Phase::Recognize);
    Recognizer {
        multi: true,
        ..Recognizer::default()
    }
    .run(stmt)
}

/// A shifted reference: variable, accumulated offset, the shift kinds
/// encountered, and any explicit `BOUNDARY=` fill values.
#[derive(Debug, Clone)]
struct ShiftedRef {
    var: String,
    var_span: Span,
    offset: Offset,
    kinds: Vec<Boundary>,
    fills: Vec<(f32, Span)>,
}

/// A term before source-variable resolution.
#[derive(Debug, Clone)]
enum RawTerm {
    /// `coeff * shifted` (either operand order in the source).
    Product {
        coeff: RawCoeff,
        shifted: ShiftedRef,
    },
    /// A product of two bare names — which is the coefficient depends on
    /// which variable turns out to be the source.
    AmbiguousProduct {
        left: (String, Span),
        right: (String, Span),
        span: Span,
    },
    /// A lone shifted reference (unit coefficient) — or, if it is a bare
    /// name that is not the source, a bias term.
    Lone(ShiftedRef),
    /// A lone literal: a scalar bias.
    LoneLiteral(f32),
}

#[derive(Debug, Clone)]
enum RawCoeff {
    Named(String),
    Literal(f32),
}

#[derive(Default)]
struct Recognizer {
    coeffs: Vec<CoeffSpec>,
    /// Admit multiple shifted source variables (the §9 extension).
    multi: bool,
}

impl Recognizer {
    fn run(mut self, stmt: &Assign) -> Result<StencilSpec, RecognizeError> {
        let mut terms = Vec::new();
        flatten_sum(&stmt.value, &mut terms)?;
        let raw: Vec<RawTerm> = terms
            .iter()
            .map(|t| classify_term(t))
            .collect::<Result<_, _>>()?;

        let sources = resolve_sources(&raw, stmt, self.multi)?;
        let source_index = |name: &str| -> Option<u16> {
            sources
                .iter()
                .position(|s| s.eq_ignore_ascii_case(name))
                .map(|i| i as u16)
        };

        let mut taps = Vec::new();
        let mut bias = Vec::new();
        let mut kinds: Vec<Boundary> = Vec::new();
        let mut fills: Vec<(f32, Span)> = Vec::new();
        for term in raw {
            match term {
                RawTerm::Product { coeff, shifted } => {
                    let Some(si) = source_index(&shifted.var) else {
                        return Err(RecognizeError::new(
                            unknown_source_message(&shifted.var, &sources, self.multi),
                            shifted.var_span,
                        ));
                    };
                    kinds.extend(&shifted.kinds);
                    fills.extend(&shifted.fills);
                    let idx = self.intern(coeff);
                    taps.push(Tap {
                        offset: shifted.offset,
                        coeff: CoeffRef::Array(idx),
                        source: si,
                    });
                }
                RawTerm::AmbiguousProduct { left, right, span } => {
                    let (l_src, r_src) = (source_index(&left.0), source_index(&right.0));
                    let (coeff, si) = match (l_src, r_src) {
                        (None, Some(si)) => (left, si),
                        (Some(si), None) => (right, si),
                        (Some(_), Some(_)) => {
                            return Err(RecognizeError::new(
                                "term multiplies two source arrays together",
                                span,
                            ))
                        }
                        (None, None) => {
                            return Err(RecognizeError::new(
                                format!(
                                    "term references neither coefficient-times-source nor \
                                     source-times-coefficient (source is `{}`)",
                                    sources[0]
                                ),
                                span,
                            ))
                        }
                    };
                    let idx = self.intern(RawCoeff::Named(coeff.0));
                    taps.push(Tap {
                        offset: Offset::CENTER,
                        coeff: CoeffRef::Array(idx),
                        source: si,
                    });
                }
                RawTerm::Lone(shifted) => {
                    if let Some(si) = source_index(&shifted.var) {
                        kinds.extend(&shifted.kinds);
                        fills.extend(&shifted.fills);
                        taps.push(Tap {
                            offset: shifted.offset,
                            coeff: CoeffRef::Unit,
                            source: si,
                        });
                    } else if shifted.offset == Offset::CENTER && shifted.kinds.is_empty() {
                        // A bare non-source name: a bias coefficient term.
                        let idx = self.intern(RawCoeff::Named(shifted.var));
                        bias.push(idx);
                    } else {
                        return Err(RecognizeError::new(
                            unknown_source_message(&shifted.var, &sources, self.multi),
                            shifted.var_span,
                        ));
                    }
                }
                RawTerm::LoneLiteral(v) => {
                    let idx = self.intern(RawCoeff::Literal(v));
                    bias.push(idx);
                }
            }
        }

        let boundary = unify_boundary(&kinds, stmt.span)?;
        let mut stencil = Stencil::new(taps, bias, boundary, self.coeffs.len())
            .map_err(|e| RecognizeError::new(e.to_string(), stmt.span))?;
        // `BOUNDARY=` fill values must agree across the statement (one
        // halo is filled once).
        if let Some(&(first, _)) = fills.first() {
            if let Some(&(other, span)) = fills.iter().find(|(v, _)| v.to_bits() != first.to_bits())
            {
                return Err(RecognizeError::new(
                    format!("conflicting BOUNDARY= values in one statement: {first} and {other}"),
                    span,
                ));
            }
            stencil = stencil.with_fill(first);
        }

        if sources
            .iter()
            .any(|s| stmt.target.value.eq_ignore_ascii_case(s))
        {
            return Err(RecognizeError::new(
                "the result array must be distinct from the shifted source array",
                stmt.target.span,
            ));
        }

        Ok(StencilSpec {
            target: stmt.target.value.clone(),
            sources,
            coeffs: self.coeffs,
            stencil,
        })
    }

    fn intern(&mut self, coeff: RawCoeff) -> usize {
        let spec = match coeff {
            RawCoeff::Named(name) => CoeffSpec::Named(name),
            RawCoeff::Literal(v) => CoeffSpec::Literal(v),
        };
        let found = self.coeffs.iter().position(|c| match (c, &spec) {
            (CoeffSpec::Named(a), CoeffSpec::Named(b)) => a.eq_ignore_ascii_case(b),
            (CoeffSpec::Literal(a), CoeffSpec::Literal(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        });
        found.unwrap_or_else(|| {
            self.coeffs.push(spec);
            self.coeffs.len() - 1
        })
    }
}

/// Flattens a `+` chain, rejecting `-` and stray operators at term level.
fn flatten_sum<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) -> Result<(), RecognizeError> {
    match expr {
        Expr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
        } => {
            flatten_sum(lhs, out)?;
            flatten_sum(rhs, out)?;
            Ok(())
        }
        Expr::Binary { op: BinOp::Sub, .. } => Err(RecognizeError::new(
            "the right-hand side must be a sum of products; subtraction is not supported \
             (negate the coefficient array instead)",
            expr.span(),
        )),
        Expr::Unary {
            op: UnaryOp::Plus,
            operand,
            ..
        } => flatten_sum(operand, out),
        Expr::Unary {
            op: UnaryOp::Neg, ..
        } => Err(RecognizeError::new(
            "negated terms are not in the sum-of-products form (negate the coefficient \
             array instead)",
            expr.span(),
        )),
        other => {
            out.push(other);
            Ok(())
        }
    }
}

fn classify_term(term: &Expr) -> Result<RawTerm, RecognizeError> {
    match term {
        Expr::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
        } => classify_product(lhs, rhs, term.span()),
        Expr::Binary { op, .. } => Err(RecognizeError::new(
            format!("operator `{op}` is not allowed in a stencil term"),
            term.span(),
        )),
        Expr::Name(_) | Expr::Call { .. } => Ok(RawTerm::Lone(parse_shifted(term)?)),
        Expr::RealLit(v) => Ok(RawTerm::LoneLiteral(v.value as f32)),
        Expr::IntLit(v) => Ok(RawTerm::LoneLiteral(v.value as f32)),
        Expr::Unary { .. } => Err(RecognizeError::new(
            "unexpected sign inside a term",
            term.span(),
        )),
    }
}

fn classify_product(lhs: &Expr, rhs: &Expr, span: Span) -> Result<RawTerm, RecognizeError> {
    let l_shift = is_shift_call(lhs);
    let r_shift = is_shift_call(rhs);
    match (l_shift, r_shift) {
        (true, true) => Err(RecognizeError::new(
            "a term may not multiply two shifted references",
            span,
        )),
        (true, false) => Ok(RawTerm::Product {
            coeff: coeff_operand(rhs)?,
            shifted: parse_shifted(lhs)?,
        }),
        (false, true) => Ok(RawTerm::Product {
            coeff: coeff_operand(lhs)?,
            shifted: parse_shifted(rhs)?,
        }),
        (false, false) => match (lhs, rhs) {
            // Two bare names: the source is resolved statement-wide.
            (Expr::Name(l), Expr::Name(r)) => Ok(RawTerm::AmbiguousProduct {
                left: (l.value.clone(), l.span),
                right: (r.value.clone(), r.span),
                span,
            }),
            // literal * name or name * literal: the name must later prove
            // to be the source.
            (Expr::Name(n), other) | (other, Expr::Name(n)) => Ok(RawTerm::Product {
                coeff: coeff_operand(other)?,
                shifted: ShiftedRef {
                    var: n.value.clone(),
                    var_span: n.span,
                    offset: Offset::CENTER,
                    kinds: Vec::new(),
                    fills: Vec::new(),
                },
            }),
            _ => Err(RecognizeError::new(
                "term is not of the form coefficient * shifted-source",
                span,
            )),
        },
    }
}

fn coeff_operand(expr: &Expr) -> Result<RawCoeff, RecognizeError> {
    if let Some(v) = expr.as_const_real() {
        return Ok(RawCoeff::Literal(v as f32));
    }
    match expr {
        Expr::Name(n) => Ok(RawCoeff::Named(n.value.clone())),
        Expr::Call { name, .. } => Err(RecognizeError::new(
            format!(
                "`{}` is not a recognized stencil operation (only CSHIFT and EOSHIFT \
                 may be applied to the source)",
                name.value
            ),
            name.span,
        )),
        other => Err(RecognizeError::new(
            "coefficient must be an array name or a scalar literal",
            other.span(),
        )),
    }
}

fn is_shift_call(expr: &Expr) -> bool {
    matches!(expr, Expr::Call { name, .. }
        if name.value.eq_ignore_ascii_case("CSHIFT")
        || name.value.eq_ignore_ascii_case("EOSHIFT"))
}

/// The largest total shift along one dimension a stencil term may
/// carry. Far beyond any subgrid's halo, it keeps every later offset,
/// column span and register count well inside `i32`.
pub const MAX_SHIFT: i64 = 1 << 20;

/// Parses `s(x) ::= x | CSHIFT(s(x), k, m) | EOSHIFT(s(x), k, m)`.
fn parse_shifted(expr: &Expr) -> Result<ShiftedRef, RecognizeError> {
    match expr {
        Expr::Name(n) => Ok(ShiftedRef {
            var: n.value.clone(),
            var_span: n.span,
            offset: Offset::CENTER,
            kinds: Vec::new(),
            fills: Vec::new(),
        }),
        Expr::Call { name, args, span } => {
            let kind = if name.value.eq_ignore_ascii_case("CSHIFT") {
                Boundary::Circular
            } else if name.value.eq_ignore_ascii_case("EOSHIFT") {
                Boundary::ZeroFill
            } else {
                return Err(RecognizeError::new(
                    format!(
                        "only CSHIFT and EOSHIFT may appear in a stencil term, found `{}`",
                        name.value
                    ),
                    name.span,
                ));
            };
            let (inner, dim, shift, fill) = shift_args(args, *span, kind)?;
            let mut shifted = parse_shifted(inner)?;
            if !(1..=2).contains(&dim) {
                return Err(RecognizeError::new(
                    format!("DIM={dim} is out of range: compiled stencils are two-dimensional"),
                    *span,
                ));
            }
            let along = if dim == 1 {
                shifted.offset.drow
            } else {
                shifted.offset.dcol
            };
            let total = i64::from(along).saturating_add(shift);
            if !(-MAX_SHIFT..=MAX_SHIFT).contains(&total) {
                return Err(RecognizeError::new(
                    format!(
                        "shifts along DIM={dim} total {total}, out of range \
                         (at most {MAX_SHIFT} either way)"
                    ),
                    *span,
                ));
            }
            shifted.offset = shifted.offset + Offset::from_shift(dim as u32, shift as i32);
            shifted.kinds.push(kind);
            if let Some(f) = fill {
                shifted.fills.push((f, *span));
            }
            Ok(shifted)
        }
        other => Err(RecognizeError::new(
            "expected an array name or a CSHIFT/EOSHIFT application",
            other.span(),
        )),
    }
}

/// Extracts `(array, dim, shift, boundary)` from a shift call's
/// arguments, honoring the paper's positional order and the
/// `DIM=`/`SHIFT=` keywords. `EOSHIFT` additionally accepts
/// `BOUNDARY=` with a compile-time scalar (the end-off fill value).
fn shift_args(
    args: &[Arg],
    span: Span,
    kind: Boundary,
) -> Result<(&Expr, i64, i64, Option<f32>), RecognizeError> {
    if args.is_empty() || args[0].keyword.is_some() {
        return Err(RecognizeError::new(
            "a shift needs the array as its first argument",
            span,
        ));
    }
    let array = &args[0].value;
    let mut dim: Option<i64> = None;
    let mut shift: Option<i64> = None;
    let mut fill: Option<f32> = None;
    let mut positional = 0;
    for arg in &args[1..] {
        if let Some(kw) = &arg.keyword {
            if kw.value.eq_ignore_ascii_case("BOUNDARY") {
                if kind != Boundary::ZeroFill {
                    return Err(RecognizeError::new(
                        "BOUNDARY= applies only to EOSHIFT",
                        kw.span,
                    ));
                }
                if fill.is_some() {
                    return Err(RecognizeError::new(
                        "shift argument given twice",
                        arg.value.span(),
                    ));
                }
                fill = Some(arg.value.as_const_real().ok_or_else(|| {
                    RecognizeError::new(
                        "BOUNDARY= must be a compile-time scalar constant",
                        arg.value.span(),
                    )
                })? as f32);
                continue;
            }
        }
        let slot = match &arg.keyword {
            Some(kw) if kw.value.eq_ignore_ascii_case("DIM") => &mut dim,
            Some(kw) if kw.value.eq_ignore_ascii_case("SHIFT") => &mut shift,
            Some(kw) => {
                return Err(RecognizeError::new(
                    format!("unknown keyword `{}` in shift", kw.value),
                    kw.span,
                ))
            }
            None => {
                positional += 1;
                match positional {
                    1 => &mut dim,
                    2 => &mut shift,
                    _ => {
                        return Err(RecognizeError::new(
                            "too many positional arguments in shift",
                            arg.value.span(),
                        ))
                    }
                }
            }
        };
        if slot.is_some() {
            return Err(RecognizeError::new(
                "shift argument given twice",
                arg.value.span(),
            ));
        }
        let value = arg.value.as_const_int().ok_or_else(|| {
            RecognizeError::new(
                "shift arguments must be compile-time integer constants",
                arg.value.span(),
            )
        })?;
        *slot = Some(value);
    }
    let dim = dim.ok_or_else(|| RecognizeError::new("shift is missing DIM", span))?;
    let shift = shift.ok_or_else(|| RecognizeError::new("shift is missing SHIFT", span))?;
    Ok((array, dim, shift, fill))
}

/// Explains a reference to a variable that is not a recognized source,
/// phrased for the active mode.
fn unknown_source_message(var: &str, sources: &[String], multi: bool) -> String {
    if multi {
        format!(
            "`{var}` is not among the shifted source arrays [{}]",
            sources.join(", ")
        )
    } else {
        format!(
            "all shiftings must shift the same variable name: \
             found `{var}` but the source is `{}`",
            sources[0]
        )
    }
}

/// Finds the shifted variables (one unless `multi`), or applies the
/// bare-name heuristics when the statement contains no shifts at all.
fn resolve_sources(
    raw: &[RawTerm],
    stmt: &Assign,
    multi: bool,
) -> Result<Vec<String>, RecognizeError> {
    let mut shifted_vars: Vec<(&str, Span)> = Vec::new();
    for term in raw {
        let sref = match term {
            RawTerm::Product { shifted, .. } => Some(shifted),
            RawTerm::Lone(shifted) if !shifted.kinds.is_empty() => Some(shifted),
            _ => None,
        };
        if let Some(s) = sref {
            if !shifted_vars
                .iter()
                .any(|(v, _)| v.eq_ignore_ascii_case(&s.var))
            {
                // Products with an empty kind list are `coeff * name`
                // where the name is only *presumed* source; count only
                // real shift applications as evidence.
                if !s.kinds.is_empty() {
                    shifted_vars.push((&s.var, s.var_span));
                }
            }
        }
    }
    if shifted_vars.len() > 1 && !multi {
        return Err(RecognizeError::new(
            format!(
                "all shiftings within an assignment must shift the same variable name; \
                 found `{}` and `{}`",
                shifted_vars[0].0, shifted_vars[1].0
            ),
            shifted_vars[1].1,
        ));
    }
    if !shifted_vars.is_empty() {
        return Ok(shifted_vars.iter().map(|(v, _)| (*v).to_owned()).collect());
    }
    // No shifts anywhere. Heuristics, in paper style `c * x`:
    // the second factor of the first product is the source.
    for term in raw {
        match term {
            RawTerm::AmbiguousProduct { right, .. } => return Ok(vec![right.0.clone()]),
            RawTerm::Product { shifted, .. } => return Ok(vec![shifted.var.clone()]),
            _ => {}
        }
    }
    // A single bare name (`R = X`).
    for term in raw {
        if let RawTerm::Lone(s) = term {
            return Ok(vec![s.var.clone()]);
        }
    }
    Err(RecognizeError::new(
        "statement references no source array",
        stmt.span,
    ))
}

fn unify_boundary(kinds: &[Boundary], span: Span) -> Result<Boundary, RecognizeError> {
    let mut result: Option<Boundary> = None;
    for &k in kinds {
        match result {
            None => result = Some(k),
            Some(prev) if prev == k => {}
            Some(_) => {
                return Err(RecognizeError::new(
                    "mixing CSHIFT and EOSHIFT in one statement is not supported by this \
                     implementation",
                    span,
                ))
            }
        }
    }
    Ok(result.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcc_front::parser::parse_assignment;

    fn spec(src: &str) -> StencilSpec {
        recognize(&parse_assignment(src).unwrap()).unwrap()
    }

    fn err(src: &str) -> RecognizeError {
        recognize(&parse_assignment(src).unwrap()).unwrap_err()
    }

    #[test]
    fn paper_five_point_cross() {
        let s = spec(
            "R = C1 * CSHIFT (X, DIM=1, SHIFT=-1) \
               + C2 * CSHIFT (X, DIM=2, SHIFT=-1) \
               + C3 * X \
               + C4 * CSHIFT (X, DIM=2, SHIFT=+1) \
               + C5 * CSHIFT (X, DIM=1, SHIFT=+1)",
        );
        assert_eq!(s.target, "R");
        assert_eq!(s.source(), "X");
        assert_eq!(s.coeffs.len(), 5);
        let offsets: Vec<_> = s.stencil.taps().iter().map(|t| t.offset).collect();
        assert_eq!(
            offsets,
            vec![
                Offset::new(-1, 0),
                Offset::new(0, -1),
                Offset::new(0, 0),
                Offset::new(0, 1),
                Offset::new(1, 0),
            ]
        );
        assert_eq!(s.stencil.useful_flops_per_point(), 9);
    }

    #[test]
    fn paper_nested_shift_square() {
        // §2: the 3×3 square expressed with nested CSHIFTs.
        let s = spec(
            "R = C1 * CSHIFT(CSHIFT (X, 1,-1) ,2, -1) \
               + C2 * CSHIFT(X, 1, -1) \
               + C3 * CSHIFT(CSHIFT (X,1, -1) ,2,+1) \
               + C4 * CSHIFT (X,2,-1) \
               + C5 * X \
               + C6 * CSHIFT (X,2,+1) \
               + C7 * CSHIFT (CSHIFT (X, 1,+1) ,2, -1) \
               + C8 * CSHIFT(X, 1,+1) \
               + C9 * CSHIFT(CSHIFT (X, 1,+1) ,2, +1)",
        );
        assert_eq!(s.stencil.taps().len(), 9);
        assert!(s.stencil.needs_corner_exchange());
        let b = s.stencil.borders();
        assert_eq!((b.north, b.south, b.east, b.west), (1, 1, 1, 1));
        assert_eq!(s.stencil.useful_flops_per_point(), 17);
    }

    #[test]
    fn coefficient_on_either_side() {
        let s = spec("R = CSHIFT(X, 1, -1) * C1 + C2 * X");
        assert_eq!(s.coeffs.len(), 2);
        assert_eq!(s.stencil.taps().len(), 2);
    }

    #[test]
    fn unit_taps_and_bias_terms() {
        let s = spec("R = CSHIFT(X, 1, -1) + X + B");
        assert_eq!(s.stencil.taps().len(), 2);
        assert!(s.stencil.taps().iter().all(|t| t.coeff == CoeffRef::Unit));
        assert_eq!(s.stencil.bias(), &[0]);
        assert_eq!(s.coeffs, vec![CoeffSpec::Named("B".into())]);
        assert!(s.stencil.needs_one_register());
    }

    #[test]
    fn scalar_literal_coefficients() {
        let s = spec("R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)");
        assert_eq!(s.coeffs.len(), 2); // 0.25 deduplicated
        assert_eq!(s.coeffs[0], CoeffSpec::Literal(0.25));
        assert_eq!(s.stencil.taps().len(), 3);
    }

    #[test]
    fn repeated_coefficient_names_are_interned() {
        let s = spec("R = C * CSHIFT(X, 1, -1) + c * CSHIFT(X, 1, +1)");
        assert_eq!(s.coeffs.len(), 1, "case-insensitive dedup");
    }

    #[test]
    fn bare_product_resolves_source_from_other_terms() {
        let s = spec("R = C1 * X + C2 * CSHIFT(X, 2, 1)");
        assert_eq!(s.source(), "X");
        assert_eq!(s.stencil.taps()[0].offset, Offset::CENTER);
    }

    #[test]
    fn bare_product_without_shifts_uses_second_factor() {
        let s = spec("R = C1 * X");
        assert_eq!(s.source(), "X");
        assert_eq!(s.coeffs, vec![CoeffSpec::Named("C1".into())]);
    }

    #[test]
    fn eoshift_selects_zero_fill() {
        let s = spec("R = C1 * EOSHIFT(X, 1, -1) + C2 * EOSHIFT(X, 2, 1)");
        assert_eq!(s.stencil.boundary(), Boundary::ZeroFill);
    }

    #[test]
    fn eoshift_boundary_fill_value() {
        let s = spec("R = C1 * EOSHIFT(X, 1, -1, BOUNDARY=2.5) + C2 * EOSHIFT(X, 2, 1)");
        assert_eq!(s.stencil.boundary(), Boundary::ZeroFill);
        assert_eq!(s.stencil.fill(), 2.5);
    }

    #[test]
    fn negative_boundary_fill() {
        let s = spec("R = 1.0 * EOSHIFT(X, 1, +1, BOUNDARY=-1)");
        assert_eq!(s.stencil.fill(), -1.0);
    }

    #[test]
    fn conflicting_boundary_fills_rejected() {
        let e =
            err("R = C1 * EOSHIFT(X, 1, -1, BOUNDARY=1.0) + C2 * EOSHIFT(X, 1, 1, BOUNDARY=2.0)");
        assert!(e.message().contains("conflicting"), "{}", e.message());
    }

    #[test]
    fn boundary_on_cshift_rejected() {
        let e = err("R = C1 * CSHIFT(X, 1, -1, BOUNDARY=1.0)");
        assert!(e.message().contains("EOSHIFT"), "{}", e.message());
    }

    #[test]
    fn non_constant_boundary_rejected() {
        let e = err("R = C1 * EOSHIFT(X, 1, -1, BOUNDARY=K)");
        assert!(e.message().contains("scalar constant"), "{}", e.message());
    }

    #[test]
    fn mixed_shift_kinds_rejected() {
        let e = err("R = C1 * CSHIFT(X, 1, -1) + C2 * EOSHIFT(X, 1, 1)");
        assert!(e.message().contains("mixing"), "{}", e.message());
    }

    #[test]
    fn mixed_shift_variables_rejected() {
        let e = err("R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(Y, 1, 1)");
        assert!(e.message().contains("same variable"), "{}", e.message());
    }

    #[test]
    fn subtraction_rejected_with_guidance() {
        let e = err("R = C1 * X - C2 * CSHIFT(X, 1, 1)");
        assert!(e.message().contains("subtraction"), "{}", e.message());
    }

    #[test]
    fn division_rejected() {
        let e = err("R = C1 / X");
        assert!(e.message().contains('/'), "{}", e.message());
    }

    #[test]
    fn product_of_two_shifts_rejected() {
        let e = err("R = CSHIFT(X, 1, 1) * CSHIFT(X, 2, 1)");
        assert!(e.message().contains("two shifted"), "{}", e.message());
    }

    #[test]
    fn non_constant_shift_rejected() {
        let e = err("R = C * CSHIFT(X, 1, K)");
        assert!(e.message().contains("constant"), "{}", e.message());
    }

    #[test]
    fn dim_out_of_range_rejected() {
        let e = err("R = C * CSHIFT(X, 3, 1)");
        assert!(e.message().contains("DIM=3"), "{}", e.message());
    }

    #[test]
    fn keyword_shift_args_in_any_order() {
        let s = spec("R = C * CSHIFT(X, SHIFT=-2, DIM=2)");
        assert_eq!(s.stencil.taps()[0].offset, Offset::new(0, -2));
    }

    #[test]
    fn duplicate_shift_arg_rejected() {
        let e = err("R = C * CSHIFT(X, 1, DIM=2)");
        assert!(e.message().contains("twice"), "{}", e.message());
    }

    #[test]
    fn target_equal_to_source_rejected() {
        let e = err("X = C * CSHIFT(X, 1, 1)");
        assert!(e.message().contains("distinct"), "{}", e.message());
    }

    #[test]
    fn other_functions_rejected() {
        let e = err("R = C * TRANSPOSE(X)");
        assert!(e.message().contains("TRANSPOSE"), "{}", e.message());
    }

    #[test]
    fn source_times_source_rejected() {
        let e = err("R = X * X + C * CSHIFT(X, 1, 1)");
        assert!(e.message().contains("two source arrays"), "{}", e.message());
    }

    #[test]
    fn paper_asymmetric_pattern() {
        // §2's uncentered example.
        let s = spec(
            "R = C1 * X \
               + C2 * CSHIFT (X,2,+1) \
               + C3 * CSHIFT(CSHIFT (X, 1,+1) ,2,-1) \
               + C4 * CSHIFT (X, 1,+1) \
               + C5 * CSHIFT (X,1,+2)",
        );
        let b = s.stencil.borders();
        assert_eq!((b.north, b.south, b.east, b.west), (0, 2, 1, 1));
    }
}
