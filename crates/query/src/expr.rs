//! The `--where` filter language: lexer, recursive-descent parser, AST.
//!
//! Grammar (standard precedence, `&&` binds tighter than `||`):
//!
//! ```text
//! expr    := or
//! or      := and ( '||' and )*
//! and     := unary ( '&&' unary )*
//! unary   := '!' unary | '(' expr ')' | comparison
//! comparison := field op value
//! field   := device | cohort | day | hour | os | wifi | venue
//! op      := '=' | '==' | '!=' | '<' | '<=' | '>' | '>='
//! value   := integer | keyword
//! ```
//!
//! Numeric fields (`device`, `day`, `hour`) accept every operator;
//! categorical fields (`os`, `wifi`, `venue`, `cohort`) accept only
//! `=`/`!=` — a cohort is a hash bucket and an ordering over venues is
//! meaningless, so the parser rejects `venue>home` at parse time with the
//! offset of the offending operator.
//!
//! Every error is a [`ParseError`]: byte offset into the source string,
//! what was found, and what the parser expected there. User input never
//! panics — the fuzz test in this module feeds the parser garbage and
//! expects `Err`, not unwinding.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels, twice over: at most that
//! many `(` / `!` may be open at once (the parser's own recursion), and
//! the parsed tree may be at most that many nodes tall (a left-deep
//! `a && b && …` chain is as tall as it is long). The second cap bounds
//! every recursive walk over a [`FilterExpr`] — evaluation,
//! [`FilterExpr::uses_venue`], `Display`, `Drop`. Deeper input is a
//! [`ParseError`] at the token that crossed a cap, not a stack overflow.

use mobitrace_core::ApClass;
use mobitrace_model::Os;
use std::fmt;

/// Comparison operator of one predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` / `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordered pair.
    pub fn eval<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// WiFi interface state, as named in the filter language. `on` covers
/// both associated and unassociated-but-enabled bins; `assoc` and
/// `available` are the two exclusive halves of `on`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WifiClass {
    /// Interface off.
    Off,
    /// Interface enabled (associated or not).
    On,
    /// Associated to an AP.
    Assoc,
    /// Enabled but unassociated (the offload analyses' "available").
    Available,
}

/// One field comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// Device id comparison.
    Device(CmpOp, u32),
    /// Fleet cohort equality (`=`/`!=` only; the hash bucket of the
    /// device id under the fleet router's splitmix64 mix).
    Cohort(CmpOp, u32),
    /// Campaign day comparison.
    Day(CmpOp, u32),
    /// Hour-of-day comparison (0–23).
    Hour(CmpOp, u32),
    /// Device OS (`=`/`!=` only).
    Os(CmpOp, Os),
    /// WiFi interface state (`=`/`!=` only).
    Wifi(CmpOp, WifiClass),
    /// Venue class of the *associated* AP (`=`/`!=` only). Rows that are
    /// not associated match no venue predicate, `!=` included: `venue!=
    /// home` selects rows associated to a non-home AP.
    Venue(CmpOp, ApClass),
}

/// Parsed filter expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterExpr {
    /// Leaf comparison.
    Pred(Predicate),
    /// Both sides must hold.
    And(Box<FilterExpr>, Box<FilterExpr>),
    /// Either side must hold.
    Or(Box<FilterExpr>, Box<FilterExpr>),
    /// Negation.
    Not(Box<FilterExpr>),
}

impl FilterExpr {
    /// Does any predicate in the tree need the AP/venue classification?
    /// The compiler uses this to skip the classification pass entirely
    /// for venue-free filters.
    pub fn uses_venue(&self) -> bool {
        match self {
            FilterExpr::Pred(p) => matches!(p, Predicate::Venue(..)),
            FilterExpr::And(a, b) | FilterExpr::Or(a, b) => a.uses_venue() || b.uses_venue(),
            FilterExpr::Not(a) => a.uses_venue(),
        }
    }
}

impl fmt::Display for FilterExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterExpr::Pred(p) => {
                let (field, op, value): (&str, CmpOp, String) = match *p {
                    Predicate::Device(op, v) => ("device", op, v.to_string()),
                    Predicate::Cohort(op, v) => ("cohort", op, v.to_string()),
                    Predicate::Day(op, v) => ("day", op, v.to_string()),
                    Predicate::Hour(op, v) => ("hour", op, v.to_string()),
                    Predicate::Os(op, os) => (
                        "os",
                        op,
                        match os {
                            Os::Android => "android".into(),
                            Os::Ios => "ios".into(),
                        },
                    ),
                    Predicate::Wifi(op, w) => (
                        "wifi",
                        op,
                        match w {
                            WifiClass::Off => "off".into(),
                            WifiClass::On => "on".into(),
                            WifiClass::Assoc => "assoc".into(),
                            WifiClass::Available => "available".into(),
                        },
                    ),
                    Predicate::Venue(op, v) => (
                        "venue",
                        op,
                        match v {
                            ApClass::Home => "home".into(),
                            ApClass::Public => "public".into(),
                            ApClass::Office => "office".into(),
                            ApClass::Other => "other".into(),
                        },
                    ),
                };
                write!(f, "{field}{}{value}", op.symbol())
            }
            FilterExpr::And(a, b) => write!(f, "({a} && {b})"),
            FilterExpr::Or(a, b) => write!(f, "({a} || {b})"),
            FilterExpr::Not(a) => write!(f, "!{a}"),
        }
    }
}

/// A filter parse error: where in the source string it happened, what was
/// there, and what the parser expected instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source string where the error starts.
    pub offset: usize,
    /// What was found at that offset (a token rendering, or
    /// `end of input`).
    pub found: String,
    /// What would have been valid there.
    pub expected: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "filter parse error at byte {}: expected {}, found {}",
            self.offset, self.expected, self.found
        )
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn new(offset: usize, found: impl Into<String>, expected: impl Into<String>) -> ParseError {
        ParseError { offset, found: found.into(), expected: expected.into() }
    }
}

/// Lexed token with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    Op(CmpOp),
    AndAnd,
    OrOr,
    Bang,
    LParen,
    RParen,
}

impl Tok {
    fn render(&self) -> String {
        match self {
            Tok::Ident(s) => format!("'{s}'"),
            Tok::Int(n) => format!("'{n}'"),
            Tok::Op(op) => format!("'{}'", op.symbol()),
            Tok::AndAnd => "'&&'".into(),
            Tok::OrOr => "'||'".into(),
            Tok::Bang => "'!'".into(),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            b')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    toks.push((i, Tok::AndAnd));
                    i += 2;
                } else {
                    return Err(ParseError::new(i, "'&'", "'&&'"));
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    toks.push((i, Tok::OrOr));
                    i += 2;
                } else {
                    return Err(ParseError::new(i, "'|'", "'||'"));
                }
            }
            b'=' => {
                toks.push((i, Tok::Op(CmpOp::Eq)));
                i += if bytes.get(i + 1) == Some(&b'=') { 2 } else { 1 };
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Op(CmpOp::Ne)));
                    i += 2;
                } else {
                    toks.push((i, Tok::Bang));
                    i += 1;
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Op(CmpOp::Le)));
                    i += 2;
                } else {
                    toks.push((i, Tok::Op(CmpOp::Lt)));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Op(CmpOp::Ge)));
                    i += 2;
                } else {
                    toks.push((i, Tok::Op(CmpOp::Gt)));
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let n: u64 = text.parse().map_err(|_| {
                    ParseError::new(start, format!("'{text}'"), "a smaller integer")
                })?;
                toks.push((start, Tok::Int(n)));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((start, Tok::Ident(src[start..i].to_ascii_lowercase())));
            }
            _ => {
                // Render the full character, not the raw byte, so UTF-8
                // input produces a readable error.
                let ch = src[i..].chars().next().unwrap_or('?');
                return Err(ParseError::new(
                    i,
                    format!("'{ch}'"),
                    "a field name, operator, number, '(', ')', '!', '&&' or '||'",
                ));
            }
        }
    }
    Ok(toks)
}

/// Deepest nesting a filter may reach (see the [module docs](self)).
pub const MAX_DEPTH: usize = 256;

/// Known field names, for the unknown-field error hint.
const FIELDS: &str = "one of the fields device, cohort, day, hour, os, wifi, venue";

struct Parser<'a> {
    toks: &'a [(usize, Tok)],
    pos: usize,
    /// Byte length of the source, for end-of-input offsets.
    end: usize,
    /// `(` / `!` levels open at the cursor (the parser's recursion).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&(usize, Tok)> {
        self.toks.get(self.pos)
    }

    fn err_here(&self, expected: impl Into<String>) -> ParseError {
        match self.peek() {
            Some((off, tok)) => ParseError::new(*off, tok.render(), expected),
            None => ParseError::new(self.end, "end of input", expected),
        }
    }

    /// Step over the `(` or `!` at the cursor, one more level of parser
    /// recursion.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err_here(format!("at most {MAX_DEPTH} levels of nesting")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Height (in edges) of a node over children of heights `h`, or an
    /// error at the token that built it when that exceeds the cap.
    fn node_height(&self, off: usize, tok: &Tok, h: usize) -> Result<usize, ParseError> {
        if h >= MAX_DEPTH {
            return Err(ParseError::new(
                off,
                tok.render(),
                format!("at most {MAX_DEPTH} levels of nesting"),
            ));
        }
        Ok(h + 1)
    }

    /// One `||` / `&&` chain (left-associative) over `operand`s. Returns
    /// the tree and its height.
    fn chain(
        &mut self,
        op: Tok,
        operand: fn(&mut Self) -> Result<(FilterExpr, usize), ParseError>,
        node: fn(Box<FilterExpr>, Box<FilterExpr>) -> FilterExpr,
    ) -> Result<(FilterExpr, usize), ParseError> {
        let (mut lhs, mut h) = operand(self)?;
        while let Some(&(off, _)) = self.peek().filter(|(_, t)| *t == op) {
            self.pos += 1;
            let (rhs, rh) = operand(self)?;
            h = self.node_height(off, &op, h.max(rh))?;
            lhs = node(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, h))
    }

    fn expr(&mut self) -> Result<(FilterExpr, usize), ParseError> {
        self.chain(Tok::OrOr, Self::and, FilterExpr::Or)
    }

    fn and(&mut self) -> Result<(FilterExpr, usize), ParseError> {
        self.chain(Tok::AndAnd, Self::unary, FilterExpr::And)
    }

    fn unary(&mut self) -> Result<(FilterExpr, usize), ParseError> {
        match self.peek() {
            Some(&(off, Tok::Bang)) => {
                self.descend()?;
                let (inner, h) = self.unary()?;
                self.depth -= 1;
                Ok((FilterExpr::Not(Box::new(inner)), self.node_height(off, &Tok::Bang, h)?))
            }
            Some((_, Tok::LParen)) => {
                self.descend()?;
                let inner = self.expr()?;
                match self.peek() {
                    Some((_, Tok::RParen)) => {
                        self.pos += 1;
                        self.depth -= 1;
                        Ok(inner)
                    }
                    _ => Err(self.err_here("')'")),
                }
            }
            _ => Ok((self.comparison()?, 0)),
        }
    }

    fn comparison(&mut self) -> Result<FilterExpr, ParseError> {
        let (field_off, field) = match self.peek() {
            Some((off, Tok::Ident(name))) => (*off, name.clone()),
            _ => return Err(self.err_here(format!("{FIELDS} (or '(', '!')"))),
        };
        self.pos += 1;
        let (op_off, op) = match self.peek() {
            Some((off, Tok::Op(op))) => (*off, *op),
            _ => return Err(self.err_here("a comparison operator (=, !=, <, <=, >, >=)")),
        };
        self.pos += 1;
        let pred = match field.as_str() {
            "device" => Predicate::Device(op, self.int_value("a device id")?),
            "day" => Predicate::Day(op, self.int_value("a campaign day number")?),
            "hour" => Predicate::Hour(op, self.int_value("an hour of day (0-23)")?),
            "cohort" => {
                self.require_eq(op, op_off, "cohort")?;
                Predicate::Cohort(op, self.int_value("a cohort index")?)
            }
            "os" => {
                self.require_eq(op, op_off, "os")?;
                let os = self.keyword_value(
                    "os",
                    &[("android", Os::Android), ("ios", Os::Ios)],
                    "android or ios",
                )?;
                Predicate::Os(op, os)
            }
            "wifi" => {
                self.require_eq(op, op_off, "wifi")?;
                let w = self.keyword_value(
                    "wifi",
                    &[
                        ("off", WifiClass::Off),
                        ("on", WifiClass::On),
                        ("assoc", WifiClass::Assoc),
                        ("available", WifiClass::Available),
                    ],
                    "off, on, assoc or available",
                )?;
                Predicate::Wifi(op, w)
            }
            "venue" => {
                self.require_eq(op, op_off, "venue")?;
                let v = self.keyword_value(
                    "venue",
                    &[
                        ("home", ApClass::Home),
                        ("public", ApClass::Public),
                        ("office", ApClass::Office),
                        ("other", ApClass::Other),
                    ],
                    "home, public, office or other",
                )?;
                Predicate::Venue(op, v)
            }
            other => {
                return Err(ParseError::new(field_off, format!("'{other}'"), FIELDS));
            }
        };
        Ok(FilterExpr::Pred(pred))
    }

    /// Categorical fields admit only `=`/`!=`.
    fn require_eq(&self, op: CmpOp, op_off: usize, field: &str) -> Result<(), ParseError> {
        if matches!(op, CmpOp::Eq | CmpOp::Ne) {
            Ok(())
        } else {
            Err(ParseError::new(
                op_off,
                format!("'{}'", op.symbol()),
                format!("'=' or '!=' ({field} is categorical, not ordered)"),
            ))
        }
    }

    fn int_value(&mut self, what: &str) -> Result<u32, ParseError> {
        match self.peek() {
            Some((off, Tok::Int(n))) => {
                let v = u32::try_from(*n).map_err(|_| {
                    ParseError::new(*off, format!("'{n}'"), format!("{what} below 2^32"))
                })?;
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.err_here(what.to_string())),
        }
    }

    fn keyword_value<T: Copy>(
        &mut self,
        field: &str,
        table: &[(&str, T)],
        expected: &str,
    ) -> Result<T, ParseError> {
        match self.peek() {
            Some((off, Tok::Ident(word))) => {
                for &(kw, v) in table {
                    if word == kw {
                        self.pos += 1;
                        return Ok(v);
                    }
                }
                Err(ParseError::new(*off, format!("'{word}'"), format!("{expected} for {field}")))
            }
            _ => Err(self.err_here(format!("{expected} for {field}"))),
        }
    }
}

/// Parse one filter expression. Empty (or all-whitespace) input is an
/// error: an explicitly unfiltered query is registered without a
/// `--where` clause, not with an empty one.
pub fn parse(src: &str) -> Result<FilterExpr, ParseError> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err(ParseError::new(0, "end of input", format!("{FIELDS} (or '(', '!')")));
    }
    let mut p = Parser { toks: &toks, pos: 0, end: src.len(), depth: 0 };
    let (expr, _) = p.expr()?;
    if let Some((off, tok)) = p.peek() {
        return Err(ParseError::new(*off, tok.render(), "'&&', '||' or end of input"));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(src: &str) -> Predicate {
        match parse(src).unwrap() {
            FilterExpr::Pred(p) => p,
            other => panic!("expected a leaf predicate, got {other:?}"),
        }
    }

    #[test]
    fn parses_every_field_and_operator() {
        assert_eq!(pred("device=7"), Predicate::Device(CmpOp::Eq, 7));
        assert_eq!(pred("device == 7"), Predicate::Device(CmpOp::Eq, 7));
        assert_eq!(pred("day>=180"), Predicate::Day(CmpOp::Ge, 180));
        assert_eq!(pred("day<3"), Predicate::Day(CmpOp::Lt, 3));
        assert_eq!(pred("hour<=23"), Predicate::Hour(CmpOp::Le, 23));
        assert_eq!(pred("hour>6"), Predicate::Hour(CmpOp::Gt, 6));
        assert_eq!(pred("cohort!=2"), Predicate::Cohort(CmpOp::Ne, 2));
        assert_eq!(pred("os=android"), Predicate::Os(CmpOp::Eq, Os::Android));
        assert_eq!(pred("os!=ios"), Predicate::Os(CmpOp::Ne, Os::Ios));
        assert_eq!(pred("wifi=assoc"), Predicate::Wifi(CmpOp::Eq, WifiClass::Assoc));
        assert_eq!(pred("WIFI=AVAILABLE"), Predicate::Wifi(CmpOp::Eq, WifiClass::Available));
        assert_eq!(pred("venue=home"), Predicate::Venue(CmpOp::Eq, ApClass::Home));
        assert_eq!(pred("venue!=office"), Predicate::Venue(CmpOp::Ne, ApClass::Office));
    }

    #[test]
    fn precedence_and_grouping() {
        // && binds tighter than ||.
        let e = parse("venue=home || venue=public && day>=1").unwrap();
        match e {
            FilterExpr::Or(_, rhs) => assert!(matches!(*rhs, FilterExpr::And(..))),
            other => panic!("expected Or at the root, got {other:?}"),
        }
        let grouped = parse("(venue=home || venue=public) && day>=1").unwrap();
        assert!(matches!(grouped, FilterExpr::And(..)));
        let negated = parse("!(wifi=off) && day<2").unwrap();
        match negated {
            FilterExpr::And(lhs, _) => assert!(matches!(*lhs, FilterExpr::Not(..))),
            other => panic!("expected And at the root, got {other:?}"),
        }
    }

    #[test]
    fn uses_venue_walks_the_tree() {
        assert!(parse("day>=1 && (os=ios || venue=home)").unwrap().uses_venue());
        assert!(!parse("day>=1 && (os=ios || wifi=assoc)").unwrap().uses_venue());
        assert!(parse("!venue!=public").unwrap().uses_venue());
    }

    #[test]
    fn unknown_field_reports_offset_and_hint() {
        let e = parse("day>=1 && foo=1").unwrap_err();
        assert_eq!(e.offset, 10);
        assert_eq!(e.found, "'foo'");
        assert!(e.expected.contains("device"), "hint lists fields: {e}");
        assert!(e.to_string().contains("at byte 10"));
    }

    #[test]
    fn categorical_fields_reject_order_operators() {
        let e = parse("venue>home").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(e.expected.contains("categorical"), "{e}");
        let e = parse("os<=android").unwrap_err();
        assert_eq!(e.offset, 2);
        let e = parse("cohort<3").unwrap_err();
        assert_eq!(e.offset, 6);
    }

    #[test]
    fn bad_values_report_the_expected_domain() {
        let e = parse("os=windows").unwrap_err();
        assert_eq!(e.offset, 3);
        assert!(e.expected.contains("android or ios"), "{e}");
        let e = parse("device=abc").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(e.expected.contains("device id"), "{e}");
        let e = parse("device=99999999999").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(e.expected.contains("2^32") || e.expected.contains("smaller"), "{e}");
    }

    #[test]
    fn truncated_input_reports_end_of_input() {
        let e = parse("day>=").unwrap_err();
        assert_eq!(e.offset, 5);
        assert_eq!(e.found, "end of input");
        let e = parse("day>=1 &&").unwrap_err();
        assert_eq!(e.offset, 9);
        assert_eq!(e.found, "end of input");
        let e = parse("(day=1").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(e.expected.contains("')'"), "{e}");
        let e = parse("").unwrap_err();
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn stray_tokens_and_single_ampersand() {
        let e = parse("day=1 day=2").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(e.expected.contains("'&&'"), "{e}");
        let e = parse("day=1 & day=2").unwrap_err();
        assert_eq!(e.offset, 6);
        assert_eq!(e.expected, "'&&'");
        let e = parse("day=1 | day=2").unwrap_err();
        assert_eq!(e.offset, 6);
    }

    /// Garbage never panics — every malformed input is an Err with an
    /// in-bounds offset.
    #[test]
    fn junk_input_errors_instead_of_panicking() {
        let cases = [
            "@#$%",
            "((((",
            "))))",
            "&&",
            "||",
            "!",
            "=5",
            "venue=",
            "day 1",
            "día>=1",
            "device=-1",
            "\u{1F600}",
            "venue=home &&",
            "os==",
            "wifi!=maybe",
            "1=device",
            "day>>=1",
            "(()",
            "device=1)",
        ];
        for src in cases {
            let err = parse(src).expect_err(src);
            assert!(err.offset <= src.len(), "{src}: offset {} out of bounds", err.offset);
            assert!(!err.expected.is_empty());
        }
    }

    /// Hostile nesting is an error, never a stack overflow.
    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let n = 100_000;
        let parens = format!("{}day=1{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse(&parens).unwrap_err().offset, MAX_DEPTH);
        let bangs = format!("{}day=1", "!".repeat(n));
        assert_eq!(parse(&bangs).unwrap_err().offset, MAX_DEPTH);
        let chain = vec!["day=1"; n].join("&&");
        let e = parse(&chain).unwrap_err();
        assert_eq!(e.offset, "day=1&&".len() * MAX_DEPTH + "day=1".len());
        assert!(e.expected.contains("levels of nesting"), "{e}");
    }

    /// Exactly [`MAX_DEPTH`] levels parse; one more fails at the token
    /// that crossed the cap.
    #[test]
    fn nesting_cap_is_exact() {
        let at_cap = format!("{}day=1{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert_eq!(parse(&at_cap).unwrap(), pred_expr("day=1"));
        let over = format!("{}day=1{}", "(".repeat(MAX_DEPTH + 1), ")".repeat(MAX_DEPTH + 1));
        let e = parse(&over).unwrap_err();
        assert_eq!((e.offset, e.found.as_str()), (MAX_DEPTH, "'('"));
        assert!(parse(&format!("{}day=1", "!".repeat(MAX_DEPTH))).is_ok());
        let e = parse(&format!("{}day=1", "!".repeat(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!((e.offset, e.found.as_str()), (MAX_DEPTH, "'!'"));
        // Mixed: levels add up across kinds, and closing a group frees
        // its levels for the next one.
        let half = MAX_DEPTH / 2;
        let mixed = format!("{}({}day=1)", "!".repeat(half), "!".repeat(half - 1));
        assert!(parse(&mixed).is_ok());
        // Closed groups free their levels: two full-depth groups side by
        // side parse.
        assert!(parse(&format!("{at_cap} && {at_cap}")).is_ok());
        // Tree height: a `!` run at the cap under one more `&&` is too tall,
        // and the error lands on that operator.
        let tall = format!("{}day=1 && day=2", "!".repeat(MAX_DEPTH));
        let e = parse(&tall).unwrap_err();
        assert_eq!((e.offset, e.found.as_str()), (MAX_DEPTH + 6, "'&&'"));
        // Left-grouped `&&`: each group adds one `(` level and one tree
        // level, so both caps bind at the same count.
        let mut grouped = String::from("day=1");
        for _ in 0..MAX_DEPTH {
            grouped = format!("({grouped} && day=1)");
        }
        assert!(parse(&grouped).is_ok());
        assert!(parse(&format!("({grouped} && day=1)")).is_err());
    }

    fn pred_expr(src: &str) -> FilterExpr {
        FilterExpr::Pred(pred(src))
    }

    #[test]
    fn display_round_trips_structure() {
        let e = parse("(venue=home || venue=public) && day>=180 && !(wifi=off)").unwrap();
        let printed = e.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(e, reparsed, "display output {printed} must reparse to the same tree");
    }
}
