//! The one JSON-lines writer. Every line the service emits — metrics and
//! ingest reports, stage breakdowns, slow-query records, flight-recorder
//! history and dumps, health verdicts, breaker states and telemetry
//! errors — is built by [`object`], which owns all of the syntax:
//!
//! * braces, brackets, colons and commas (a caller only names members);
//! * **strings**, keys and values alike: `"`, `\` and control characters
//!   are escaped (`\u00XX` for the latter), everything else is written as
//!   UTF-8;
//! * **numbers**: integers by `Display`; an `f64` with three decimals
//!   (`{:.3}`), or `null` when it is not finite, since JSON has no `inf`
//!   or `NaN`.
//!
//! [`flatten_json`](crate::flatten_json) is the one reader of the flat
//! objects written here.

#![deny(clippy::too_many_lines)]

use std::fmt::{Display, Write};

/// Writes one object: `object(|o| o.int("k", 1u64))` is `{"k":1}`.
pub(crate) fn object(fill: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::with_capacity(256);
    write_object(&mut out, fill);
    out
}

/// `{"error":<message>}`, the reply to a command that cannot be served.
pub(crate) fn error(message: &str) -> String {
    object(|o| o.str("error", message))
}

/// The integer types a line holds, written with `Display`.
pub(crate) trait Int: Display {}
impl Int for u32 {}
impl Int for u64 {}
impl Int for usize {}
impl Int for i32 {}

/// An object being written; each call appends one `"key":value` member.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    /// The comma before every member or element but the first.
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.out
    }

    fn key(&mut self, key: &str) -> &mut String {
        let out = self.next();
        push_escaped(out, key);
        out.push(':');
        out
    }

    /// An integer member.
    pub(crate) fn int(&mut self, key: &str, v: impl Int) {
        let _ = write!(self.key(key), "{v}");
    }

    /// A number member: three decimals, `null` when not finite.
    pub(crate) fn num(&mut self, key: &str, v: f64) {
        push_number(self.key(key), v);
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &str, v: &str) {
        push_escaped(self.key(key), v);
    }

    /// A `true` / `false` member.
    pub(crate) fn bool(&mut self, key: &str, v: bool) {
        let _ = write!(self.key(key), "{v}");
    }

    /// An array member whose elements `fill` writes.
    pub(crate) fn array(&mut self, key: &str, fill: impl FnOnce(&mut Arr)) {
        write_array(self.key(key), fill);
    }
}

/// An array being written; each call appends one element. It shares the
/// object's comma rule and has no keys.
pub(crate) struct Arr<'a>(Obj<'a>);

impl Arr<'_> {
    /// A number element (the object rule).
    pub(crate) fn num(&mut self, v: f64) {
        push_number(self.0.next(), v);
    }

    /// A string element.
    pub(crate) fn str(&mut self, v: &str) {
        push_escaped(self.0.next(), v);
    }

    /// An object element.
    pub(crate) fn object(&mut self, fill: impl FnOnce(&mut Obj)) {
        write_object(self.0.next(), fill);
    }

    /// A nested array element.
    pub(crate) fn array(&mut self, fill: impl FnOnce(&mut Arr)) {
        write_array(self.0.next(), fill);
    }
}

fn write_object(out: &mut String, fill: impl FnOnce(&mut Obj)) {
    out.push('{');
    fill(&mut Obj { out, empty: true });
    out.push('}');
}

fn write_array(out: &mut String, fill: impl FnOnce(&mut Arr)) {
    out.push('[');
    fill(&mut Arr(Obj { out, empty: true }));
    out.push(']');
}

fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push_str("null");
    }
}

/// Appends `v` as a quoted JSON string: quote, backslash and control
/// characters escaped. Everything that reaches a JSON line from outside the program
/// (a name off the telemetry socket, a rule's free text) goes through
/// here.
fn push_escaped(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_and_elements_are_comma_separated_and_nested() {
        let line = object(|o| {
            o.int("n", 3u64);
            o.int("neg", -1i32);
            o.num("x", 0.8125);
            o.bool("b", true);
            o.array("a", |a| {
                a.array(|p| {
                    p.num(1.0);
                    p.num(2.5);
                });
                a.object(|o| o.str("s", "v"));
                a.str("t");
            });
            o.array("empty", |_| {});
        });
        assert_eq!(
            line,
            r#"{"n":3,"neg":-1,"x":0.812,"b":true,"a":[[1.000,2.500],{"s":"v"},"t"],"empty":[]}"#
        );
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn non_finite_numbers_are_null() {
        let line = object(|o| {
            o.num("inf", f64::INFINITY);
            o.num("ninf", f64::NEG_INFINITY);
            o.num("nan", f64::NAN);
            o.array("p", |a| a.num(f64::NAN));
        });
        assert_eq!(line, r#"{"inf":null,"ninf":null,"nan":null,"p":[null]}"#);
    }

    #[test]
    fn keys_and_values_are_escaped() {
        let line = object(|o| o.str("a\"b\\c\n", "\u{1}\"\\é"));
        assert_eq!(line, r#"{"a\"b\\c\u000a":"\u0001\"\\é"}"#);
        assert_eq!(error("no \"x\""), r#"{"error":"no \"x\""}"#);
    }
}
