//! Tiny serde-free JSON emission helpers for the service's responses.
//!
//! The workspace bans external dependencies at runtime, so responses are
//! assembled with a minimal escaping writer — the same approach
//! `snaps-obs` uses for run reports.

use std::fmt::Write as _;

/// Append `s` as a JSON string literal (quotes included, escapes applied).
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    escaped(out, s);
    out.push('"');
}

/// Append `first second` as one JSON string literal: the same bytes as
/// [`string`] of the space-joined pair, without building the pair.
pub fn pair(out: &mut String, first: &str, second: &str) {
    out.push('"');
    escaped(out, first);
    out.push(' ');
    escaped(out, second);
    out.push('"');
}

/// Append the characters of `s` with JSON escapes applied, no quotes.
fn escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// Append `"key": ` (with trailing separator space).
pub fn key(out: &mut String, k: &str) {
    string(out, k);
    out.push_str(": ");
}

/// Append a finite `f64` with six decimal places; non-finite values (which
/// JSON cannot represent) are emitted as `null`.
pub fn f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

/// Append an `Option<f64>` as [`f64`] or `null`.
pub fn opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(x) => f64(out, x),
        None => out.push_str("null"),
    }
}

/// Append an `Option<i32>` as the number or `null`.
pub fn opt_i32(out: &mut String, v: Option<i32>) {
    match v {
        Some(x) => {
            let _ = write!(out, "{x}");
        }
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        string(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn pair_matches_string_of_the_joined_pair() {
        for (a, b) in [("flora", "macrae"), ("?", "o\"neil"), ("", "\n"), ("a\u{1}", "?")] {
            let (mut joined, mut paired) = (String::new(), String::new());
            string(&mut joined, &format!("{a} {b}"));
            pair(&mut paired, a, b);
            assert_eq!(paired, joined);
        }
    }

    #[test]
    fn numbers_and_nulls() {
        let mut out = String::new();
        f64(&mut out, 0.5);
        out.push(' ');
        f64(&mut out, f64::NAN);
        out.push(' ');
        opt_f64(&mut out, None);
        out.push(' ');
        opt_i32(&mut out, Some(-3));
        assert_eq!(out, "0.500000 null null -3");
    }
}
