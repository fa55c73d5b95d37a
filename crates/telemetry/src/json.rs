//! JSON string escaping for the hand-written debug and error bodies.

use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal:
/// backslashes, double quotes, and control characters (error bodies and
/// lifecycle events echo client-controlled text, which must never
/// produce malformed JSON).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
