//! JSON string escaping — the one implementation behind every hand-rolled
//! serializer in the workspace (`mi-metrics/1`, pass-pipeline traces, the
//! `evald-report/2` renderer, the `mi-serve/1` wire protocol). The same
//! string always renders to the same bytes.

use std::fmt::Write as _;

/// Renders `s` as a JSON string literal (with quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` as a JSON string literal (with quotes) to `out`: quotes,
/// backslashes and control characters escaped, everything else verbatim.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\r\t"), "\"\\r\\t\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_str("unicode \u{1F600}"), "\"unicode \u{1F600}\"");
    }
}
