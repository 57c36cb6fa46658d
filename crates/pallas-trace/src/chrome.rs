//! Chrome trace-event JSON export.
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! Perfetto: spans become complete (`"ph":"X"`) events with
//! microsecond `ts`/`dur`, instant records become thread-scoped
//! (`"ph":"i"`) events, and the [`Layer`](crate::Layer) name rides in
//! `cat` so one layer of the hierarchy can be filtered in the UI.
//! Attributes land in `args` with their JSON types preserved.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{AttrValue, Record};
use std::fmt::Write as _;

/// Escapes `s` as the contents of a JSON string literal (quotes not
/// included), appending to `out`. Control characters, `"`, and `\` are
/// escaped; everything else passes through as UTF-8. The appending form
/// is the primitive: render paths that emit many strings reuse one
/// buffer instead of allocating a `String` per field. The trace export,
/// the NDJSON findings and the daemon's JSON all escape through it.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends `s` as a quoted JSON string literal.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    json_escape_into(out, s);
    out.push('"');
}

/// Microseconds with nanosecond fraction, the `ts`/`dur` unit.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn args_json(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(&mut out, key);
        out.push(':');
        match value {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Str(v) => push_str_lit(&mut out, v),
        }
    }
    out.push('}');
    out
}

/// Renders records as one Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`). Load the file in `chrome://tracing` or
/// [ui.perfetto.dev](https://ui.perfetto.dev); one track per
/// collector thread id.
pub fn export_chrome(records: &[Record]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_str_lit(&mut out, &r.name);
        let _ = write!(
            out,
            ",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            r.layer.name(),
            r.tid,
            us(r.start_ns),
        );
        match r.dur_ns {
            Some(dur) => {
                let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", us(dur));
            }
            None => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        let _ = write!(out, ",\"args\":{}}}", args_json(&r.attrs));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    fn record(name: &str, start: u64, dur: Option<u64>) -> Record {
        Record {
            layer: Layer::Stage,
            name: name.to_string(),
            tid: 7,
            start_ns: start,
            dur_ns: dur,
            incomplete: false,
            attrs: vec![("count", AttrValue::U64(3)), ("label", AttrValue::Str("a\"b".into()))],
        }
    }

    #[test]
    fn spans_become_complete_events() {
        let json = export_chrome(&[record("parse", 1_500, Some(2_750))]);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.750"), "{json}");
        assert!(json.contains("\"cat\":\"stage\""), "{json}");
        assert!(json.contains("\"tid\":7"), "{json}");
        assert!(json.contains("\"count\":3"), "{json}");
    }

    #[test]
    fn instants_become_thread_scoped_events() {
        let json = export_chrome(&[record("cache-hit", 10, None)]);
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"s\":\"t\""), "{json}");
        assert!(!json.contains("\"dur\""), "{json}");
    }

    #[test]
    fn names_and_attrs_are_escaped() {
        let json = export_chrome(&[record("we\"ird\n", 0, Some(1))]);
        assert!(json.contains("we\\\"ird\\n"), "{json}");
        assert!(json.contains("a\\\"b"), "{json}");
        let json = export_chrome(&[record("bs\u{8}ff\u{c}nul\u{0}", 0, Some(1))]);
        assert!(json.contains("bs\\bff\\fnul\\u0000"), "{json}");
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(export_chrome(&[]), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }
}
