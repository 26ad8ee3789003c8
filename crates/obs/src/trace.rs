//! Chrome Trace Event Format exporter.
//!
//! Emits the JSON object form (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Each span
//! finished while trace events were on ([`crate::set_trace_events`])
//! becomes one complete event (`"ph": "X"`) with
//! microsecond `ts`/`dur`; counter totals are appended as counter
//! events (`"ph": "C"`) so they show up as tracks.
//!
//! The JSON is written by hand — the schema is flat and fixed, and this
//! crate deliberately has no serialization dependency.

use crate::{snapshot_events, Counter};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Render the collected trace as a Chrome trace-event JSON string.
pub fn chrome_trace_json() -> String {
    let (events, dropped) = snapshot_events();
    let mut out = String::with_capacity(256 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };

    // Process metadata so the tracks have a readable label.
    push_sep(&mut out, &mut first);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"smm\"}}",
    );

    let mut end_ts = 0u64;
    for ev in &events {
        end_ts = end_ts.max(ev.ts_us + ev.dur_us);
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"smm\",\"name\":\"{}\"",
            ev.tid,
            ev.ts_us,
            ev.dur_us,
            escape(ev.name)
        );
        if let Some(d) = &ev.detail {
            let _ = write!(out, ",\"args\":{{\"detail\":\"{}\"}}", escape(d));
        }
        out.push('}');
    }

    for c in Counter::ALL {
        let v = crate::counter_value(c);
        if v == 0 {
            continue;
        }
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"{}\",\
             \"args\":{{\"value\":{}}}}}",
            end_ts,
            escape(c.name()),
            v
        );
    }

    let _ = write!(out, "],\"otherData\":{{\"droppedEvents\":{dropped}}}}}");
    out
}

/// Write the Chrome trace JSON to `path`.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, chrome_trace_json())
}

/// Escape a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::{reset, set_enabled, set_trace_events, span};

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_json_is_well_formed_and_has_complete_events() {
        let _l = crate::test_lock();
        reset();
        set_enabled(true);
        set_trace_events(true);
        for i in 0..3 {
            let _g = crate::span!("trace.test", "layer{i}");
            std::hint::black_box(i);
        }
        {
            let _g = span("trace.plain");
        }
        set_enabled(false);
        set_trace_events(false);

        let text = chrome_trace_json();
        let value = json::parse(&text).expect("trace JSON must parse");
        let Value::Object(obj) = &value else {
            panic!("top level must be an object")
        };
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let Value::Array(events) = events else {
            panic!("traceEvents must be an array")
        };
        let complete: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::String(ph)) if ph == "X"))
            .collect();
        assert!(
            complete.len() >= 4,
            "one X event per span, got {}",
            complete.len()
        );
        for e in &complete {
            assert!(matches!(e.get("ts"), Some(Value::Number(_))));
            assert!(matches!(e.get("dur"), Some(Value::Number(_))));
            assert!(matches!(e.get("name"), Some(Value::String(_))));
        }
        reset();
    }
}
