//! The telemetry collector: events, spans, counters, metrics.
//!
//! # Zero cost when disabled
//!
//! A disabled [`Collector`] is a single `None` — every record method is
//! one branch and returns without allocating, so instrumented hot loops
//! pay nothing when telemetry is off (asserted by the crate's
//! counting-allocator test).
//!
//! # Determinism
//!
//! Timestamps are **simulated or logical time** (cycles, trial indices,
//! simulated picoseconds) — never the wall clock, which only the
//! [`crate::clock`] module may read. Parallel stages return their
//! results in item-index order (`par_map_indexed`) and the calling
//! thread records them, so the byte stream every sink produces is
//! identical at 1, 2, or 8 workers.

use crate::json::{write_obj, write_str, Value};
use std::collections::BTreeMap;
use std::io;

/// A structured instant event stamped with simulated/logical time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, e.g. `"flit.inject"`.
    pub name: String,
    /// Timestamp in the collector's timebase.
    pub ts: f64,
    /// Ordered key/value payload.
    pub fields: BTreeMap<String, Value>,
}

/// A completed span: a named interval in the collector's timebase.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `"trial"`.
    pub name: String,
    /// Category (Chrome trace `cat`), e.g. `"mc"`.
    pub cat: String,
    /// Start timestamp in the collector's timebase.
    pub ts: f64,
    /// Duration in the collector's timebase.
    pub dur: f64,
    /// Track (Chrome trace `tid`) the span renders on.
    pub track: u64,
    /// Ordered key/value payload (always carries the item index for
    /// parallel work, which is what keeps the stream ordered).
    pub args: BTreeMap<String, Value>,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    timebase: String,
    events: Vec<Event>,
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    metrics: BTreeMap<String, Value>,
}

/// Collects structured telemetry; free when disabled.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Option<Box<Inner>>,
}

fn to_map(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect()
}

impl Collector {
    /// A disabled collector: every record call is a no-op branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled collector whose timestamps are in `timebase` (e.g.
    /// `"cycles"`, `"trial-index"`, `"sim-ps"`).
    pub fn enabled(timebase: &str) -> Self {
        Self {
            inner: Some(Box::new(Inner {
                timebase: timebase.to_owned(),
                ..Inner::default()
            })),
        }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The timebase label (empty when disabled).
    pub fn timebase(&self) -> &str {
        self.inner.as_ref().map_or("", |i| &i.timebase)
    }

    /// Records an instant event.
    pub fn event(&mut self, name: &str, ts: f64, fields: &[(&str, Value)]) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.events.push(Event {
            name: name.to_owned(),
            ts,
            fields: to_map(fields),
        });
    }

    /// Records a completed span.
    pub fn span(
        &mut self,
        name: &str,
        cat: &str,
        ts: f64,
        dur: f64,
        track: u64,
        args: &[(&str, Value)],
    ) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.spans.push(Span {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ts,
            dur,
            track,
            args: to_map(args),
        });
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, counter: &str, delta: u64) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        *inner.counters.entry(counter.to_owned()).or_insert(0) += delta;
    }

    /// Sets a named scalar metric (last write wins).
    pub fn set_metric(&mut self, name: &str, value: Value) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.insert(name.to_owned(), value);
    }

    /// The recorded events (empty when disabled).
    pub fn events(&self) -> &[Event] {
        self.inner.as_ref().map_or(&[], |i| &i.events)
    }

    /// The recorded spans (empty when disabled).
    pub fn spans(&self) -> &[Span] {
        self.inner.as_ref().map_or(&[], |i| &i.spans)
    }

    /// The counters in sorted name order (empty when disabled).
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        static EMPTY: BTreeMap<String, u64> = BTreeMap::new();
        self.inner.as_ref().map_or(&EMPTY, |i| &i.counters)
    }

    /// The scalar metrics in sorted name order (empty when disabled).
    pub fn metrics(&self) -> &BTreeMap<String, Value> {
        static EMPTY: BTreeMap<String, Value> = BTreeMap::new();
        self.inner.as_ref().map_or(&EMPTY, |i| &i.metrics)
    }

    /// One counter's value (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters().get(name).copied().unwrap_or(0)
    }

    /// Writes the JSONL structured-event stream: one JSON object per
    /// line — events, then spans, then counters, then metrics, each in
    /// deterministic (record, then sorted-name) order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_events_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut line = String::new();
        for e in self.events() {
            line.clear();
            line.push_str("{\"type\":\"event\",\"name\":");
            write_str(&mut line, &e.name);
            line.push_str(",\"ts\":");
            crate::json::write_f64(&mut line, e.ts);
            line.push_str(",\"fields\":");
            write_obj(&mut line, &e.fields);
            line.push('}');
            writeln!(w, "{line}")?;
        }
        for s in self.spans() {
            line.clear();
            line.push_str("{\"type\":\"span\",\"name\":");
            write_str(&mut line, &s.name);
            line.push_str(",\"cat\":");
            write_str(&mut line, &s.cat);
            line.push_str(",\"ts\":");
            crate::json::write_f64(&mut line, s.ts);
            line.push_str(",\"dur\":");
            crate::json::write_f64(&mut line, s.dur);
            line.push_str(",\"track\":");
            let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{}", s.track));
            line.push_str(",\"args\":");
            write_obj(&mut line, &s.args);
            line.push('}');
            writeln!(w, "{line}")?;
        }
        for (name, value) in self.counters() {
            line.clear();
            line.push_str("{\"type\":\"counter\",\"name\":");
            write_str(&mut line, name);
            line.push_str(",\"value\":");
            let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{value}"));
            line.push('}');
            writeln!(w, "{line}")?;
        }
        for (name, value) in self.metrics() {
            line.clear();
            line.push_str("{\"type\":\"metric\",\"name\":");
            write_str(&mut line, name);
            line.push_str(",\"value\":");
            value.write_json(&mut line);
            line.push('}');
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Renders the Chrome `trace_event` JSON document (one `"X"`
    /// complete event per span, one `"i"` instant event per event),
    /// loadable in Perfetto / `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"timebase\":");
        write_str(&mut out, self.timebase());
        out.push_str("},\"traceEvents\":[");
        let mut first = true;
        for s in self.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            write_str(&mut out, &s.name);
            out.push_str(",\"cat\":");
            write_str(&mut out, &s.cat);
            out.push_str(",\"ph\":\"X\",\"ts\":");
            crate::json::write_f64(&mut out, s.ts);
            out.push_str(",\"dur\":");
            crate::json::write_f64(&mut out, s.dur);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(",\"pid\":0,\"tid\":{},\"args\":", s.track),
            );
            write_obj(&mut out, &s.args);
            out.push('}');
        }
        for e in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            write_str(&mut out, &e.name);
            out.push_str(",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":");
            crate::json::write_f64(&mut out, e.ts);
            out.push_str(",\"pid\":0,\"tid\":0,\"args\":");
            write_obj(&mut out, &e.fields);
            out.push('}');
        }
        if !self.counters().is_empty() {
            if !first {
                out.push(',');
            }
            out.push_str(
                "{\"name\":\"srlr.counters\",\"cat\":\"meta\",\"ph\":\"i\",\"s\":\"g\",\
                 \"ts\":0,\"pid\":0,\"tid\":0,\"args\":",
            );
            let counters: BTreeMap<String, Value> = self
                .counters()
                .iter()
                .map(|(k, &v)| (k.clone(), Value::U64(v)))
                .collect();
            write_obj(&mut out, &counters);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Writes [`Collector::chrome_trace_json`] to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.chrome_trace_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn sample() -> Collector {
        let mut c = Collector::enabled("cycles");
        c.event("flit.inject", 3.0, &[("packet", Value::U64(7))]);
        c.span("trial", "mc", 0.0, 1.0, 0, &[("trial", Value::U64(0))]);
        c.add("retries", 2);
        c.add("retries", 3);
        c.set_metric("delivered", Value::F64(0.5));
        c
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = Collector::disabled();
        c.event("e", 0.0, &[("k", Value::U64(1))]);
        c.span("s", "c", 0.0, 1.0, 0, &[]);
        c.add("n", 5);
        c.set_metric("m", Value::Bool(true));
        assert!(!c.is_enabled());
        assert!(c.events().is_empty() && c.spans().is_empty());
        assert!(c.counters().is_empty() && c.metrics().is_empty());
        assert_eq!(c.counter("n"), 0);
        assert_eq!(c.timebase(), "");
    }

    #[test]
    fn enabled_collector_accumulates() {
        let c = sample();
        assert_eq!(c.events().len(), 1);
        assert_eq!(c.spans().len(), 1);
        assert_eq!(c.counter("retries"), 5);
        assert_eq!(c.metrics().get("delivered"), Some(&Value::F64(0.5)));
        assert_eq!(c.timebase(), "cycles");
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let mut buf = Vec::new();
        sample().write_events_jsonl(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "event + span + counter + metric");
        for line in &lines {
            assert!(parse(line).is_ok(), "invalid JSONL line: {line}");
        }
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[2].contains("\"retries\""));
        assert!(lines[2].contains("\"value\":5"));
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let doc = parse(&sample().chrome_trace_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // span + event + counters-metadata event.
        assert_eq!(events.len(), 3);
        let span = &events[0];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("name").and_then(Json::as_str), Some("trial"));
        assert!(span.get("ts").and_then(Json::as_num).is_some());
        assert!(span.get("dur").and_then(Json::as_num).is_some());
        let instant = &events[1];
        assert_eq!(instant.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("timebase"))
                .and_then(Json::as_str),
            Some("cycles")
        );
    }

    #[test]
    fn empty_enabled_collector_emits_empty_but_valid_sinks() {
        let c = Collector::enabled("t");
        let doc = parse(&c.chrome_trace_json()).expect("valid");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        let mut buf = Vec::new();
        c.write_events_jsonl(&mut buf).expect("write");
        assert!(buf.is_empty());
    }
}
