//! Structured tracing: digest-derived span identity, NDJSON trace
//! documents, and chrome://tracing export.
//!
//! Identity never comes from wall-clock randomness: a [`TraceCtx`] root
//! is the `gdf_core::digest` of a caller-chosen seed string (job id +
//! spec digest, fleet plan digest, …), and children chain by digesting
//! the parent identity plus the span name. Two runs of the same campaign
//! therefore carry the same trace id — which is exactly what makes
//! cross-node correlation greppable — while span *timings* are ordinary
//! wall time, kept strictly outside every canonical artifact.
//!
//! The wire contract is one header: `X-Gdf-Trace: <32-hex trace>-<16-hex
//! span>`. A server receiving it parents the job's trace under the
//! caller's campaign; a server receiving nothing derives a fresh root.
//! Trace documents are NDJSON (one [`TraceEvent`] per line), written in
//! a single atomic pass through the `ArtifactIo` facade so a torn write
//! can lose a trace but never corrupt one partially.

use gdf_core::digest::{fnv1a64, Digest};
use gdf_core::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// The name of the trace propagation header.
pub const TRACE_HEADER: &str = "x-gdf-trace";

/// A 128-bit trace identifier (32 lowercase hex digits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub Digest);

impl TraceId {
    /// The 32-hex rendering.
    pub fn hex(&self) -> String {
        self.0.hex()
    }
}

/// A 64-bit span identifier (16 lowercase hex digits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The 16-hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A propagation context: which trace, and which span is the current
/// parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The campaign-wide trace identifier.
    pub trace: TraceId,
    /// The span submissions made under this context parent to.
    pub span: SpanId,
}

impl TraceCtx {
    /// Derives a root context from a seed string — deterministic, never
    /// wall-clock random.
    pub fn root(seed: &str) -> Self {
        TraceCtx {
            trace: TraceId(Digest::of_text(seed)),
            span: SpanId(fnv1a64(seed.as_bytes())),
        }
    }

    /// Derives a child context (same trace, new span) by digesting the
    /// parent identity plus `name`.
    pub fn child(&self, name: &str) -> Self {
        let d = Digest::of_text(&format!(
            "{}/{}/{}",
            self.trace.hex(),
            self.span.hex(),
            name
        ));
        TraceCtx {
            trace: self.trace,
            span: SpanId(d.a),
        }
    }

    /// The `X-Gdf-Trace` header value: `<trace>-<span>`.
    pub fn header_value(&self) -> String {
        format!("{}-{}", self.trace.hex(), self.span.hex())
    }

    /// Parses a header value; `None` on any malformation (tracing is
    /// best-effort — a bad header means a fresh root, not an error).
    pub fn parse(s: &str) -> Option<Self> {
        let (trace, span) = s.trim().split_once('-')?;
        if span.len() != 16 || !span.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let digest: Digest = trace.parse().ok()?;
        let span = u64::from_str_radix(span, 16).ok()?;
        Some(TraceCtx {
            trace: TraceId(digest),
            span: SpanId(span),
        })
    }
}

/// One completed span, as serialized to the NDJSON trace document.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's identifier.
    pub span: SpanId,
    /// The parent span, if any.
    pub parent: Option<SpanId>,
    /// Stage name (`parse`, `generate`, `fill`, `fsim`, …).
    pub name: String,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl TraceEvent {
    /// One compact NDJSON line (no trailing newline).
    pub fn encode_line(&self) -> String {
        Json::Obj(vec![
            ("trace".into(), Json::Str(self.trace.hex())),
            ("span".into(), Json::Str(self.span.hex())),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::Str(p.hex())),
            ),
            ("name".into(), Json::Str(self.name.clone())),
            ("start_us".into(), Json::Num(self.start_us as f64)),
            ("dur_us".into(), Json::Num(self.dur_us as f64)),
        ])
        .to_string()
    }

    /// Parses one NDJSON line; `None` on any malformation.
    pub fn decode_line(line: &str) -> Option<TraceEvent> {
        let json = Json::parse(line).ok()?;
        let trace: Digest = json.get("trace")?.as_str()?.parse().ok()?;
        let span = json.get("span")?.as_str()?;
        if span.len() != 16 {
            return None;
        }
        let span = u64::from_str_radix(span, 16).ok()?;
        let parent = match json.get("parent")? {
            Json::Null => None,
            Json::Str(p) => Some(SpanId(u64::from_str_radix(p, 16).ok()?)),
            _ => return None,
        };
        Some(TraceEvent {
            trace: TraceId(trace),
            span: SpanId(span),
            parent,
            name: json.get("name")?.as_str()?.to_string(),
            start_us: json.get("start_us")?.as_u64()?,
            dur_us: json.get("dur_us")?.as_u64()?,
        })
    }
}

/// Collects the spans of one traced unit of work (a job) and encodes
/// them as an NDJSON document. Span ids are derived from the context
/// plus a per-tracer sequence number — unique within the trace, never
/// random.
pub struct Tracer {
    ctx: TraceCtx,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    next: Mutex<u64>,
}

/// An open span handed out by [`Tracer::start`]; give it back to
/// [`Tracer::finish`] when the stage completes.
pub struct OpenSpan {
    span: SpanId,
    name: String,
    started: Instant,
}

impl Tracer {
    /// A tracer rooted at `ctx`; the epoch (t=0 of every `start_us`) is
    /// now.
    pub fn new(ctx: TraceCtx) -> Self {
        Tracer {
            ctx,
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            next: Mutex::new(0),
        }
    }

    /// The context this tracer parents its spans under.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// The tracer's epoch instant (t=0 of `start_us`).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn next_span(&self, name: &str) -> SpanId {
        let mut next = self.next.lock().unwrap_or_else(|e| e.into_inner());
        let seq = *next;
        *next += 1;
        self.ctx.child(&format!("{name}#{seq}")).span
    }

    /// Opens a span named `name` starting now.
    pub fn start(&self, name: &str) -> OpenSpan {
        OpenSpan {
            span: self.next_span(name),
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// Closes an open span and records it.
    pub fn finish(&self, open: OpenSpan) {
        let start_us = open
            .started
            .checked_duration_since(self.epoch)
            .unwrap_or_default()
            .as_micros() as u64;
        let dur_us = open.started.elapsed().as_micros() as u64;
        self.push(open.span, &open.name, start_us, dur_us);
    }

    /// Records a completed span by explicit offsets (used when timings
    /// were captured elsewhere, e.g. the engine phase sink).
    pub fn record(&self, name: &str, start_us: u64, dur_us: u64) {
        self.push(self.next_span(name), name, start_us, dur_us);
    }

    fn push(&self, span: SpanId, name: &str, start_us: u64, dur_us: u64) {
        let event = TraceEvent {
            trace: self.ctx.trace,
            span,
            parent: Some(self.ctx.span),
            name: name.to_string(),
            start_us,
            dur_us,
        };
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }

    /// Encodes the root span (named `root_name`, covering the whole
    /// epoch-to-now interval) followed by every recorded span, one
    /// NDJSON line each.
    pub fn encode(&self, root_name: &str) -> String {
        let root = TraceEvent {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: None,
            name: root_name.to_string(),
            start_us: 0,
            dur_us: self.epoch.elapsed().as_micros() as u64,
        };
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        out.push_str(&root.encode_line());
        out.push('\n');
        for e in events.iter() {
            out.push_str(&e.encode_line());
            out.push('\n');
        }
        out
    }
}

/// Converts an NDJSON trace document to chrome://tracing JSON (the
/// "trace event format": complete `ph:"X"` events with microsecond
/// timestamps). Lines that fail to parse are skipped — a torn tail
/// never blocks exporting the intact prefix — but a document with no
/// valid line at all is an error.
pub fn chrome_trace(ndjson: &str) -> Result<Json, String> {
    let mut events = Vec::new();
    for line in ndjson.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(e) = TraceEvent::decode_line(line) else {
            continue;
        };
        let mut args = vec![
            ("trace".to_string(), Json::Str(e.trace.hex())),
            ("span".to_string(), Json::Str(e.span.hex())),
        ];
        if let Some(p) = e.parent {
            args.push(("parent".to_string(), Json::Str(p.hex())));
        }
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(e.name.clone())),
            ("cat".to_string(), Json::Str("gdf".to_string())),
            ("ph".to_string(), Json::Str("X".to_string())),
            ("ts".to_string(), Json::Num(e.start_us as f64)),
            ("dur".to_string(), Json::Num(e.dur_us as f64)),
            ("pid".to_string(), Json::Num(1.0)),
            ("tid".to_string(), Json::Num(1.0)),
            ("args".to_string(), Json::Obj(args)),
        ]));
    }
    if events.is_empty() {
        return Err("no valid trace events in input".to_string());
    }
    Ok(Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trips_through_the_header() {
        let root = TraceCtx::root("gdf-job:7:abc");
        let parsed = TraceCtx::parse(&root.header_value()).expect("parses");
        assert_eq!(parsed, root);
        // Derivation is deterministic and never from the clock.
        assert_eq!(TraceCtx::root("gdf-job:7:abc"), root);
        assert_ne!(TraceCtx::root("gdf-job:8:abc").trace, root.trace);
        let child = root.child("unit:3");
        assert_eq!(child.trace, root.trace);
        assert_ne!(child.span, root.span);
        assert_eq!(root.child("unit:3"), child);
    }

    #[test]
    fn malformed_headers_parse_to_none() {
        for bad in ["", "zz", "abc-def", "0123-0123456789abcdef", "x"] {
            assert!(TraceCtx::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn event_lines_round_trip() {
        let ctx = TraceCtx::root("seed");
        let e = TraceEvent {
            trace: ctx.trace,
            span: SpanId(42),
            parent: Some(ctx.span),
            name: "fsim".to_string(),
            start_us: 17,
            dur_us: 1000,
        };
        let line = e.encode_line();
        assert_eq!(TraceEvent::decode_line(&line), Some(e.clone()));
        assert!(TraceEvent::decode_line("{\"torn\":").is_none());
        // Names are escaped like every other JSON string.
        let odd = TraceEvent {
            name: "say \"hi\" \\ bye\u{1}".to_string(),
            ..e
        };
        let line = odd.encode_line();
        let expected = format!(
            r#"{{"trace":"{}","span":"000000000000002a","parent":"{}","name":"say \"hi\" \\ bye\u0001","start_us":17,"dur_us":1000}}"#,
            ctx.trace.hex(),
            ctx.span.hex()
        );
        assert_eq!(line, expected);
        assert_eq!(TraceEvent::decode_line(&line), Some(odd));
    }

    #[test]
    fn tracer_encodes_root_plus_spans_and_chrome_export_parses() {
        let t = Tracer::new(TraceCtx::root("job"));
        let s = t.start("parse");
        t.finish(s);
        t.record("fill", 5, 10);
        let doc = t.encode("job:1");
        assert_eq!(doc.lines().count(), 3);
        for line in doc.lines() {
            assert!(TraceEvent::decode_line(line).is_some(), "bad line {line}");
        }
        let chrome = chrome_trace(&doc).expect("exports");
        let events = chrome.get("traceEvents").and_then(|e| e.as_array());
        assert_eq!(events.map(|e| e.len()), Some(3));
        // The export survives a torn tail.
        let torn = format!("{}{}", doc, "{\"trace\":\"00");
        assert!(chrome_trace(&torn).is_ok());
        assert!(chrome_trace("").is_err());
    }
}
