//! The event sink: [`ObsSink`], [`Event`], counters, gauges, and spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use super::json::{self, Json, JsonError};
use super::names::{Counter, EventKind, Gauge};

/// Event fields that carry wall-clock timing or span identity.
///
/// These are the only fields allowed to differ between two runs of the
/// same seed: everything else is a pure function of the configuration.
/// [`Event::canonical`] strips them so manifests can be compared across
/// `--jobs` settings and machines.
pub const TIMING_FIELDS: &[&str] =
    &["ts_ms", "wall_ms", "started_unix_ms", "span_id", "parent_span"];

/// One recorded event: a kind tag plus ordered key–value fields.
///
/// Serialized as one JSON object per line (`kind` first), which is the
/// unit of the run-manifest format described in `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The event type: an [`EventKind::name`] for events this workspace
    /// records, any string for a parsed manifest.
    pub kind: String,
    /// The event payload, in emission order (excluding `kind`).
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// Whether this is an event of `kind`.
    pub fn is(&self, kind: EventKind) -> bool {
        self.kind == kind.name()
    }

    /// Looks up a field by name.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A field as `f64`, if present and numeric.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// A field as `&str`, if present and a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// The event as a JSON object with `kind` as the first key.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::with_capacity(self.fields.len() + 1);
        pairs.push(("kind".to_string(), Json::Str(self.kind.clone())));
        pairs.extend(self.fields.iter().cloned());
        Json::Obj(pairs)
    }

    /// One JSONL line (no trailing newline).
    pub fn line(&self) -> String {
        self.to_json().to_string()
    }

    /// Rebuilds an event from a parsed JSON object; the object must have
    /// a string `kind` field.
    pub fn from_json(v: &Json) -> Result<Event, String> {
        let pairs = v.as_obj().ok_or("event is not a JSON object")?;
        let mut kind = None;
        let mut fields = Vec::with_capacity(pairs.len().saturating_sub(1));
        for (k, val) in pairs {
            if k == "kind" {
                kind = Some(val.as_str().ok_or("\"kind\" is not a string")?.to_string());
            } else {
                fields.push((k.clone(), val.clone()));
            }
        }
        Ok(Event { kind: kind.ok_or("event has no \"kind\" field")?, fields })
    }

    /// The event rendered with all [`TIMING_FIELDS`] removed — the form
    /// that must be identical across `--jobs` settings.
    pub fn canonical(&self) -> String {
        let mut pairs = vec![("kind".to_string(), Json::Str(self.kind.clone()))];
        pairs.extend(
            self.fields
                .iter()
                .filter(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()))
                .cloned(),
        );
        Json::Obj(pairs).to_string()
    }
}

/// Commutative summary of a gauge's observations.
///
/// Gauges aggregate as `{n, sum, min, max}` rather than last-write-wins
/// so that the summary is independent of the order parallel workers
/// report in (`sum` is still a float accumulation, so its last bits may
/// depend on completion order when cells run concurrently; `n`, `min`,
/// and `max` never do).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Number of observations.
    pub n: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl GaugeStat {
    fn new(v: f64) -> Self {
        GaugeStat { n: 1, sum: v, min: v, max: v }
    }

    fn observe(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.sum / self.n as f64 }
    }
}

struct Inner {
    t0: Instant,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, GaugeStat>>,
    next_span: AtomicU64,
}

/// Recovers the guard even if a worker panicked while holding the lock;
/// the sink's data stays usable for post-mortem inspection.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Stack of open span ids on this thread; the top is the parent for
    /// newly opened spans. [`crate::exec`]'s traced fan-outs seed this
    /// stack on worker threads so nesting survives the pool boundary.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span on the current thread, if any.
///
/// Capture this before handing work to another thread, then open child
/// spans there with [`ObsSink::span_under`] to keep the parent/child
/// chain intact across the pool boundary.
pub fn current_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// A cloneable handle to an event stream, or a no-op.
///
/// All instrumentation in the workspace goes through an `ObsSink`. A
/// *disabled* sink ([`ObsSink::disabled`], also the `Default`) ignores
/// every call and allocates nothing, so hot paths can stay instrumented
/// unconditionally; benches and library users who do not opt in pay only
/// an `Option` check. A *recording* sink ([`ObsSink::recording`])
/// accumulates events, counters, and gauges behind an `Arc`, so clones
/// share one stream — clone freely into worker closures.
///
/// [`ObsSink::scoped`] derives a handle that stamps a `ctx` field on
/// everything it emits; the experiment harness uses this to label each
/// table cell's events without threading labels through every call.
#[derive(Clone, Default)]
pub struct ObsSink {
    inner: Option<Arc<Inner>>,
    ctx: Option<Arc<str>>,
}

impl fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsSink")
            .field("enabled", &self.enabled())
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl ObsSink {
    /// A sink that ignores everything. Equivalent to `ObsSink::default()`.
    pub fn disabled() -> Self {
        ObsSink { inner: None, ctx: None }
    }

    /// A fresh recording sink with its own event stream.
    #[expect(clippy::disallowed_methods, reason = "the obs timing layer: span durations and `t_ms` are TIMING_FIELDS keys the result comparators strip")]
    pub fn recording() -> Self {
        ObsSink {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                events: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                next_span: AtomicU64::new(1),
            })),
            ctx: None,
        }
    }

    /// Whether events are being recorded. Guard any instrumentation that
    /// does nontrivial work (formatting, cloning) behind this.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle onto the same stream that stamps `ctx` on every event it
    /// emits. Nested scopes join with `/`: `sink.scoped("LbChat@w").scoped("eval")`
    /// stamps `"LbChat@w/eval"`.
    pub fn scoped(&self, ctx: &str) -> ObsSink {
        let joined = match &self.ctx {
            Some(parent) => format!("{parent}/{ctx}"),
            None => ctx.to_string(),
        };
        ObsSink { inner: self.inner.clone(), ctx: Some(joined.into()) }
    }

    /// Records an event. The sink prepends its `ctx` scope (if any) and
    /// appends `ts_ms`, milliseconds since the sink was created. No-op
    /// when disabled — but prefer guarding with [`ObsSink::enabled`] so
    /// the field list is not even built.
    pub fn emit(&self, kind: EventKind, fields: &[(&str, Json)]) {
        self.emit_owned(kind, fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect());
    }

    fn emit_owned(&self, kind: EventKind, fields: Vec<(String, Json)>) {
        let Some(inner) = &self.inner else { return };
        let mut all = Vec::with_capacity(fields.len() + 2);
        if let Some(ctx) = &self.ctx {
            all.push(("ctx".to_string(), Json::Str(ctx.to_string())));
        }
        all.extend(fields);
        all.push(("ts_ms".to_string(), Json::Num(ms_since(inner.t0))));
        lock(&inner.events).push(Event { kind: kind.name().to_string(), fields: all });
    }

    /// Adds `n` to a monotonic counter. No-op when disabled.
    pub fn add(&self, counter: Counter, n: u64) {
        let Some(inner) = &self.inner else { return };
        *lock(&inner.counters).entry(counter.name()).or_insert(0) += n;
    }

    /// Folds `v` into a gauge's `{n, sum, min, max}` summary. No-op when
    /// disabled.
    pub fn observe(&self, gauge: Gauge, v: f64) {
        let Some(inner) = &self.inner else { return };
        lock(&inner.gauges)
            .entry(gauge.name())
            .and_modify(|g| g.observe(v))
            .or_insert_with(|| GaugeStat::new(v));
    }

    /// Opens a span (scoped timer) nested under the innermost span open
    /// on this thread. On drop the guard emits a `span` event carrying
    /// the span's name, wall time, and parent linkage.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_under(name, current_span())
    }

    /// Opens a span with an explicit parent, for work that crosses a
    /// thread boundary (the parent id was captured on the submitting
    /// thread via [`current_span`]).
    pub fn span_under(&self, name: &str, parent: Option<u64>) -> SpanGuard {
        let fields = vec![("name".to_string(), Json::Str(name.to_string()))];
        self.open_span(EventKind::Span, fields, parent)
    }

    /// Opens a span that records as a `work_unit` event — one unit of a
    /// traced [`crate::exec`] fan-out. `stage` names the fan-out site,
    /// `index` the unit within it.
    pub fn work_span(&self, stage: &str, index: usize, parent: Option<u64>) -> SpanGuard {
        self.open_span(
            EventKind::WorkUnit,
            vec![
                ("stage".to_string(), Json::Str(stage.to_string())),
                ("index".to_string(), Json::UInt(index as u64)),
            ],
            parent,
        )
    }

    #[expect(clippy::disallowed_methods, reason = "the obs timing layer: span durations and `t_ms` are TIMING_FIELDS keys the result comparators strip")]
    fn open_span(
        &self,
        kind: EventKind,
        fields: Vec<(String, Json)>,
        parent: Option<u64>,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { sink: ObsSink::disabled(), kind, fields: Vec::new(), id: 0, parent: None, start: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard { sink: self.clone(), kind, fields, id, parent, start: Some(Instant::now()) }
    }

    /// Snapshot of the recorded events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => lock(&inner.events).clone(),
            None => Vec::new(),
        }
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        match &self.inner {
            Some(inner) => lock(&inner.events).len(),
            None => 0,
        }
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            Some(inner) => {
                lock(&inner.counters).iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
            }
            None => BTreeMap::new(),
        }
    }

    /// Snapshot of the gauges.
    pub fn gauges(&self) -> BTreeMap<String, GaugeStat> {
        match &self.inner {
            Some(inner) => {
                lock(&inner.gauges).iter().map(|(k, g)| ((*k).to_string(), *g)).collect()
            }
            None => BTreeMap::new(),
        }
    }

    /// Every event in canonical form ([`Event::canonical`]), sorted.
    ///
    /// Two runs of the same configuration must produce equal vectors
    /// regardless of `--jobs` — event *order* may differ under
    /// parallelism, content may not. The determinism test in
    /// `crates/experiments/tests/obs_manifest.rs` asserts exactly this.
    pub fn canonical_events(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.events().iter().map(Event::canonical).collect();
        lines.sort_unstable();
        lines
    }

    /// The whole event stream as JSON Lines (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.line());
            out.push('\n');
        }
        out
    }

    /// Writes the event stream as a JSONL file, creating parent
    /// directories as needed.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// RAII guard for an open span; emits the timing event on drop.
///
/// Returned by [`ObsSink::span`] and friends. Guards from a disabled
/// sink do nothing.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    sink: ObsSink,
    kind: EventKind,
    fields: Vec<(String, Json)>,
    id: u64,
    parent: Option<u64>,
    start: Option<Instant>,
}

impl SpanGuard {
    /// This span's id, for linking events emitted by nested work.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                // Out-of-order drop (spans moved across scopes); remove
                // wherever it is rather than corrupting the stack.
                stack.retain(|&x| x != self.id);
            }
        });
        let mut fields = std::mem::take(&mut self.fields);
        fields.push(("wall_ms".to_string(), Json::Num(start.elapsed().as_secs_f64() * 1e3)));
        fields.push(("span_id".to_string(), Json::UInt(self.id)));
        if let Some(p) = self.parent {
            fields.push(("parent_span".to_string(), Json::UInt(p)));
        }
        self.sink.emit_owned(self.kind, fields);
    }
}

/// Parses a JSONL string back into events (inverse of
/// [`ObsSink::to_jsonl`]). Blank lines are skipped; the error names the
/// offending line.
pub fn parse_jsonl(input: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e: JsonError| format!("line {}: {e}", lineno + 1))?;
        events.push(Event::from_json(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::disabled();
        sink.emit(EventKind::Round, &[("t", Json::Num(1.0))]);
        sink.add(Counter::Rounds, 1);
        sink.observe(Gauge::Psi, 0.5);
        {
            let _outer = sink.span("outer");
            let _inner = sink.span("inner");
        }
        drop(sink.work_span("stage", 0, None));
        assert_eq!(sink.event_count(), 0);
        assert!(sink.events().is_empty());
        assert!(sink.counters().is_empty());
        assert!(sink.gauges().is_empty());
        assert!(!sink.enabled());
        // Scoping a disabled sink keeps it disabled.
        let scoped = sink.scoped("cell");
        scoped.emit(EventKind::Chat, &[]);
        assert_eq!(scoped.event_count(), 0);
    }

    #[test]
    fn events_carry_ctx_and_timestamp() {
        let sink = ObsSink::recording();
        sink.emit(EventKind::Round, &[("t", Json::Num(30.0)), ("loss", Json::Num(0.25))]);
        sink.scoped("LbChat@w").scoped("eval").emit(EventKind::Trial, &[("index", Json::UInt(3))]);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "round");
        assert!(events[0].is(EventKind::Round) && !events[0].is(EventKind::Trial));
        assert_eq!(events[0].get("ctx"), None);
        assert!(events[0].num("ts_ms").is_some());
        assert_eq!(events[1].str_field("ctx"), Some("LbChat@w/eval"));
        assert_eq!(events[1].get("index"), Some(&Json::UInt(3)));
    }

    #[test]
    fn clones_share_one_stream() {
        let sink = ObsSink::recording();
        let clone = sink.clone();
        let scoped = sink.scoped("a");
        clone.emit(EventKind::Chat, &[]);
        scoped.emit(EventKind::Trial, &[]);
        sink.add(Counter::Chats, 2);
        clone.add(Counter::Chats, 3);
        assert_eq!(sink.event_count(), 2);
        assert_eq!(sink.counters().get("chats"), Some(&5));
    }

    #[test]
    fn gauges_summarize_commutatively() {
        let sink = ObsSink::recording();
        for v in [0.5, 0.1, 0.9] {
            sink.observe(Gauge::Psi, v);
        }
        let g = sink.gauges()["psi"];
        assert_eq!(g.n, 3);
        assert_eq!(g.min, 0.1);
        assert_eq!(g.max, 0.9);
        assert!((g.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let sink = ObsSink::recording();
        {
            let outer = sink.span("outer");
            let outer_id = outer.id();
            {
                let inner = sink.span("inner");
                assert_eq!(current_span(), Some(inner.id()));
            }
            assert_eq!(current_span(), Some(outer_id));
        }
        assert_eq!(current_span(), None);
        let events = sink.events();
        // Inner drops (and records) first.
        assert_eq!(events[0].str_field("name"), Some("inner"));
        assert_eq!(events[1].str_field("name"), Some("outer"));
        let outer_id = events[1].get("span_id").unwrap().as_u64().unwrap();
        assert_eq!(events[0].get("parent_span").unwrap().as_u64(), Some(outer_id));
        assert_eq!(events[1].get("parent_span"), None);
        assert!(events[0].num("wall_ms").is_some());
    }

    #[test]
    fn work_spans_record_stage_and_index() {
        let sink = ObsSink::recording();
        let parent = {
            let outer = sink.span("fanout");
            let parent = current_span();
            drop(sink.work_span("cell", 4, parent));
            drop(outer);
            parent.unwrap()
        };
        let e = &sink.events()[0];
        assert_eq!(e.kind, "work_unit");
        assert_eq!(e.str_field("stage"), Some("cell"));
        assert_eq!(e.get("index"), Some(&Json::UInt(4)));
        assert_eq!(e.get("parent_span").unwrap().as_u64(), Some(parent));
    }

    #[test]
    fn jsonl_round_trips() {
        let sink = ObsSink::recording();
        sink.emit(
            EventKind::Transfer,
            &[
                ("i", Json::UInt(0)),
                ("j", Json::UInt(3)),
                ("bytes", Json::UInt(614_400)),
                ("delivered", Json::Bool(true)),
                ("airtime_s", Json::Num(0.1587)),
            ],
        );
        let title = Json::Str("quoted \"text\"\n".into());
        sink.scoped("cell").emit(EventKind::Table, &[("title", title)]);
        let text = sink.to_jsonl();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, sink.events());
    }

    #[test]
    fn canonical_strips_timing_and_sorts() {
        let sink = ObsSink::recording();
        sink.emit(EventKind::Trial, &[("v", Json::UInt(1))]);
        sink.emit(EventKind::Chat, &[("v", Json::UInt(2))]);
        drop(sink.span("timed"));
        let canon = sink.canonical_events();
        assert_eq!(canon.len(), 3);
        assert!(canon.windows(2).all(|w| w[0] <= w[1]), "sorted");
        for line in &canon {
            for f in TIMING_FIELDS {
                assert!(!line.contains(&format!("\"{f}\"")), "{line} leaks {f}");
            }
        }
        // Same logical stream emitted in a different order canonicalizes
        // to the same vector.
        let other = ObsSink::recording();
        drop(other.span("timed"));
        other.emit(EventKind::Chat, &[("v", Json::UInt(2))]);
        other.emit(EventKind::Trial, &[("v", Json::UInt(1))]);
        assert_eq!(other.canonical_events(), canon);
    }

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        assert!(parse_jsonl("{\"kind\":\"ok\"}\nnot json\n").is_err());
        assert!(parse_jsonl("{\"no_kind\":1}\n").is_err());
        assert!(parse_jsonl("[1,2]\n").is_err());
        assert_eq!(parse_jsonl("\n  \n").unwrap(), Vec::new());
    }
}
