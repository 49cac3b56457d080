//! In-memory span tracing recorded from the benchmark's own files, around
//! the calls into each layer (tracing inside the program is a later change).
//!
//! A [`Tracer`] holds spans — name, start, end, parent — plus aggregate
//! counters for the calls that are too many to keep one span each
//! (`Learner::loss` runs ~10⁶ times a pass). Two decorators feed it:
//! [`TracedAlgo`] brackets every `CollabAlgorithm` callback the runtime
//! makes, and [`TracedLearner`] times `train_step` and the loss calls and
//! attributes them to the callback that is open at the time. Neither
//! changes what the wrapped value computes, which the run checks by
//! comparing the traced cell's `Metrics` with the untraced entry point's.

use lbchat::prelude::{
    CollabAlgorithm, FrameCtx, Learner, SessionCtx, SessionStep, TrainStats, TransferOutcome,
};
use simnet::contact::ContactEstimate;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use vnn::ParamVec;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`node.session_step`, `runtime.run`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Which algorithm callback is open — what a `Learner` call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Outside any callback (cell construction, probes).
    Outside = 0,
    /// `session_open` / `session_step` / `session_close`.
    Session = 1,
    /// `local_training`.
    Training = 2,
    /// `mean_eval_loss` (the loss-curve samples).
    EvalCurve = 3,
    /// `on_frame` (infrastructure rounds).
    Frame = 4,
}

const N_PHASES: usize = 5;

/// Span store and call aggregates of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    phase: Phase,
    /// `Learner::loss`/`loss_with` calls and their summed ns, per phase.
    loss_n: [u64; N_PHASES],
    loss_ns: [u64; N_PHASES],
    /// Duration of every `Learner::train_step`, ns.
    train_step_ns: Vec<u64>,
    /// `pair_priority` calls (counted, not timed: one float multiply).
    candidates: u64,
}

/// Shared handle to a [`Tracer`]; the run is single-threaded by contract.
pub type Trace = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh tracer behind a shared handle.
    pub fn shared() -> Trace {
        Rc::new(RefCell::new(Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: Phase::Outside,
            loss_n: [0; N_PHASES],
            loss_ns: [0; N_PHASES],
            train_step_ns: Vec::new(),
            candidates: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close in LIFO order");
        self.open.pop();
        self.spans[id as usize].end_ns = end;
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time in seconds: duration minus the part its direct
    /// children cover (children never overlap — the run is one thread).
    fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.seconds();
            }
        }
        own
    }

    /// Summed duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
    }

    /// Summed *self* time of the spans called `name`.
    pub fn total_self(&self, name: &str) -> f64 {
        let own = self.self_seconds();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| o)
            .sum()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// `(calls, seconds)` of the learner loss evaluations charged to `phase`.
    pub fn loss_in(&self, phase: Phase) -> (u64, f64) {
        (
            self.loss_n[phase as usize],
            self.loss_ns[phase as usize] as f64 / 1e9,
        )
    }

    /// `(calls, seconds)` of all learner loss evaluations.
    pub fn loss_total(&self) -> (u64, f64) {
        (
            self.loss_n.iter().sum(),
            self.loss_ns.iter().sum::<u64>() as f64 / 1e9,
        )
    }

    /// Duration of every `train_step`, seconds.
    pub fn train_steps(&self) -> Vec<f64> {
        self.train_step_ns
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect()
    }

    /// `pair_priority` calls seen.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// The spans as a JSON array — `[{"id":0,"name":"pass","start_ns":..,
    /// "end_ns":..,"parent":null}, ...]`, one object per line so the file
    /// greps well.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80 + 4);
        out.push_str("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Runs `f` inside a span called `name`. The tracer is not borrowed while
/// `f` runs, so `f` may open spans of its own.
pub fn span<T>(trace: &Trace, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = trace.borrow_mut().enter(name);
    let out = f();
    trace.borrow_mut().exit(id);
    out
}

/// [`span`] that also sets the phase learner calls are charged to.
fn callback<T>(trace: &Trace, name: &'static str, phase: Phase, f: impl FnOnce() -> T) -> T {
    let (id, outer) = {
        let mut t = trace.borrow_mut();
        let outer = std::mem::replace(&mut t.phase, phase);
        (t.enter(name), outer)
    };
    let out = f();
    let mut t = trace.borrow_mut();
    t.exit(id);
    t.phase = outer;
    out
}

/// A `Learner` that times `train_step` and the loss calls of the learner it
/// wraps and is otherwise that learner.
pub struct TracedLearner<L> {
    inner: L,
    trace: Trace,
}

impl<L> TracedLearner<L> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: L, trace: &Trace) -> Self {
        Self {
            inner,
            trace: Rc::clone(trace),
        }
    }

    fn timed_loss(&self, f: impl FnOnce(&L) -> f32) -> f32 {
        let t0 = Instant::now();
        let out = f(&self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut t = self.trace.borrow_mut();
        let phase = t.phase as usize;
        t.loss_n[phase] += 1;
        t.loss_ns[phase] += ns;
        out
    }
}

impl<L: Learner> Learner for TracedLearner<L> {
    type Sample = L::Sample;

    fn params(&self) -> &ParamVec {
        self.inner.params()
    }

    fn set_params(&mut self, params: ParamVec) {
        self.inner.set_params(params);
    }

    fn loss(&self, sample: &Self::Sample) -> f32 {
        self.timed_loss(|l| l.loss(sample))
    }

    fn loss_with(&self, params: &ParamVec, sample: &Self::Sample) -> f32 {
        self.timed_loss(|l| l.loss_with(params, sample))
    }

    fn train_step(&mut self, batch: &[(&Self::Sample, f32)]) -> f32 {
        let t0 = Instant::now();
        let out = self.inner.train_step(batch);
        let ns = t0.elapsed().as_nanos() as u64;
        self.trace.borrow_mut().train_step_ns.push(ns);
        out
    }

    fn group_of(&self, sample: &Self::Sample) -> usize {
        self.inner.group_of(sample)
    }

    fn n_groups(&self) -> usize {
        self.inner.n_groups()
    }

    fn on_params_replaced(&mut self) {
        self.inner.on_params_replaced();
    }

    fn take_train_stats(&mut self) -> TrainStats {
        self.inner.take_train_stats()
    }
}

/// A `CollabAlgorithm` that opens a span around every callback of the
/// algorithm it wraps and is otherwise that algorithm. `encounter` keeps
/// its provided body, so the session lifecycle it drives comes back through
/// the traced `session_*` methods.
pub struct TracedAlgo<A> {
    inner: A,
    trace: Trace,
}

impl<A> TracedAlgo<A> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: A, trace: &Trace) -> Self {
        Self {
            inner,
            trace: Rc::clone(trace),
        }
    }
}

impl<A: CollabAlgorithm> CollabAlgorithm for TracedAlgo<A> {
    type Sample = A::Sample;
    type Session = A::Session;

    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn model(&self, node: usize) -> &ParamVec {
        self.inner.model(node)
    }

    fn local_training(
        &mut self,
        node: usize,
        iters: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> TrainStats {
        let inner = &mut self.inner;
        callback(&self.trace, "node.local_training", Phase::Training, || {
            inner.local_training(node, iters, rng)
        })
    }

    fn session_open(&mut self, ctx: &mut SessionCtx<'_>) -> Option<(Self::Session, SessionStep)> {
        let inner = &mut self.inner;
        callback(&self.trace, "node.session_open", Phase::Session, || {
            inner.session_open(ctx)
        })
    }

    fn session_step(
        &mut self,
        state: &mut Self::Session,
        outcome: TransferOutcome,
        ctx: &mut SessionCtx<'_>,
    ) -> SessionStep {
        let inner = &mut self.inner;
        callback(&self.trace, "node.session_step", Phase::Session, || {
            inner.session_step(state, outcome, ctx)
        })
    }

    fn session_close(&mut self, state: Self::Session, ctx: &mut SessionCtx<'_>) -> f64 {
        let inner = &mut self.inner;
        callback(&self.trace, "node.session_close", Phase::Session, || {
            inner.session_close(state, ctx)
        })
    }

    fn pair_priority(&self, i: usize, j: usize, est: &ContactEstimate) -> f64 {
        self.trace.borrow_mut().candidates += 1;
        self.inner.pair_priority(i, j, est)
    }

    fn on_frame(&mut self, ctx: &mut FrameCtx<'_>) {
        let inner = &mut self.inner;
        callback(&self.trace, "node.on_frame", Phase::Frame, || {
            inner.on_frame(ctx)
        });
    }

    fn mean_eval_loss(&self, eval: &[Self::Sample]) -> f64 {
        callback(&self.trace, "node.eval_curve", Phase::EvalCurve, || {
            self.inner.mean_eval_loss(eval)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let t = Tracer::shared();
        let mut t = Rc::try_unwrap(t).expect("sole owner").into_inner();
        t.spans = spans;
        t
    }

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // pass [0, 10 s] ⊃ run [1, 9] ⊃ {step [2, 4], step [5, 6]}
        let t = tracer_with(vec![
            sp("pass", 0, 10_000_000_000, None),
            sp("runtime.run", 1_000_000_000, 9_000_000_000, Some(0)),
            sp("node.session_step", 2_000_000_000, 4_000_000_000, Some(1)),
            sp("node.session_step", 5_000_000_000, 6_000_000_000, Some(1)),
        ]);
        let own = t.self_seconds();
        assert_eq!(own, vec![2.0, 5.0, 2.0, 1.0]);
        // Self times partition the root span.
        assert!((own.iter().sum::<f64>() - 10.0).abs() < 1e-9);
        assert_eq!(t.total("node.session_step"), (3.0, 2));
        assert_eq!(t.total_self("runtime.run"), 5.0);
        assert_eq!(t.durations("node.session_step"), vec![2.0, 1.0]);
    }

    #[test]
    fn grandchildren_are_not_subtracted_twice() {
        let t = tracer_with(vec![
            sp("a", 0, 100, None),
            sp("b", 10, 90, Some(0)),
            sp("c", 20, 30, Some(1)),
        ]);
        let own = t.self_seconds();
        assert!((own[0] - 20e-9).abs() < 1e-15);
        assert!((own[1] - 70e-9).abs() < 1e-15);
        assert!((own[2] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn span_helper_nests_and_records_parents() {
        let trace = Tracer::shared();
        let v = span(&trace, "outer", || span(&trace, "inner", || 7));
        assert_eq!(v, 7);
        let t = trace.borrow();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.spans()[1].start_ns >= t.spans()[0].start_ns);
    }

    #[test]
    fn callback_charges_learner_calls_to_its_phase_and_restores_it() {
        let trace = Tracer::shared();
        callback(&trace, "node.session_step", Phase::Session, || {
            assert_eq!(trace.borrow().phase, Phase::Session);
        });
        assert_eq!(trace.borrow().phase, Phase::Outside);
    }

    #[test]
    fn spans_serialize_as_a_json_array() {
        let t = tracer_with(vec![sp("pass", 0, 9, None), sp("cell", 1, 8, Some(0))]);
        let json = t.to_json();
        let parsed = lbchat::obs::parse(&json).expect("valid JSON");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("name").and_then(|n| n.as_str()), Some("cell"));
        assert_eq!(
            arr[1].get("parent").and_then(lbchat::obs::Json::as_u64),
            Some(0)
        );
        assert_eq!(arr[0].get("parent"), Some(&lbchat::obs::Json::Null));
    }
}
