//! Shared drivers behind [`crate::paper`]'s artifacts.
//!
//! Both drivers fan work out over the [`lbchat::exec`] worker pool:
//! [`task_table_obs`] runs its (method, condition) training cells
//! concurrently and [`train_and_evaluate_obs`] evaluates the five tasks
//! concurrently. Every cell seeds its own RNGs from the scenario seed, so
//! the numbers are bit-identical for any `--jobs` setting.
//!
//! The drivers emit structured events into an [`ObsSink`] (see
//! `lbchat::obs` and `docs/OBSERVABILITY.md`): each cell is bracketed by
//! `cell_start`/`cell_finish` events carrying the method, condition, and
//! the cell's final metrics, and everything the cell does — runtime
//! rounds, radio transfers, chats, eval trials — is scoped under the
//! cell's label. Pass [`ObsSink::disabled`] to record nothing at no cost.
//!
//! A finished cell keeps exactly what its `cell_finish` event records —
//! its [`Metrics`] and success rates ([`CellOutput`]); the trained fleet and
//! the representative learner are dropped inside the cell.

use crate::methods::{cell_label, run_method_obs, Condition, Method, RunOutput};
use lbchat::prelude::{Metrics, RuntimeError};
use crate::report::Table;
use crate::scenario::Scenario;
use driving::{success_rate_obs, EvalConfig, Task};
use lbchat::exec;
use lbchat::obs::{EventKind, Json, ObsSink};

/// Closed-loop evaluation config derived from the scenario scale.
pub fn eval_config(s: &Scenario) -> EvalConfig {
    EvalConfig {
        trials: s.scale.trials,
        world_seed: s.scale.seed + 1000,
        route_seed: s.scale.seed + 2000,
        // Keep eval traffic proportional to the training world's scale so
        // reduced runs stay comparable.
        traffic_scale: (s.scale.n_background as f64 / 50.0).clamp(0.2, 1.0),
        ..EvalConfig::default()
    }
}

/// What a finished evaluated cell keeps: the record its `cell_finish`
/// event holds.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// Training metrics (loss curve, receiving rates, airtime).
    pub metrics: Metrics,
    /// Driving success rate per task in `Task::ALL` order, in percent.
    pub rates: Vec<f64>,
}

/// Trains `method` and measures its driving success rate on all five tasks.
/// Returns the cell's metrics and per-task percentages; the representative
/// learner lives only until its evaluation ends. Emits `cell_start` /
/// `cell_finish` (with per-task rates) around the cell and scopes every
/// event the cell produces under its [`cell_label`]. `index` is the cell's
/// position in the caller's fan-out, recorded for cross-reference with
/// `work_unit` events.
///
/// # Errors
/// [`RuntimeError::Config`] before anything trains or is recorded when
/// [`eval_config`] fails [`EvalConfig::validate`] (e.g. `trials: 0`), and
/// any error of the training run itself.
pub fn train_and_evaluate_obs(
    method: Method,
    s: &Scenario,
    condition: Condition,
    obs: &ObsSink,
    index: usize,
) -> Result<CellOutput, RuntimeError> {
    let cfg = eval_config(s);
    cfg.validate().map_err(RuntimeError::Config)?;
    emit_cell_start(obs, method, condition, index);
    #[expect(clippy::disallowed_methods, reason = "feeds wall_ms, a documented TIMING_FIELDS key the result comparators strip")]
    let started = std::time::Instant::now();
    let cell = obs.scoped(&cell_label(method, condition));
    let RunOutput { metrics, representative } = run_method_obs(method, s, condition, &cell)?;
    let eval_sink = cell.scoped("eval");
    let rates = exec::par_map_traced(obs, "eval-task", &Task::ALL, |_, &task| {
        success_rate_obs(&representative, task, &cfg, &eval_sink).percent()
    });
    emit_cell_finish(obs, method, condition, index, &metrics, Some(&rates), started);
    Ok(CellOutput { metrics, rates })
}

/// Trains one cell *without* closed-loop evaluation, bracketed by
/// `cell_start`/`cell_finish` events (no `rates` field). The loss-curve
/// figures use this: their deliverable is the `round` event stream,
/// not driving success rates. Returns the cell's metrics.
pub fn run_cell_obs(
    method: Method,
    s: &Scenario,
    condition: Condition,
    obs: &ObsSink,
    index: usize,
) -> Result<Metrics, RuntimeError> {
    emit_cell_start(obs, method, condition, index);
    #[expect(clippy::disallowed_methods, reason = "feeds wall_ms, a documented TIMING_FIELDS key the result comparators strip")]
    let started = std::time::Instant::now();
    let cell = obs.scoped(&cell_label(method, condition));
    let metrics = run_method_obs(method, s, condition, &cell)?.metrics;
    emit_cell_finish(obs, method, condition, index, &metrics, None, started);
    Ok(metrics)
}

fn emit_cell_start(obs: &ObsSink, method: Method, condition: Condition, index: usize) {
    if obs.enabled() {
        obs.emit(
            EventKind::CellStart,
            &[
                ("cell", cell_label(method, condition).into()),
                ("method", method.name().into()),
                ("condition", condition.short().into()),
                ("index", index.into()),
            ],
        );
    }
}

fn emit_cell_finish(
    obs: &ObsSink,
    method: Method,
    condition: Condition,
    index: usize,
    m: &Metrics,
    rates: Option<&[f64]>,
    started: std::time::Instant,
) {
    if !obs.enabled() {
        return;
    }
    let mut fields: Vec<(&str, Json)> = vec![
        ("cell", cell_label(method, condition).into()),
        ("method", method.name().into()),
        ("condition", condition.short().into()),
        ("index", index.into()),
        ("final_loss", m.final_loss().map_or(Json::Null, Json::Num)),
        ("receiving_rate", m.model_receiving_rate().into()),
        ("sessions", m.sessions.into()),
        ("model_sends", m.model_sends.into()),
        ("model_receives", m.model_receives.into()),
        ("coreset_sends", m.coreset_sends.into()),
        ("coreset_receives", m.coreset_receives.into()),
        ("bytes_delivered", m.bytes_delivered.into()),
        ("comm_seconds", m.comm_seconds.into()),
        ("train_iterations", m.train_iterations.into()),
    ];
    if let Some(rates) = rates {
        fields.push(("rates", Json::Arr(rates.iter().map(|&r| Json::Num(r)).collect())));
    }
    fields.push(("wall_ms", Json::Num(started.elapsed().as_secs_f64() * 1e3)));
    obs.emit(EventKind::CellFinish, &fields);
}

/// Builds a Table II/III-shaped table: rows = tasks, columns = methods,
/// every cell under `condition`; [`task_table_obs`] with each method's
/// name as its column label.
pub fn success_table_obs(
    title: &str,
    methods: &[Method],
    s: &Scenario,
    condition: Condition,
    obs: &ObsSink,
) -> Result<(Table, Vec<CellOutput>), RuntimeError> {
    let cells: Vec<TaskCell> =
        methods.iter().map(|&m| (m.name().to_string(), m, condition)).collect();
    task_table_obs(title, &cells, s, obs)
}

/// One column of a task table: its label, and the cell that fills it.
pub type TaskCell = (String, Method, Condition);

/// The driver of every task-shaped table (Tables II–VII): one column per
/// cell, one row per task. The cells are trained and evaluated
/// concurrently, each recording its events as described on
/// [`train_and_evaluate_obs`] with its position in `cells` as its index.
/// Returns the table and the cell outputs in `cells` order, or the first
/// failing cell's error in that order.
pub fn task_table_obs(
    title: &str,
    cells: &[TaskCell],
    s: &Scenario,
    obs: &ObsSink,
) -> Result<(Table, Vec<CellOutput>), RuntimeError> {
    let outputs = exec::par_map_traced(obs, "cell", cells, |idx, &(_, m, condition)| {
        eprintln!("  [{}] training + evaluating {} ...", condition.label(), m.name());
        train_and_evaluate_obs(m, s, condition, obs, idx)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut table = Table::new(title, cells.iter().map(|(label, _, _)| label.clone()).collect());
    for (t_idx, task) in Task::ALL.iter().enumerate() {
        let row: Vec<f64> = outputs.iter().map(|out| out.rates[t_idx]).collect();
        table.row_pct(task.name(), &row);
    }
    Ok((table, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;
    use lbchat::ConfigError;

    #[test]
    fn eval_config_scales_traffic() {
        let s = Scenario::build(Scale::quick());
        let cfg = eval_config(&s);
        assert!(cfg.traffic_scale > 0.0 && cfg.traffic_scale <= 1.0);
        assert_eq!(cfg.trials, 4);
    }

    #[test]
    fn zero_trials_is_refused_before_training() {
        let s = Scenario::build(Scale {
            n_vehicles: 2,
            n_background: 4,
            n_pedestrians: 10,
            data_seconds: 30.0,
            trials: 0,
            ..Scale::quick()
        });
        let sink = ObsSink::recording();
        let err = train_and_evaluate_obs(Method::LbChat, &s, Condition::NoLoss, &sink, 0).err();
        assert_eq!(err, Some(RuntimeError::Config(ConfigError::ZeroCount { field: "trials" })));
        assert_eq!(sink.events(), vec![], "no cell starts, trains or evaluates");
    }
}
