//! The one cell driver behind [`crate::paper`], and a task-table driver.
//!
//! [`train_and_evaluate_obs`] trains a (method, condition) cell, then
//! evaluates the five tasks concurrently over the [`lbchat::exec`] worker
//! pool; [`crate::paper::run`] and [`task_table_obs`] fan it out over
//! their cells. Every cell seeds its own RNGs from the scenario seed, so
//! the numbers are bit-identical for any `--jobs` setting.
//!
//! The drivers emit structured events into an [`ObsSink`] (see
//! `lbchat::obs` and `docs/OBSERVABILITY.md`): each cell is bracketed by
//! `cell_start`/`cell_finish` events carrying the method, condition, and
//! the cell's final metrics and rates, and everything the cell does —
//! runtime rounds, radio transfers, chats, eval trials — is scoped under
//! the cell's label. Pass [`ObsSink::disabled`] to record nothing.
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
/// position in the caller's cell list, recorded for cross-reference with
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
    let label = cell_label(method, condition);
    let id = [
        ("cell", Json::from(label.as_str())),
        ("method", method.name().into()),
        ("condition", condition.short().into()),
        ("index", index.into()),
    ];
    obs.emit(EventKind::CellStart, &id);
    #[expect(clippy::disallowed_methods, reason = "feeds wall_ms, a documented TIMING_FIELDS key the result comparators strip")]
    let started = std::time::Instant::now();
    let cell = obs.scoped(&label);
    let RunOutput { metrics: m, representative } = run_method_obs(method, s, condition, &cell)?;
    let eval_sink = cell.scoped("eval");
    let rates = exec::par_map_traced(obs, "eval-task", &Task::ALL, |_, &task| {
        success_rate_obs(&representative, task, &cfg, &eval_sink).percent()
    });
    if obs.enabled() {
        let record = [
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
            ("rates", Json::Arr(rates.iter().map(|&r| Json::Num(r)).collect())),
            ("wall_ms", Json::Num(started.elapsed().as_secs_f64() * 1e3)),
        ];
        obs.emit(EventKind::CellFinish, &[&id[..], &record].concat());
    }
    Ok(CellOutput { metrics: m, rates })
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

/// Trains and evaluates `cells` concurrently, each recording its events as
/// described on [`train_and_evaluate_obs`] with its position in `cells` as
/// its index, and renders their [`task_table`]. Returns the table and the
/// cell outputs in `cells` order, or the first failing cell's error in
/// that order.
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
    let columns: Vec<_> = cells.iter().zip(&outputs).collect();
    Ok((task_table(title, &columns), outputs))
}

/// Renders a task table: one column per cell, headed by its label, and
/// one row per task of the success rates in the cell's output.
pub fn task_table(title: &str, columns: &[(&TaskCell, &CellOutput)]) -> Table {
    let labels = columns.iter().map(|((label, _, _), _)| label.clone()).collect();
    let mut table = Table::new(title, labels);
    for (t_idx, task) in Task::ALL.iter().enumerate() {
        let row: Vec<f64> = columns.iter().map(|(_, out)| out.rates[t_idx]).collect();
        table.row_pct(task.name(), &row);
    }
    table
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
