//! Training metrics: loss-vs-time curves (Fig. 2 / Fig. 3) and the
//! successful model receiving rate (§IV-C).

/// Metrics collected over one collaborative-training run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// `(sim_time_s, mean_eval_loss)` samples — the Fig. 2/3 curves.
    pub loss_curve: Vec<(f64, f64)>,
    /// Model transfers attempted (per direction).
    pub model_sends: u64,
    /// Model transfers fully delivered.
    pub model_receives: u64,
    /// Coreset transfers attempted.
    pub coreset_sends: u64,
    /// Coreset transfers fully delivered.
    pub coreset_receives: u64,
    /// Pairwise sessions started.
    pub sessions: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Total simulated seconds spent in pairwise communication.
    pub comm_seconds: f64,
    /// Local training iterations performed across all nodes.
    pub train_iterations: u64,
}

impl Metrics {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a loss-curve point.
    pub fn record_loss(&mut self, time: f64, loss: f64) {
        self.loss_curve.push((time, loss));
    }

    /// Records a model transfer attempt.
    pub fn record_model_send(&mut self, delivered: bool, bytes: usize, seconds: f64) {
        self.model_sends += 1;
        if delivered {
            self.model_receives += 1;
            self.bytes_delivered += bytes as u64;
        }
        self.comm_seconds += seconds;
    }

    /// Records a coreset transfer attempt.
    pub fn record_coreset_send(&mut self, delivered: bool, bytes: usize, seconds: f64) {
        self.coreset_sends += 1;
        if delivered {
            self.coreset_receives += 1;
            self.bytes_delivered += bytes as u64;
        }
        self.comm_seconds += seconds;
    }

    /// Merges another record into this one: counters add, loss curves
    /// concatenate and re-sort stably by time. The `lbchat_e2e` benchmark
    /// totals a pass's cells this way; the harness keeps one record per
    /// cell.
    pub fn merge(&mut self, other: &Metrics) {
        self.loss_curve.extend_from_slice(&other.loss_curve);
        self.loss_curve.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.model_sends += other.model_sends;
        self.model_receives += other.model_receives;
        self.coreset_sends += other.coreset_sends;
        self.coreset_receives += other.coreset_receives;
        self.sessions += other.sessions;
        self.bytes_delivered += other.bytes_delivered;
        self.comm_seconds += other.comm_seconds;
        self.train_iterations += other.train_iterations;
    }

    /// The §IV-C "successful model receiving rate": delivered / attempted.
    /// Returns 1.0 when nothing was attempted.
    pub fn model_receiving_rate(&self) -> f64 {
        if self.model_sends == 0 {
            1.0
        } else {
            self.model_receives as f64 / self.model_sends as f64
        }
    }

    /// Final loss of the curve, if any point was recorded.
    pub fn final_loss(&self) -> Option<f64> {
        self.loss_curve.last().map(|&(_, l)| l)
    }

    /// First time the loss curve dips below `threshold` — the convergence
    ///-time measure behind Fig. 3's "1.5×–1.8× longer to converge".
    pub fn time_to_loss(&self, threshold: f64) -> Option<f64> {
        self.loss_curve
            .iter()
            .find(|&&(_, l)| l <= threshold)
            .map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiving_rate_counts_correctly() {
        let mut m = Metrics::new();
        m.record_model_send(true, 100, 1.0);
        m.record_model_send(false, 100, 0.5);
        m.record_model_send(true, 100, 1.0);
        assert!((m.model_receiving_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.bytes_delivered, 200);
        assert!((m.comm_seconds - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_rate_is_one() {
        assert_eq!(Metrics::new().model_receiving_rate(), 1.0);
    }

    #[test]
    fn merge_adds_counters_and_sorts_curves() {
        let mut a = Metrics::new();
        a.record_loss(0.0, 1.0);
        a.record_loss(20.0, 0.5);
        a.record_model_send(true, 100, 1.0);
        let mut b = Metrics::new();
        b.record_loss(10.0, 0.8);
        b.record_model_send(false, 100, 0.5);
        b.record_coreset_send(true, 50, 0.25);
        b.sessions = 2;
        a.merge(&b);
        assert_eq!(
            a.loss_curve,
            vec![(0.0, 1.0), (10.0, 0.8), (20.0, 0.5)],
            "curves must interleave by time"
        );
        assert_eq!(a.model_sends, 2);
        assert_eq!(a.model_receives, 1);
        assert_eq!(a.coreset_receives, 1);
        assert_eq!(a.sessions, 2);
        assert_eq!(a.bytes_delivered, 150);
        assert!((a.comm_seconds - 1.75).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Metrics::new();
        a.record_loss(1.0, 0.9);
        a.record_model_send(true, 10, 0.1);
        let snapshot = a.clone();
        a.merge(&Metrics::new());
        assert_eq!(a.loss_curve, snapshot.loss_curve);
        assert_eq!(a.model_sends, snapshot.model_sends);
        assert_eq!(a.bytes_delivered, snapshot.bytes_delivered);
    }

    #[test]
    fn time_to_loss_finds_first_crossing() {
        let mut m = Metrics::new();
        m.record_loss(0.0, 1.0);
        m.record_loss(10.0, 0.6);
        m.record_loss(20.0, 0.4);
        m.record_loss(30.0, 0.45);
        assert_eq!(m.time_to_loss(0.5), Some(20.0));
        assert_eq!(m.time_to_loss(0.1), None);
        assert_eq!(m.final_loss(), Some(0.45));
    }
}
