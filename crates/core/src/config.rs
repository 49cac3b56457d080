//! LbChat configuration with the paper's §IV-A defaults.
//!
//! [`LbChatConfig`] gathers every knob of the algorithm — coreset size and
//! refresh policy, the ψ grid behind the Eq. (7) optimizer, aggregation
//! rule, penalty weights, wire sizes — pre-set to the values §IV-A reports
//! (coreset 150 frames ≈ 0.6 MB, T_B = 15 s, lr 1e-4, batch 64). Variants
//! are derived with the chainable `with_*` methods (e.g.
//! [`LbChatConfig::with_coreset_size`] for the Table IV
//! sweep, [`LbChatConfig::with_equal_compression`] /
//! [`LbChatConfig::with_average_aggregation`] for the Table V/VI
//! ablations, [`LbChatConfig::sco`] for coreset-only sharing). This module
//! also hosts [`ConfigError`], the validation failure type shared by
//! [`crate::RuntimeConfig::validate`] and the driving crate's
//! `EvalConfig::validate`.

use crate::aggregate::AggregationRule;
use crate::penalty::PenaltyConfig;
use crate::phi::DEFAULT_PSI_GRID;

/// A validation failure from [`crate::RuntimeConfig::validate`] or the
/// driving crate's `EvalConfig::validate`. Carries the offending field
/// name so callers can report which knob was nonsense.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field that must be strictly positive (and finite) was not.
    NonPositive {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A field that must be non-negative (and finite) was not.
    Negative {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A count field that must be at least one was zero.
    ZeroCount {
        /// The offending field.
        field: &'static str,
    },
    /// A distance→PER lookup table the radio could only misread.
    LossTable {
        /// The offending field.
        field: &'static str,
        /// What is wrong with the table.
        error: simnet::loss::LossTableError,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative and finite, got {value}")
            }
            ConfigError::ZeroCount { field } => {
                write!(f, "{field} must be at least 1")
            }
            ConfigError::LossTable { field, error } => write!(f, "{field}: {error}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// Checks that `value` is finite and strictly positive.
    pub fn require_positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
        if value.is_finite() && value > 0.0 {
            Ok(())
        } else {
            Err(ConfigError::NonPositive { field, value })
        }
    }

    /// Checks that `value` is finite and non-negative.
    pub fn require_non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
        if value.is_finite() && value >= 0.0 {
            Ok(())
        } else {
            Err(ConfigError::Negative { field, value })
        }
    }

    /// Checks that a count is nonzero.
    pub fn require_nonzero(field: &'static str, value: usize) -> Result<(), ConfigError> {
        if value > 0 {
            Ok(())
        } else {
            Err(ConfigError::ZeroCount { field })
        }
    }
}

/// Every knob of the LbChat node, defaulted to the paper's experimental
/// setup.
#[derive(Debug, Clone)]
pub struct LbChatConfig {
    /// Coreset size in samples (paper: 150 frames).
    pub coreset_size: usize,
    /// Serialized bytes per coreset sample. The paper's 150-frame coreset is
    /// ≈ 0.6 MB with lossless compression ⇒ 4096 bytes/frame.
    pub coreset_bytes_per_sample: usize,
    /// Dense wire size of the model (paper: 52 MB).
    pub model_wire_bytes: usize,
    /// Pairwise exchange time budget `T_B` in seconds (paper: 15 s).
    pub time_budget: f64,
    /// Award coefficient `λ_c` of Eq. (7).
    pub lambda_c: f32,
    /// Eq. (6) penalty coefficients.
    pub penalty: PenaltyConfig,
    /// ψ values sampled when fitting φ.
    pub psi_grid: Vec<f32>,
    /// Aggregation rule for Eq. (8).
    pub aggregation: AggregationRule,
    /// Table V ablation: ignore the Eq. (7) optimization and use an equal,
    /// contact-fitted compression ratio in both directions.
    pub equal_compression: bool,
    /// When `false`, vehicles share only coresets, never models — the SCO
    /// variant of §IV-G.
    pub share_model: bool,
    /// Local iterations between coreset rebuilds (the coreset tracks the
    /// evolving model and dataset).
    pub coreset_refresh_iters: usize,
    /// Minibatch size for local training (paper: 64).
    pub batch_size: usize,
}

impl Default for LbChatConfig {
    fn default() -> Self {
        Self {
            coreset_size: 150,
            coreset_bytes_per_sample: 4096,
            model_wire_bytes: 52 * 1024 * 1024,
            time_budget: 15.0,
            lambda_c: 0.01,
            penalty: PenaltyConfig::default(),
            psi_grid: DEFAULT_PSI_GRID.to_vec(),
            aggregation: AggregationRule::InverseLoss,
            equal_compression: false,
            share_model: true,
            coreset_refresh_iters: 50,
            batch_size: 64,
        }
    }
}

impl LbChatConfig {
    /// Wire size of a coreset with the configured per-sample bytes.
    pub fn coreset_wire_bytes(&self) -> usize {
        self.coreset_size * self.coreset_bytes_per_sample
    }

    /// The SCO variant (§IV-G): coreset sharing only.
    pub fn sco(mut self) -> Self {
        self.share_model = false;
        self
    }

    /// The Table V ablation: equal compression ratios.
    pub fn with_equal_compression(mut self) -> Self {
        self.equal_compression = true;
        self
    }

    /// The Table VI ablation: plain-average aggregation.
    pub fn with_average_aggregation(mut self) -> Self {
        self.aggregation = AggregationRule::Average;
        self
    }

    /// The Table IV sweep: a different coreset size.
    pub fn with_coreset_size(mut self, size: usize) -> Self {
        self.coreset_size = size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        // Destructured without `..`: adding or removing a field fails to
        // compile here, so the option count cannot drift unnoticed.
        let c = LbChatConfig::default();
        assert_eq!(c.coreset_wire_bytes(), 614_400, "150 frames at 4096 B ≈ 0.6 MB");
        let LbChatConfig {
            coreset_size,
            coreset_bytes_per_sample,
            model_wire_bytes,
            time_budget,
            lambda_c,
            penalty,
            psi_grid,
            aggregation,
            equal_compression,
            share_model,
            coreset_refresh_iters,
            batch_size,
        } = c;
        assert_eq!(coreset_size, 150);
        assert_eq!(coreset_bytes_per_sample, 4096);
        assert_eq!(model_wire_bytes, 52 * 1024 * 1024);
        assert_eq!(time_budget, 15.0);
        assert_eq!(lambda_c, 0.01);
        assert_eq!(penalty, PenaltyConfig::default());
        assert_eq!(psi_grid, DEFAULT_PSI_GRID);
        assert_eq!(aggregation, AggregationRule::InverseLoss);
        assert!(!equal_compression);
        assert!(share_model);
        assert_eq!(coreset_refresh_iters, 50);
        assert_eq!(batch_size, 64);
    }

    #[test]
    fn builders_toggle_the_right_flags() {
        assert!(!LbChatConfig::default().sco().share_model);
        assert!(LbChatConfig::default().with_equal_compression().equal_compression);
        assert_eq!(
            LbChatConfig::default().with_average_aggregation().aggregation,
            AggregationRule::Average
        );
        assert_eq!(LbChatConfig::default().with_coreset_size(15).coreset_size, 15);
    }
}
