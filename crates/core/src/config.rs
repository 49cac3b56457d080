//! LbChat configuration with the paper's §IV-A defaults.
//!
//! [`LbChatConfig`] gathers every knob of the algorithm — coreset size and
//! refresh policy, the ψ grid behind the Eq. (7) optimizer, error-feedback
//! compensation, aggregation rule, penalty weights, wire sizes — pre-set to the
//! values §IV-A reports (coreset 150 frames ≈ 0.6 MB, T_B = 15 s,
//! lr 1e-4, batch 64). Variants are derived with the chainable `with_*`
//! methods (e.g. [`LbChatConfig::with_coreset_size`] for the Table IV
//! sweep, [`LbChatConfig::with_equal_compression`] /
//! [`LbChatConfig::with_average_aggregation`] for the Table V/VI
//! ablations, [`LbChatConfig::sco`] for coreset-only sharing). This module
//! also hosts [`ConfigError`], the validation failure type shared by the
//! runtime's and the driving crate's config builders.

use crate::aggregate::AggregationRule;
use crate::penalty::PenaltyConfig;
use crate::phi::DEFAULT_PSI_GRID;

/// A validation failure from a config builder ([`crate::RuntimeConfig`]'s
/// and the driving crate's evaluation config). Carries the offending field
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
    /// Maintain the coreset by merge-and-reduce on absorption (§III-D)
    /// instead of waiting for the next full rebuild.
    pub merge_reduce: bool,
    /// Minibatch size for local training (paper: 64).
    pub batch_size: usize,
    /// Enable adaptive coreset sizing (the paper's stated future work; see
    /// [`crate::adaptive`]). The configured `coreset_size` becomes the
    /// starting point, bounded to one decade either side.
    pub adaptive_coreset: bool,
    /// Wrap model encodes in [`crate::compress::ErrorFeedback`]: each
    /// round's dropped compression mass is banked per peer and folded into
    /// the next encode toward that peer. Off by default (the paper has no
    /// residual accumulation). The codec itself is a runtime concern —
    /// [`crate::RuntimeConfig`]'s `codec` field / the `--codec` CLI axis.
    pub error_feedback: bool,
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
            merge_reduce: true,
            batch_size: 64,
            adaptive_coreset: false,
            error_feedback: false,
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

    /// Enables adaptive coreset sizing (extension beyond the paper).
    pub fn with_adaptive_coreset(mut self) -> Self {
        self.adaptive_coreset = true;
        self
    }

    /// Enables error-feedback compensation around the session codec
    /// (extension beyond the paper; see docs/COMPRESSION.md).
    pub fn with_error_feedback(mut self) -> Self {
        self.error_feedback = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LbChatConfig::default();
        assert_eq!(c.coreset_size, 150);
        assert_eq!(c.model_wire_bytes, 52 * 1024 * 1024);
        assert_eq!(c.time_budget, 15.0);
        assert_eq!(c.batch_size, 64);
        // 150 frames at 4096 B ≈ 0.6 MB.
        assert_eq!(c.coreset_wire_bytes(), 614_400);
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
        assert!(LbChatConfig::default().with_adaptive_coreset().adaptive_coreset);
        assert!(LbChatConfig::default().with_error_feedback().error_feedback);
        assert!(!LbChatConfig::default().error_feedback);
    }
}
