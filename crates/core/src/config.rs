//! Configuration of the MinoanER pipeline.
//!
//! The paper's sensitivity analysis (§6.1, Figure 5) varies four
//! parameters — `k`, `K`, `N`, `θ` — and settles on the global default
//! `(2, 15, 3, 0.6)`, which is also the default here.
//!
//! A configuration is a struct literal over [`Default`]:
//!
//! ```
//! use minoaner_core::MinoanerConfig;
//!
//! let config = MinoanerConfig { top_k: 10, theta: 0.5, ..MinoanerConfig::default() };
//! assert!(config.validate().is_ok());
//! assert!(MinoanerConfig { top_k: 0, ..config }.validate().is_err());
//! ```
//!
//! [`MinoanerConfig::validate`] returns a [`ConfigError`] naming the first
//! violated constraint; [`crate::Minoaner::with_config`] refuses an invalid
//! configuration.

use std::fmt;

/// A violated [`MinoanerConfig`] constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `name_attrs_k` (`k`) was zero; at least one global name attribute
    /// per KB is required.
    ZeroNameAttrs,
    /// `top_k` (`K`) was zero; each entity must keep at least one
    /// candidate per evidence kind.
    ZeroTopK,
    /// `n_relations` (`N`) was zero; neighbor evidence needs at least one
    /// relation per entity.
    ZeroRelations,
    /// `theta` (`θ`) fell outside the open interval `(0, 1)`.
    ThetaOutOfRange(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroNameAttrs => write!(f, "name_attrs_k (k) must be ≥ 1"),
            ConfigError::ZeroTopK => write!(f, "top_k (K) must be ≥ 1"),
            ConfigError::ZeroRelations => write!(f, "n_relations (N) must be ≥ 1"),
            ConfigError::ThetaOutOfRange(theta) => {
                write!(f, "theta (θ) must lie in (0, 1), got {theta}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The four MinoanER parameters. Block Purging always runs (§3.1). The
/// worker count is not a parameter of the result: it is
/// [`crate::ResolveRequest::workers`] or the caller's [`crate::Executor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinoanerConfig {
    /// `k`: number of global name attributes per KB (Figure 5: 1–5).
    pub name_attrs_k: usize,
    /// `K`: candidate matches kept per entity per evidence kind
    /// (Figure 5: 5–25).
    pub top_k: usize,
    /// `N`: most important relations per entity (Figure 5: 1–5).
    pub n_relations: usize,
    /// `θ`: rank-aggregation trade-off between value- and neighbor-based
    /// candidate ranks in rule R3 (Figure 5: 0.3–0.8).
    pub theta: f64,
}

impl Default for MinoanerConfig {
    fn default() -> Self {
        Self {
            name_attrs_k: 2,
            top_k: 15,
            n_relations: 3,
            theta: 0.6,
        }
    }
}

impl MinoanerConfig {
    /// Validates parameter ranges, returning the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.name_attrs_k == 0 {
            return Err(ConfigError::ZeroNameAttrs);
        }
        if self.top_k == 0 {
            return Err(ConfigError::ZeroTopK);
        }
        if self.n_relations == 0 {
            return Err(ConfigError::ZeroRelations);
        }
        if !(0.0 < self.theta && self.theta < 1.0) {
            return Err(ConfigError::ThetaOutOfRange(self.theta));
        }
        Ok(())
    }
}

/// Which matching rules run — the knob behind the Table 4 ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// R1: name matching.
    pub r1: bool,
    /// R2: value matching.
    pub r2: bool,
    /// R3: rank-aggregation matching.
    pub r3: bool,
    /// R4: reciprocity filtering.
    pub r4: bool,
}

impl Default for RuleSet {
    fn default() -> Self {
        Self { r1: true, r2: true, r3: true, r4: true }
    }
}

impl RuleSet {
    /// All four rules (the full MinoanER workflow).
    pub const FULL: RuleSet = RuleSet { r1: true, r2: true, r3: true, r4: true };
    /// R1 executed alone (Table 4, row "R1").
    pub const R1_ONLY: RuleSet = RuleSet { r1: true, r2: false, r3: false, r4: false };
    /// R2 executed alone (Table 4, row "R2").
    pub const R2_ONLY: RuleSet = RuleSet { r1: false, r2: true, r3: false, r4: false };
    /// R3 executed alone (Table 4, row "R3").
    pub const R3_ONLY: RuleSet = RuleSet { r1: false, r2: false, r3: true, r4: false };
    /// Full workflow minus the reciprocity filter (Table 4, row "¬R4").
    pub const NO_R4: RuleSet = RuleSet { r1: true, r2: true, r3: true, r4: false };
    /// Full workflow minus R3 — the paper's "contribution of neighbors"
    /// experiment (Table 4, row "No Neighbors").
    pub const NO_NEIGHBORS: RuleSet = RuleSet { r1: true, r2: true, r3: false, r4: true };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_global_configuration() {
        let c = MinoanerConfig::default();
        assert_eq!((c.name_attrs_k, c.top_k, c.n_relations), (2, 15, 3));
        assert!((c.theta - 0.6).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let bad = [
            (MinoanerConfig { theta: 1.0, ..MinoanerConfig::default() }, ConfigError::ThetaOutOfRange(1.0)),
            (MinoanerConfig { theta: 0.0, ..MinoanerConfig::default() }, ConfigError::ThetaOutOfRange(0.0)),
            (MinoanerConfig { top_k: 0, ..MinoanerConfig::default() }, ConfigError::ZeroTopK),
            (MinoanerConfig { name_attrs_k: 0, ..MinoanerConfig::default() }, ConfigError::ZeroNameAttrs),
            (MinoanerConfig { n_relations: 0, ..MinoanerConfig::default() }, ConfigError::ZeroRelations),
        ];
        for (cfg, expected) in bad {
            assert_eq!(cfg.validate().unwrap_err(), expected, "{cfg:?}");
        }
    }

    #[test]
    fn error_messages_name_the_parameter() {
        let msg = MinoanerConfig { theta: 1.5, ..MinoanerConfig::default() }.validate().unwrap_err().to_string();
        assert!(msg.contains("theta"), "error message names the parameter: {msg}");
    }

    #[test]
    fn rule_set_presets() {
        assert_eq!(RuleSet::default(), RuleSet::FULL);
        let cases = [
            (RuleSet::R1_ONLY, [true, false, false, false]),
            (RuleSet::R2_ONLY, [false, true, false, false]),
            (RuleSet::R3_ONLY, [false, false, true, false]),
            (RuleSet::NO_R4, [true, true, true, false]),
            (RuleSet::NO_NEIGHBORS, [true, true, false, true]),
        ];
        for (rs, [r1, r2, r3, r4]) in cases {
            assert_eq!([rs.r1, rs.r2, rs.r3, rs.r4], [r1, r2, r3, r4]);
        }
    }
}
