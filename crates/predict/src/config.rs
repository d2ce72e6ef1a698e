//! Predictor configuration values: parse, validate, build.
//!
//! [`PredictorConfig`] is a plain `Copy` value so the issue layer's
//! `Mechanism` enum (also `Copy`) can embed one and sweep grids can hash
//! and compare jobs cheaply. Table-size validation lives here as typed
//! [`PredictError`]s — the constructors in the zoo keep their internal
//! `assert!`s, but every CLI/config path is expected to call
//! [`PredictorConfig::validate`] (or [`PredictorConfig::parse`], which
//! validates) first, so a user typo like `twobit:63` is a diagnostic,
//! not a panic.

use std::fmt;

use crate::zoo::{Gshare, LocalPag, TageLite};
use crate::{AlwaysTaken, Btfn, Predictor, TwoBit};

/// A predictor choice plus its sizing, as a plain value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorConfig {
    /// Static: every conditional branch taken.
    AlwaysTaken,
    /// Static: backward taken, forward not taken.
    Btfn,
    /// Smith's 2-bit counter table (the paper-era default).
    TwoBit {
        /// Counter-table entries (power of two).
        entries: usize,
    },
    /// Bimodal 2-bit counter table: Smith's [`TwoBit`] under its own
    /// name, so ablations can tell a generously sized table from the
    /// paper-default 64 entries.
    Bimodal {
        /// Counter-table entries (power of two).
        entries: usize,
    },
    /// Gshare: pc XOR global history.
    Gshare {
        /// Counter-table entries (power of two).
        entries: usize,
    },
    /// Two-level local-history (PAg).
    Local {
        /// Pattern-table entries (power of two).
        entries: usize,
    },
    /// TAGE-lite: primed bimodal base + tagged geometric-history tables.
    Tage {
        /// Base-table entries (power of two); each tagged table gets
        /// `max(entries / 4, 16)`.
        entries: usize,
    },
}

impl Default for PredictorConfig {
    /// The calibrated default of the speculative RUU: `TwoBit(64)`.
    fn default() -> Self {
        PredictorConfig::TwoBit { entries: 64 }
    }
}

impl PredictorConfig {
    /// The default ablation line-up, cheapest static predictor first.
    #[must_use]
    pub fn zoo() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::AlwaysTaken,
            PredictorConfig::Btfn,
            PredictorConfig::TwoBit { entries: 64 },
            PredictorConfig::Bimodal { entries: 1024 },
            PredictorConfig::Gshare { entries: 1024 },
            PredictorConfig::Local { entries: 1024 },
            PredictorConfig::Tage { entries: 512 },
        ]
    }

    /// Parses `NAME` or `NAME:SIZE` (e.g. `gshare:1024`), validating the
    /// size.
    ///
    /// # Errors
    /// [`PredictError::UnknownPredictor`] for an unrecognised name,
    /// [`PredictError::BadSize`] for an unparsable size,
    /// [`PredictError::SizeNotAllowed`] for a size on a static predictor,
    /// and whatever [`PredictorConfig::validate`] reports for a bad one.
    pub fn parse(s: &str) -> Result<Self, PredictError> {
        let (name, size) = match s.split_once(':') {
            Some((n, sz)) => {
                let v: usize = sz
                    .parse()
                    .map_err(|_| PredictError::BadSize(sz.to_string()))?;
                (n, Some(v))
            }
            None => (s, None),
        };
        let cfg = match name {
            "always-taken" | "always" => {
                if size.is_some() {
                    return Err(PredictError::SizeNotAllowed {
                        name: "always-taken",
                    });
                }
                PredictorConfig::AlwaysTaken
            }
            "btfn" => {
                if size.is_some() {
                    return Err(PredictError::SizeNotAllowed { name: "btfn" });
                }
                PredictorConfig::Btfn
            }
            "twobit" | "2bit" | "2-bit" => PredictorConfig::TwoBit {
                entries: size.unwrap_or(64),
            },
            "bimodal" => PredictorConfig::Bimodal {
                entries: size.unwrap_or(1024),
            },
            "gshare" => PredictorConfig::Gshare {
                entries: size.unwrap_or(1024),
            },
            "local" | "pag" => PredictorConfig::Local {
                entries: size.unwrap_or(1024),
            },
            "tage" | "tage-lite" => PredictorConfig::Tage {
                entries: size.unwrap_or(512),
            },
            other => return Err(PredictError::UnknownPredictor(other.to_string())),
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the table sizing.
    ///
    /// # Errors
    /// [`PredictError::NotPowerOfTwo`] or [`PredictError::TooSmall`] when
    /// a table size is invalid.
    pub fn validate(&self) -> Result<(), PredictError> {
        let entries = match *self {
            PredictorConfig::AlwaysTaken | PredictorConfig::Btfn => return Ok(()),
            PredictorConfig::TwoBit { entries }
            | PredictorConfig::Bimodal { entries }
            | PredictorConfig::Gshare { entries }
            | PredictorConfig::Local { entries }
            | PredictorConfig::Tage { entries } => entries,
        };
        if entries < 2 {
            return Err(PredictError::TooSmall {
                what: "predictor table",
                got: entries,
                min: 2,
            });
        }
        if !entries.is_power_of_two() {
            return Err(PredictError::NotPowerOfTwo {
                what: "predictor table",
                got: entries,
            });
        }
        Ok(())
    }

    /// Builds the predictor.
    ///
    /// # Panics
    /// Panics on an invalid table size — call
    /// [`PredictorConfig::validate`] first on untrusted input.
    #[must_use]
    pub fn build(&self) -> Box<dyn Predictor> {
        if let Err(e) = self.validate() {
            panic!("invalid predictor config {self}: {e}");
        }
        match *self {
            PredictorConfig::AlwaysTaken => Box::new(AlwaysTaken),
            PredictorConfig::Btfn => Box::new(Btfn),
            PredictorConfig::TwoBit { entries } | PredictorConfig::Bimodal { entries } => {
                Box::new(TwoBit::new(entries))
            }
            PredictorConfig::Gshare { entries } => Box::new(Gshare::new(entries)),
            PredictorConfig::Local { entries } => Box::new(LocalPag::new(entries)),
            PredictorConfig::Tage { entries } => Box::new(TageLite::new(entries)),
        }
    }
}

impl fmt::Display for PredictorConfig {
    /// The canonical `NAME[:size]` spelling; round-trips through
    /// [`PredictorConfig::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PredictorConfig::AlwaysTaken => write!(f, "always-taken"),
            PredictorConfig::Btfn => write!(f, "btfn"),
            PredictorConfig::TwoBit { entries } => write!(f, "twobit:{entries}"),
            PredictorConfig::Bimodal { entries } => write!(f, "bimodal:{entries}"),
            PredictorConfig::Gshare { entries } => write!(f, "gshare:{entries}"),
            PredictorConfig::Local { entries } => write!(f, "local:{entries}"),
            PredictorConfig::Tage { entries } => write!(f, "tage:{entries}"),
        }
    }
}

/// A typed predictor-configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The predictor name is not in the zoo.
    UnknownPredictor(String),
    /// A table size must be a power of two.
    NotPowerOfTwo {
        /// What was being sized.
        what: &'static str,
        /// The offending value.
        got: usize,
    },
    /// A table size is below the supported minimum.
    TooSmall {
        /// What was being sized.
        what: &'static str,
        /// The offending value.
        got: usize,
        /// The minimum allowed.
        min: usize,
    },
    /// The size suffix did not parse as a number.
    BadSize(String),
    /// A static predictor takes no size.
    SizeNotAllowed {
        /// The predictor name.
        name: &'static str,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::UnknownPredictor(n) => write!(
                f,
                "unknown predictor '{n}' (try always-taken, btfn, twobit, bimodal, gshare, local, tage)"
            ),
            PredictError::NotPowerOfTwo { what, got } => {
                write!(f, "{what} size must be a power of two, got {got}")
            }
            PredictError::TooSmall { what, got, min } => {
                write!(f, "{what} size must be at least {min}, got {got}")
            }
            PredictError::BadSize(s) => write!(f, "size '{s}' is not a number"),
            PredictError::SizeNotAllowed { name } => {
                write!(f, "predictor '{name}' takes no table size")
            }
        }
    }
}

impl std::error::Error for PredictError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_display() {
        for cfg in PredictorConfig::zoo() {
            assert_eq!(PredictorConfig::parse(&cfg.to_string()).unwrap(), cfg);
        }
    }

    #[test]
    fn parse_defaults_and_aliases() {
        assert_eq!(
            PredictorConfig::parse("twobit").unwrap(),
            PredictorConfig::TwoBit { entries: 64 }
        );
        assert_eq!(
            PredictorConfig::parse("2-bit:128").unwrap(),
            PredictorConfig::TwoBit { entries: 128 }
        );
        assert_eq!(
            PredictorConfig::parse("pag").unwrap(),
            PredictorConfig::Local { entries: 1024 }
        );
        assert_eq!(
            PredictorConfig::parse("tage-lite:256").unwrap(),
            PredictorConfig::Tage { entries: 256 }
        );
    }

    #[test]
    fn non_power_of_two_is_a_typed_error_not_a_panic() {
        // The bug this layer fixes: `twobit:63` used to reach
        // `TwoBit::new` and assert. Now it is a diagnostic.
        let e = PredictorConfig::parse("twobit:63").unwrap_err();
        assert_eq!(
            e,
            PredictError::NotPowerOfTwo {
                what: "predictor table",
                got: 63
            }
        );
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(matches!(
            PredictorConfig::parse("nonsense"),
            Err(PredictError::UnknownPredictor(_))
        ));
        assert!(matches!(
            PredictorConfig::parse("gshare:banana"),
            Err(PredictError::BadSize(_))
        ));
        assert!(matches!(
            PredictorConfig::parse("btfn:8"),
            Err(PredictError::SizeNotAllowed { .. })
        ));
        assert!(matches!(
            PredictorConfig::parse("local:1"),
            Err(PredictError::TooSmall { .. })
        ));
    }

    #[test]
    fn build_produces_the_named_predictor() {
        for cfg in PredictorConfig::zoo() {
            let p = cfg.build();
            assert!(!p.name().is_empty());
        }
        assert_eq!(PredictorConfig::default().build().name(), "2-bit");
    }

    #[test]
    #[should_panic(expected = "invalid predictor config")]
    fn build_panics_on_unvalidated_bad_size() {
        let _ = PredictorConfig::Gshare { entries: 63 }.build();
    }

    #[test]
    fn zoo_labels_are_distinct() {
        let mut labels: Vec<String> = PredictorConfig::zoo()
            .iter()
            .map(ToString::to_string)
            .collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }
}
