//! The Pallas driver facade: merge → parse → spec → extract → check.
//!
//! [`Pallas`] is the stateless entry point kept for API compatibility;
//! every call delegates to a fresh staged [`Engine`],
//! which owns the actual pipeline, the frontend cache, and the
//! work-stealing batch scheduler. Callers that check units repeatedly
//! should hold an `Engine` directly to benefit from caching.

use crate::engine::{default_jobs, Engine, StageTiming};
use crate::unit::{MergeMap, SourceUnit};
use pallas_checkers::{CheckerTiming, Warning};
use pallas_lang::{Ast, ParseError};
use pallas_spec::{FastPathSpec, SpecError};
use pallas_sym::{ExtractConfig, PathDb};
use std::fmt;
use std::time::Duration;

/// An error from analyzing a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PallasError {
    /// Unit the error occurred in.
    pub unit: String,
    /// What went wrong.
    pub kind: PallasErrorKind,
}

/// Error variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PallasErrorKind {
    /// The merged source failed to parse.
    Parse(ParseError),
    /// The spec document or an inline pragma failed to parse.
    Spec(SpecError),
    /// The analysis itself panicked; the batch schedulers confine the
    /// panic to the offending unit and report its message here.
    Internal(String),
}

impl fmt::Display for PallasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            PallasErrorKind::Parse(e) => write!(f, "unit `{}`: {e}", self.unit),
            PallasErrorKind::Spec(e) => write!(f, "unit `{}`: {e}", self.unit),
            PallasErrorKind::Internal(msg) => {
                write!(f, "unit `{}`: internal error: {msg}", self.unit)
            }
        }
    }
}

impl std::error::Error for PallasError {}

/// The result of analyzing one unit.
#[derive(Debug, Clone)]
pub struct AnalyzedUnit {
    /// Unit name.
    pub name: String,
    /// Merged source text.
    pub merged_src: String,
    /// Merged-line → file mapping.
    pub merge_map: MergeMap,
    /// Parsed AST of the merged unit, shared with the engine's frontend
    /// cache — a warm check hands out another reference instead of
    /// deep-cloning the tree.
    pub ast: std::sync::Arc<Ast>,
    /// Extracted path database, shared like [`ast`](Self::ast).
    pub db: std::sync::Arc<PathDb>,
    /// Effective spec (document + inline pragmas).
    pub spec: FastPathSpec,
    /// Checker warnings, sorted and deduplicated.
    pub warnings: Vec<Warning>,
    /// Spec lint findings (dead or contradictory annotations).
    pub lint: Vec<pallas_spec::LintIssue>,
    /// Wall-clock time spent on this unit.
    pub elapsed: Duration,
    /// Per-stage timings in pipeline order; cached stages carry
    /// `cached: true` and zero elapsed time.
    pub stage_timings: Vec<StageTiming>,
    /// Per-checker-family timings from the Check stage.
    pub checker_timings: Vec<CheckerTiming>,
}

impl AnalyzedUnit {
    /// Warnings of one rule.
    pub fn warnings_for(&self, rule: pallas_checkers::Rule) -> Vec<&Warning> {
        self.warnings.iter().filter(|w| w.rule == rule).collect()
    }

    /// Whether any frontend stage was served from the engine cache.
    pub fn from_cache(&self) -> bool {
        self.stage_timings.iter().any(|t| t.cached)
    }
}

/// The Pallas toolkit driver.
///
/// Holds the extraction configuration; `check_*` methods run the whole
/// staged pipeline over units through a one-shot [`Engine`]. Because
/// the engine is created per call, no frontend caching happens across
/// `Pallas` calls — use [`Engine`] directly for that.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pallas {
    config: ExtractConfig,
}

impl Pallas {
    /// Creates a driver with the default configuration
    /// (loop unrolling 1, callee inlining depth 1, 4096-path cap).
    pub fn new() -> Self {
        Pallas::default()
    }

    /// Overrides the extraction configuration.
    pub fn with_config(mut self, config: ExtractConfig) -> Self {
        self.config = config;
        self
    }

    /// The current extraction configuration.
    pub fn config(&self) -> &ExtractConfig {
        &self.config
    }

    /// A staged engine configured like this driver. Hold onto it to
    /// reuse cached frontends across calls.
    pub fn engine(&self) -> Engine {
        Engine::with_config(self.config)
    }

    /// Runs the full pipeline on one unit.
    ///
    /// # Errors
    ///
    /// Returns [`PallasError`] if the merged source or the spec fails
    /// to parse.
    pub fn check_unit(&self, unit: &SourceUnit) -> Result<AnalyzedUnit, PallasError> {
        self.engine().check_unit(unit)
    }

    /// Convenience wrapper: a single in-memory source plus spec text.
    pub fn check_source(
        &self,
        name: &str,
        src: &str,
        spec_text: &str,
    ) -> Result<AnalyzedUnit, PallasError> {
        self.engine().check_source(name, src, spec_text)
    }

    /// Checks many units in parallel with work stealing across the
    /// host's cores, preserving input order in the output. A unit
    /// whose analysis panics yields [`PallasErrorKind::Internal`] for
    /// that unit only.
    pub fn check_many(&self, units: &[SourceUnit]) -> Vec<Result<AnalyzedUnit, PallasError>> {
        self.engine().check_many_jobs(units, default_jobs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_checkers::Rule;

    const BUGGY: &str = "\
typedef unsigned int gfp_t;
int noio(gfp_t m);
int alloc_fast(gfp_t gfp_mask) {
  gfp_mask = noio(gfp_mask);
  return 0;
}";

    #[test]
    fn end_to_end_single_source() {
        let report = Pallas::new()
            .check_source("mm", BUGGY, "fastpath alloc_fast; immutable gfp_mask;")
            .unwrap();
        assert_eq!(report.warnings.len(), 1);
        assert_eq!(report.warnings[0].rule, Rule::ImmutableOverwrite);
        assert_eq!(report.warnings_for(Rule::ImmutableOverwrite).len(), 1);
        assert_eq!(report.warnings_for(Rule::FaultMissing).len(), 0);
    }

    #[test]
    fn inline_pragmas_merge_with_spec() {
        let src = "\
/* @pallas immutable gfp_mask; */
typedef unsigned int gfp_t;
int noio(gfp_t m);
int alloc_fast(gfp_t gfp_mask) {
  gfp_mask = noio(gfp_mask);
  return 0;
}";
        let report = Pallas::new().check_source("mm", src, "fastpath alloc_fast;").unwrap();
        assert_eq!(report.warnings.len(), 1);
        assert!(report.spec.immutable.contains(&"gfp_mask".to_string()));
    }

    #[test]
    fn multi_file_unit_merges_headers() {
        let unit = SourceUnit::new("net/demo")
            .with_file("demo.h", "typedef unsigned int gfp_t;\nint noio(gfp_t m);\n")
            .with_file("demo.c", "int alloc_fast(gfp_t gfp_mask) {\n  gfp_mask = noio(gfp_mask);\n  return 0;\n}\n")
            .with_spec("fastpath alloc_fast; immutable gfp_mask;");
        let report = Pallas::new().check_unit(&unit).unwrap();
        assert_eq!(report.warnings.len(), 1);
        // The warning's merged line resolves into demo.c.
        let (file, local) = report.merge_map.resolve(report.warnings[0].line).unwrap();
        assert_eq!(file, "demo.c");
        assert_eq!(local, 2);
    }

    #[test]
    fn parse_errors_are_reported_with_unit() {
        let err = Pallas::new().check_source("bad", "int f( {", "").unwrap_err();
        assert_eq!(err.unit, "bad");
        assert!(matches!(err.kind, PallasErrorKind::Parse(_)));
    }

    #[test]
    fn spec_errors_are_reported_with_unit() {
        let err = Pallas::new()
            .check_source("bad", "int f(void) { return 0; }", "bogus keyword;")
            .unwrap_err();
        assert!(matches!(err.kind, PallasErrorKind::Spec(_)));
    }

    #[test]
    fn bad_inline_pragma_is_a_spec_error() {
        let err = Pallas::new()
            .check_source("bad", "/* @pallas nonsense here; */ int f(void) { return 0; }", "")
            .unwrap_err();
        assert!(matches!(err.kind, PallasErrorKind::Spec(_)));
    }

    #[test]
    fn check_many_preserves_order() {
        let units: Vec<SourceUnit> = (0..8)
            .map(|i| {
                SourceUnit::new(format!("u{i}"))
                    .with_file("f.c", format!("int f{i}(int x) {{ return x + {i}; }}"))
                    .with_spec(format!("fastpath f{i};"))
            })
            .collect();
        let results = Pallas::new().check_many(&units);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().name, format!("u{i}"));
        }
    }

    #[test]
    fn clean_unit_has_no_warnings() {
        let report = Pallas::new()
            .check_source(
                "ok",
                "int fast(int order) { if (order == 0) return 1; return 0; }",
                "fastpath fast; cond order0: order; returns 0, 1;",
            )
            .unwrap();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn elapsed_time_recorded() {
        // `elapsed` can legitimately round to zero on coarse clocks, so
        // assert the robust invariant: every stage reported a timing.
        let report = Pallas::new().check_source("t", "int f(void) { return 0; }", "").unwrap();
        assert_eq!(report.stage_timings.len(), 5);
        assert!(!report.from_cache(), "one-shot drivers start cold");
    }

    #[test]
    fn internal_errors_render_with_unit_and_message() {
        let err = PallasError {
            unit: "mm/slab".into(),
            kind: PallasErrorKind::Internal("index out of bounds".into()),
        };
        assert_eq!(err.to_string(), "unit `mm/slab`: internal error: index out of bounds");
    }
}
