//! Automatic semantic-spec inference — the paper's stated future work
//! (§4: "We wish to leave the automated approach for extracting
//! semantic information as the future work").
//!
//! Given a fast path and its slow path, [`infer_spec`] proposes a
//! [`FastPathSpec`] from the structural evidence the diff tool already
//! computes:
//!
//! * **immutable candidates** — shared inputs both paths read and
//!   neither writes (inputs that behave as fixed state);
//! * **trigger-condition candidates** — variables appearing only in
//!   the fast path's extra conditions (the trigger) and variables in
//!   conditions the fast path dropped (checks it may need);
//! * **`match_slow_return`** — proposed when both paths return
//!   comparable literal sets;
//! * **`check_return`** — proposed when some caller in the unit
//!   already checks the fast path's return (the others should too);
//! * **fault candidates** — error-shaped identifiers (negative enum
//!   constants, `E*` codes, `*err*`/`*fail*` names) the slow path
//!   consults in flow control but the fast path never does.
//!
//! Inference is deliberately a *proposal generator*: every candidate
//! carries the evidence that produced it, and the intended workflow is
//! `pallas infer` → developer prunes → `pallas check`.

use crate::diff::PathFeatures;
use pallas_lang::{Ast, Item};
use pallas_spec::FastPathSpec;
use pallas_sym::{Event, PathDb};
use std::collections::BTreeSet;
use std::fmt;

/// One inferred fact with its supporting evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// The spec line proposed (e.g. `immutable gfp_mask;`).
    pub fact: String,
    /// Why it was proposed.
    pub reason: String,
}

/// The result of spec inference: a ready-to-check spec plus per-fact
/// evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredSpec {
    /// The proposed specification.
    pub spec: FastPathSpec,
    /// Evidence for each proposed fact, in proposal order.
    pub evidence: Vec<Evidence>,
}

impl fmt::Display for InferredSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# inferred spec (review before use)")?;
        write!(f, "{}", self.spec)?;
        writeln!(f, "# evidence:")?;
        for e in &self.evidence {
            writeln!(f, "#   {} — {}", e.fact.trim_end_matches(';'), e.reason)?;
        }
        Ok(())
    }
}

/// Infers a semantic spec for `fast` by contrasting it with `slow`.
/// Returns `None` if either function is missing from the database.
pub fn infer_spec(db: &PathDb, ast: &Ast, fast: &str, slow: &str) -> Option<InferredSpec> {
    let ff = db.function(fast)?;
    let sf = db.function(slow)?;
    let fast_features = PathFeatures::collect(ff);
    let slow_features = PathFeatures::collect(sf);

    let mut spec = FastPathSpec::new(format!("{}(inferred)", db.unit))
        .with_fastpath(fast)
        .with_slowpath(slow);
    let mut evidence = Vec::new();

    // Immutable candidates: parameters of the fast path that both
    // paths read but neither writes. Restricting to parameters keeps
    // the proposal list short and high-precision.
    let written: BTreeSet<&String> =
        fast_features.writes.iter().chain(slow_features.writes.iter()).collect();
    for param in &ff.params {
        if param.is_empty() || written.iter().any(|w| w.as_str() == param) {
            continue;
        }
        if fast_features.reads.contains(param) && slow_features.reads.contains(param) {
            spec = spec.with_immutable(param.clone());
            evidence.push(Evidence {
                fact: format!("immutable {param};"),
                reason: "read by both paths, written by neither".into(),
            });
        }
    }

    // Trigger candidates: variables in conditions only the fast path
    // checks (its trigger) and variables in conditions it dropped.
    let mut trigger_vars = BTreeSet::new();
    for rec in ff.paths() {
        for e in rec.conditions() {
            if let Event::Cond { text, vars, depth: 0, .. } = e {
                if !slow_features.conditions.contains(text) {
                    trigger_vars.extend(vars.iter().cloned());
                }
            }
        }
    }
    // Keep only bare identifiers (skip member-path atoms) for a clean
    // proposal.
    let trigger: Vec<String> = trigger_vars
        .into_iter()
        .filter(|v| !v.contains("->") && !v.contains('.') && !v.contains('['))
        .collect();
    if !trigger.is_empty() {
        let refs: Vec<&str> = trigger.iter().map(String::as_str).collect();
        spec = spec.with_cond("trigger", &refs);
        evidence.push(Evidence {
            fact: format!("cond trigger: {};", trigger.join(", ")),
            reason: "checked by the fast path but not by the slow path".into(),
        });
    }

    // Return agreement: propose match_slow_return when both paths
    // produce literal returns.
    if !fast_features.returns.is_empty() && !slow_features.returns.is_empty() {
        spec = spec.with_match_slow_return();
        let agree = fast_features.returns.is_subset(&slow_features.returns);
        evidence.push(Evidence {
            fact: "match_slow_return;".into(),
            reason: if agree {
                "both paths return comparable literal sets (currently agreeing)".into()
            } else {
                format!(
                    "literal returns currently disagree: fast {:?} vs slow {:?}",
                    fast_features.returns, slow_features.returns
                )
            },
        });
    }

    // check_return: if any caller already branches on the result, the
    // return value is meaningful and every caller should check it.
    let callers = db.callers_of(fast);
    let any_checked = callers.iter().any(|caller| {
        caller.paths().any(|rec| {
            rec.events().enumerate().any(|(i, e)| match e {
                Event::Call { callee, assigned_to, in_condition, .. } if callee == fast => {
                    *in_condition
                        || assigned_to.as_ref().is_some_and(|var| {
                            rec.events().skip(i + 1).any(|later| match later {
                                Event::Cond { vars, .. } => vars.iter().any(|v| v == var),
                                _ => false,
                            })
                        })
                }
                _ => false,
            })
        })
    });
    if any_checked {
        spec = spec.with_check_return();
        evidence.push(Evidence {
            fact: "check_return;".into(),
            reason: "at least one caller already checks the fast path's return".into(),
        });
    }

    // Fault candidates: error-shaped names the slow path checks in
    // flow control that the fast path never does.
    let fast_checked: BTreeSet<String> = ff
        .paths()
        .flat_map(|r| r.conditions())
        .flat_map(|e| match e {
            Event::Cond { vars, .. } => vars.clone(),
            _ => Vec::new(),
        })
        .collect();
    let mut faults = BTreeSet::new();
    for rec in sf.paths() {
        for e in rec.conditions() {
            if let Event::Cond { vars, .. } = e {
                for v in vars {
                    if looks_like_fault(v, ast) && !fast_checked.contains(v) {
                        faults.insert(v.clone());
                    }
                }
            }
        }
    }
    for fault in faults {
        evidence.push(Evidence {
            fact: format!("fault {fault};"),
            reason: "error-shaped state handled by the slow path only".into(),
        });
        spec = spec.with_fault(fault);
    }

    Some(InferredSpec { spec, evidence })
}

/// Heuristic for error-shaped identifiers: classic `E*` error-code
/// names, names mentioning err/fail/fault, or enum constants with
/// negative values.
fn looks_like_fault(name: &str, ast: &Ast) -> bool {
    if name.contains("->") || name.contains('.') {
        return false;
    }
    let lower = name.to_lowercase();
    if lower.contains("err") || lower.contains("fail") || lower.contains("fault") {
        return true;
    }
    if name.len() >= 3
        && name.starts_with('E')
        && name.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
    {
        return true;
    }
    if let Some(v) = ast.enum_value(name) {
        return v < 0;
    }
    // Globals initialized to negative error codes.
    ast.items.iter().any(|i| matches!(i, Item::Global { name: n, .. } if n == name && lower.contains("state")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;
    use pallas_sym::{extract, ExtractConfig};

    fn infer(src: &str, fast: &str, slow: &str) -> InferredSpec {
        let ast = parse(src).unwrap();
        let db = extract("infer-test", &ast, src, &ExtractConfig::default());
        infer_spec(&db, &ast, fast, slow).expect("functions exist")
    }

    const UBIFS_LIKE: &str = "\
int budget_space(int inode);
int write_page(int page);
int ubifs_write_slow(int inode, int page, int io_err) {
  int err = budget_space(inode);
  if (err)
    return -1;
  if (io_err)
    return -5;
  write_page(page);
  return 0;
}
int ubifs_write_fast(int inode, int page, int io_err, int free_space) {
  if (free_space > 0) {
    write_page(page);
    return 0;
  }
  return -1;
}
int caller(int inode, int page, int io_err, int free_space) {
  int r = ubifs_write_fast(inode, page, io_err, free_space);
  if (r < 0)
    return r;
  return 0;
}";

    #[test]
    fn infers_immutable_shared_inputs() {
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(
            inferred.spec.immutable.contains(&"page".to_string()),
            "{:?}",
            inferred.spec.immutable
        );
        // `inode` is a parameter of both but the fast path never reads
        // it, so it is (correctly) not proposed.
        assert!(!inferred.spec.immutable.contains(&"inode".to_string()));
    }

    #[test]
    fn infers_trigger_condition() {
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        let trigger = inferred.spec.cond("trigger").expect("trigger proposed");
        assert!(trigger.vars.contains(&"free_space".to_string()), "{trigger:?}");
    }

    #[test]
    fn infers_match_slow_return_with_disagreement_evidence() {
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(inferred.spec.match_slow_return);
    }

    #[test]
    fn infers_check_return_from_checking_caller() {
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(inferred.spec.check_return);
    }

    #[test]
    fn infers_fault_from_error_shaped_slow_check() {
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(
            inferred.spec.faults.contains(&"io_err".to_string()),
            "{:?}",
            inferred.spec.faults
        );
    }

    #[test]
    fn inferred_spec_round_trips_through_parser() {
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        // The Display form (minus evidence comments) must be parseable.
        let text = inferred.spec.to_string();
        let parsed = pallas_spec::parse_spec(&text).unwrap();
        assert_eq!(parsed.fastpath, inferred.spec.fastpath);
    }

    #[test]
    fn inferred_spec_finds_injected_bugs() {
        // Running the checker with the *inferred* spec still catches
        // the mismatched fast return (-1 not in slow's set? slow has
        // -1; fast's 0/-1 ⊆ slow's {-1,-5,0}) — but the missing io_err
        // fault handling is caught.
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        let ast = parse(UBIFS_LIKE).unwrap();
        let db = extract("infer-test", &ast, UBIFS_LIKE, &ExtractConfig::default());
        let warnings = pallas_checkers::run_all(&pallas_checkers::CheckContext {
            db: &db,
            spec: &inferred.spec,
            ast: &ast,
        });
        assert!(
            warnings
                .iter()
                .any(|w| w.rule == pallas_checkers::Rule::FaultMissing
                    && w.message.contains("io_err")),
            "{warnings:#?}"
        );
    }

    #[test]
    fn evidence_accompanies_every_family() {
        let inferred = infer(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(inferred.evidence.len() >= 4, "{:#?}", inferred.evidence);
        let text = inferred.to_string();
        assert!(text.contains("# evidence:"));
        assert!(text.contains("fastpath ubifs_write_fast;"));
    }

    #[test]
    fn missing_functions_yield_none() {
        let src = "int f(void) { return 0; }";
        let ast = parse(src).unwrap();
        let db = extract("t", &ast, src, &ExtractConfig::default());
        assert!(infer_spec(&db, &ast, "f", "missing").is_none());
    }

    #[test]
    fn fault_heuristic_shapes() {
        let ast = parse("enum e { ENOMEM = -12, OK = 0 };").unwrap();
        assert!(looks_like_fault("io_err", &ast));
        assert!(looks_like_fault("write_failed", &ast));
        assert!(looks_like_fault("EIO", &ast));
        assert!(looks_like_fault("ENOMEM", &ast));
        assert!(!looks_like_fault("OK", &ast));
        assert!(!looks_like_fault("page", &ast));
        assert!(!looks_like_fault("p->err_field", &ast));
    }
}
