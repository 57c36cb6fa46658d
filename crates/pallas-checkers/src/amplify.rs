//! Work-amplification checker (Rule 7.1).
//!
//! The second study-mined extension family: the study's
//! PerformanceDegradation consequence class — fast paths that silently
//! stop being fast. The spec declares which helpers are expensive
//! (`expensive sync_flush;`); the rule fires when a declared fast path
//! pays that cost unconditionally (the helper is called on every
//! path, so no traversal is actually fast) or repeatedly on a single
//! traversal (loop-carried or duplicated slow work).

use crate::context::{CheckContext, Checker};
use crate::rule::{Rule, Warning};
use pallas_sym::{Event, FunctionPaths, PathView};
use std::collections::BTreeSet;

/// Checker for the work-amplification rule — a thin view over the
/// registry's rule 7.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkAmplificationChecker;

impl Checker for WorkAmplificationChecker {
    fn name(&self) -> &'static str {
        crate::registry::family_name(pallas_spec::ElementClass::WorkAmplification)
    }

    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning> {
        crate::registry::run_family(cx, pallas_spec::ElementClass::WorkAmplification)
    }
}

/// Registry matcher for Rule 7.1.
pub(crate) fn match_expensive(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for helper in &cx.spec.expensive {
            check_expensive(cx, func, helper, &mut out);
        }
    }
    out.into_iter().collect()
}

fn call_lines(rec: PathView<'_>, helper: &str) -> Vec<u32> {
    rec.events()
        .filter_map(|e| match e {
            Event::Call { line, callee, depth: 0, .. } if callee == helper => Some(*line),
            _ => None,
        })
        .collect()
}

/// Rule 7.1: the expensive helper must not be called on every path of
/// the fast path (unconditional slow work), nor more than once on a
/// single traversal (amplified slow work).
///
/// The repeated-call warning reports the *worst* traversal (highest
/// call count, earliest second call on ties), not whichever record
/// the enumerator happened to visit first — the warning must be a
/// function of the path *set*, independent of DFS order, or
/// CFG-preserving rewrites shift the quoted count.
fn check_expensive(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    helper: &str,
    out: &mut BTreeSet<Warning>,
) {
    if func.records.is_empty() {
        return;
    }
    let mut worst: Option<(usize, u32)> = None;
    for rec in func.paths() {
        let lines = call_lines(rec, helper);
        if lines.len() >= 2 {
            let cand = (lines.len(), lines[1]);
            worst = Some(match worst {
                None => cand,
                Some(best) if cand.0 > best.0 || (cand.0 == best.0 && cand.1 < best.1) => cand,
                Some(best) => best,
            });
        }
    }
    if let Some((count, line)) = worst {
        out.insert(cx.warn(
            Rule::FastPathExpensive,
            &func.name,
            line,
            format!(
                "expensive helper `{helper}` is called {count} times on a single fast-path traversal"
            ),
        ));
        return;
    }
    let on_every_path = func.paths().all(|r| !call_lines(r, helper).is_empty());
    if on_every_path {
        let line = func
            .paths()
            .flat_map(|r| call_lines(r, helper))
            .min()
            .unwrap_or(func.line);
        out.insert(cx.warn(
            Rule::FastPathExpensive,
            &func.name,
            line,
            format!("expensive helper `{helper}` is called unconditionally on the fast path"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;
    use pallas_spec::FastPathSpec;
    use pallas_sym::{extract, ExtractConfig};

    fn run(src: &str, spec: &FastPathSpec) -> Vec<Warning> {
        let ast = parse(src).unwrap();
        let db = extract("test", &ast, src, &ExtractConfig::default());
        let cx = CheckContext { db: &db, spec, ast: &ast };
        WorkAmplificationChecker.check(&cx)
    }

    fn exp_spec(fast: &str) -> FastPathSpec {
        FastPathSpec::new("t").with_fastpath(fast).with_expensive("sync_flush")
    }

    #[test]
    fn unconditional_expensive_call_detected() {
        let src = "\
int sync_flush(void);
int write_fast(int dirty) {
  sync_flush();
  if (dirty)
    return 1;
  return 0;
}";
        let ws = run(src, &exp_spec("write_fast"));
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::FastPathExpensive);
        assert!(ws[0].message.contains("unconditionally"));
        assert_eq!(ws[0].line, 3);
    }

    #[test]
    fn guarded_expensive_call_passes() {
        let src = "\
int sync_flush(void);
int write_fast(int dirty) {
  if (dirty)
    sync_flush();
  return 0;
}";
        assert!(run(src, &exp_spec("write_fast")).is_empty());
    }

    #[test]
    fn repeated_expensive_call_detected() {
        let src = "\
int sync_flush(void);
int write_fast(int dirty) {
  if (dirty) {
    sync_flush();
    sync_flush();
  }
  return 0;
}";
        let ws = run(src, &exp_spec("write_fast"));
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert!(ws[0].message.contains("2 times"));
        assert_eq!(ws[0].line, 5);
    }

    #[test]
    fn repeated_call_reports_the_worst_traversal() {
        // One arm calls twice, the other three times: the warning must
        // quote the worst traversal no matter which record the path
        // enumerator visits first (a branch swap must not change it).
        let src = "\
int sync_flush(void);
int write_fast(int dirty) {
  if (dirty) {
    sync_flush();
    sync_flush();
  } else {
    sync_flush();
    sync_flush();
    sync_flush();
  }
  return 0;
}";
        let ws = run(src, &exp_spec("write_fast"));
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert!(ws[0].message.contains("3 times"), "{}", ws[0].message);
    }

    #[test]
    fn helper_not_called_passes() {
        let src = "int sync_flush(void);\nint write_fast(void) { return 0; }";
        assert!(run(src, &exp_spec("write_fast")).is_empty());
    }

    #[test]
    fn no_expensive_facts_no_warnings() {
        let src = "int sync_flush(void);\nint f(void) { sync_flush(); return 0; }";
        let spec = FastPathSpec::new("t").with_fastpath("f");
        assert!(run(src, &spec).is_empty());
    }
}
