//! Resource-release checker (Rules 6.1–6.2).
//!
//! The first study-mined extension family: the paper's bug study tags
//! a MemoryLeak consequence class that none of the twelve Table 1
//! rules address. The dominant shape is an early-return arm between a
//! resource acquire and its release — the fast path bails out and the
//! resource leaks. The symmetric shape releases a resource the path
//! never acquired (a double release seen from this path).
//!
//! The spec names the pairing: `pair acquire_fn -> release_fn;`.
//! Like every Pallas checker the analysis is path-local, so a path
//! that hands the acquired resource to its caller (ownership
//! transfer) still warns — the family's known false-positive source.

use crate::context::{event_mentions_loose, CheckContext, Checker};
use crate::rule::{Rule, Warning};
use pallas_sym::{Event, FunctionPaths};
use std::collections::BTreeSet;

/// Checker for resource-release rules — a thin view over the
/// registry's rules 6.1–6.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceReleaseChecker;

impl Checker for ResourceReleaseChecker {
    fn name(&self) -> &'static str {
        crate::registry::family_name(pallas_spec::ElementClass::ResourceRelease)
    }

    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning> {
        crate::registry::run_family(cx, pallas_spec::ElementClass::ResourceRelease)
    }
}

/// Registry matcher for Rule 6.1.
pub(crate) fn match_acquire_no_release(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for (acq, rel) in &cx.spec.pairs {
            check_acquire(cx, func, acq, rel, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Registry matcher for Rule 6.2.
pub(crate) fn match_release_no_acquire(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for (acq, rel) in &cx.spec.pairs {
            check_release(cx, func, acq, rel, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Rule 6.1: once a path calls the acquire function, a later event on
/// the same path must mention the release function. Path enumeration
/// gives every early-return arm its own record, so an arm that bails
/// out between acquire and release is caught directly.
fn check_acquire(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    acq: &str,
    rel: &str,
    out: &mut BTreeSet<Warning>,
) {
    for rec in func.paths() {
        for (i, e) in rec.events().enumerate() {
            let Event::Call { line, callee, depth: 0, .. } = e else {
                continue;
            };
            if callee != acq {
                continue;
            }
            let released =
                rec.events().skip(i + 1).any(|later| event_mentions_loose(later, rel));
            if !released {
                out.insert(cx.warn(
                    Rule::AcquireNoRelease,
                    &func.name,
                    *line,
                    format!("resource acquired via `{acq}` is never released via `{rel}` on this path"),
                ));
                return;
            }
        }
    }
}

/// Rule 6.2: a path that calls the release function must have acquired
/// the resource earlier on the same path.
fn check_release(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    acq: &str,
    rel: &str,
    out: &mut BTreeSet<Warning>,
) {
    for rec in func.paths() {
        for (i, e) in rec.events().enumerate() {
            let Event::Call { line, callee, depth: 0, .. } = e else {
                continue;
            };
            if callee != rel {
                continue;
            }
            let acquired =
                rec.events().take(i).any(|earlier| event_mentions_loose(earlier, acq));
            if !acquired {
                out.insert(cx.warn(
                    Rule::ReleaseNoAcquire,
                    &func.name,
                    *line,
                    format!("`{rel}` releases a resource this path never acquired via `{acq}`"),
                ));
                return;
            }
        }
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
        ResourceReleaseChecker.check(&cx)
    }

    fn pair_spec(fast: &str) -> FastPathSpec {
        FastPathSpec::new("t").with_fastpath(fast).with_pair("acquire_buf", "release_buf")
    }

    #[test]
    fn early_return_leak_detected() {
        let src = "\
int acquire_buf(void);
int release_buf(int b);
int send_fast(int len) {
  int buf = acquire_buf();
  if (len == 0)
    return -1;
  release_buf(buf);
  return 0;
}";
        let ws = run(src, &pair_spec("send_fast"));
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::AcquireNoRelease);
        assert_eq!(ws[0].line, 4);
    }

    #[test]
    fn balanced_paths_pass() {
        let src = "\
int acquire_buf(void);
int release_buf(int b);
int send_fast(int len) {
  int buf = acquire_buf();
  if (len == 0) {
    release_buf(buf);
    return -1;
  }
  release_buf(buf);
  return 0;
}";
        assert!(run(src, &pair_spec("send_fast")).is_empty());
    }

    #[test]
    fn release_without_acquire_detected() {
        let src = "\
int release_buf(int b);
int drop_fast(int buf) {
  release_buf(buf);
  return 0;
}";
        let ws = run(src, &pair_spec("drop_fast"));
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::ReleaseNoAcquire);
    }

    #[test]
    fn release_after_acquire_passes_rule_62() {
        let src = "\
int acquire_buf(void);
int release_buf(int b);
int send_fast(void) {
  int buf = acquire_buf();
  release_buf(buf);
  return 0;
}";
        assert!(run(src, &pair_spec("send_fast")).is_empty());
    }

    #[test]
    fn release_via_wrapper_counts_as_release() {
        // `release_buf_all` mentions `release_buf` at a word boundary,
        // so the loose matcher accepts wrappers named after the
        // release function.
        let src = "\
int acquire_buf(void);
int release_buf_all(int b);
int send_fast(void) {
  int buf = acquire_buf();
  release_buf_all(buf);
  return 0;
}";
        assert!(run(src, &pair_spec("send_fast")).is_empty());
    }

    #[test]
    fn ownership_transfer_is_known_false_positive() {
        // The acquired buffer escapes to the caller; path-local
        // analysis cannot see the transfer and still warns.
        let src = "\
int acquire_buf(void);
int make_fast(void) {
  int buf = acquire_buf();
  return buf;
}";
        let ws = run(src, &pair_spec("make_fast"));
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::AcquireNoRelease);
    }

    #[test]
    fn no_pairs_in_spec_no_warnings() {
        let src = "int acquire_buf(void);\nint f(void) { int b = acquire_buf(); return 0; }";
        let spec = FastPathSpec::new("t").with_fastpath("f");
        assert!(run(src, &spec).is_empty());
    }
}
