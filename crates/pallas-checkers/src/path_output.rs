//! Path-output checker (Rules 3.1–3.3).
//!
//! Finds unexpected outputs (returns outside the defined set),
//! mismatched fast/slow returns (the TCP double-free of Figure 7), and
//! fast-path returns that callers never check (the BtrFS
//! `btrfs_wait_ordered_range` data-loss bug).

use crate::context::{CheckContext, Checker};
use crate::rule::{Rule, Warning};
use pallas_spec::RetValue;
use pallas_sym::{Event, FunctionPaths, Sym, SymNode};
use std::collections::BTreeSet;

/// Checker for path-output rules — a thin view over the registry's
/// rules 3.1–3.3.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathOutputChecker;

impl Checker for PathOutputChecker {
    fn name(&self) -> &'static str {
        crate::registry::family_name(pallas_spec::ElementClass::PathOutput)
    }

    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning> {
        crate::registry::run_family(cx, pallas_spec::ElementClass::PathOutput)
    }
}

/// Registry matcher for Rule 3.1.
pub(crate) fn match_defined(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    if !cx.spec.returns.is_empty() {
        for func in cx.fastpath_fns() {
            check_defined(cx, func, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Registry matcher for Rule 3.2.
pub(crate) fn match_match_slow(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    if cx.spec.match_slow_return {
        for func in cx.fastpath_fns() {
            check_match_slow(cx, func, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Registry matcher for Rule 3.3.
pub(crate) fn match_callers(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    if cx.spec.check_return {
        for func in cx.fastpath_fns() {
            check_callers(cx, func, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Rule 3.1: every decidable return value must belong to the declared
/// return set. Symbolically undecidable returns are skipped (static
/// analysis stays sound for reported warnings, incomplete overall).
fn check_defined(cx: &CheckContext<'_>, func: &FunctionPaths, out: &mut BTreeSet<Warning>) {
    for rec in func.paths() {
        let verdict = match rec.output.value {
            None => Some("fast path returns no value".to_string()),
            Some(s) => match s.node() {
                SymNode::Int(v) => {
                    if in_set(cx, s) {
                        None
                    } else {
                        Some(format!("fast path returns `{v}`, not in the defined return set"))
                    }
                }
                SymNode::Input(name) => {
                    if in_set(cx, s) {
                        None
                    } else {
                        Some(format!(
                            "fast path returns `{name}`, not in the defined return set"
                        ))
                    }
                }
                _ => None, // not statically decidable
            },
        };
        if let Some(message) = verdict {
            out.insert(cx.warn(Rule::OutputDefined, &func.name, rec.output.line, message));
        }
    }
}

fn in_set(cx: &CheckContext<'_>, value: Sym) -> bool {
    cx.spec.returns.iter().any(|r| match (r, value.node()) {
        (RetValue::Int(a), SymNode::Int(b)) => a == b,
        (RetValue::Name(a), SymNode::Input(b)) => b.as_str() == a.as_str(),
        // Named enum constants in the spec may resolve to integers in
        // the unit (e.g. `returns ENOMEM` with `enum { ENOMEM = -12 }`).
        (RetValue::Name(a), SymNode::Int(b)) => cx.ast.enum_value(a) == Some(*b),
        _ => false,
    })
}

/// Rule 3.2: the fast path's literal/named return sets must be subsets
/// of the slow path's (for the cases the developer declared
/// equivalent).
fn check_match_slow(cx: &CheckContext<'_>, func: &FunctionPaths, out: &mut BTreeSet<Warning>) {
    for slow in cx.slowpath_fns() {
        let slow_lit = slow.literal_returns();
        let slow_named = slow.named_returns();
        if slow_lit.is_empty() && slow_named.is_empty() {
            continue; // nothing comparable
        }
        for rec in func.paths() {
            match rec.output.value.map(|s| s.node()) {
                Some(SymNode::Int(v)) if !slow_lit.contains(v) => {
                    out.insert(cx.warn(
                        Rule::OutputMatchSlow,
                        &func.name,
                        rec.output.line,
                        format!(
                            "fast path returns `{v}` but slow path `{}` can only return {:?}",
                            slow.name, slow_lit
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Rule 3.3: every caller of the fast path must check its return value
/// — by branching on it (directly or via the variable it was assigned
/// to) or by propagating it upward.
fn check_callers(cx: &CheckContext<'_>, func: &FunctionPaths, out: &mut BTreeSet<Warning>) {
    for caller in cx.db.callers_of(&func.name) {
        for rec in caller.paths() {
            for (i, e) in rec.events().enumerate() {
                let Event::Call { line, callee, assigned_to, in_condition, depth: 0, .. } = e
                else {
                    continue;
                };
                if callee != &func.name {
                    continue;
                }
                if *in_condition {
                    continue;
                }
                let checked = match assigned_to {
                    Some(var) => {
                        // Checked if a later event or the return mentions it.
                        rec.events().skip(i + 1).any(|later| match later {
                            Event::Cond { vars, .. } => vars.iter().any(|v| v == var),
                            _ => false,
                        }) || rec.output.vars.iter().any(|v| v == var)
                    }
                    // `return f();` propagates the value to the caller's caller.
                    None => rec.output.text.contains(&format!("{}(", func.name)),
                };
                if !checked {
                    out.insert(cx.warn(
                        Rule::OutputChecked,
                        &caller.name,
                        *line,
                        format!("return value of fast path `{}` is not checked", func.name),
                    ));
                }
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
        PathOutputChecker.check(&cx)
    }

    #[test]
    fn out_of_set_literal_detected() {
        let src = "int fast(int x) { if (x) return 2; return 0; }";
        let spec = FastPathSpec::new("t")
            .with_fastpath("fast")
            .with_return(RetValue::Int(0))
            .with_return(RetValue::Int(1));
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::OutputDefined);
        assert!(ws[0].message.contains('2'));
    }

    #[test]
    fn in_set_literals_pass() {
        let src = "int fast(int x) { if (x) return 1; return 0; }";
        let spec = FastPathSpec::new("t")
            .with_fastpath("fast")
            .with_return(RetValue::Int(0))
            .with_return(RetValue::Int(1));
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn named_enum_return_resolves() {
        let src = "\
enum errs { ENOMEM = -12 };
int fast(int x) { if (x) return -12; return 0; }";
        let spec = FastPathSpec::new("t")
            .with_fastpath("fast")
            .with_return(RetValue::Int(0))
            .with_return(RetValue::Name("ENOMEM".into()));
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn missing_return_value_detected() {
        // Chromium OpenNaClExecutable shape: function never returns a value.
        let src = "void fast(int x) { x = x + 1; }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_return(RetValue::Int(0));
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1);
        assert!(ws[0].message.contains("no value"));
    }

    #[test]
    fn mismatched_slow_fast_returns_detected() {
        // Figure 7 shape: fast returns 1 where slow returns only 0/-1.
        let src = "\
int rcv_slow(int s) { if (s) return -1; return 0; }
int rcv_fast(int s) { if (s) return 1; return 0; }";
        let spec = FastPathSpec::new("t")
            .with_fastpath("rcv_fast")
            .with_slowpath("rcv_slow")
            .with_match_slow_return();
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::OutputMatchSlow);
    }

    #[test]
    fn matching_returns_pass() {
        let src = "\
int rcv_slow(int s) { if (s) return -1; return 0; }
int rcv_fast(int s) { if (s) return -1; return 0; }";
        let spec = FastPathSpec::new("t")
            .with_fastpath("rcv_fast")
            .with_slowpath("rcv_slow")
            .with_match_slow_return();
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn unchecked_return_detected() {
        // BtrFS shape: caller ignores the fast path's return entirely.
        let src = "\
int wait_ordered_fast(int r) { if (r) return -5; return 0; }
int prepare_page(int r) {
  wait_ordered_fast(r);
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("wait_ordered_fast").with_check_return();
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::OutputChecked);
        assert_eq!(ws[0].function, "prepare_page");
    }

    #[test]
    fn checked_via_assigned_variable_passes() {
        let src = "\
int wait_ordered_fast(int r) { if (r) return -5; return 0; }
int prepare_page(int r) {
  int ret = wait_ordered_fast(r);
  if (ret < 0)
    return ret;
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("wait_ordered_fast").with_check_return();
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn checked_inside_condition_passes() {
        let src = "\
int fast(int r) { return r; }
int caller(int r) { if (fast(r)) return 1; return 0; }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_check_return();
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn propagated_return_passes() {
        let src = "\
int fast(int r) { return r; }
int caller(int r) { return fast(r); }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_check_return();
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn no_callers_no_warning() {
        let src = "int fast(int r) { return r; }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_check_return();
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn internal_check_false_positive_shape() {
        // §5.3 path-output FP source: output checked inside the fast
        // path itself and deliberately skipped by the caller — Pallas
        // still warns.
        let src = "\
int log_err(int e);
int fast(int r) {
  if (r < 0)
    log_err(r);
  return r;
}
int caller(int r) {
  fast(r);
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_check_return();
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "known FP source still reported: {ws:?}");
    }
}
