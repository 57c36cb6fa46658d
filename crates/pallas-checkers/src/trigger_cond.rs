//! Trigger-condition checker (Rules 2.1–2.3).
//!
//! Finds missing trigger-condition checks (the OCFS2 bug of Figure 4),
//! incomplete condition implementations (the RPS bug of Figure 5), and
//! incorrect condition-check ordering (the OOM-vs-remote bug of
//! Figure 6).

use crate::context::{CheckContext, Checker};
use crate::rule::{Rule, Warning};
use pallas_spec::CondSpec;
use pallas_sym::{Event, FunctionPaths, PathView};
use std::collections::BTreeSet;

/// Checker for trigger-condition rules — a thin view over the
/// registry's rules 2.1–2.3.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriggerConditionChecker;

impl Checker for TriggerConditionChecker {
    fn name(&self) -> &'static str {
        crate::registry::family_name(pallas_spec::ElementClass::TriggerCondition)
    }

    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning> {
        crate::registry::run_family(cx, pallas_spec::ElementClass::TriggerCondition)
    }
}

/// Presence analysis shared by rules 2.1 and 2.2: one pass emits the
/// missing-or-incomplete verdict per cond group, the matchers keep
/// their own rule's warnings.
fn presence_warnings(cx: &CheckContext<'_>, rule: Rule) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for cond in &cx.spec.conds {
            check_presence(cx, func, cond, &mut out);
        }
    }
    out.into_iter().filter(|w| w.rule == rule).collect()
}

/// Registry matcher for Rule 2.1.
pub(crate) fn match_cond_missing(cx: &CheckContext<'_>) -> Vec<Warning> {
    presence_warnings(cx, Rule::CondMissing)
}

/// Registry matcher for Rule 2.2.
pub(crate) fn match_cond_incomplete(cx: &CheckContext<'_>) -> Vec<Warning> {
    presence_warnings(cx, Rule::CondIncomplete)
}

/// Registry matcher for Rule 2.3.
pub(crate) fn match_cond_order(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for (first, second) in &cx.spec.orders {
            check_order(cx, func, first, second, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Variables of `cond` that appear in at least one flow-control
/// statement anywhere in the function's paths.
fn present_vars<'s>(func: &FunctionPaths, cond: &'s CondSpec) -> Vec<&'s str> {
    cond.vars
        .iter()
        .map(String::as_str)
        .filter(|v| func.checks_atom(v))
        .collect()
}

/// Rules 2.1/2.2: all specified trigger variables must appear in
/// flow-control statements; none present ⇒ the path-switch check is
/// missing entirely (2.1), some present ⇒ incomplete implementation
/// (2.2).
fn check_presence(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    cond: &CondSpec,
    out: &mut BTreeSet<Warning>,
) {
    let present = present_vars(func, cond);
    if present.len() == cond.vars.len() {
        return;
    }
    if present.is_empty() {
        out.insert(cx.warn(
            Rule::CondMissing,
            &func.name,
            func.line,
            format!(
                "trigger condition `{}` ({}) is never checked: path switch is missing",
                cond.name,
                cond.vars.join(", ")
            ),
        ));
    } else {
        let missing: Vec<&str> = cond
            .vars
            .iter()
            .map(String::as_str)
            .filter(|v| !present.contains(v))
            .collect();
        let line = first_check_line(func, &present).unwrap_or(func.line);
        out.insert(cx.warn(
            Rule::CondIncomplete,
            &func.name,
            line,
            format!(
                "trigger condition `{}` is incomplete: `{}` checked but `{}` never checked",
                cond.name,
                present.join(", "),
                missing.join(", ")
            ),
        ));
    }
}

fn first_check_line(func: &FunctionPaths, vars: &[&str]) -> Option<u32> {
    // Every path's conditions are in the function's event table.
    func.events
        .iter()
        .filter_map(|e| match e {
            Event::Cond { line, vars: cv, .. }
                if vars.iter().any(|v| cv.iter().any(|c| c == v)) =>
            {
                Some(*line)
            }
            _ => None,
        })
        .min()
}

/// Rule 2.3: where both named conditions are checked on a path, the
/// first must be checked before the second.
fn check_order(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    first: &str,
    second: &str,
    out: &mut BTreeSet<Warning>,
) {
    let (Some(ga), Some(gb)) = (cx.spec.cond(first), cx.spec.cond(second)) else {
        return; // unknown cond names; spec linting happens elsewhere
    };
    for rec in func.paths() {
        let ia = first_cond_index(rec, &ga.vars);
        let ib = first_cond_index(rec, &gb.vars);
        if let (Some(ia), Some(ib)) = (ia, ib) {
            if ib < ia {
                let line = rec.event(ib).line();
                out.insert(cx.warn(
                    Rule::CondOrder,
                    &func.name,
                    line,
                    format!(
                        "condition `{second}` is checked before `{first}`, violating the specified order"
                    ),
                ));
                return;
            }
        }
    }
}

fn first_cond_index(rec: PathView<'_>, vars: &[String]) -> Option<usize> {
    rec.events().position(|e| match e {
        Event::Cond { vars: cv, .. } => vars.iter().any(|v| cv.contains(v)),
        _ => false,
    })
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
        TriggerConditionChecker.check(&cx)
    }

    #[test]
    fn missing_condition_detected() {
        // Figure 4 shape: the size-changed check is absent entirely.
        let src = "\
int write_fast(int inode, int size_changed) {
  return inode + 1;
}";
        let spec =
            FastPathSpec::new("t").with_fastpath("write_fast").with_cond("resized", &["size_changed"]);
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, Rule::CondMissing);
    }

    #[test]
    fn incomplete_condition_detected() {
        // Figure 5 shape: map->len checked, rps_flow_table not.
        let src = "\
struct rps_map { int len; };
struct rxq { struct rps_map *rps_map; struct tbl *rps_flow_table; };
int get_cpu_fast(struct rxq *q) {
  struct rps_map *map = q->rps_map;
  if (map->len == 1)
    return 1;
  return 0;
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("get_cpu_fast")
            .with_cond("rps", &["len", "rps_flow_table"]);
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::CondIncomplete);
        assert!(ws[0].message.contains("rps_flow_table"));
    }

    #[test]
    fn complete_condition_passes() {
        let src = "\
struct rps_map { int len; };
struct rxq { struct rps_map *rps_map; struct tbl *rps_flow_table; };
int get_cpu_fast(struct rxq *q) {
  struct rps_map *map = q->rps_map;
  if (map->len == 1 && !q->rps_flow_table)
    return 1;
  return 0;
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("get_cpu_fast")
            .with_cond("rps", &["len", "rps_flow_table"]);
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn wrong_order_detected() {
        // Figure 6 shape: OOM checked before trying remote zones.
        let src = "\
int alloc_oom(void);
int alloc_remote(void);
int alloc_fast(int oom, int remote_ok) {
  if (oom)
    return alloc_oom();
  if (remote_ok)
    return alloc_remote();
  return 0;
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("alloc_fast")
            .with_cond("remote", &["remote_ok"])
            .with_cond("oom", &["oom"])
            .with_order("remote", "oom");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::CondOrder);
    }

    #[test]
    fn correct_order_passes() {
        let src = "\
int alloc_oom(void);
int alloc_remote(void);
int alloc_fast(int oom, int remote_ok) {
  if (remote_ok)
    return alloc_remote();
  if (oom)
    return alloc_oom();
  return 0;
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("alloc_fast")
            .with_cond("remote", &["remote_ok"])
            .with_cond("oom", &["oom"])
            .with_order("remote", "oom");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn order_with_only_one_side_checked_passes() {
        let src = "int f(int a, int b) { if (a) return 1; return 0; }";
        let spec = FastPathSpec::new("t")
            .with_fastpath("f")
            .with_cond("ca", &["a"])
            .with_cond("cb", &["b"])
            .with_order("ca", "cb");
        // cb never checked on any path, so no ordering violation (the
        // missing check is 2.1's job, raised separately).
        let ws = run(src, &spec);
        assert!(ws.iter().all(|w| w.rule != Rule::CondOrder));
    }

    #[test]
    fn member_path_vars_match_specs() {
        let src = "\
struct sk { int pred_flags; };
int rcv_fast(struct sk *s) {
  if (s->pred_flags == 1)
    return 1;
  return 0;
}";
        let spec =
            FastPathSpec::new("t").with_fastpath("rcv_fast").with_cond("pred", &["pred_flags"]);
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn unknown_order_names_ignored() {
        let src = "int f(int a) { if (a) return 1; return 0; }";
        let spec = FastPathSpec::new("t").with_fastpath("f").with_order("nope", "alsono");
        assert!(run(src, &spec).is_empty());
    }
}
