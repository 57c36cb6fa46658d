//! Path-state checker (Rules 1.1–1.3).
//!
//! Finds the three path-state bug patterns of the paper's §3.2:
//! uninitialized immutable variables, overwritten immutable variables,
//! and incomplete correlated-variable implementations.

use crate::context::{lvalue_writes, CheckContext, Checker};
use crate::rule::{Rule, Warning};
use pallas_lang::Item;
use pallas_sym::{Event, FunctionPaths};
use std::collections::BTreeSet;

/// Checker for path-state rules — a thin view over the registry's
/// rules 1.1–1.3.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathStateChecker;

impl Checker for PathStateChecker {
    fn name(&self) -> &'static str {
        crate::registry::family_name(pallas_spec::ElementClass::PathState)
    }

    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning> {
        crate::registry::run_family(cx, pallas_spec::ElementClass::PathState)
    }
}

/// Registry matcher for Rule 1.2.
pub(crate) fn match_overwrite(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for imm in &cx.spec.immutable {
            check_overwrite(cx, func, imm, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Registry matcher for Rule 1.1.
pub(crate) fn match_init(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for imm in &cx.spec.immutable {
            check_init(cx, func, imm, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Registry matcher for Rule 1.3.
pub(crate) fn match_correlated(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for (x, y) in &cx.spec.correlated {
            check_correlated(cx, func, x, y, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Rule 1.2: the immutable variable (or anything reached through it)
/// must never be written on any path of the fast path.
///
/// If the variable is a local of the fast path, its *initializing*
/// write (the declaration initializer, or the first assignment after an
/// uninitialized declaration) is not an overwrite.
fn check_overwrite(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    imm: &str,
    out: &mut BTreeSet<Warning>,
) {
    for rec in func.paths() {
        // Does this path declare `imm` as a local? Then its first plain
        // write is the initialization, exempt from the rule.
        let mut init_pending = rec
            .events()
            .any(|e| matches!(e, Event::Decl { name, .. } if name == imm));
        for e in rec.events() {
            if let Event::State { line, lvalue, depth: 0, .. } = e {
                if !lvalue_writes(lvalue, imm) {
                    continue;
                }
                if init_pending && lvalue == imm {
                    init_pending = false;
                    continue;
                }
                out.insert(cx.warn(
                    Rule::ImmutableOverwrite,
                    &func.name,
                    *line,
                    format!("immutable variable `{imm}` is overwritten via `{lvalue}`"),
                ));
            }
        }
    }
}

/// Rule 1.1: the immutable variable must be initialized before its
/// first read. Parameters count as initialized; globals count if they
/// carry an initializer.
fn check_init(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    imm: &str,
    out: &mut BTreeSet<Warning>,
) {
    if func.params.iter().any(|p| p == imm) {
        return;
    }
    // A global with an initializer is always initialized; a global
    // without one behaves like an uninitialized local for this rule.
    let global = cx.ast.items.iter().find_map(|i| match i {
        Item::Global { name, init, .. } if name == imm => Some(init.is_some()),
        _ => None,
    });
    if global == Some(true) {
        return;
    }
    for rec in func.paths() {
        let mut declared_uninit = global == Some(false);
        let mut written = false;
        for e in rec.events() {
            match e {
                Event::Decl { name, has_init, .. } if name == imm => {
                    declared_uninit = !has_init;
                    written = *has_init;
                }
                Event::State { lvalue, .. } if lvalue_writes(lvalue, imm) => {
                    written = true;
                }
                _ => {
                    if declared_uninit && !written && reads_var(e, imm) {
                        out.insert(cx.warn(
                            Rule::ImmutableInit,
                            &func.name,
                            e.line(),
                            format!("immutable variable `{imm}` is read before initialization"),
                        ));
                        return;
                    }
                }
            }
        }
        // The return expression is also a read.
        if declared_uninit && !written && rec.output.vars.iter().any(|v| v == imm) {
            out.insert(cx.warn(
                Rule::ImmutableInit,
                &func.name,
                rec.output.line,
                format!("immutable variable `{imm}` is read before initialization"),
            ));
            return;
        }
    }
}

fn reads_var(e: &Event, var: &str) -> bool {
    match e {
        Event::Cond { vars, .. } => vars.iter().any(|v| v == var),
        Event::State { reads, .. } => reads.iter().any(|v| v == var),
        Event::Call { arg_vars, .. } => arg_vars.iter().any(|v| v == var),
        Event::Decl { .. } => false,
    }
}

/// Rule 1.3: on every path that touches `x`, its correlated variable
/// `y` must also be touched (a correlation edge must exist).
fn check_correlated(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    x: &str,
    y: &str,
    out: &mut BTreeSet<Warning>,
) {
    for rec in func.paths() {
        let first_x = rec.events().find(|e| e.mentions(x));
        if let Some(ex) = first_x {
            let mentions_y = rec.events().any(|e| e.mentions(y))
                || rec.output.vars.iter().any(|v| v == y);
            if !mentions_y {
                out.insert(cx.warn(
                    Rule::Correlated,
                    &func.name,
                    ex.line(),
                    format!(
                        "path uses `{x}` without referring to its correlated state `{y}`"
                    ),
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
        PathStateChecker.check(&cx)
    }

    #[test]
    fn overwrite_of_immutable_param_detected() {
        let src = "\
typedef unsigned int gfp_t;
int noio(gfp_t m);
int alloc_fast(gfp_t gfp_mask, int order) {
  gfp_mask = noio(gfp_mask);
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("alloc_fast").with_immutable("gfp_mask");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::ImmutableOverwrite);
        assert_eq!(ws[0].line, 4);
    }

    #[test]
    fn overwrite_through_member_detected() {
        let src = "\
struct page { int private; };
int free_fast(struct page *page, int migratetype) {
  page->private = migratetype;
  page->private = 0;
  return 0;
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("free_fast")
            .with_immutable("page->private");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 2, "both writes flagged: {ws:?}");
    }

    #[test]
    fn clean_function_produces_no_warnings() {
        let src = "int f(int gfp_mask) { int x = gfp_mask + 1; return x; }";
        let spec = FastPathSpec::new("t").with_fastpath("f").with_immutable("gfp_mask");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn uninitialized_immutable_read_detected() {
        let src = "\
int use(int f);
int fast(void) {
  int flags;
  return use(flags);
}";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_immutable("flags");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::ImmutableInit);
    }

    #[test]
    fn initialized_decl_not_flagged() {
        let src = "int use(int f); int fast(void) { int flags = 0; return use(flags); }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_immutable("flags");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn write_before_read_not_flagged() {
        let src = "int fast(void) { int flags; flags = 4; return flags; }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_immutable("flags");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn global_without_initializer_flagged_on_read() {
        let src = "int pool_flags;\nint fast(void) { return pool_flags; }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_immutable("pool_flags");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, Rule::ImmutableInit);
    }

    #[test]
    fn global_with_initializer_ok() {
        let src = "int pool_flags = 2;\nint fast(void) { return pool_flags; }";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_immutable("pool_flags");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn correlated_pair_missing_detected() {
        // preferred_zone used without consulting nodemask (paper §3.2).
        let src = "\
int pick(int z);
int fast(int preferred_zone, int nodemask) {
  return pick(preferred_zone);
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("fast")
            .with_correlated("preferred_zone", "nodemask");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, Rule::Correlated);
    }

    #[test]
    fn correlated_pair_present_ok() {
        let src = "\
int pick(int z, int m);
int fast(int preferred_zone, int nodemask) {
  if (nodemask & 1)
    return pick(preferred_zone, nodemask);
  return 0;
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("fast")
            .with_correlated("preferred_zone", "nodemask");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn paths_not_touching_x_are_exempt() {
        let src = "\
int fast(int flag, int preferred_zone, int nodemask) {
  if (flag)
    return 0;
  return preferred_zone + nodemask;
}";
        let spec = FastPathSpec::new("t")
            .with_fastpath("fast")
            .with_correlated("preferred_zone", "nodemask");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn snapshot_restore_still_warns_as_paper_false_positive() {
        // §5.3: saving a snapshot then restoring trips Rule 1.2 — Pallas
        // reports it (a known false-positive source).
        let src = "\
int saved;
int fast(int mask) {
  saved = mask;
  mask = 0;
  mask = saved;
  return mask;
}";
        let spec = FastPathSpec::new("t").with_fastpath("fast").with_immutable("mask");
        let ws = run(src, &spec);
        assert!(ws.iter().any(|w| w.rule == Rule::ImmutableOverwrite));
    }
}
