//! Fault-handling checker (Rule 4.1).
//!
//! Finds fast paths that never handle a specified fault state — the
//! dominant fault-handling bug pattern in the paper's study (§3.5, the
//! SCSI `transport_generic_free_cmd` memory leak of Figure 8).
//!
//! A fault state counts as handled if it appears in a flow-control
//! statement of the fast path itself *or* of a summary-inlined callee
//! (up to the extractor's inline depth). Handling buried deeper than
//! the inline depth is invisible — exactly the paper's §5.3 false-
//! positive source for this checker.

use crate::context::{CheckContext, Checker};
use crate::rule::{Rule, Warning};
use std::collections::BTreeSet;

/// Checker for the fault-handling rule — a thin view over the
/// registry's rule 4.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultHandlingChecker;

impl Checker for FaultHandlingChecker {
    fn name(&self) -> &'static str {
        crate::registry::family_name(pallas_spec::ElementClass::FaultHandling)
    }

    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning> {
        crate::registry::run_family(cx, pallas_spec::ElementClass::FaultHandling)
    }
}

/// Registry matcher for Rule 4.1.
pub(crate) fn match_fault_missing(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for func in cx.fastpath_fns() {
        for fault in &cx.spec.faults {
            let handled = func.checks_atom(fault);
            if !handled {
                out.insert(cx.warn(
                    Rule::FaultMissing,
                    &func.name,
                    func.line,
                    format!(
                        "fault state `{fault}` is never handled in any flow-control statement"
                    ),
                ));
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;
    use pallas_spec::FastPathSpec;
    use pallas_sym::{extract, ExtractConfig};

    fn run_with(src: &str, spec: &FastPathSpec, inline_depth: u8) -> Vec<Warning> {
        let ast = parse(src).unwrap();
        let config = ExtractConfig { inline_depth, ..ExtractConfig::default() };
        let db = extract("test", &ast, src, &config);
        let cx = CheckContext { db: &db, spec, ast: &ast };
        FaultHandlingChecker.check(&cx)
    }

    fn run(src: &str, spec: &FastPathSpec) -> Vec<Warning> {
        run_with(src, spec, 1)
    }

    #[test]
    fn missing_fault_handler_detected() {
        // Figure 8 shape: the failed-command state is never consulted.
        let src = "\
struct cmd { int state_active; };
int free_cmd_fast(struct cmd *cmd, int wait) {
  if (wait)
    return 1;
  return 0;
}";
        let spec =
            FastPathSpec::new("t").with_fastpath("free_cmd_fast").with_fault("state_active");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, Rule::FaultMissing);
    }

    #[test]
    fn handled_fault_passes() {
        let src = "\
struct cmd { int state_active; };
int remove_from_state_list(struct cmd *c);
int free_cmd_fast(struct cmd *cmd, int wait) {
  if (cmd->state_active)
    remove_from_state_list(cmd);
  return 0;
}";
        let spec =
            FastPathSpec::new("t").with_fastpath("free_cmd_fast").with_fault("state_active");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn fault_handled_by_enum_constant_passes() {
        let src = "\
enum errs { ENOSPC = -28 };
int write_fast(int err) {
  if (err == ENOSPC)
    return -28;
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("write_fast").with_fault("ENOSPC");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn fault_handled_in_switch_case_passes() {
        let src = "\
enum errs { ENOSPC = -28 };
int write_fast(int err) {
  switch (err) { case ENOSPC: return 1; default: return 0; }
}";
        let spec = FastPathSpec::new("t").with_fastpath("write_fast").with_fault("ENOSPC");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn fault_handled_in_inlined_callee_passes() {
        let src = "\
int handle(int err) {
  if (err == -28)
    return 1;
  return 0;
}
int write_fast(int err) {
  handle(err);
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("write_fast").with_fault("err");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn deeply_nested_handling_is_paper_false_positive() {
        // Handling two levels down exceeds inline_depth=1, so Pallas
        // warns — reproducing the §5.3 FH false-positive source.
        let src = "\
int level2(int fault_flag) {
  if (fault_flag)
    return 1;
  return 0;
}
int level1(int fault_flag) {
  return level2(fault_flag);
}
int write_fast(int fault_flag) {
  level1(fault_flag);
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("write_fast").with_fault("fault_flag");
        // Depth 1: level1's own events are visible but level2's are not
        // part of level1's summary (summaries are computed with
        // inlining disabled), so the check is missed → warning.
        let ws = run_with(src, &spec, 1);
        assert_eq!(ws.len(), 1, "{ws:?}");
    }

    #[test]
    fn multiple_faults_reported_individually() {
        let src = "int f(int a) { if (a) return 1; return 0; }";
        let spec = FastPathSpec::new("t")
            .with_fastpath("f")
            .with_fault("ENOSPC")
            .with_fault("EIO");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 2);
    }
}
