//! Regression pin for the feasibility oracle's irreducible-cycle
//! fallback.
//!
//! Natural-loop detection only sees reducible cycles (a back edge
//! whose header dominates its latch). Structured control flow always
//! produces reducible CFGs, so the only way to build an irreducible
//! cycle in this language is a `goto` from outside a loop into its
//! body: the body block gains a second entry that bypasses the
//! header, the header stops dominating the latch, and `find_loops`
//! reports nothing. The loop-summary machinery therefore never sees
//! the cycle — the oracle must fall back to per-path revisit
//! transparency (any block already on the current prefix asserts
//! nothing), which is what keeps changing variables from producing
//! false contradictions across iterations.

use pallas_cfg::{
    build_cfg, enumerate_paths, enumerate_paths_with, find_loops, summarize_loops, PathConfig,
};
use pallas_lang::parse;
use pallas_sym::FeasibilityOracle;

/// A `while` loop entered both through its header and through a
/// `goto` into the middle of its body. The goto guard (`g`), the
/// in-cycle condition (`x == 0`) and the loop bound (`i < n`) are
/// over mutually independent variables — `g` in particular must not
/// constrain `n`, or exiting the loop right after the goto becomes
/// genuinely infeasible — and `x` changes every iteration, so *every*
/// enumerated path has a concrete witness: the oracle must not prune
/// anything.
const TWO_ENTRY_CYCLE: &str = "\
int sink(int v);
int walk(int x, int n, int g) {
  int i = 0;
  if (g) goto mid;
  while (i < n) {
    i = i + 1;
    mid:
    if (x == 0) {
      sink(i);
    }
    x = x + 1;
  }
  return x;
}
";

#[test]
fn irreducible_cycle_is_invisible_to_loop_detection() {
    let ast = parse(TWO_ENTRY_CYCLE).expect("parses");
    let f = ast.functions().next().expect("one function");
    let cfg = build_cfg(&ast, f);
    assert!(
        find_loops(&cfg).is_empty(),
        "goto-into-body should make the cycle irreducible, but natural loops were found"
    );
    assert!(summarize_loops(&ast, &cfg).is_empty(), "no loops means no summaries");
}

#[test]
fn oracle_stays_transparent_through_an_irreducible_cycle() {
    let ast = parse(TWO_ENTRY_CYCLE).expect("parses");
    let f = ast.functions().next().expect("one function");
    let cfg = build_cfg(&ast, f);
    // `truncated` is necessarily set here — the infinite family of
    // further unrollings dies at `max_visits` — but that cut is
    // prefix-local and identical in both runs; only the path budget
    // would skew the comparison.
    let config = PathConfig::default();
    let full = enumerate_paths(&cfg, &config);
    let mut oracle = FeasibilityOracle::new(&ast);
    let pruned = enumerate_paths_with(&cfg, &config, &mut oracle);
    assert!(full.paths.len() < config.max_paths, "path budget too small for the fixture");
    assert!(full.paths.len() > 1, "fixture should enumerate several paths");
    assert_eq!(
        pruned.paths, full.paths,
        "every path here has a concrete witness; the oracle falsely pruned one"
    );
    assert_eq!(pruned.pruned, 0);
}

/// First visits inside an irreducible cycle still assert: revisit
/// transparency is per-path, not per-cycle. A goto path that carries
/// `x > 4` into the cycle makes the `x == 0` then-arm genuinely dead
/// on its first visit, and the oracle must still veto it.
#[test]
fn first_visit_decisions_in_an_irreducible_cycle_still_prune() {
    let src = "\
int sink(int v);
int walk(int x, int n) {
  int i = 0;
  if (x > 4) goto mid;
  while (i < n) {
    i = i + 1;
    mid:
    if (x == 0) {
      sink(i);
    }
    x = x + 1;
  }
  return x;
}
";
    let ast = parse(src).expect("parses");
    let f = ast.functions().next().expect("one function");
    let cfg = build_cfg(&ast, f);
    assert!(find_loops(&cfg).is_empty(), "cycle must be irreducible");
    let config = PathConfig::default();
    let full = enumerate_paths(&cfg, &config);
    let mut oracle = FeasibilityOracle::new(&ast);
    let pruned = enumerate_paths_with(&cfg, &config, &mut oracle);
    assert!(full.paths.len() < config.max_paths, "path budget too small for the fixture");
    assert!(pruned.pruned > 0, "the goto-reachable `x == 0` arm contradicts `x > 4`");
    // Soundness: whatever survives is a subset of the full enumeration.
    for p in &pruned.paths {
        assert!(full.paths.contains(p), "pruning invented a path: {p:?}");
    }
    assert!(pruned.paths.len() < full.paths.len());
}
