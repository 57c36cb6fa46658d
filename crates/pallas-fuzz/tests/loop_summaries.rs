//! Havoc-soundness and prune-subset checks for loop effect summaries
//! over generated, loop-heavy units.
//!
//! The first check re-derives, with an independent recursive
//! expression walker, every lvalue written inside each natural loop's
//! body blocks and demands the summary's may-written set contains all
//! of them (the over-approximation direction — a missed write would
//! let stale k-th-iteration bindings leak past the loop). The second
//! check pins the pruning relation: with loop summaries on, the
//! extracted path records of every function are a sub-multiset of the
//! records extracted with pruning off entirely (skipped under
//! truncation, where pruning legitimately frees budget for new paths).

use pallas_cfg::{
    build_cfg, enumerate_paths, enumerate_paths_with, find_loops, summarize_loops, PathConfig,
    Terminator,
};
use pallas_fuzz::{generate_with, run_oracles, GenConfig};
use pallas_lang::ast::{Ast, ExprId, ExprKind, StmtKind, UnOp};
use pallas_lang::expr_to_string;
use pallas_sym::FeasibilityOracle;
use std::collections::BTreeSet;

/// Loop-heavy generator shape: triple the default loop mass.
fn loopy() -> GenConfig {
    GenConfig { loop_density: 30, ..GenConfig::default() }
}

/// The extractor's lvalue keying, re-derived independently.
fn lvalue_key(ast: &Ast, e: ExprId) -> Option<String> {
    match &ast.expr(e).kind {
        ExprKind::Ident(_) | ExprKind::Member { .. } | ExprKind::Index(..) => {
            Some(expr_to_string(ast, e))
        }
        ExprKind::Unary(UnOp::Deref, inner) => lvalue_key(ast, *inner).map(|k| format!("*{k}")),
        _ => None,
    }
}

/// Collects every written lvalue key in an expression tree by manual
/// recursion over each `ExprKind` variant (deliberately not
/// `Ast::walk_expr`, which the summary pass itself uses).
fn collect_writes(ast: &Ast, e: ExprId, out: &mut BTreeSet<String>) {
    match &ast.expr(e).kind {
        ExprKind::Assign(_, lhs, rhs) => {
            if let Some(k) = lvalue_key(ast, *lhs) {
                out.insert(k);
            }
            collect_writes(ast, *lhs, out);
            collect_writes(ast, *rhs, out);
        }
        ExprKind::Unary(op, inner) => {
            if op.mutates() {
                if let Some(k) = lvalue_key(ast, *inner) {
                    out.insert(k);
                }
            }
            collect_writes(ast, *inner, out);
        }
        ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) | ExprKind::Comma(a, b) => {
            collect_writes(ast, *a, out);
            collect_writes(ast, *b, out);
        }
        ExprKind::Ternary(c, t, el) => {
            collect_writes(ast, *c, out);
            collect_writes(ast, *t, out);
            collect_writes(ast, *el, out);
        }
        ExprKind::Call { callee, args } => {
            collect_writes(ast, *callee, out);
            for &a in args {
                collect_writes(ast, a, out);
            }
        }
        ExprKind::Member { base, .. } => collect_writes(ast, *base, out),
        ExprKind::Cast(_, inner) | ExprKind::SizeofExpr(inner) => {
            collect_writes(ast, *inner, out)
        }
        ExprKind::Int(_) | ExprKind::Str(_) | ExprKind::Ident(_) | ExprKind::SizeofType(_) => {}
    }
}

#[test]
fn may_write_covers_every_body_write() {
    let mut loops_checked = 0usize;
    for seed in 0..60u64 {
        let g = generate_with(seed, &loopy());
        let ast = &g.ast;
        for func in ast.functions() {
            let cfg = build_cfg(ast, func);
            let naturals = find_loops(&cfg);
            let summaries = summarize_loops(ast, &cfg);
            assert_eq!(
                naturals.len(),
                summaries.len(),
                "seed {seed} fn {}: one summary per natural loop",
                func.sig.name
            );
            for (l, s) in naturals.iter().zip(&summaries) {
                assert_eq!(s.header, l.header);
                assert_eq!(s.latch, l.latch);
                // Independent write collection over the same body.
                let mut writes = BTreeSet::new();
                for &bb in &s.body {
                    let block = cfg.block(bb);
                    for &sid in &block.stmts {
                        match &ast.stmt(sid).kind {
                            StmtKind::Decl { name, init, .. } => {
                                writes.insert(name.clone());
                                if let Some(e) = init {
                                    collect_writes(ast, *e, &mut writes);
                                }
                            }
                            StmtKind::Expr(e) => collect_writes(ast, *e, &mut writes),
                            _ => {}
                        }
                    }
                    for &(b, step) in &cfg.step_exprs {
                        if b == bb {
                            collect_writes(ast, step, &mut writes);
                        }
                    }
                    match &block.term {
                        Terminator::Branch { cond, .. } => {
                            collect_writes(ast, *cond, &mut writes)
                        }
                        Terminator::Switch { scrutinee, cases, .. } => {
                            collect_writes(ast, *scrutinee, &mut writes);
                            for &(case, _) in cases {
                                collect_writes(ast, case, &mut writes);
                            }
                        }
                        Terminator::Return(Some(e)) => collect_writes(ast, *e, &mut writes),
                        _ => {}
                    }
                }
                for w in &writes {
                    assert!(
                        s.may_write.contains(w),
                        "seed {seed} fn {}: `{w}` written in loop body but absent from \
                         may_write {:?}\n--- source ---\n{}",
                        func.sig.name,
                        s.may_write,
                        g.source
                    );
                }
                // Counters are a refinement of the may-written set.
                for key in s.counters.keys() {
                    assert!(
                        s.may_write.contains(key),
                        "seed {seed}: counter `{key}` not in may_write"
                    );
                }
                loops_checked += 1;
            }
        }
    }
    assert!(loops_checked >= 20, "only {loops_checked} loops generated — density knob broken?");
}

/// Whether sorted multiset `a` is contained in sorted multiset `b`.
fn is_sub_multiset<T: Ord>(a: &[T], b: &[T]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[test]
fn summary_pruning_yields_a_path_subset() {
    // Compare at the CFG-path level, where pruning acts: the
    // summary-aware oracle may only *veto* decision arms, so its path
    // set must be a sub-multiset of the oracle-free enumeration.
    // (Extracted `PathRecord`s are the wrong level — caller records
    // inline callee events whose representative walk shifts when the
    // callee's arms are pruned.)
    let config = PathConfig::default();
    let mut compared = 0usize;
    let mut pruned_somewhere = false;
    for seed in 0..40u64 {
        let g = generate_with(seed, &loopy());
        let ast = &g.ast;
        for func in ast.functions() {
            let cfg = build_cfg(ast, func);
            let full = enumerate_paths(&cfg, &config);
            let mut oracle = FeasibilityOracle::new(ast);
            let pruned = enumerate_paths_with(&cfg, &config, &mut oracle);
            // `truncated` fires for *every* loop (the further-unrolling
            // family dies at `max_visits`), and that cut is prefix-local
            // and identical in both runs — skipping on it would skip
            // exactly the loops this test exists for. Only a hit path
            // budget would skew the subset comparison.
            if full.paths.len() >= config.max_paths || pruned.paths.len() >= config.max_paths {
                continue;
            }
            let proj = |set: &pallas_cfg::PathSet| -> Vec<String> {
                let mut v: Vec<String> =
                    set.paths.iter().map(|p| format!("{:?} {:?}", p.blocks, p.decisions)).collect();
                v.sort();
                v
            };
            let sub = proj(&pruned);
            let sup = proj(&full);
            assert!(
                is_sub_multiset(&sub, &sup),
                "seed {seed} fn {}: pruned paths not a subset of unpruned\n\
                 --- pruned ---\n{}\n--- unpruned ---\n{}\n--- source ---\n{}",
                func.sig.name,
                sub.join("\n"),
                sup.join("\n"),
                g.source
            );
            pruned_somewhere |= pruned.pruned > 0;
            compared += 1;
        }
    }
    assert!(compared >= 10, "only {compared} functions compared");
    assert!(pruned_somewhere, "oracle never vetoed an arm across all seeds — check vacuous");
}

/// The full metamorphic battery (including the PR 5 prune-subset
/// oracle, which now exercises summary-aware pruning by default) stays
/// clean on loop-heavy generator shapes.
#[test]
fn battery_clean_on_loop_heavy_seeds() {
    for seed in 0..15u64 {
        let g = generate_with(seed, &loopy());
        if let Err(f) = run_oracles(&g.unit, None) {
            panic!(
                "seed {seed}: oracle {} failed: {}\n--- source ---\n{}\n--- spec ---\n{}",
                f.oracle.tag(),
                f.detail,
                g.source,
                g.spec
            );
        }
    }
}
