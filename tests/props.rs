//! Property-based tests over the core data structures and invariants:
//! the front-end, the CFG/path layer, the symbolic evaluator, and the
//! spec protocol.

use pallas::cfg::{build_cfg, enumerate_paths, Dominators, PathConfig, Terminator};
use pallas::lang::{expr_to_string, parse, ExprId, StmtKind};
use pallas::spec::{parse_spec, FastPathSpec, RetValue};
use proptest::prelude::*;

// ---- generators -----------------------------------------------------------

/// A C-like identifier.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword or type-ish name", |s| {
        pallas::lang::token::Keyword::from_str(s).is_none()
            && !s.ends_with("_t")
            && !matches!(s.as_str(), "u8" | "u16" | "u32" | "u64" | "s8" | "s16" | "s32" | "s64")
    })
}

/// A small C expression as source text, guaranteed parseable.
fn expr_text() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        ident(),
        (0i64..1000).prop_map(|v| v.to_string()),
        (ident(), ident()).prop_map(|(a, b)| format!("{a}->{b}")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), prop_oneof![Just("+"), Just("-"), Just("*"), Just("&"), Just("|")], inner.clone())
                .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
            (inner.clone(), prop_oneof![Just("=="), Just("!="), Just("<"), Just(">=")], inner.clone())
                .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
            inner.clone().prop_map(|a| format!("!({a})")),
            (ident(), inner.clone()).prop_map(|(f, a)| format!("{f}({a})")),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| format!("({c} ? {t} : {e})")),
        ]
    })
}

/// A small statement-sequence body, guaranteed parseable.
fn body_text() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (ident(), expr_text()).prop_map(|(v, e)| format!("{v} = {e};")),
        (ident(), expr_text()).prop_map(|(v, e)| format!("int {v} = {e};")),
        (expr_text(), expr_text()).prop_map(|(c, e)| format!("if ({c}) x = {e};")),
        expr_text().prop_map(|e| format!("return {e};")),
        (expr_text(), ident()).prop_map(|(c, v)| format!("while ({c}) {v} = {v} - 1;")),
    ];
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| stmts.join("\n  "))
}

fn function_src() -> impl Strategy<Value = String> {
    body_text().prop_map(|body| format!("int f(int x, int y) {{\n  int x2 = 0;\n  {body}\n  return 0;\n}}"))
}

// ---- front-end properties --------------------------------------------------

proptest! {
    /// The lexer never panics and always terminates on printable input.
    #[test]
    fn lexer_total_on_printable_ascii(s in "[ -~\n\t]{0,200}") {
        let _ = pallas::lang::lex(&s);
    }

    /// Generated functions always parse.
    #[test]
    fn generated_functions_parse(src in function_src()) {
        parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    }

    /// Pretty-printing an expression and re-parsing it yields a tree
    /// that pretty-prints identically (print→parse→print fixpoint).
    #[test]
    fn pretty_print_reparse_fixpoint(e in expr_text()) {
        let src1 = format!("int f(void) {{ return {e}; }}");
        let ast1 = parse(&src1).unwrap();
        let r1 = first_return(&ast1);
        let printed1 = expr_to_string(&ast1, r1);

        let src2 = format!("int f(void) {{ return {printed1}; }}");
        let ast2 = parse(&src2).unwrap();
        let r2 = first_return(&ast2);
        let printed2 = expr_to_string(&ast2, r2);

        prop_assert_eq!(printed1, printed2);
    }

    /// Spans of all parsed expressions stay within the source buffer.
    #[test]
    fn spans_in_bounds(src in function_src()) {
        let ast = parse(&src).unwrap();
        let f = ast.functions().next().unwrap();
        prop_assert!(f.span.end as usize <= src.len());
    }
}

fn first_return(ast: &pallas::lang::Ast) -> ExprId {
    let f = ast.functions().next().expect("one function");
    let mut found = None;
    fn walk(ast: &pallas::lang::Ast, s: pallas::lang::StmtId, found: &mut Option<ExprId>) {
        match &ast.stmt(s).kind {
            StmtKind::Return(Some(e)) if found.is_none() => *found = Some(*e),
            StmtKind::Block(stmts) => {
                for &s in stmts {
                    walk(ast, s, found);
                }
            }
            StmtKind::If { then_br, else_br, .. } => {
                walk(ast, *then_br, found);
                if let Some(e) = else_br {
                    walk(ast, *e, found);
                }
            }
            StmtKind::While { body, .. } => walk(ast, *body, found),
            _ => {}
        }
    }
    walk(ast, f.body, &mut found);
    found.expect("generated function returns")
}

// ---- CFG / path properties --------------------------------------------------

proptest! {
    /// Path enumeration respects every configured bound.
    #[test]
    fn path_bounds_hold(src in function_src(), max_paths in 1usize..64, max_visits in 1usize..4) {
        let ast = parse(&src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        let config = PathConfig { max_paths, max_visits, max_len: 128, ..PathConfig::default() };
        let ps = enumerate_paths(&cfg, &config);
        prop_assert!(ps.paths.len() <= max_paths);
        for p in &ps.paths {
            prop_assert!(p.blocks.len() <= 128);
            let mut counts = std::collections::HashMap::new();
            for b in &p.blocks {
                *counts.entry(b).or_insert(0usize) += 1;
            }
            prop_assert!(counts.values().all(|&c| c <= max_visits));
            // Every path starts at the entry and ends at a return block.
            prop_assert_eq!(p.blocks[0], cfg.entry);
            let last = *p.blocks.last().unwrap();
            prop_assert!(matches!(cfg.block(last).term, Terminator::Return(_)));
        }
    }

    /// Dominator invariants: the entry dominates every reachable block
    /// and every non-entry reachable block has an immediate dominator
    /// that also dominates it.
    #[test]
    fn dominator_invariants(src in function_src()) {
        let ast = parse(&src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        let doms = Dominators::compute(&cfg);
        for b in cfg.reverse_postorder() {
            prop_assert!(doms.dominates(cfg.entry, b));
            prop_assert!(doms.dominates(b, b), "reflexive");
            if b != cfg.entry {
                let idom = doms.idom(b).expect("reachable non-entry block has idom");
                prop_assert!(doms.dominates(idom, b));
            }
        }
    }

    /// Consecutive path blocks are connected by real CFG edges.
    #[test]
    fn paths_follow_edges(src in function_src()) {
        let ast = parse(&src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        let ps = enumerate_paths(&cfg, &PathConfig::default());
        for p in &ps.paths {
            for w in p.blocks.windows(2) {
                prop_assert!(cfg.successors(w[0]).contains(&w[1]),
                    "{} -> {} is not an edge", w[0], w[1]);
            }
        }
    }
}

// ---- symbolic evaluator properties -----------------------------------------

proptest! {
    /// Constant folding in the symbolic evaluator agrees with direct
    /// evaluation: a function returning a constant arithmetic
    /// expression extracts to exactly that integer.
    #[test]
    fn constant_folding_agrees(a in -100i64..100, b in -100i64..100, c in 1i64..50) {
        let expected = a.wrapping_add(b).wrapping_mul(c) | 3;
        let src = format!(
            "int f(void) {{ int t = {a} + {b}; int u = t * {c}; return u | 3; }}"
        );
        let ast = parse(&src).unwrap();
        let db = pallas::sym::extract("prop", &ast, &src, &pallas::sym::ExtractConfig::default());
        let f = db.function("f").unwrap();
        prop_assert_eq!(f.literal_returns(), vec![expected]);
    }

    /// Every extracted event's line number lies within the source.
    #[test]
    fn event_lines_in_bounds(src in function_src()) {
        let ast = parse(&src).unwrap();
        let db = pallas::sym::extract("prop", &ast, &src, &pallas::sym::ExtractConfig::default());
        let max_line = src.lines().count() as u32;
        for func in &db.functions {
            for rec in func.paths() {
                for e in rec.events() {
                    prop_assert!(e.line() >= 1 && e.line() <= max_line);
                }
            }
        }
    }
}

// ---- spec protocol properties -----------------------------------------------

proptest! {
    /// Display → parse is a lossless round trip for arbitrary specs.
    #[test]
    fn spec_display_parse_roundtrip(
        unit in "[a-z]{2,6}/[a-z_]{2,10}",
        fast in ident(),
        imms in proptest::collection::vec(ident(), 0..4),
        faults in proptest::collection::vec(ident(), 0..3),
        rets in proptest::collection::vec(-10i64..10, 0..4),
        match_slow in any::<bool>(),
        check_ret in any::<bool>(),
    ) {
        let mut spec = FastPathSpec::new(unit).with_fastpath(fast);
        for v in &imms {
            spec = spec.with_immutable(v.clone());
        }
        for f in &faults {
            spec = spec.with_fault(f.clone());
        }
        for r in &rets {
            spec = spec.with_return(RetValue::Int(*r));
        }
        if match_slow {
            spec = spec.with_match_slow_return();
        }
        if check_ret {
            spec = spec.with_check_return();
        }
        let parsed = parse_spec(&spec.to_string()).unwrap();
        prop_assert_eq!(parsed, spec);
    }

    /// The spec parser never panics on arbitrary printable input.
    #[test]
    fn spec_parser_total(s in "[ -~\n]{0,200}") {
        let _ = parse_spec(&s);
    }
}
