//! Edge-case tests for the symbolic evaluator: aliasing-ish writes,
//! nested calls, casts, comma expressions, and environment behaviour
//! across branch joins.

use pallas_lang::parse;
use pallas_sym::{extract, Event, ExtractConfig, PathDb, Sym};

fn db_of(src: &str) -> PathDb {
    let ast = parse(src).unwrap();
    extract("edge", &ast, src, &ExtractConfig::default())
}

fn states_of<'a>(db: &'a PathDb, f: &str, path: usize) -> Vec<(&'a str, Sym)> {
    db.function(f).unwrap().path(path).states()
        .map(|e| match e {
            Event::State { lvalue, value, .. } => (lvalue.as_str(), *value),
            _ => unreachable!(),
        })
        .collect()
}

#[test]
fn deref_write_tracked_as_star_lvalue() {
    let db = db_of("int f(int *p) { *p = 7; return *p; }");
    let states = states_of(&db, "f", 0);
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].0, "*p");
    assert_eq!(states[0].1, Sym::int(7));
    // The read back through the same lvalue sees the written value.
    let f = db.function("f").unwrap();
    assert_eq!(f.records[0].output.value, Some(Sym::int(7)));
}

#[test]
fn nested_call_arguments_evaluated_inside_out() {
    let db = db_of(
        "int inner(int a);\nint outer(int b);\n\
         int f(int x) { return outer(inner(x)); }",
    );
    let f = db.function("f").unwrap();
    let callees: Vec<&str> = f.path(0).calls()
        .map(|e| match e {
            Event::Call { callee, .. } => callee.as_str(),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(callees, vec!["inner", "outer"], "inner evaluated first");
}

#[test]
fn call_result_assignment_points_at_outermost_call() {
    let db = db_of(
        "int inner(int a);\nint outer(int b);\n\
         int f(int x) { int r = outer(inner(x)); return r; }",
    );
    let f = db.function("f").unwrap();
    let assigned: Vec<(&str, Option<&str>)> = f.path(0).calls()
        .map(|e| match e {
            Event::Call { callee, assigned_to, .. } => {
                (callee.as_str(), assigned_to.as_deref())
            }
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(assigned, vec![("inner", None), ("outer", Some("r"))]);
}

#[test]
fn casts_are_transparent_to_values() {
    let db = db_of(
        "typedef unsigned int u32_t;\n\
         int f(void) { int x = (int)(u32_t)5; return x + 1; }",
    );
    assert_eq!(db.function("f").unwrap().records[0].output.value, Some(Sym::int(6)));
}

#[test]
fn comma_expression_evaluates_both_sides() {
    let db = db_of("int g(int v);\nint f(int a) { int x = (g(a), 3); return x; }");
    let f = db.function("f").unwrap();
    assert_eq!(f.path(0).calls().count(), 1, "left side effect kept");
    assert_eq!(f.records[0].output.value, Some(Sym::int(3)));
}

#[test]
fn string_arguments_do_not_pollute_atoms() {
    let db = db_of(r#"int printk(const char *fmt, ...); int f(int n) { printk("n=%d\n", n); return 0; }"#);
    let f = db.function("f").unwrap();
    let call = f.path(0).calls().next().unwrap();
    match call {
        Event::Call { arg_vars, .. } => {
            assert_eq!(arg_vars, &vec!["n".to_string()], "{arg_vars:?}");
        }
        _ => unreachable!(),
    }
}

#[test]
fn branch_environments_do_not_leak_across_paths() {
    let src = "\
int f(int c) {
  int x = 1;
  if (c)
    x = 2;
  return x;
}";
    let db = db_of(src);
    let f = db.function("f").unwrap();
    let mut returns: Vec<i64> = f
        .records
        .iter()
        .filter_map(|r| r.output.value.and_then(|s| s.as_int()))
        .collect();
    returns.sort_unstable();
    assert_eq!(returns, vec![1, 2], "each path sees its own final x");
}

#[test]
fn member_chain_values_keyed_by_full_path() {
    let db = db_of(
        "struct b { int c; };\nstruct a { struct b *inner; };\n\
         int f(struct a *p) { p->inner->c = 4; return p->inner->c; }",
    );
    let f = db.function("f").unwrap();
    assert_eq!(f.records[0].output.value, Some(Sym::int(4)));
    let states = states_of(&db, "f", 0);
    assert_eq!(states[0].0, "p->inner->c");
}

#[test]
fn array_element_values_keyed_by_index_text() {
    let db = db_of("int f(int *a, int i) { a[0] = 9; return a[0] + a[1]; }");
    let f = db.function("f").unwrap();
    // a[0] is known, a[1] symbolic → sum stays symbolic but mentions a[1].
    let out = f.records[0].output.value.unwrap();
    assert!(out.mentions("a[1]"), "{out}");
    assert!(!out.mentions("a[0]"), "a[0] folded to 9: {out}");
}

#[test]
fn shadowing_decl_resets_value() {
    // The evaluator keys by name; a redeclaration (C scoping) simply
    // rebinds, which is the correct timeline view for the checkers.
    let db = db_of("int f(void) { int x = 1; { int x2 = x + 1; x = x2; } return x; }");
    assert_eq!(db.function("f").unwrap().records[0].output.value, Some(Sym::int(2)));
}

#[test]
fn negative_hex_and_char_constants_fold() {
    let db = db_of("int f(void) { return -0x10 + 'A'; }");
    assert_eq!(
        db.function("f").unwrap().records[0].output.value,
        Some(Sym::int(-16 + 65))
    );
}

#[test]
fn unknown_function_pointerish_callee_rendered() {
    // Calling through a member: callee is the rendered expression.
    let db = db_of(
        "struct ops { int run; };\n\
         int f(struct ops *o) { return o->run; }",
    );
    // Just reading a member named like a function is a plain read.
    let f = db.function("f").unwrap();
    assert_eq!(f.path(0).calls().count(), 0);
    assert_eq!(
        f.records[0].output.value,
        Some(Sym::input("o->run"))
    );
}

#[test]
fn truncation_reported_for_deep_recursion_shapes() {
    let src = "\
int f(int n) {
  int acc = 0;
  while (n > 0) {
    acc += n;
    n--;
  }
  return acc;
}";
    let db = db_of(src);
    let f = db.function("f").unwrap();
    assert!(f.truncated, "loop unrolling is bounded");
    assert!(!f.records.is_empty());
}
