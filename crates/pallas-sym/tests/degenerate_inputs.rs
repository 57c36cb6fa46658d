//! Degenerate-input robustness: shapes the fuzzer's generator emits
//! at its extremes — empty bodies, goto-only loops, unreachable
//! switch arms — must extract gracefully (possibly to zero paths),
//! never panic.

use pallas_lang::parse;
use pallas_sym::{extract, ExtractConfig, PathDb};

fn db_of(src: &str) -> PathDb {
    let ast = parse(src).unwrap();
    extract("degen", &ast, src, &ExtractConfig::default())
}

#[test]
fn empty_function_extracts_one_implicit_return_path() {
    let db = db_of("int empty_fn(void) { }");
    let f = db.function("empty_fn").unwrap();
    assert_eq!(f.records.len(), 1);
    assert!(f.records[0].output.value.is_none(), "implicit return has no value");
}

#[test]
fn void_function_with_only_side_effects() {
    let db = db_of("int log_it(int n);\nvoid tick(int n) { log_it(n); }");
    let f = db.function("tick").unwrap();
    assert_eq!(f.records.len(), 1);
}

#[test]
fn goto_only_body_yields_no_complete_paths() {
    // `loop: goto loop;` never reaches a return: the visit cap kills
    // every unrolling, so the function legitimately has zero paths.
    let db = db_of("int spin(void) { loop: goto loop; }");
    let f = db.function("spin").unwrap();
    assert!(f.records.is_empty(), "no entry-to-return path exists");
}

#[test]
fn goto_skipping_into_a_loop_extracts() {
    let db = db_of(
        "int weird(int x) {\n\
           goto out;\n\
           while (x) { out: x--; }\n\
           return x;\n\
         }",
    );
    let f = db.function("weird").unwrap();
    assert!(!f.records.is_empty());
}

#[test]
fn unreachable_statements_before_first_case_are_skipped() {
    // C allows statements between `switch (x) {` and the first
    // `case`; they are unreachable and must not derail extraction.
    let db = db_of(
        "int sw(int x) {\n\
           switch (x) {\n\
             x = 9;\n\
             case 0: return 1;\n\
             default: return 0;\n\
           }\n\
         }",
    );
    let f = db.function("sw").unwrap();
    assert_eq!(f.records.len(), 2, "case 0 and default");
}

#[test]
fn empty_switch_falls_through() {
    let db = db_of("int es(int x) { switch (x) { } return 1; }");
    let f = db.function("es").unwrap();
    assert!(!f.records.is_empty());
    assert!(f.records.iter().all(|r| r.output.value.is_some()));
}

#[test]
fn code_after_return_is_ignored() {
    let db = db_of(
        "int tail(int x) {\n\
           return x;\n\
           x = 1;\n\
           goto out;\n\
         out:\n\
           return 0;\n\
         }",
    );
    let f = db.function("tail").unwrap();
    assert_eq!(f.records.len(), 1, "only the live return survives");
}

#[test]
fn self_recursive_function_does_not_hang_inlining() {
    // Summary inlining must not follow the recursive edge forever.
    let db = db_of("int rec(int x) { if (x) return rec(x - 1); return 0; }");
    let f = db.function("rec").unwrap();
    assert_eq!(f.records.len(), 2);
}

#[test]
fn function_with_params_but_empty_body() {
    let db = db_of("int noop(int a, int b, int c) { }");
    let f = db.function("noop").unwrap();
    assert_eq!(f.records.len(), 1);
    assert!(f.path(0).states().next().is_none(), "no state events");
}
