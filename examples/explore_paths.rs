//! Explore the path database: the intermediate representations behind
//! the checkers — CFGs, loops, the call graph, symbolic path records,
//! and database statistics.
//!
//! Run with: `cargo run --example explore_paths`
//!
//! Useful when writing a new checker or debugging why a rule did or
//! did not fire: everything the rules see is inspectable here.

use pallas::cfg::{build_cfg, loop_stats, render_ascii};
use pallas::core::Pallas;
use pallas::sym::{render_table5, CallGraph, DbStats};

const SOURCE: &str = r#"
struct zone { int free_pages; int lock; };
int take_lock(struct zone *z);
int refill_pcp(struct zone *z);

int pcp_alloc(struct zone *zone, int count) {
    int taken = 0;
    while (taken < count) {
        if (zone->free_pages == 0) {
            refill_pcp(zone);
        }
        zone->free_pages--;
        taken++;
    }
    return taken;
}

int rmqueue(struct zone *zone, int order, int count) {
    if (order == 0)
        return pcp_alloc(zone, count);
    take_lock(zone);
    return count;
}
"#;

fn main() {
    let analyzed = Pallas::new()
        .check_source("mm/explore", SOURCE, "fastpath rmqueue; cond order0: order;")
        .expect("source is well-formed");

    println!("== CFG of the fast path entry ==\n");
    let f = analyzed.ast.function("rmqueue").expect("defined above");
    let cfg = build_cfg(&analyzed.ast, f);
    print!("{}", render_ascii(&analyzed.ast, &cfg));

    println!("\n== loop structure of the callee ==\n");
    let pcp = analyzed.ast.function("pcp_alloc").expect("defined above");
    let pcp_cfg = build_cfg(&analyzed.ast, pcp);
    let (loops, nesting) = loop_stats(&pcp_cfg);
    println!("pcp_alloc: {loops} loop(s), max nesting {nesting} (bounded unrolling applies)");

    println!("\n== call graph ==\n");
    let cg = CallGraph::build(&analyzed.db);
    for func in ["rmqueue", "pcp_alloc"] {
        println!("{func} calls: {:?}", cg.callees(func));
    }
    println!(
        "depth rmqueue -> refill_pcp: {:?}",
        cg.call_depth("rmqueue", "refill_pcp")
    );

    println!("\n== symbolic record of the fast path's first path ==\n");
    let fp = analyzed.db.function("rmqueue").expect("extracted");
    print!("{}", render_table5(fp, fp.path(0), &analyzed.spec));

    println!("\n== database statistics ==\n");
    println!("{}", DbStats::compute(&analyzed.db));

    assert!(analyzed.warnings.is_empty(), "this unit is clean");
    println!("\nno warnings — the trigger condition is checked.");
}
