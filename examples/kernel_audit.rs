//! Kernel audit: run Pallas over the paper's fast-path miniatures —
//! page allocation, UBIFS writes, TCP receive, RPS, SCSI teardown,
//! the NFS inode cache — and inspect what each checker family finds.
//!
//! Run with: `cargo run --example kernel_audit`
//!
//! This is the workflow of the paper's §5 evaluation: for each
//! committed fast path, write a few spec lines, run the five checkers,
//! and triage the warnings. The example also prints the Table 5-style
//! symbolic listing for the page allocator and the fast-vs-slow diff
//! the methodology (§3.1) uses to seed specs.

use pallas::core::{render_unit_report, score, Pallas};
use pallas::corpus;
use pallas::diff::diff_paths;
use pallas::sym::render_table5;

fn main() {
    let driver = Pallas::new();

    println!("== auditing the figure miniatures ==\n");
    for cu in corpus::examples() {
        let analyzed = driver.check_unit(&cu.unit).expect("corpus unit checks");
        let s = score(&analyzed.warnings, &cu.bugs);
        println!("{:<30} {}", cu.name(), s);
        for w in &analyzed.warnings {
            println!("    {w}");
        }
    }

    println!("\n== symbolic extraction of the page-allocation fast path (Table 5) ==\n");
    let cu = corpus::examples::page_alloc();
    let analyzed = driver.check_unit(&cu.unit).expect("corpus unit checks");
    let f = analyzed
        .db
        .function("__alloc_pages_nodemask")
        .expect("fast path extracted");
    // Show the path that reaches the slow branch, where the overwrite
    // happens.
    let rec = f
        .paths()
        .find(|r| {
            r.states().any(
                |e| matches!(e, pallas::sym::Event::State { lvalue, .. } if lvalue == "gfp_mask"),
            )
        })
        .expect("overwriting path exists");
    print!("{}", render_table5(f, rec, &analyzed.spec));

    println!("\n== fast vs slow diff for the TCP receive path (methodology §3.1) ==\n");
    let cu = corpus::examples::tcp_rcv();
    let analyzed = driver.check_unit(&cu.unit).expect("corpus unit checks");
    let report = diff_paths(&analyzed.db, "tcp_rcv_established", "tcp_rcv_slow")
        .expect("both paths extracted");
    print!("{report}");
    println!(
        "specialization degree: {} (checks/calls the fast path drops)",
        report.specialization_degree()
    );

    println!("\n== full unit report for the RPS incomplete-condition bug ==\n");
    let cu = corpus::examples::rps_map();
    let analyzed = driver.check_unit(&cu.unit).expect("corpus unit checks");
    print!("{}", render_unit_report(&analyzed));
}
