//! Event-level identity of the path database.
//!
//! The golden snapshots pin warnings only; two extractors can agree on
//! every warning and still disagree on an event no rule happens to
//! read. This suite renders every record's *full* timeline — one line
//! per event carrying every field, then the output — over a loop-heavy
//! generator pool and every corpus set, and pins the FNV-1a digest of
//! the rendering. Any change to the path database's representation
//! must reproduce it exactly.

use pallas_core::Pallas;
use pallas_fuzz::{fnv1a, generate_with, GenConfig, FNV_OFFSET};
use pallas_sym::{Event, FunctionPaths, PathDb};
use std::fmt::Write as _;

/// Digest of every timeline below, rendered by [`render_function`].
const PINNED: u64 = 0x15ef_d950_9e19_13be;

/// The `deep_paths` benchmark's generator knobs.
fn deep_config() -> GenConfig {
    GenConfig { loop_density: 30, max_block_len: 5, max_depth: 3, ..GenConfig::default() }
}

fn render_event(out: &mut String, e: &Event) {
    match e {
        Event::Cond { line, text, symbolic, vars, taken, depth } => {
            let symbolic = symbolic.to_string();
            writeln!(out, "  cond {line} {text:?} {symbolic:?} {vars:?} {taken:?} {depth}")
        }
        Event::State { line, lvalue, value, text, reads, depth } => {
            writeln!(out, "  state {line} {lvalue:?} {value} {value:?} {text:?} {reads:?} {depth}")
        }
        Event::Call { line, callee, arg_vars, assigned_to, in_condition, depth } => writeln!(
            out,
            "  call {line} {callee:?} {arg_vars:?} {assigned_to:?} {in_condition} {depth}"
        ),
        Event::Decl { line, name, has_init, depth } => {
            writeln!(out, "  decl {line} {name:?} {has_init} {depth}")
        }
    }
    .expect("writing to a String");
}

/// Folds one function's header and every record's timeline into
/// `digest`, rendering through the reused `buf`.
fn render_function(digest: u64, buf: &mut String, f: &FunctionPaths) -> u64 {
    buf.clear();
    let _ = writeln!(
        buf,
        "fn {} {:?} {:?} {} {} {} {}",
        f.name,
        f.signature,
        f.params,
        f.line,
        f.truncated,
        f.pruned,
        f.records.len()
    );
    let mut digest = fnv1a(digest, buf.as_bytes());
    for rec in f.paths() {
        buf.clear();
        let _ = writeln!(buf, " path {}", rec.index);
        for e in rec.events() {
            render_event(buf, e);
        }
        let o = rec.output;
        let value = o.value.map(|v| v.to_string());
        let _ = writeln!(buf, "  out {} {:?} {value:?} {:?} {:?}", o.line, o.text, o.value, o.vars);
        digest = fnv1a(digest, buf.as_bytes());
    }
    digest
}

fn render_db(digest: u64, buf: &mut String, db: &PathDb) -> u64 {
    let mut digest = fnv1a(digest, db.unit.as_bytes());
    for f in &db.functions {
        digest = render_function(digest, buf, f);
    }
    digest
}

fn timelines_digest() -> u64 {
    let driver = Pallas::new();
    let mut buf = String::new();
    let mut digest = FNV_OFFSET;
    let config = deep_config();
    for seed in 0..256u64 {
        let unit = generate_with(seed, &config).unit;
        let analyzed = driver
            .check_unit(&unit)
            .unwrap_or_else(|e| panic!("generator seed {seed} failed to check: {e}"));
        digest = render_db(digest, &mut buf, &analyzed.db);
    }
    let sets = [
        pallas_corpus::new_paths(),
        pallas_corpus::new_bug_examples(),
        pallas_corpus::known_bugs(),
        pallas_corpus::studied(),
        pallas_corpus::examples(),
        pallas_corpus::mined_rules(),
        pallas_corpus::infeasible(),
    ];
    for cu in sets.iter().flatten() {
        let analyzed = driver
            .check_unit(&cu.unit)
            .unwrap_or_else(|e| panic!("corpus unit `{}` failed to check: {e}", cu.name()));
        digest = render_db(digest, &mut buf, &analyzed.db);
    }
    digest
}

#[test]
fn full_timelines_match_pinned_digest() {
    let digest = timelines_digest();
    assert_eq!(
        digest, PINNED,
        "path timelines changed: digest {digest:#018x}, pinned {PINNED:#018x}"
    );
}
