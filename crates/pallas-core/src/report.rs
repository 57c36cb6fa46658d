//! Textual reports over analyzed units.

use crate::engine::{EngineStats, Stage};
use crate::pipeline::AnalyzedUnit;
use pallas_checkers::Rule;
use pallas_spec::ElementClass;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders warnings as tab-separated values for machine consumption:
/// `unit, rule, class, function, file, line, message` per row.
pub fn render_tsv(unit: &AnalyzedUnit) -> String {
    let mut out = String::from("unit\trule\tclass\tfunction\tfile\tline\tmessage\n");
    for w in &unit.warnings {
        let (file, line) = unit
            .merge_map
            .resolve(w.line)
            .map(|(f, l)| (f.to_string(), l))
            .unwrap_or_else(|| ("<merged>".to_string(), w.line));
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            w.unit,
            w.rule.number(),
            w.rule.class(),
            w.function,
            file,
            line,
            w.message
        );
    }
    out
}

/// Renders a human-readable report for one analyzed unit: the spec
/// facts consumed, path-database statistics, and warnings grouped by
/// element class.
pub fn render_unit_report(unit: &AnalyzedUnit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Pallas report: {} ===", unit.name);
    let _ = writeln!(
        out,
        "spec: {} fact(s); fast path(s): {}",
        unit.spec.fact_count(),
        if unit.spec.fastpath.is_empty() { "-".to_string() } else { unit.spec.fastpath.join(", ") }
    );
    // Deliberately timing-free: the report must be byte-identical for
    // identical inputs (daemon responses are compared against one-shot
    // output); wall-clock detail lives in `render_stage_stats`.
    let _ = writeln!(
        out,
        "path database: {} function(s), {} path(s)",
        unit.db.functions.len(),
        unit.db.path_count(),
    );
    let (loops, nesting) = unit
        .ast
        .functions()
        .map(|f| pallas_cfg::loop_stats(&pallas_cfg::build_cfg(&unit.ast, f)))
        .fold((0, 0), |(l, n), (fl, fn_)| (l + fl, n.max(fn_)));
    if loops > 0 {
        let _ = writeln!(out, "structure: {loops} loop(s), max nesting {nesting} (bounded unrolling applies)");
    }
    for issue in &unit.lint {
        let _ = writeln!(out, "{issue}");
    }
    if unit.warnings.is_empty() {
        let _ = writeln!(out, "no warnings.");
        return out;
    }
    let _ = writeln!(out, "{} warning(s):", unit.warnings.len());
    for class in ElementClass::ALL {
        let in_class: Vec<_> =
            unit.warnings.iter().filter(|w| w.rule.class() == class).collect();
        if in_class.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  [{class}]");
        for w in in_class {
            let location = match unit.merge_map.resolve(w.line) {
                Some((file, line)) => format!("{file}:{line}"),
                None => format!("line {}", w.line),
            };
            let _ = writeln!(
                out,
                "    {} {} ({location}, `{}`): {}",
                w.rule,
                w.rule.finding(),
                w.function,
                w.message
            );
        }
    }
    out
}

/// Renders one unit's per-stage and per-checker timing breakdown.
pub fn render_stage_stats(unit: &AnalyzedUnit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- stages: {} ---", unit.name);
    for t in &unit.stage_timings {
        let note = if t.cached { " (cached)" } else { "" };
        let _ = writeln!(out, "  {:<8} {:>12?}{note}", t.stage.name(), t.elapsed);
    }
    for t in &unit.checker_timings {
        let _ = writeln!(
            out,
            "  check/{:<24} {:>12?}  {} warning(s)",
            t.name, t.elapsed, t.warnings
        );
    }
    out
}

/// The workspace's one JSON string escaper, defined in the lowest
/// crate that writes JSON and re-exported for report renderers.
pub use pallas_trace::json_escape_into;

/// Allocating convenience wrapper over [`json_escape_into`].
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// One warning as a single-line JSON object. This is *the* finding
/// serializer: `pallas check --json` emits these lines and the
/// `pallas-service` daemon embeds the same bytes in its responses, so
/// the two surfaces can never drift apart.
///
/// Schema (field order is fixed):
/// `{"type":"finding","unit":s,"rule":s,"class":s,"function":s,"file":s,"line":n,"message":s}`
pub fn finding_json(unit: &AnalyzedUnit, w: &pallas_checkers::Warning) -> String {
    let mut out = String::new();
    finding_json_into(&mut out, unit, w);
    out
}

/// Appends one warning's finding object ([`finding_json`]) to `out`,
/// escaping fields in place — no intermediate strings.
pub fn finding_json_into(out: &mut String, unit: &AnalyzedUnit, w: &pallas_checkers::Warning) {
    out.push_str("{\"type\":\"finding\",\"unit\":\"");
    json_escape_into(out, &w.unit);
    out.push_str("\",\"rule\":\"");
    out.push_str(w.rule.number());
    out.push_str("\",\"class\":\"");
    json_escape_into(out, &w.rule.class().to_string());
    out.push_str("\",\"function\":\"");
    json_escape_into(out, &w.function);
    out.push_str("\",\"file\":\"");
    match unit.merge_map.resolve(w.line) {
        Some((file, line)) => {
            json_escape_into(out, file);
            let _ = write!(out, "\",\"line\":{line}");
        }
        None => {
            let _ = write!(out, "<merged>\",\"line\":{}", w.line);
        }
    }
    out.push_str(",\"message\":\"");
    json_escape_into(out, &w.message);
    out.push_str("\"}");
}

/// Renders one analyzed unit as NDJSON: one `finding` object per
/// warning ([`finding_json`]), one `lint` object per spec lint issue,
/// and a trailing `unit` summary object. Every field is deterministic
/// (no timings), so the output is byte-stable across runs and safe to
/// pin with golden files.
pub fn render_ndjson(unit: &AnalyzedUnit) -> String {
    let mut out = String::new();
    render_ndjson_into(&mut out, unit);
    out
}

/// Appends [`render_ndjson`]'s output to `out`. Callers that render
/// many units (the daemon, benchmarks) clear and reuse one buffer
/// across calls instead of allocating a fresh `String` per unit; the
/// bytes appended are identical to `render_ndjson`'s.
pub fn render_ndjson_into(out: &mut String, unit: &AnalyzedUnit) {
    for w in &unit.warnings {
        finding_json_into(out, unit, w);
        out.push('\n');
    }
    for issue in &unit.lint {
        out.push_str("{\"type\":\"lint\",\"unit\":\"");
        json_escape_into(out, &unit.name);
        out.push_str("\",\"message\":\"");
        json_escape_into(out, &issue.to_string());
        out.push_str("\"}\n");
    }
    out.push_str("{\"type\":\"unit\",\"unit\":\"");
    json_escape_into(out, &unit.name);
    let _ = writeln!(
        out,
        "\",\"functions\":{},\"paths\":{},\"warnings\":{},\"lint\":{}}}",
        unit.db.functions.len(),
        unit.db.path_count(),
        unit.warnings.len(),
        unit.lint.len(),
    );
}

/// Renders an engine's cumulative counters: units checked, cache
/// behaviour (memory and disk layers in one labelled table), and
/// per-stage invocation counts with total time.
pub fn render_engine_stats(stats: &EngineStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== engine: {} unit-check(s), {} cache hit(s), {} miss(es), {} eviction(s) ===",
        stats.units_checked, stats.cache_hits, stats.cache_misses, stats.cache_evictions
    );
    let _ = writeln!(
        out,
        "  {:<7} {:>8} {:>8} {:>8}  residency",
        "cache:", "hit(s)", "miss(es)", "stale"
    );
    let _ = writeln!(
        out,
        "  {:<7} {:>8} {:>8} {:>8}  {}/{} frontend(s) resident",
        "memory",
        stats.cache_hits,
        stats.cache_misses,
        "-",
        stats.cached_frontends,
        stats.cache_capacity
    );
    if stats.store_enabled {
        let _ = writeln!(
            out,
            "  {:<7} {:>8} {:>8} {:>8}  {} unit(s) + {} function(s), {} byte(s)",
            "disk",
            stats.store_unit_hits,
            stats.store_unit_misses,
            stats.store_unit_stale,
            stats.store_units_resident,
            stats.store_functions_resident,
            stats.store_file_bytes
        );
        let _ = writeln!(
            out,
            "  {:<7} {:>8} {:>8} {:>8}  {} compaction(s)",
            "  func",
            stats.store_func_hits,
            stats.store_func_misses,
            stats.store_func_stale,
            stats.store_compactions
        );
    } else {
        let _ = writeln!(
            out,
            "  {:<7} {:>8} {:>8} {:>8}  (no store configured)",
            "disk", "-", "-", "-"
        );
    }
    let _ = writeln!(
        out,
        "  paths: {} enumerated, {} arm(s) pruned as infeasible",
        stats.paths_enumerated, stats.paths_pruned
    );
    let _ = writeln!(
        out,
        "  loops: {} summarized, {} binding(s) havocked at loop exits",
        stats.loops_summarized, stats.vars_havocked
    );
    for stage in Stage::ALL {
        let _ = writeln!(
            out,
            "  {:<8} {:>6} run(s)  {:>12?} total",
            stage.name(),
            stats.stage_runs(stage),
            stats.stage_total(stage)
        );
    }
    out
}

/// Per-rule warning counts across many units (one Table 1 cell set).
pub fn warning_counts_by_rule(units: &[&AnalyzedUnit]) -> BTreeMap<Rule, usize> {
    let mut counts = BTreeMap::new();
    for unit in units {
        for w in &unit.warnings {
            *counts.entry(w.rule).or_insert(0) += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pallas;

    fn analyzed() -> AnalyzedUnit {
        Pallas::new()
            .check_source(
                "mm/demo",
                "typedef unsigned int gfp_t;\n\
                 int noio(gfp_t m);\n\
                 int alloc_fast(gfp_t gfp_mask) {\n\
                   gfp_mask = noio(gfp_mask);\n\
                   return 0;\n\
                 }",
                "fastpath alloc_fast; immutable gfp_mask; fault ENOSPC;",
            )
            .unwrap()
    }

    #[test]
    fn report_contains_warnings_grouped_by_class() {
        let unit = analyzed();
        let report = render_unit_report(&unit);
        assert!(report.contains("Pallas report: mm/demo"));
        assert!(report.contains("[Path State]"));
        assert!(report.contains("[Fault Handling]"));
        assert!(report.contains("immutable"));
    }

    #[test]
    fn clean_unit_reports_no_warnings() {
        let unit = Pallas::new()
            .check_source("ok", "int f(void) { return 0; }", "fastpath f;")
            .unwrap();
        assert!(render_unit_report(&unit).contains("no warnings."));
    }

    #[test]
    fn tsv_export_has_header_and_rows() {
        let unit = analyzed();
        let tsv = render_tsv(&unit);
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].starts_with("unit\trule"));
        assert_eq!(lines.len(), 1 + unit.warnings.len());
        // Warnings export in source order: the 4.1 finding at line 3
        // precedes the 1.2 finding at line 4.
        assert!(lines[1].contains("4.1"));
        assert!(lines[2].contains("1.2"));
        assert!(lines[1].contains("mm/demo.c"));
    }

    #[test]
    fn loop_structure_reported() {
        let unit = Pallas::new()
            .check_source(
                "loopy",
                "int f(int n) { while (n) { n--; } return n; }",
                "fastpath f;",
            )
            .unwrap();
        assert!(render_unit_report(&unit).contains("1 loop(s)"));
    }

    #[test]
    fn stage_stats_list_every_stage_and_checker() {
        let unit = analyzed();
        let stats = render_stage_stats(&unit);
        for stage in Stage::ALL {
            assert!(stats.contains(stage.name()), "missing {stage} in:\n{stats}");
        }
        assert!(stats.contains("check/"), "{stats}");
    }

    #[test]
    fn engine_stats_report_cache_behaviour() {
        let engine = crate::engine::Engine::new();
        let unit = crate::unit::SourceUnit::new("t")
            .with_file("t.c", "int f(void) { return 0; }")
            .with_spec("fastpath f;");
        engine.check_unit(&unit).unwrap();
        engine.check_unit(&unit).unwrap();
        let text = render_engine_stats(&engine.stats());
        assert!(text.contains("2 unit-check(s), 1 cache hit(s), 1 miss(es)"), "{text}");
        assert!(text.contains("extract"), "{text}");
        assert!(text.contains("(no store configured)"), "{text}");
    }

    #[test]
    fn engine_stats_report_renders_the_disk_cache_rows() {
        let stats = crate::engine::EngineStats {
            units_checked: 3,
            cache_misses: 3,
            store_enabled: true,
            store_unit_hits: 1,
            store_unit_misses: 1,
            store_unit_stale: 1,
            store_func_hits: 4,
            store_func_misses: 2,
            store_func_stale: 1,
            store_units_resident: 3,
            store_functions_resident: 7,
            store_file_bytes: 4096,
            store_compactions: 1,
            ..Default::default()
        };
        let text = render_engine_stats(&stats);
        assert!(text.contains("memory"), "{text}");
        assert!(text.contains("disk"), "{text}");
        assert!(text.contains("3 unit(s) + 7 function(s), 4096 byte(s)"), "{text}");
        assert!(text.contains("1 compaction(s)"), "{text}");
        assert!(!text.contains("(no store configured)"), "{text}");
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn ndjson_lists_findings_then_summary() {
        let unit = analyzed();
        let text = render_ndjson(&unit);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), unit.warnings.len() + unit.lint.len() + 1);
        assert!(lines[0].starts_with("{\"type\":\"finding\",\"unit\":\"mm/demo\""), "{text}");
        // Source order: the 4.1 finding at line 3 comes first.
        assert!(lines[0].contains("\"rule\":\"4.1\""), "{text}");
        assert!(lines[1].contains("\"rule\":\"1.2\""), "{text}");
        assert!(lines[0].contains("\"file\":\"mm/demo.c\""), "{text}");
        let last = lines.last().unwrap();
        assert!(last.starts_with("{\"type\":\"unit\""), "{text}");
        assert!(last.contains(&format!("\"warnings\":{}", unit.warnings.len())), "{text}");
    }

    #[test]
    fn ndjson_is_deterministic_across_runs() {
        assert_eq!(render_ndjson(&analyzed()), render_ndjson(&analyzed()));
    }

    #[test]
    fn reused_buffer_rendering_is_byte_identical() {
        // The daemon and benchmarks render through one reused buffer;
        // the appended bytes must match the allocating path exactly.
        let unit = analyzed();
        let mut buf = String::from("stale contents from a previous unit");
        buf.clear();
        render_ndjson_into(&mut buf, &unit);
        assert_eq!(buf, render_ndjson(&unit));
        for w in &unit.warnings {
            buf.clear();
            finding_json_into(&mut buf, &unit, w);
            assert_eq!(buf, finding_json(&unit, w));
        }
    }

    #[test]
    fn counts_by_rule_aggregate() {
        let unit = analyzed();
        let counts = warning_counts_by_rule(&[&unit]);
        assert_eq!(counts.get(&Rule::ImmutableOverwrite), Some(&1));
        assert_eq!(counts.get(&Rule::FaultMissing), Some(&1));
        assert_eq!(counts.values().sum::<usize>(), unit.warnings.len());
    }
}
