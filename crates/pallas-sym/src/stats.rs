//! Summary statistics over a path database — the numbers the paper
//! reports qualitatively ("a execution path includes four components",
//! "inlines a limited number of callee functions", per-path checking
//! cost) made measurable.

use crate::event::{Event, PathDb};
use std::fmt;

/// Aggregate statistics for one path database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Functions extracted.
    pub functions: usize,
    /// Total paths.
    pub paths: usize,
    /// Largest per-function path count.
    pub max_paths_per_function: usize,
    /// Total events across all paths.
    pub events: usize,
    /// Condition events.
    pub conditions: usize,
    /// State-update events.
    pub states: usize,
    /// Call events.
    pub calls: usize,
    /// Events contributed by summary-inlined callees (depth > 0).
    pub inlined_events: usize,
    /// Functions whose enumeration was truncated.
    pub truncated_functions: usize,
}

impl DbStats {
    /// Computes statistics for `db`.
    pub fn compute(db: &PathDb) -> Self {
        let mut s = DbStats { functions: db.functions.len(), ..DbStats::default() };
        for func in &db.functions {
            s.paths += func.records.len();
            s.max_paths_per_function = s.max_paths_per_function.max(func.records.len());
            if func.truncated {
                s.truncated_functions += 1;
            }
            for rec in func.paths() {
                for e in rec.events() {
                    s.events += 1;
                    if e.depth() > 0 {
                        s.inlined_events += 1;
                    }
                    match e {
                        Event::Cond { .. } => s.conditions += 1,
                        Event::State { .. } => s.states += 1,
                        Event::Call { .. } => s.calls += 1,
                        Event::Decl { .. } => {}
                    }
                }
            }
        }
        s
    }

    /// Average events per path (0 when empty).
    pub fn events_per_path(&self) -> f64 {
        if self.paths == 0 {
            0.0
        } else {
            self.events as f64 / self.paths as f64
        }
    }
}

impl fmt::Display for DbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} function(s), {} path(s) (max {}/fn, {} truncated), {} event(s) \
             ({} cond, {} state, {} call; {} inlined; {:.1}/path)",
            self.functions,
            self.paths,
            self.max_paths_per_function,
            self.truncated_functions,
            self.events,
            self.conditions,
            self.states,
            self.calls,
            self.inlined_events,
            self.events_per_path()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractConfig};
    use pallas_lang::parse;

    fn stats_of(src: &str) -> DbStats {
        let ast = parse(src).unwrap();
        let db = extract("stats", &ast, src, &ExtractConfig::default());
        DbStats::compute(&db)
    }

    #[test]
    fn counts_add_up() {
        let s = stats_of(
            "int g(int v) { if (v) return 1; return 0; }\n\
             int f(int x) {\n  int y = g(x);\n  if (y)\n    return 1;\n  return 0;\n}",
        );
        assert_eq!(s.functions, 2);
        assert!(s.paths >= 4);
        assert!(s.conditions > 0);
        assert!(s.states > 0);
        assert!(s.calls > 0);
        assert!(s.inlined_events > 0, "g's summary appears in f at depth 1");
        assert!(s.events >= s.conditions + s.states + s.calls);
        assert!(s.events_per_path() > 0.0);
    }

    #[test]
    fn truncation_counted() {
        let s = stats_of("int f(int n) { while (n) n--; return n; }");
        assert_eq!(s.truncated_functions, 1);
    }

    #[test]
    fn empty_db_safe() {
        let s = DbStats::compute(&PathDb::new("empty"));
        assert_eq!(s.functions, 0);
        assert_eq!(s.events_per_path(), 0.0);
        assert!(s.to_string().contains("0 function(s)"));
    }
}
