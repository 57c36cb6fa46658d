//! Call-graph queries over the path database.
//!
//! The fault-handling false-positive analysis (§5.3) and the inlining
//! ablation both reason about *how far below* a fast path its fault
//! handling sits; the call graph makes that depth queryable, and the
//! CLI uses it to summarize a unit's structure.

use crate::event::{Event, PathDb};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A static call graph: function name → set of direct callees (only
/// same-unit functions with extracted bodies appear as nodes, but edge
/// targets include external callees).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraph {
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Builds the call graph from depth-0 call events.
    pub fn build(db: &PathDb) -> Self {
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for func in &db.functions {
            let entry = edges.entry(func.name.clone()).or_default();
            // The event table holds every call of every path.
            for e in &func.events {
                if let Event::Call { callee, depth: 0, .. } = e {
                    if !entry.contains(callee.as_str()) {
                        entry.insert(callee.clone());
                    }
                }
            }
        }
        CallGraph { edges }
    }

    /// Direct callees of `function` (empty if unknown).
    pub fn callees(&self, function: &str) -> Vec<&str> {
        self.edges
            .get(function)
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Direct callers of `function` within the unit.
    pub fn callers(&self, function: &str) -> Vec<&str> {
        self.edges
            .iter()
            .filter(|(_, callees)| callees.contains(function))
            .map(|(caller, _)| caller.as_str())
            .collect()
    }

    /// Minimum call depth from `from` to `to` (0 if equal, `None` if
    /// unreachable). External callees terminate exploration.
    pub fn call_depth(&self, from: &str, to: &str) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((from.to_string(), 0usize));
        seen.insert(from.to_string());
        while let Some((cur, d)) = queue.pop_front() {
            for callee in self.callees(&cur) {
                if callee == to {
                    return Some(d + 1);
                }
                if seen.insert(callee.to_string()) {
                    queue.push_back((callee.to_string(), d + 1));
                }
            }
        }
        None
    }

    /// All functions transitively reachable from `from` (excluding
    /// `from` itself unless recursive).
    pub fn reachable(&self, from: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut queue: VecDeque<&str> = self.callees(from).into_iter().collect();
        while let Some(cur) = queue.pop_front() {
            if out.insert(cur.to_string()) {
                for c in self.callees(cur) {
                    queue.push_back(c);
                }
            }
        }
        out
    }

    /// Leaf functions: defined in the unit, calling nothing.
    pub fn leaves(&self) -> Vec<&str> {
        self.edges
            .iter()
            .filter(|(_, callees)| callees.is_empty())
            .map(|(f, _)| f.as_str())
            .collect()
    }

    /// Number of functions with outgoing-edge entries (unit functions).
    pub fn node_count(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractConfig};
    use pallas_lang::parse;

    fn graph_of(src: &str) -> CallGraph {
        let ast = parse(src).unwrap();
        let db = extract("cg", &ast, src, &ExtractConfig::default());
        CallGraph::build(&db)
    }

    const CHAIN: &str = "\
int external_log(int x);
int level2(int x) { external_log(x); return 0; }
int level1(int x) { return level2(x); }
int top(int x) { level1(x); return 0; }
int leaf(int x) { return x; }";

    #[test]
    fn edges_and_callers() {
        let g = graph_of(CHAIN);
        assert_eq!(g.callees("top"), vec!["level1"]);
        assert_eq!(g.callees("level1"), vec!["level2"]);
        assert_eq!(g.callers("level2"), vec!["level1"]);
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn call_depths() {
        let g = graph_of(CHAIN);
        assert_eq!(g.call_depth("top", "top"), Some(0));
        assert_eq!(g.call_depth("top", "level1"), Some(1));
        assert_eq!(g.call_depth("top", "level2"), Some(2));
        assert_eq!(g.call_depth("top", "external_log"), Some(3));
        assert_eq!(g.call_depth("top", "leaf"), None);
        assert_eq!(g.call_depth("leaf", "top"), None);
    }

    #[test]
    fn reachability_and_leaves() {
        let g = graph_of(CHAIN);
        let r = g.reachable("top");
        assert!(r.contains("level1") && r.contains("level2") && r.contains("external_log"));
        assert!(!r.contains("leaf"));
        assert_eq!(g.leaves(), vec!["leaf"]);
    }

    #[test]
    fn recursion_terminates() {
        let g = graph_of("int f(int x) { if (x) return f(x - 1); return 0; }");
        assert_eq!(g.call_depth("f", "f"), Some(0));
        assert!(g.reachable("f").contains("f"));
    }

    #[test]
    fn fault_handling_depth_matches_fp_story() {
        // The §5.3 FH false positive: handling sits at call depth 2,
        // beyond the default inlining depth of 1.
        let g = graph_of(CHAIN);
        let depth = g.call_depth("top", "level2").unwrap();
        assert!(depth > ExtractConfig::default().inline_depth as usize);
    }
}
