//! Fast-path vs slow-path feature comparison.

use pallas_sym::{Event, FunctionPaths, PathDb};
use std::collections::BTreeSet;
use std::fmt;

/// The feature sets of one function, aggregated over all its paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathFeatures {
    /// Name atoms read anywhere.
    pub reads: BTreeSet<String>,
    /// Lvalues written.
    pub writes: BTreeSet<String>,
    /// Functions called.
    pub calls: BTreeSet<String>,
    /// Condition texts checked.
    pub conditions: BTreeSet<String>,
    /// Literal return values.
    pub returns: BTreeSet<i64>,
}

impl PathFeatures {
    /// Collects the features of a function from its extracted paths.
    /// Only depth-0 events count (the function's own code).
    pub fn collect(func: &FunctionPaths) -> Self {
        let mut f = PathFeatures::default();
        for rec in func.paths() {
            for e in rec.events() {
                if e.depth() != 0 {
                    continue;
                }
                match e {
                    Event::Cond { text, vars, .. } => {
                        f.conditions.insert(text.clone());
                        f.reads.extend(vars.iter().cloned());
                    }
                    Event::State { lvalue, reads, .. } => {
                        f.writes.insert(lvalue.clone());
                        f.reads.extend(reads.iter().cloned());
                    }
                    Event::Call { callee, arg_vars, .. } => {
                        f.calls.insert(callee.clone());
                        f.reads.extend(arg_vars.iter().cloned());
                    }
                    Event::Decl { .. } => {}
                }
            }
            f.reads.extend(rec.output.vars.iter().cloned());
        }
        f.returns.extend(func.literal_returns());
        f
    }
}

/// The comparison of a fast path against its slow path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Fast-path function name.
    pub fast: String,
    /// Slow-path function name.
    pub slow: String,
    /// Variables both paths touch — immutability / correlation
    /// candidates for the spec.
    pub shared_variables: BTreeSet<String>,
    /// Conditions the slow path checks but the fast path skips —
    /// trigger-condition candidates.
    pub dropped_conditions: BTreeSet<String>,
    /// Conditions only the fast path checks (usually the trigger).
    pub added_conditions: BTreeSet<String>,
    /// Calls the fast path skips (budgeting, locking, validation).
    pub dropped_calls: BTreeSet<String>,
    /// Calls only the fast path makes.
    pub added_calls: BTreeSet<String>,
    /// Lvalues only the slow path writes.
    pub dropped_writes: BTreeSet<String>,
    /// Literal returns of the fast path missing from the slow path —
    /// direct Rule 3.2 candidates.
    pub mismatched_returns: BTreeSet<i64>,
}

impl DiffReport {
    /// A score of how aggressively the fast path specializes: the
    /// number of dropped conditions, calls, and writes.
    pub fn specialization_degree(&self) -> usize {
        self.dropped_conditions.len() + self.dropped_calls.len() + self.dropped_writes.len()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "diff: fast `{}` vs slow `{}`", self.fast, self.slow)?;
        let section = |f: &mut fmt::Formatter<'_>, title: &str, items: &BTreeSet<String>| {
            if items.is_empty() {
                return Ok(());
            }
            writeln!(f, "  {title}:")?;
            for i in items {
                writeln!(f, "    {i}")?;
            }
            Ok(())
        };
        section(f, "shared variables", &self.shared_variables)?;
        section(f, "conditions dropped by fast path", &self.dropped_conditions)?;
        section(f, "conditions added by fast path", &self.added_conditions)?;
        section(f, "calls dropped by fast path", &self.dropped_calls)?;
        section(f, "calls added by fast path", &self.added_calls)?;
        section(f, "writes dropped by fast path", &self.dropped_writes)?;
        if !self.mismatched_returns.is_empty() {
            writeln!(f, "  fast-path returns not produced by slow path:")?;
            for r in &self.mismatched_returns {
                writeln!(f, "    {r}")?;
            }
        }
        Ok(())
    }
}

/// Compares the named fast and slow paths. Returns `None` if either
/// function is absent from the database.
pub fn diff_paths(db: &PathDb, fast: &str, slow: &str) -> Option<DiffReport> {
    let ff = PathFeatures::collect(db.function(fast)?);
    let sf = PathFeatures::collect(db.function(slow)?);
    Some(DiffReport {
        fast: fast.to_string(),
        slow: slow.to_string(),
        shared_variables: ff.reads.intersection(&sf.reads).cloned().collect(),
        dropped_conditions: sf.conditions.difference(&ff.conditions).cloned().collect(),
        added_conditions: ff.conditions.difference(&sf.conditions).cloned().collect(),
        dropped_calls: sf.calls.difference(&ff.calls).cloned().collect(),
        added_calls: ff.calls.difference(&sf.calls).cloned().collect(),
        dropped_writes: sf.writes.difference(&ff.writes).cloned().collect(),
        mismatched_returns: ff.returns.difference(&sf.returns).copied().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;
    use pallas_sym::{extract, ExtractConfig};

    fn diff_of(src: &str, fast: &str, slow: &str) -> DiffReport {
        let ast = parse(src).unwrap();
        let db = extract("test", &ast, src, &ExtractConfig::default());
        diff_paths(&db, fast, slow).expect("both functions exist")
    }

    const UBIFS_LIKE: &str = "\
int budget_space(int inode);
int write_page(int page);
int release_budget(int inode);
int ubifs_write_slow(int inode, int page) {
  int err = budget_space(inode);
  if (err)
    return err;
  write_page(page);
  release_budget(inode);
  return 0;
}
int ubifs_write_fast(int inode, int page, int free_space) {
  if (free_space > 0) {
    write_page(page);
    return 0;
  }
  return -1;
}";

    #[test]
    fn dropped_calls_identified() {
        let d = diff_of(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(d.dropped_calls.contains("budget_space"));
        assert!(d.dropped_calls.contains("release_budget"));
        assert!(!d.dropped_calls.contains("write_page"));
    }

    #[test]
    fn added_trigger_condition_identified() {
        let d = diff_of(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(d.added_conditions.iter().any(|c| c.contains("free_space")));
    }

    #[test]
    fn shared_variables_cover_common_state() {
        let d = diff_of(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(d.shared_variables.contains("page"));
    }

    #[test]
    fn mismatched_returns_surface() {
        let d = diff_of(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        // fast returns -1, slow returns 0 or symbolic err.
        assert!(d.mismatched_returns.contains(&-1));
    }

    #[test]
    fn identical_functions_diff_clean() {
        let src = "\
int a(int x) { if (x) return 1; return 0; }
int b(int x) { if (x) return 1; return 0; }";
        let d = diff_of(src, "a", "b");
        assert!(d.dropped_conditions.is_empty());
        assert!(d.dropped_calls.is_empty());
        assert!(d.mismatched_returns.is_empty());
        assert_eq!(d.specialization_degree(), 0);
    }

    #[test]
    fn missing_function_yields_none() {
        let src = "int a(int x) { return x; }";
        let ast = parse(src).unwrap();
        let db = extract("test", &ast, src, &ExtractConfig::default());
        assert!(diff_paths(&db, "a", "nope").is_none());
        assert!(diff_paths(&db, "nope", "a").is_none());
    }

    #[test]
    fn display_renders_sections() {
        let d = diff_of(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        let s = d.to_string();
        assert!(s.contains("calls dropped by fast path"));
        assert!(s.contains("budget_space"));
    }

    #[test]
    fn specialization_degree_counts_drops() {
        let d = diff_of(UBIFS_LIKE, "ubifs_write_fast", "ubifs_write_slow");
        assert!(d.specialization_degree() >= 3);
    }
}
