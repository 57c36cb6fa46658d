//! Assistant-data-structure checker (Rules 5.1–5.2).
//!
//! Finds suboptimally organized assistant structures (fields a fast
//! path never touches, §3.6's `i_cindex` / `struct flowi` examples) and
//! stale cached state (the NFS inode-cache inconsistency of Figure 9).

use crate::context::{event_mentions_loose, CheckContext, Checker};
use crate::rule::{Rule, Warning};
use pallas_sym::{Event, FunctionPaths};
use std::collections::{BTreeSet, HashSet};

/// Checker for assistant-data-structure rules — a thin view over the
/// registry's rules 5.1–5.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct AssistStructChecker;

impl Checker for AssistStructChecker {
    fn name(&self) -> &'static str {
        crate::registry::family_name(pallas_spec::ElementClass::AssistantDataStructure)
    }

    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning> {
        crate::registry::run_family(cx, pallas_spec::ElementClass::AssistantDataStructure)
    }
}

/// Registry matcher for Rule 5.1.
pub(crate) fn match_layout(cx: &CheckContext<'_>) -> Vec<Warning> {
    if cx.spec.assist_structs.is_empty() {
        return Vec::new();
    }
    let fns = cx.fastpath_fns();
    // Every atom any fast-path event or return mentions, in one pass
    // over the event tables (each path's events are in its function's
    // table) instead of one pass over every path per field.
    let used: HashSet<&str> = fns
        .iter()
        .flat_map(|f| {
            let events = f.events.iter().flat_map(Event::atoms);
            events.chain(f.records.iter().flat_map(|r| r.output.vars.iter().map(String::as_str)))
        })
        .collect();
    let mut out = BTreeSet::new();
    for strukt in &cx.spec.assist_structs {
        check_layout(cx, &fns, &used, strukt, &mut out);
    }
    out.into_iter().collect()
}

/// Registry matcher for Rule 5.2.
pub(crate) fn match_stale(cx: &CheckContext<'_>) -> Vec<Warning> {
    let mut out = BTreeSet::new();
    for cache in &cx.spec.caches {
        for func in cx.fastpath_fns() {
            check_stale(cx, func, &cache.state, &cache.cache, &mut out);
        }
    }
    out.into_iter().collect()
}

/// Rule 5.1: every field of the assistant structure must be used
/// somewhere in the fast path; unused fields bloat the cache footprint.
fn check_layout(
    cx: &CheckContext<'_>,
    fns: &[&FunctionPaths],
    used: &HashSet<&str>,
    strukt: &str,
    out: &mut BTreeSet<Warning>,
) {
    let Some(def) = cx.ast.struct_def(strukt) else {
        return; // unknown struct; nothing to check
    };
    let unused: Vec<&str> = def
        .fields
        .iter()
        .map(|field| field.name.as_str())
        .filter(|name| !used.contains(name))
        .collect();
    if !unused.is_empty() {
        let function = fns.first().map(|f| f.name.as_str()).unwrap_or("<fast path>");
        out.insert(cx.warn(
            Rule::AssistLayout,
            function,
            fns.first().map(|f| f.line).unwrap_or(1),
            format!(
                "assistant struct `{strukt}` carries fields never used by the fast path: {}",
                unused.join(", ")
            ),
        ));
    }
}

/// Rule 5.2: after a write to the cached path state, the same path must
/// update the cache (by writing it or calling into it).
fn check_stale(
    cx: &CheckContext<'_>,
    func: &FunctionPaths,
    state: &str,
    cache: &str,
    out: &mut BTreeSet<Warning>,
) {
    for rec in func.paths() {
        for (i, e) in rec.events().enumerate() {
            let Event::State { line, lvalue, depth: 0, .. } = e else {
                continue;
            };
            let writes_state = crate::context::lvalue_writes(lvalue, state)
                || crate::context::atom_contains(lvalue, state);
            if !writes_state {
                continue;
            }
            let cache_updated = rec
                .events()
                .skip(i + 1)
                .any(|later| event_mentions_loose(later, cache));
            if !cache_updated {
                out.insert(cx.warn(
                    Rule::AssistStale,
                    &func.name,
                    *line,
                    format!(
                        "update of path state `{state}` is not followed by an update of its cache `{cache}`"
                    ),
                ));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;
    use pallas_spec::FastPathSpec;
    use pallas_sym::{extract, ExtractConfig};

    fn run(src: &str, spec: &FastPathSpec) -> Vec<Warning> {
        let ast = parse(src).unwrap();
        let db = extract("test", &ast, src, &ExtractConfig::default());
        let cx = CheckContext { db: &db, spec, ast: &ast };
        AssistStructChecker.check(&cx)
    }

    #[test]
    fn unused_field_detected() {
        // §3.6 shape: `i_cindex` sits in the inode but the fast path
        // never touches it.
        let src = "\
struct inode { int i_ino; int i_cindex; };
int lookup_fast(struct inode *in) {
  return in->i_ino;
}";
        let spec =
            FastPathSpec::new("t").with_fastpath("lookup_fast").with_assist_struct("inode");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::AssistLayout);
        assert!(ws[0].message.contains("i_cindex"));
        assert!(!ws[0].message.contains("i_ino,"));
    }

    #[test]
    fn fully_used_struct_passes() {
        let src = "\
struct inode { int i_ino; int i_gen; };
int lookup_fast(struct inode *in) {
  if (in->i_gen)
    return in->i_ino;
  return 0;
}";
        let spec =
            FastPathSpec::new("t").with_fastpath("lookup_fast").with_assist_struct("inode");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn unknown_struct_ignored() {
        let src = "int f(void) { return 0; }";
        let spec = FastPathSpec::new("t").with_fastpath("f").with_assist_struct("ghost");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn stale_cache_detected() {
        // Figure 9 shape: the inode is deleted but the icache keeps the
        // obsolete entry.
        let src = "\
int unlink_fast(int inode) {
  inode = 0;
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("unlink_fast").with_cache("icache", "inode");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "{ws:?}");
        assert_eq!(ws[0].rule, Rule::AssistStale);
    }

    #[test]
    fn coordinated_cache_update_passes() {
        let src = "\
int icache_remove(int ino);
int unlink_fast(int inode) {
  inode = 0;
  icache_remove(inode);
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("unlink_fast").with_cache("icache", "inode");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn cache_update_via_member_write_passes() {
        let src = "\
struct cache { int entry; };
int unlink_fast(struct cache *icache, int inode) {
  inode = 0;
  icache->entry = 0;
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("unlink_fast").with_cache("icache", "inode");
        assert!(run(src, &spec).is_empty());
    }

    #[test]
    fn member_state_write_triggers_rule() {
        let src = "\
struct tcp { int ca_ops; };
int set_ca_fast(struct tcp *sk) {
  sk->ca_ops = 1;
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("set_ca_fast").with_cache("ca_key_table", "ca_ops");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn async_cache_update_false_positive_shape() {
        // §5.3 DS FP source: cache updated lazily by another function —
        // invisible on this path, so Pallas warns.
        let src = "\
int schedule_lazy_sync(void);
int update_fast(int state) {
  state = 1;
  schedule_lazy_sync();
  return 0;
}";
        let spec = FastPathSpec::new("t").with_fastpath("update_fast").with_cache("shadow_tbl", "state");
        let ws = run(src, &spec);
        assert_eq!(ws.len(), 1, "lazy update still warns: {ws:?}");
    }
}
