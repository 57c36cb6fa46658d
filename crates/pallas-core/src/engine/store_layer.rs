//! The engine's disk layer: typed records over [`pallas_store::Store`].
//!
//! Two content-addressed record families carry the analysis results,
//! and two name-index families exist only to tell *stale* (same name,
//! changed content) apart from *miss* (never seen) in the counters:
//!
//! | kind | key | value |
//! |---|---|---|
//! | 1 unit | FNV(tag, format, unit fingerprint) | function keys (source order) + warnings ([`codec::encode_unit_record`]) |
//! | 2 function | FNV(tag, format, extract config, closure content) | one [`FunctionPaths`] ([`codec::encode_function_paths`]) |
//! | 3 unit name | FNV(tag, unit name) | last unit fingerprint (8 bytes) |
//! | 4 function name | FNV(tag, unit name, function name) | last function key (8 bytes) |
//!
//! The *unit key* extends the frontend cache fingerprint (name, files,
//! spec, extract config, rule selection) with
//! [`STORE_FORMAT_VERSION`], so any knob change — and any payload
//! schema change — invalidates cleanly by simply never matching old
//! records.
//!
//! The *function key* hashes everything one function's extraction can
//! observe: the extract config, and for every member of the function's
//! callee closure (itself, plus same-unit callees transitively up to
//! `inline_depth` — summary inlining splices callee events, with the
//! callee's own line numbers, into the caller's paths) the member's
//! name, start line, and exact span text. Callees are discovered by an
//! identifier-token scan of the span text against the unit's defined
//! function names — a sound over-approximation of the call graph (a
//! name mentioned without being called only causes an unnecessary
//! recompute, never a wrong reuse).
//!
//! Every accessor here degrades to "miss" on I/O or decode problems;
//! the store can slow the engine down, never wedge it or change its
//! answers.

use super::codec;
use super::fingerprint::Fnv1a;
use pallas_checkers::Warning;
use pallas_lang::{Ast, LineMap};
use pallas_store::{OpenReport, Store};
use pallas_sym::{ExtractConfig, FunctionPaths};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::Path;

/// Version of the persisted payload schema (the [`codec`] encodings
/// and the key derivations in this module). Folded into every content
/// key, so records written by a different schema are unreachable —
/// they age out as dead records at the next `gc` instead of being
/// misread. Version 2 stores each function's event table once and its
/// paths as event-id lists.
pub const STORE_FORMAT_VERSION: u32 = 2;

pub(crate) const KIND_UNIT: u8 = 1;
pub(crate) const KIND_FUNCTION: u8 = 2;
pub(crate) const KIND_UNIT_NAME: u8 = 3;
pub(crate) const KIND_FUNC_NAME: u8 = 4;

/// The store key for a unit outcome record.
pub(crate) fn unit_key(fingerprint: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_field(b"pallas-unit");
    h.write_u64(u64::from(STORE_FORMAT_VERSION));
    h.write_u64(fingerprint);
    h.finish()
}

fn unit_name_key(unit_name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_field(b"pallas-unit-name");
    h.write_field(unit_name.as_bytes());
    h.finish()
}

fn func_name_key(unit_name: &str, function: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_field(b"pallas-func-name");
    h.write_field(unit_name.as_bytes());
    h.write_field(function.as_bytes());
    h.finish()
}

/// Yields the identifier tokens of `text` (ASCII `[A-Za-z_][A-Za-z0-9_]*`
/// runs — the same lexical shape the parser gives names).
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    let bytes = text.as_bytes();
    let mut at = 0usize;
    std::iter::from_fn(move || {
        while at < bytes.len() {
            let b = bytes[at];
            if b == b'_' || b.is_ascii_alphabetic() {
                let start = at;
                while at < bytes.len()
                    && (bytes[at] == b'_' || bytes[at].is_ascii_alphanumeric())
                {
                    at += 1;
                }
                return Some(&text[start..at]);
            }
            // Skip past any non-ident run (digits glue to the run they
            // terminate so `0x1f` never starts an identifier).
            if b.is_ascii_digit() {
                at += 1;
                while at < bytes.len()
                    && (bytes[at] == b'_' || bytes[at].is_ascii_alphanumeric())
                {
                    at += 1;
                }
            } else {
                at += 1;
            }
        }
        None
    })
}

/// Computes the content key of every function defined in the unit, in
/// [`Ast::functions`] (source) order. See the module docs for what the
/// key covers.
pub(crate) fn function_content_keys(
    ast: &Ast,
    src: &str,
    config: &ExtractConfig,
) -> Vec<(String, u64)> {
    let lm = LineMap::new(src);
    let mut order: Vec<&str> = Vec::new();
    let mut facts: HashMap<&str, (u32, &str)> = HashMap::new();
    for func in ast.functions() {
        let name = func.sig.name.as_str();
        let text = &src[func.span.start as usize..func.span.end as usize];
        order.push(name);
        facts.insert(name, (lm.line(func.span.start), text));
    }
    // Direct callee over-approximation: defined names mentioned in the
    // span text.
    let callees: HashMap<&str, Vec<&str>> = order
        .iter()
        .map(|&name| {
            let mut out: Vec<&str> = identifiers(facts[name].1)
                .filter(|id| *id != name && facts.contains_key(id))
                .collect();
            out.sort_unstable();
            out.dedup();
            (name, out)
        })
        .collect();

    order
        .iter()
        .map(|&name| {
            // Closure: the function itself plus callees reachable in at
            // most `inline_depth` hops (summary inlining recurses with
            // one less level per hop).
            let mut members: BTreeSet<&str> = BTreeSet::new();
            let mut frontier = vec![name];
            members.insert(name);
            for _ in 0..config.inline_depth {
                let mut next = Vec::new();
                for f in frontier.drain(..) {
                    for &callee in &callees[f] {
                        if members.insert(callee) {
                            next.push(callee);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
            let mut h = Fnv1a::new();
            h.write_field(b"pallas-func");
            h.write_u64(u64::from(STORE_FORMAT_VERSION));
            h.write(&config.cache_key_bytes());
            h.write_field(name.as_bytes());
            for member in members {
                let (line, text) = facts[member];
                h.write_field(member.as_bytes());
                h.write_u64(u64::from(line));
                h.write_field(text.as_bytes());
            }
            (name.to_string(), h.finish())
        })
        .collect()
}

/// Typed view over the record store. All methods swallow I/O and
/// decode failures into misses / no-ops.
#[derive(Debug)]
pub(crate) struct StoreLayer {
    store: Store,
}

impl StoreLayer {
    pub(crate) fn open(path: &Path) -> io::Result<(StoreLayer, OpenReport)> {
        let (store, report) = Store::open(path)?;
        Ok((StoreLayer { store }, report))
    }

    /// Fetches a unit outcome: the function keys (source order) plus
    /// warnings.
    pub(crate) fn get_unit(&self, key: u64) -> Option<(Vec<u64>, Vec<Warning>)> {
        let bytes = self.store.get(KIND_UNIT, key).ok()??;
        codec::decode_unit_record(&bytes).ok()
    }

    /// Fetches one function record, verifying it describes `expect` (a
    /// 64-bit key collision must surface as a miss, not a wrong reuse).
    pub(crate) fn get_function(&self, key: u64, expect: &str) -> Option<FunctionPaths> {
        let fp = self.get_function_record(key)?;
        if fp.name != expect {
            return None;
        }
        Some(fp)
    }

    /// Fetches one function record by key alone — used when rebuilding
    /// a unit from its outcome record, whose key list is trusted the
    /// same way the fingerprint itself is.
    pub(crate) fn get_function_record(&self, key: u64) -> Option<FunctionPaths> {
        let bytes = self.store.get(KIND_FUNCTION, key).ok()??;
        codec::decode_function_paths(&bytes).ok()
    }

    /// Persists one function record plus its name-index entry.
    pub(crate) fn put_function(&mut self, key: u64, fp: &FunctionPaths, unit_name: &str) {
        let _ = self.store.put(KIND_FUNCTION, key, &codec::encode_function_paths(fp));
        let _ =
            self.store.put(KIND_FUNC_NAME, func_name_key(unit_name, &fp.name), &key.to_le_bytes());
    }

    /// Persists a unit outcome plus its name-index entry.
    pub(crate) fn put_unit(
        &mut self,
        key: u64,
        unit_name: &str,
        fingerprint: u64,
        function_keys: &[u64],
        warnings: &[Warning],
    ) {
        let _ = self.store.put(KIND_UNIT, key, &codec::encode_unit_record(function_keys, warnings));
        let _ = self.store.put(
            KIND_UNIT_NAME,
            unit_name_key(unit_name),
            &fingerprint.to_le_bytes(),
        );
    }

    /// The fingerprint last persisted under this unit name, if any —
    /// distinguishes *stale* from *never seen*.
    pub(crate) fn last_unit_fingerprint(&self, unit_name: &str) -> Option<u64> {
        let bytes = self.store.get(KIND_UNIT_NAME, unit_name_key(unit_name)).ok()??;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// The function content key last persisted under `(unit, function)`.
    pub(crate) fn last_function_key(&self, unit_name: &str, function: &str) -> Option<u64> {
        let bytes =
            self.store.get(KIND_FUNC_NAME, func_name_key(unit_name, function)).ok()??;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    pub(crate) fn flush(&self) -> io::Result<()> {
        self.store.flush()
    }

    pub(crate) fn units_resident(&self) -> u64 {
        *self.store.live_by_kind().get(&KIND_UNIT).unwrap_or(&0)
    }

    pub(crate) fn functions_resident(&self) -> u64 {
        *self.store.live_by_kind().get(&KIND_FUNCTION).unwrap_or(&0)
    }

    pub(crate) fn file_bytes(&self) -> u64 {
        self.store.file_bytes()
    }

    pub(crate) fn compactions(&self) -> u64 {
        self.store.compactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;

    const SRC: &str = "\
int helper(int x) { return x + 1; }
int lone(int x) { return x * 2; }
int caller(int x) { return helper(x); }
";

    fn keys_of(src: &str, config: &ExtractConfig) -> HashMap<String, u64> {
        let ast = parse(src).unwrap();
        function_content_keys(&ast, src, config).into_iter().collect()
    }

    #[test]
    fn identifier_scan_finds_names_not_numbers() {
        let ids: Vec<&str> = identifiers("int f(int a1) { return g(a1) + 0x1f - _x; }")
            .collect();
        assert!(ids.contains(&"f"));
        assert!(ids.contains(&"g"));
        assert!(ids.contains(&"a1"));
        assert!(ids.contains(&"_x"));
        assert!(!ids.iter().any(|s| s.contains("1f")), "{ids:?}");
    }

    #[test]
    fn keys_are_deterministic() {
        let config = ExtractConfig::default();
        assert_eq!(keys_of(SRC, &config), keys_of(SRC, &config));
    }

    #[test]
    fn editing_a_leaf_function_changes_only_its_own_key_and_its_callers() {
        let config = ExtractConfig::default(); // inline_depth = 1
        let base = keys_of(SRC, &config);
        let edited = SRC.replace("x + 1", "x + 2");
        let after = keys_of(&edited, &config);
        assert_ne!(base["helper"], after["helper"], "edited function recomputes");
        assert_ne!(base["caller"], after["caller"], "caller inlines helper's summary");
        assert_eq!(base["lone"], after["lone"], "unrelated function is reusable");
    }

    #[test]
    fn editing_an_uncalled_function_leaves_the_rest_alone() {
        let config = ExtractConfig::default();
        let base = keys_of(SRC, &config);
        let edited = SRC.replace("x * 2", "x * 3");
        let after = keys_of(&edited, &config);
        assert_ne!(base["lone"], after["lone"]);
        assert_eq!(base["helper"], after["helper"]);
        assert_eq!(base["caller"], after["caller"]);
    }

    #[test]
    fn moving_a_function_changes_its_key() {
        // Event line numbers are absolute, so a function shifted one
        // line down must re-extract even with identical text.
        let config = ExtractConfig::default();
        let base = keys_of(SRC, &config);
        let shifted = format!("\n{SRC}");
        let after = keys_of(&shifted, &config);
        assert_ne!(base["lone"], after["lone"]);
    }

    #[test]
    fn zero_inline_depth_ignores_callees() {
        let config = ExtractConfig { inline_depth: 0, ..ExtractConfig::default() };
        let base = keys_of(SRC, &config);
        let edited = SRC.replace("x + 1", "x + 2");
        let after = keys_of(&edited, &config);
        assert_eq!(base["caller"], after["caller"], "no inlining, no dependency");
        assert_ne!(base["helper"], after["helper"]);
    }

    #[test]
    fn config_participates_in_function_keys() {
        let deep = ExtractConfig { inline_depth: 2, ..ExtractConfig::default() };
        let base = keys_of(SRC, &ExtractConfig::default());
        let after = keys_of(SRC, &deep);
        assert_ne!(base["caller"], after["caller"]);
    }

    #[test]
    fn transitive_closure_follows_inline_depth() {
        let src = "\
int a(int x) { return x + 1; }
int b(int x) { return a(x); }
int c(int x) { return b(x); }
";
        let deep = ExtractConfig { inline_depth: 2, ..ExtractConfig::default() };
        let base = keys_of(src, &deep);
        let edited = src.replace("x + 1", "x + 9");
        let after = keys_of(&edited, &deep);
        assert_ne!(base["c"], after["c"], "a is two hops away and inlined at depth 2");
        let shallow = ExtractConfig { inline_depth: 1, ..ExtractConfig::default() };
        let base = keys_of(src, &shallow);
        let after = keys_of(&edited, &shallow);
        assert_eq!(base["c"], after["c"], "a is out of reach at depth 1");
    }
}
