//! Shared checker context and the `Checker` trait.

use crate::rule::Warning;
use pallas_lang::Ast;
use pallas_spec::FastPathSpec;
use pallas_sym::{Event, FunctionPaths, PathDb};

/// Everything a checker needs: the path database, the user's semantic
/// spec, and the AST (for struct layouts and globals).
#[derive(Debug, Clone, Copy)]
pub struct CheckContext<'a> {
    /// Extracted path database of the merged unit.
    pub db: &'a PathDb,
    /// User-supplied semantic specification.
    pub spec: &'a FastPathSpec,
    /// Parsed unit (struct definitions, globals, enums).
    pub ast: &'a Ast,
}

impl<'a> CheckContext<'a> {
    /// The fast-path functions named by the spec that exist in the
    /// database.
    pub fn fastpath_fns(&self) -> Vec<&'a FunctionPaths> {
        self.spec
            .fastpath
            .iter()
            .filter_map(|name| self.db.function(name))
            .collect()
    }

    /// The slow-path functions named by the spec that exist in the
    /// database.
    pub fn slowpath_fns(&self) -> Vec<&'a FunctionPaths> {
        self.spec
            .slowpath
            .iter()
            .filter_map(|name| self.db.function(name))
            .collect()
    }

    /// Builds a warning for the current unit.
    pub fn warn(
        &self,
        rule: crate::rule::Rule,
        function: &str,
        line: u32,
        message: impl Into<String>,
    ) -> Warning {
        Warning {
            rule,
            unit: self.db.unit.clone(),
            function: function.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// A Pallas checker: one of the five tool families.
pub trait Checker {
    /// Stable name used in reports (`"path-state"`, ...).
    fn name(&self) -> &'static str;

    /// Runs the checker, returning zero or more warnings.
    fn check(&self, cx: &CheckContext<'_>) -> Vec<Warning>;
}

/// Whether a written lvalue text constitutes a write to variable `var`
/// (directly, through a member/index of it, or through a deref).
pub fn lvalue_writes(lvalue: &str, var: &str) -> bool {
    if lvalue == var {
        return true;
    }
    if let Some(rest) = lvalue.strip_prefix(var) {
        return rest.starts_with("->") || rest.starts_with('.') || rest.starts_with('[');
    }
    if let Some(inner) = lvalue.strip_prefix('*') {
        return lvalue_writes(inner, var);
    }
    false
}

/// Loose mention: atom equality, or the name embedded in a longer atom
/// (e.g. cache name `icache` inside callee `icache_remove`) with
/// word boundaries. Underscores count as boundaries so structure names
/// match the helper functions operating on them.
pub fn event_mentions_loose(event: &Event, name: &str) -> bool {
    event.atoms().any(|a| atom_contains(a, name))
}

/// Whether `atom` contains `name` delimited by word boundaries
/// (non-alphanumeric characters, including `_`).
pub fn atom_contains(atom: &str, name: &str) -> bool {
    if atom == name {
        return true;
    }
    let bytes = atom.as_bytes();
    let mut start = 0;
    while let Some(pos) = atom[start..].find(name) {
        let i = start + pos;
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let after = i + name.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_sym::Sym;

    #[test]
    fn lvalue_write_matching() {
        assert!(lvalue_writes("gfp_mask", "gfp_mask"));
        assert!(lvalue_writes("page->private", "page"));
        assert!(lvalue_writes("map.len", "map"));
        assert!(lvalue_writes("cpus[0]", "cpus"));
        assert!(lvalue_writes("*mask", "mask"));
        assert!(!lvalue_writes("gfp_mask2", "gfp_mask"));
        assert!(!lvalue_writes("x", "gfp_mask"));
    }

    #[test]
    fn loose_atom_matching() {
        let call = Event::Call {
            line: 1,
            callee: "icache_remove".into(),
            arg_vars: vec!["inode".into()],
            assigned_to: None,
            in_condition: false,
            depth: 0,
        };
        assert!(event_mentions_loose(&call, "icache"));
        assert!(event_mentions_loose(&call, "inode"));
        assert!(!event_mentions_loose(&call, "cache"));
        assert!(!event_mentions_loose(&call, "icache_removes"));
    }

    #[test]
    fn strict_mention() {
        let st = Event::State {
            line: 1,
            lvalue: "page->private".into(),
            value: Sym::int(0),
            text: String::new(),
            reads: vec!["migratetype".into()],
            depth: 0,
        };
        assert!(st.mentions("page->private"));
        assert!(st.mentions("migratetype"));
        assert!(!st.mentions("page"));
    }
}
