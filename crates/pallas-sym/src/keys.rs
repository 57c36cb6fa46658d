//! Dense ids for the lvalue keys of one unit, and the per-node memos
//! both evaluators reach them through.
//!
//! An lvalue key is the canonical spelling of an identifier, member,
//! index or dereference chain (`x`, `p->len`, `*buf`). Both evaluators
//! bind and read keys on every statement, so each distinct key gets a
//! dense [`KeyId`] the first time it is met, and the environment
//! ([`crate::env`]) keeps one slot per id instead of a hash map. The
//! memos here are pure functions of the AST, indexed by
//! [`ExprId`]/[`StmtId`], filled on first use and never invalidated:
//! one table serves every function of a unit, the extractor's inlined
//! callees and the feasibility oracle's walks alike, so the oracle and
//! the extractor key every lvalue through the same code.

use crate::intern::Istr;
use crate::sym::Sym;
use pallas_lang::ast::{Ast, ExprId, ExprKind, StmtId, UnOp};
use pallas_lang::expr_to_string;
use std::collections::HashMap;

/// The dense id of an lvalue key within one [`Keys`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct KeyId(u32);

impl KeyId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The key table of one unit; see the module docs.
///
/// Every per-node memo is a vector of integers in which 0 means "not
/// yet computed", so a table starts as zeroed memory and a walk over a
/// few functions of a large unit touches only their part of it.
#[derive(Debug, Default)]
pub(crate) struct Keys {
    /// Each key's interned spelling, by id.
    names: Vec<Istr>,
    ids: HashMap<Istr, KeyId>,
    /// Each key's symbolic input `S#name`, built on the first unbound
    /// read.
    inputs: Vec<Option<Sym>>,
    /// Per expression: 1 not an lvalue, `k + 2` lvalue key `k`.
    lvalues: Vec<u32>,
    /// Per declaration statement: `k + 1`, the key `k` it binds.
    decls: Vec<u32>,
    /// Per callee expression: `k + 1`, the id `k` of the callee's
    /// spelling.
    callees: Vec<u32>,
    /// Per constant leaf (string literal, `sizeof(T)`): `i + 1`, its
    /// value's index in `leaf_values`.
    leaves: Vec<u32>,
    leaf_values: Vec<Sym>,
    /// Per expression: `(start + 1) << 32 | len`, the range of
    /// `read_keys` holding the keys it syntactically reads, first
    /// occurrence first.
    reads: Vec<u64>,
    read_keys: Vec<KeyId>,
}

impl Keys {
    /// An empty table for the nodes of `ast`.
    pub(crate) fn new(ast: &Ast) -> Self {
        let (exprs, stmts) = (ast.expr_count(), ast.stmt_count());
        Keys {
            lvalues: vec![0; exprs],
            decls: vec![0; stmts],
            callees: vec![0; exprs],
            leaves: vec![0; exprs],
            reads: vec![0; exprs],
            ..Keys::default()
        }
    }

    /// The id of the key spelled `name`, assigned on first use.
    pub(crate) fn id(&mut self, name: Istr) -> KeyId {
        if let Some(&id) = self.ids.get(&name) {
            return id;
        }
        let id = KeyId(self.names.len() as u32);
        self.names.push(name);
        self.inputs.push(None);
        self.ids.insert(name, id);
        id
    }

    /// The key's spelling.
    pub(crate) fn name(&self, key: KeyId) -> Istr {
        self.names[key.index()]
    }

    /// `S#name`: what an unbound key reads as. Memoized per key.
    pub(crate) fn input(&mut self, key: KeyId) -> Sym {
        let names = &self.names;
        *self.inputs[key.index()].get_or_insert_with(|| Sym::input(names[key.index()]))
    }

    /// The lvalue key of `e`, `None` for non-lvalue expressions.
    pub(crate) fn lvalue(&mut self, ast: &Ast, e: ExprId) -> Option<KeyId> {
        match self.lvalues[e.0 as usize] {
            0 => {}
            1 => return None,
            k => return Some(KeyId(k - 2)),
        }
        let key = match &ast.expr(e).kind {
            ExprKind::Ident(_) | ExprKind::Member { .. } | ExprKind::Index(..) => {
                Some(self.id(Istr::new(&expr_to_string(ast, e))))
            }
            ExprKind::Unary(UnOp::Deref, inner) => self.lvalue(ast, *inner).map(|k| {
                let name = Istr::new(&format!("*{}", self.name(k)));
                self.id(name)
            }),
            _ => None,
        };
        self.lvalues[e.0 as usize] = key.map_or(1, |k| k.0 + 2);
        key
    }

    /// The key declaration `id` binds, spelled `name`.
    pub(crate) fn decl(&mut self, id: StmtId, name: &str) -> KeyId {
        match self.decls[id.0 as usize] {
            0 => {
                let key = self.id(Istr::new(name));
                self.decls[id.0 as usize] = key.0 + 1;
                key
            }
            k => KeyId(k - 1),
        }
    }

    /// The interned name of the callee expression `callee`.
    pub(crate) fn callee(&mut self, ast: &Ast, callee: ExprId) -> Istr {
        let key = match self.callees[callee.0 as usize] {
            0 => {
                let key = self.id(Istr::new(&expr_to_string(ast, callee)));
                self.callees[callee.0 as usize] = key.0 + 1;
                key
            }
            k => KeyId(k - 1),
        };
        self.name(key)
    }

    /// The value of the constant leaf `e`; `build` runs once per leaf.
    pub(crate) fn leaf(&mut self, e: ExprId, build: impl FnOnce() -> Sym) -> Sym {
        match self.leaves[e.0 as usize] {
            0 => {
                let value = build();
                self.leaf_values.push(value);
                self.leaves[e.0 as usize] = self.leaf_values.len() as u32;
                value
            }
            i => self.leaf_values[i as usize - 1],
        }
    }

    /// The keys `e` syntactically reads.
    pub(crate) fn reads(&mut self, ast: &Ast, e: ExprId) -> &[KeyId] {
        if self.reads[e.0 as usize] == 0 {
            let mut nodes = Vec::new();
            ast.walk_expr(e, &mut |id| nodes.push(id));
            let start = self.read_keys.len();
            for id in nodes {
                if let Some(k) = self.lvalue(ast, id) {
                    if !self.read_keys[start..].contains(&k) {
                        self.read_keys.push(k);
                    }
                }
            }
            let len = self.read_keys.len() - start;
            self.reads[e.0 as usize] = (start as u64 + 1) << 32 | len as u64;
        }
        let range = self.reads[e.0 as usize];
        let start = (range >> 32) as usize - 1;
        &self.read_keys[start..start + (range as u32) as usize]
    }
}
