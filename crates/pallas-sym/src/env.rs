//! The symbolic environment both evaluators share: one slot per lvalue
//! key of the unit ([`KeyId`]), holding its bound [`Sym`] value, with
//! undo marks.
//!
//! The extractor walks the path trie and the feasibility oracle walks
//! the enumeration DFS; both extend a prefix, then back out of it. Every
//! [`bind`](Env::bind) logs the value its slot held before, so
//! [`rollback`](Env::rollback) to a [`mark`](Env::mark) restores the
//! environment exactly as it was, in time proportional to the bindings
//! made since.
//!
//! An unbound slot reads as the symbolic input of its key's spelling,
//! which the unit's key table memoizes per key, so reading a variable
//! the path has not assigned costs an index and no arena lookup.
//! Rolling back a slot's first binding leaves it unbound again, which
//! reads as that same input.

use crate::keys::{KeyId, Keys};
use crate::sym::Sym;

/// Bindings from lvalue keys to symbolic values, with an undo log.
#[derive(Debug, Default)]
pub(crate) struct Env {
    /// Each key's bound value, by id; `None` (or past the end) while
    /// unbound.
    slots: Vec<Option<Sym>>,
    /// Each binding's key and the value its slot held before, oldest
    /// first.
    undo: Vec<(KeyId, Option<Sym>)>,
}

impl Env {
    /// The value bound to `key`, or its symbolic input if the key is
    /// unbound.
    pub(crate) fn get(&self, key: KeyId, keys: &mut Keys) -> Sym {
        match self.slots.get(key.index()) {
            Some(&Some(value)) => value,
            _ => keys.input(key),
        }
    }

    /// Binds `key` to `value`, logging the replaced binding.
    pub(crate) fn bind(&mut self, key: KeyId, value: Sym) {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let prev = self.slots[i].replace(value);
        self.undo.push((key, prev));
    }

    /// An undo mark; [`rollback`](Env::rollback) to it to discard
    /// every binding made since.
    pub(crate) fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Restores the bindings the environment had at `mark`.
    pub(crate) fn rollback(&mut self, mark: usize) {
        for (key, prev) in self.undo.drain(mark..).rev() {
            self.slots[key.index()] = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Istr;

    #[test]
    fn rollback_restores_rebound_and_fresh_keys() {
        let mut keys = Keys::default();
        let (x, y) = (keys.id(Istr::new("x")), keys.id(Istr::new("y")));
        let mut env = Env::default();
        env.bind(x, Sym::int(1));
        let mark = env.mark();
        env.bind(x, Sym::int(2));
        env.bind(y, Sym::int(3));
        env.bind(x, Sym::int(4));
        assert_eq!(env.get(x, &mut keys), Sym::int(4));
        env.rollback(mark);
        assert_eq!(env.get(x, &mut keys), Sym::int(1));
        assert_eq!(env.get(y, &mut keys), Sym::input("y"));
        assert_eq!(env.mark(), mark);
    }

    #[test]
    fn unbound_reads_survive_rollback_as_inputs() {
        let mut keys = Keys::default();
        let z = keys.id(Istr::new("z"));
        let mut env = Env::default();
        let mark = env.mark();
        assert_eq!(env.get(z, &mut keys), Sym::input("z"));
        env.bind(z, Sym::unknown());
        env.rollback(mark);
        assert_eq!(env.get(z, &mut keys), Sym::input("z"));
    }

    #[test]
    fn a_key_first_bound_in_a_rolled_back_mark_reads_as_its_input() {
        // `w` is never read before its first binding, and that binding
        // grows the slot vector; rolling it back must leave an unbound
        // slot, not a stale value.
        let mut keys = Keys::default();
        let v = keys.id(Istr::new("v"));
        let w = keys.id(Istr::new("w"));
        let mut env = Env::default();
        env.bind(v, Sym::int(7));
        let mark = env.mark();
        env.bind(w, Sym::int(8));
        env.bind(w, Sym::int(9));
        assert_eq!(env.get(w, &mut keys), Sym::int(9));
        env.rollback(mark);
        assert_eq!(env.get(w, &mut keys), Sym::input("w"));
        assert_eq!(env.get(v, &mut keys), Sym::int(7));
    }
}
