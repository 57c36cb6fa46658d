//! The symbolic environment both evaluators share: lvalue keys bound to
//! [`Sym`] values, with undo marks.
//!
//! The extractor walks the path trie and the feasibility oracle walks
//! the enumeration DFS; both extend a prefix, then back out of it. Every
//! [`bind`](Env::bind) logs the binding it replaced, so
//! [`rollback`](Env::rollback) to a [`mark`](Env::mark) restores the
//! environment exactly as it was, in time proportional to the bindings
//! made since.
//!
//! An unbound key reads as the symbolic input of its own spelling. The
//! first read of such a key stores that input in the map, outside the
//! undo log, so later reads of the key hit the map instead of the
//! symbol arena. Rolling back a binding of the key restores the stored
//! input, which is exactly the value an unbound read gives.

use crate::intern::Istr;
use crate::sym::Sym;
use std::collections::HashMap;

/// Bindings from lvalue keys to symbolic values, with an undo log.
#[derive(Debug, Default)]
pub(crate) struct Env {
    map: HashMap<Istr, Sym>,
    /// Each binding's key and the value it replaced, oldest first.
    undo: Vec<(Istr, Option<Sym>)>,
}

impl Env {
    /// The value bound to `key`, or the symbolic input `key` if the
    /// key is unbound.
    pub(crate) fn get(&mut self, key: Istr) -> Sym {
        *self.map.entry(key).or_insert_with(|| Sym::input(key))
    }

    /// Binds `key` to `value`, logging the replaced binding.
    pub(crate) fn bind(&mut self, key: Istr, value: Sym) {
        let prev = self.map.insert(key, value);
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
            match prev {
                Some(value) => self.map.insert(key, value),
                None => self.map.remove(&key),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_restores_rebound_and_fresh_keys() {
        let (x, y) = (Istr::new("x"), Istr::new("y"));
        let mut env = Env::default();
        env.bind(x, Sym::int(1));
        let mark = env.mark();
        env.bind(x, Sym::int(2));
        env.bind(y, Sym::int(3));
        env.bind(x, Sym::int(4));
        assert_eq!(env.get(x), Sym::int(4));
        env.rollback(mark);
        assert_eq!(env.get(x), Sym::int(1));
        assert_eq!(env.get(y), Sym::input("y"));
        assert_eq!(env.mark(), mark);
    }

    #[test]
    fn unbound_reads_survive_rollback_as_inputs() {
        let z = Istr::new("z");
        let mut env = Env::default();
        let mark = env.mark();
        assert_eq!(env.get(z), Sym::input("z"));
        env.bind(z, Sym::unknown());
        env.rollback(mark);
        assert_eq!(env.get(z), Sym::input("z"));
    }
}
