//! Path-feasibility checking: a lightweight abstract domain over the
//! [`Sym`] conditions collected along a path.
//!
//! The paper's §5.3 accuracy discussion attributes most false
//! positives to warnings reported on paths whose branch conditions can
//! never hold together (`x == 0` taken on one branch, `x != 0` taken
//! later with `x` untouched). This module decides, as conditions
//! accumulate, whether the set is *provably unsatisfiable* — and only
//! then. The verdict is deliberately one-sided:
//!
//! * [`Feasibility::Contradiction`] is a proof: under the extractor's
//!   symbolic semantics no assignment of the path's inputs satisfies
//!   every accumulated condition. Sources of proof are exactly the
//!   ones a three-fact domain can discharge — a condition that folds
//!   to a constant and disagrees with the taken arm, `x == k` against
//!   `x != k` or `x == k2`, and disjoint interval bounds on the same
//!   stable value.
//! * [`Feasibility::Feasible`] means "no contradiction found", not
//!   "satisfiable" — anything the domain does not understand
//!   (call results compared twice under different temporaries,
//!   bitwise conditions, relations between two inputs) is simply
//!   ignored.
//!
//! Facts are keyed by *stable values*: `Input` (the entry value
//! of a variable, fixed for the whole path) and `Temp` (a call
//! result bound once at its assignment point). Everything else is
//! unkeyed and contributes no facts. Soundness is therefore relative
//! to the extractor's memory model — distinct lvalue keys are assumed
//! not to alias, exactly as [`extract`](crate::extract()) itself
//! assumes when it builds the symbolic environment the checkers see.
//!
//! With hash-consed values, key resolution is O(1): an `Input`'s
//! interned name *is* the fact key, and temporaries hit a small memo
//! of interned `V#n` spellings.
//!
//! [`FeasibilityOracle`] packages the domain as a
//! [`pallas_cfg::PathOracle`]: it re-interprets block statements with
//! a side-effect-free mirror of the extraction evaluator so each
//! branch condition is seen exactly as the extractor would render it,
//! and vetoes decision arms whose added constraint is contradictory —
//! pruning the whole doomed subtree before the `max_steps` /
//! `max_paths` budgets are spent on it.

use crate::env::Env;
use crate::intern::Istr;
use crate::keys::{KeyId, Keys};
use crate::sym::{Sym, SymNode};
use crate::tables::FunctionTables;
use pallas_cfg::{BlockId, Cfg, CounterDir, Decision, PathOracle, Terminator};
use pallas_lang::ast::{AssignOp, Ast, BinOp, ExprId, ExprKind, StmtId, StmtKind, UnOp};
use std::collections::HashMap;

/// Verdict over a set of path conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// No contradiction was found (the set may still be unsatisfiable
    /// in ways the domain cannot see).
    Feasible,
    /// The condition set is provably unsatisfiable.
    Contradiction,
}

impl Feasibility {
    /// True for [`Feasibility::Contradiction`].
    pub fn is_contradiction(self) -> bool {
        matches!(self, Feasibility::Contradiction)
    }
}

/// Per-value facts: an optional exact value, a disequality set, and an
/// inclusive interval.
#[derive(Debug, Clone, Default, PartialEq)]
struct Facts {
    eq: Option<i64>,
    ne: Vec<i64>,
    lo: Option<i64>,
    hi: Option<i64>,
}

impl Facts {
    fn assert_eq(&mut self, k: i64) -> Feasibility {
        if self.eq.is_some_and(|e| e != k)
            || self.ne.contains(&k)
            || self.lo.is_some_and(|lo| lo > k)
            || self.hi.is_some_and(|hi| hi < k)
        {
            return Feasibility::Contradiction;
        }
        self.eq = Some(k);
        Feasibility::Feasible
    }

    fn assert_ne(&mut self, k: i64) -> Feasibility {
        if self.eq == Some(k) {
            return Feasibility::Contradiction;
        }
        if !self.ne.contains(&k) {
            self.ne.push(k);
        }
        // A new disequality can exhaust a narrow interval (`lo == hi`
        // is just the width-one case), so re-check the bounds.
        self.bounds_consistent()
    }

    /// `value >= k`.
    fn assert_ge(&mut self, k: i64) -> Feasibility {
        if let Some(e) = self.eq {
            return if e >= k { Feasibility::Feasible } else { Feasibility::Contradiction };
        }
        self.lo = Some(self.lo.map_or(k, |lo| lo.max(k)));
        self.bounds_consistent()
    }

    /// `value <= k`.
    fn assert_le(&mut self, k: i64) -> Feasibility {
        if let Some(e) = self.eq {
            return if e <= k { Feasibility::Feasible } else { Feasibility::Contradiction };
        }
        self.hi = Some(self.hi.map_or(k, |hi| hi.min(k)));
        self.bounds_consistent()
    }

    /// `value > k` / `value < k`, saturating at the i64 rim (where the
    /// strict comparison is unsatisfiable outright).
    fn assert_gt(&mut self, k: i64) -> Feasibility {
        match k.checked_add(1) {
            Some(k1) => self.assert_ge(k1),
            None => Feasibility::Contradiction,
        }
    }

    fn assert_lt(&mut self, k: i64) -> Feasibility {
        match k.checked_sub(1) {
            Some(k1) => self.assert_le(k1),
            None => Feasibility::Contradiction,
        }
    }

    fn bounds_consistent(&self) -> Feasibility {
        if let (Some(lo), Some(hi)) = (self.lo, self.hi) {
            if lo > hi {
                return Feasibility::Contradiction;
            }
            // The disequality set can exhaust the whole interval even
            // when `lo < hi` (e.g. bounds [5, 6] with 5 and 6 both
            // excluded). Only a window no wider than the set could be
            // exhausted, so the scan is bounded by `ne.len()`.
            let width = (hi as i128) - (lo as i128) + 1;
            if width <= self.ne.len() as i128 && (lo..=hi).all(|v| self.ne.contains(&v)) {
                return Feasibility::Contradiction;
            }
        }
        Feasibility::Feasible
    }
}

/// Bitmask of the orderings a key pair `(a, b)` may still stand in:
/// `a < b`, `a == b`, `a > b`. Relational facts intersect masks; an
/// empty intersection is a contradiction.
mod ord_mask {
    pub const LT: u8 = 1;
    pub const EQ: u8 = 2;
    pub const GT: u8 = 4;
    pub const ANY: u8 = LT | EQ | GT;

    /// The mask for `a OP b`.
    pub fn of(op: pallas_lang::ast::BinOp) -> Option<u8> {
        use pallas_lang::ast::BinOp;
        Some(match op {
            BinOp::Lt => LT,
            BinOp::Le => LT | EQ,
            BinOp::Gt => GT,
            BinOp::Ge => GT | EQ,
            BinOp::Eq => EQ,
            BinOp::Ne => LT | GT,
            _ => return None,
        })
    }

    /// The mask of `(b, a)` given the mask of `(a, b)`.
    pub fn mirror(mask: u8) -> u8 {
        (mask & EQ) | if mask & LT != 0 { GT } else { 0 } | if mask & GT != 0 { LT } else { 0 }
    }
}

/// One undo-stack entry: the previous state of whichever fact a
/// speculative assert touched.
#[derive(Debug)]
enum Undo {
    Fact(Istr, Option<Facts>),
    Rel((Istr, Istr), Option<u8>),
}

/// A set of accumulated path constraints with undo support, so a DFS
/// can speculatively add a decision's constraints and roll them back
/// when backtracking (or immediately, on a contradiction).
///
/// Facts come in two shapes: per-key facts (interval, equality,
/// disequalities against constants) and pairwise *relational* facts —
/// an ordering mask between two stable keys, harvested from observed
/// `x OP y` comparisons. The relational layer is deliberately
/// non-transitive and does not exchange information with the interval
/// layer; it exists to catch direct reversals (`x < y` then `y < x`)
/// and to let loop-exit direction facts constrain havocked counters.
#[derive(Debug, Default)]
pub struct ConstraintSet {
    facts: HashMap<Istr, Facts>,
    /// Ordering masks per canonical (smaller, larger) key pair.
    rel: HashMap<(Istr, Istr), u8>,
    undo: Vec<Undo>,
}

impl ConstraintSet {
    /// An empty, everything-is-feasible set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// An undo mark; [`rollback`](ConstraintSet::rollback) to it to
    /// discard every constraint added since.
    pub fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Restores the set to the state it had at `mark`.
    pub fn rollback(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop().expect("undo entry above mark") {
                Undo::Fact(key, Some(facts)) => {
                    self.facts.insert(key, facts);
                }
                Undo::Fact(key, None) => {
                    self.facts.remove(&key);
                }
                Undo::Rel(pair, Some(mask)) => {
                    self.rel.insert(pair, mask);
                }
                Undo::Rel(pair, None) => {
                    self.rel.remove(&pair);
                }
            }
        }
    }

    fn with_facts(
        &mut self,
        key: Istr,
        f: impl FnOnce(&mut Facts) -> Feasibility,
    ) -> Feasibility {
        self.undo.push(Undo::Fact(key, self.facts.get(&key).cloned()));
        f(self.facts.entry(key).or_default())
    }

    /// Intersects the ordering mask of `(ka, kb)` with `mask`.
    fn assume_rel(&mut self, ka: Istr, kb: Istr, mask: u8) -> Feasibility {
        if ka == kb {
            // A value always orders EQ against itself.
            return if mask & ord_mask::EQ != 0 {
                Feasibility::Feasible
            } else {
                Feasibility::Contradiction
            };
        }
        let (pair, mask) = if ka < kb {
            ((ka, kb), mask)
        } else {
            ((kb, ka), ord_mask::mirror(mask))
        };
        let prev = self.rel.get(&pair).copied();
        self.undo.push(Undo::Rel(pair, prev));
        let narrowed = prev.unwrap_or(ord_mask::ANY) & mask;
        self.rel.insert(pair, narrowed);
        if narrowed == 0 {
            Feasibility::Contradiction
        } else {
            Feasibility::Feasible
        }
    }

    /// Asserts that `cond` evaluated to a value whose truth equals
    /// `taken`, returning [`Feasibility::Contradiction`] iff the set
    /// thereby becomes provably unsatisfiable.
    ///
    /// On a contradiction the set may hold a partial update; callers
    /// are expected to [`rollback`](ConstraintSet::rollback) to a
    /// [`mark`](ConstraintSet::mark) taken before the call.
    pub fn assume(&mut self, cond: Sym, taken: bool) -> Feasibility {
        match cond.node() {
            // A constant condition is decided outright.
            SymNode::Int(v) => {
                if (*v != 0) == taken {
                    Feasibility::Feasible
                } else {
                    Feasibility::Contradiction
                }
            }
            // String literals are non-null, hence truthy.
            SymNode::Str(_) => {
                if taken {
                    Feasibility::Feasible
                } else {
                    Feasibility::Contradiction
                }
            }
            SymNode::Unary(UnOp::Not, a) => self.assume(*a, !taken),
            SymNode::Binary(op, a, b) => match (op, taken) {
                // `a && b` taken means both hold; `a || b` not taken
                // means neither holds. The disjunctive duals admit no
                // single fact and are skipped.
                (BinOp::And, true) => {
                    if self.assume(*a, true).is_contradiction() {
                        return Feasibility::Contradiction;
                    }
                    self.assume(*b, true)
                }
                (BinOp::Or, false) => {
                    if self.assume(*a, false).is_contradiction() {
                        return Feasibility::Contradiction;
                    }
                    self.assume(*b, false)
                }
                (BinOp::And, false) | (BinOp::Or, true) => Feasibility::Feasible,
                _ => self.assume_cmp(*op, *a, *b, taken),
            },
            // A bare stable value used as a truth value.
            _ => match key_of(cond) {
                Some(key) => self.with_facts(key, |f| {
                    if taken {
                        f.assert_ne(0)
                    } else {
                        f.assert_eq(0)
                    }
                }),
                None => Feasibility::Feasible,
            },
        }
    }

    /// Handles a (possibly negated) comparison between a stable value
    /// and an integer constant, or between two stable values;
    /// everything else contributes no facts.
    fn assume_cmp(&mut self, op: BinOp, a: Sym, b: Sym, taken: bool) -> Feasibility {
        // Two stable keys: a relational fact.
        if let (Some(ka), Some(kb)) = (key_of(a), key_of(b)) {
            // Fold the taken-arm negation into the operator.
            let op = if taken {
                op
            } else {
                match negate(op) {
                    Some(n) => n,
                    None => return Feasibility::Feasible,
                }
            };
            return match ord_mask::of(op) {
                Some(mask) => self.assume_rel(ka, kb, mask),
                None => Feasibility::Feasible,
            };
        }
        // Otherwise orient as `key OP constant`.
        let (key, op, k) = match (key_of(a), a.as_int(), key_of(b), b.as_int()) {
            (Some(key), _, _, Some(k)) => (key, op, k),
            (_, Some(k), Some(key), _) => match flip(op) {
                Some(flipped) => (key, flipped, k),
                None => return Feasibility::Feasible,
            },
            _ => return Feasibility::Feasible,
        };
        // Fold the taken-arm negation into the operator.
        let op = if taken {
            op
        } else {
            match negate(op) {
                Some(n) => n,
                None => return Feasibility::Feasible,
            }
        };
        self.with_facts(key, |f| match op {
            BinOp::Eq => f.assert_eq(k),
            BinOp::Ne => f.assert_ne(k),
            BinOp::Lt => f.assert_lt(k),
            BinOp::Le => f.assert_le(k),
            BinOp::Gt => f.assert_gt(k),
            BinOp::Ge => f.assert_ge(k),
            _ => Feasibility::Feasible,
        })
    }
}

/// Interned `V#n` spellings, so key resolution neither allocates nor
/// reaches the interner on the hot path: a shared table for small
/// temporaries, and a per-thread memo, filled on first use, for the
/// rest.
fn temp_key(n: u32) -> Istr {
    use std::cell::RefCell;
    use std::sync::OnceLock;
    static SMALL: OnceLock<Vec<Istr>> = OnceLock::new();
    thread_local! {
        static LARGE: RefCell<HashMap<u32, Istr>> = RefCell::new(HashMap::new());
    }
    let table = SMALL.get_or_init(|| (0..64).map(|i| Istr::new(&format!("V#{i}"))).collect());
    if let Some(&k) = table.get(n as usize) {
        return k;
    }
    LARGE.with(|large| {
        *large.borrow_mut().entry(n).or_insert_with(|| Istr::new(&format!("V#{n}")))
    })
}

/// The constraint key of a stable symbolic value, if it has one.
/// `Input` names cannot contain `#`, so the `V#` temporary namespace
/// never collides with them.
fn key_of(sym: Sym) -> Option<Istr> {
    match sym.node() {
        SymNode::Input(name) => Some(*name),
        SymNode::Temp(n) => Some(temp_key(*n)),
        _ => None,
    }
}

/// Mirror-image of a comparison (`k OP x` → `x OP' k`).
fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Ne => BinOp::Ne,
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// Logical negation of a comparison.
fn negate(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Gt => BinOp::Le,
        BinOp::Le => BinOp::Gt,
        _ => return None,
    })
}

/// Convenience entry point: the verdict over a complete condition set
/// (each entry a condition value plus the arm that was taken).
pub fn path_feasibility(conds: &[(Sym, bool)]) -> Feasibility {
    let mut set = ConstraintSet::new();
    for &(cond, taken) in conds {
        if set.assume(cond, taken).is_contradiction() {
            return Feasibility::Contradiction;
        }
    }
    Feasibility::Feasible
}

/// One speculation frame of the oracle: undo marks of the environment
/// and the constraint set, so backtracking restores both exactly.
#[derive(Debug)]
struct Frame {
    env: usize,
    cons: usize,
}

/// A [`PathOracle`] that vetoes provably infeasible decision arms.
///
/// The oracle mirrors the extraction evaluator's environment handling
/// (same lvalue keys, same constant folding, same call-temporary
/// convention) minus event recording, so each condition is judged on
/// the same symbolic value the extractor would later attach to the
/// path. State is fully speculative: every block entry and accepted
/// decision opens a frame that is unwound when the DFS backtracks.
///
/// Decisions inside natural loops use the loop's effect summary
/// ([`pallas_cfg::summarize_loops`]): a condition that syntactically
/// reads any lvalue the surrounding loop may write is *transparent* —
/// evaluated for its environment effects but never constrained or
/// vetoed.
/// Bounded unrolling deliberately emits concretely infeasible
/// loop-exit paths (`for (i = 0; i < 2; i++)` exits at the visit cap
/// with `i < 2` still folding true) as stand-ins for the deeper
/// iterations the cap cuts off; pruning those would leave a loop with
/// no paths at all. A condition reading only loop-*invariant* keys,
/// by contrast, has the same value on every iteration, so it asserts
/// and vetoes normally even inside the body. When a walked prefix
/// leaves a loop, every may-written key is havocked to a fresh
/// temporary (the missing iterations could have rebound it), with
/// monotone counters seeding a direction fact relating the havocked
/// value to the value the walked prefix reached.
///
/// Blanket transparency still applies to any block revisited on the
/// current prefix, covering irreducible cycles natural-loop detection
/// misses — and to every in-loop decision when summaries are disabled
/// ([`without_loop_summaries`](FeasibilityOracle::without_loop_summaries)).
pub struct FeasibilityOracle<'a> {
    eval: OracleEval<'a>,
    /// The function's step expressions, loop-write sets and loop-exit
    /// havoc lists.
    tables: Tables<'a>,
    frames: Vec<Frame>,
    cons: ConstraintSet,
    /// Summary-aware asserting and loop-exit havoc; `false` restores
    /// the pre-summary blanket transparency.
    use_summaries: bool,
    /// Occurrences of each block on the current prefix.
    visits: Vec<u32>,
    /// The block prefix itself, for loop-exit detection.
    stack: Vec<BlockId>,
}

/// The oracle's per-function tables: the extractor's, or its own,
/// rebuilt whenever a walk starts (an oracle from
/// [`FeasibilityOracle::new`] may walk several functions in turn).
enum Tables<'a> {
    Shared(&'a FunctionTables),
    Owned(Option<FunctionTables>),
}

impl Tables<'_> {
    fn get(&self) -> &FunctionTables {
        match self {
            Tables::Shared(tables) => tables,
            Tables::Owned(tables) => tables.as_ref().expect("built when the walk started"),
        }
    }
}

/// The oracle's key table: the extractor's unit-scoped one, or its own.
enum KeyTable<'a> {
    Shared(&'a mut Keys),
    Owned(Box<Keys>),
}

impl std::ops::Deref for KeyTable<'_> {
    type Target = Keys;
    fn deref(&self) -> &Keys {
        match self {
            KeyTable::Shared(keys) => keys,
            KeyTable::Owned(keys) => keys,
        }
    }
}

impl std::ops::DerefMut for KeyTable<'_> {
    fn deref_mut(&mut self) -> &mut Keys {
        match self {
            KeyTable::Shared(keys) => keys,
            KeyTable::Owned(keys) => keys,
        }
    }
}

/// The oracle's evaluator: the extraction evaluator minus event
/// recording (see [`crate::extract`]), over the same key table.
struct OracleEval<'a> {
    ast: &'a Ast,
    keys: KeyTable<'a>,
    env: Env,
    temp: u32,
}

impl<'a> FeasibilityOracle<'a> {
    /// An oracle for paths of functions in `ast`, with loop-summary
    /// reasoning enabled. It may enumerate any number of the unit's
    /// functions, one walk after another.
    pub fn new(ast: &'a Ast) -> Self {
        FeasibilityOracle::build(ast, KeyTable::Owned(Box::new(Keys::new(ast))), Tables::Owned(None))
    }

    /// An oracle over the function whose tables the extractor already
    /// built (with loops), keying lvalues through the extractor's key
    /// table, so neither side summarizes loops or keys a name twice.
    pub(crate) fn with_tables(ast: &'a Ast, tables: &'a FunctionTables, keys: &'a mut Keys) -> Self {
        FeasibilityOracle::build(ast, KeyTable::Shared(keys), Tables::Shared(tables))
    }

    fn build(ast: &'a Ast, keys: KeyTable<'a>, tables: Tables<'a>) -> Self {
        FeasibilityOracle {
            eval: OracleEval { ast, keys, env: Env::default(), temp: 0 },
            tables,
            frames: Vec::new(),
            cons: ConstraintSet::new(),
            use_summaries: true,
            visits: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Disables loop-summary reasoning: every decision inside any
    /// natural-loop body is transparent and loop exits do not havoc.
    pub fn without_loop_summaries(mut self) -> Self {
        self.use_summaries = false;
        self
    }

    /// Readies the oracle for a walk of `cfg`: an oracle that owns its
    /// tables builds them for this CFG. Every frame of the previous
    /// walk has been unwound, so the environment and the constraint
    /// set are already empty.
    fn start_walk(&mut self, cfg: &Cfg) {
        if let Tables::Owned(tables) = &mut self.tables {
            *tables = Some(FunctionTables::new(self.eval.ast, cfg, true, &mut self.eval.keys));
        }
        self.visits.clear();
        self.visits.resize(cfg.block_count(), 0);
        self.eval.temp = 0;
    }

    /// Whether a decision in `bb` over condition expression `cond`
    /// must not constrain or veto. Revisited blocks are always
    /// transparent (the irreducible-cycle fallback). In-loop
    /// decisions are transparent when summaries are off, or when the
    /// condition reads a key some surrounding loop may write — those
    /// conditions govern the unrolling approximation. In-loop
    /// conditions over invariant keys only, and all out-of-loop
    /// decisions, assert normally.
    fn transparent(&mut self, bb: BlockId, cond: ExprId) -> bool {
        if self.visits[bb.0 as usize] > 1 {
            return true;
        }
        let Some(writes) = self.tables.get().loop_writes(bb) else {
            return false;
        };
        if !self.use_summaries {
            return true;
        }
        let reads = self.eval.keys.reads(self.eval.ast, cond);
        reads.iter().any(|k| writes.binary_search(k).is_ok())
    }

    fn push_frame(&mut self) {
        self.frames.push(Frame { env: self.eval.env.mark(), cons: self.cons.mark() });
    }

    fn pop_frame(&mut self) {
        let frame = self.frames.pop().expect("balanced frame stack");
        self.eval.env.rollback(frame.env);
        self.cons.rollback(frame.cons);
    }

    /// Havocs every key the loops left between `prev` and `bb` may
    /// have written: the walked prefix ran the body a bounded number
    /// of times, so post-loop state must not depend on those exact
    /// bindings. Each key gets a fresh temporary; monotone counters
    /// additionally seed a direction fact.
    fn havoc_loop_exits(&mut self, prev: BlockId, bb: BlockId) {
        let Some(exit) = self.tables.get().exit(prev, bb) else { return };
        let eval = &mut self.eval;
        for &(key, dir) in &exit.havoc {
            let pre = eval.env.get(key, &mut eval.keys);
            eval.temp += 1;
            let post = Sym::temp(eval.temp);
            eval.env.bind(key, post);
            if let Some(dir) = dir {
                seed_direction_fact(&mut self.cons, pre, post, dir);
            }
        }
    }

    /// Asserts one decision's constraint; `false` means contradiction.
    fn decide(&mut self, cfg: &Cfg, d: &Decision) -> bool {
        // Transparent decisions still evaluate their condition (the
        // extractor does, and side effects like `if (x++)` must carry
        // into the subtree) but assert nothing and never veto.
        match d {
            Decision::Branch { cond, taken, .. } => {
                let transparent = self.transparent(d.block(), *cond);
                let sym = self.eval.eval(*cond);
                if transparent {
                    return true;
                }
                !self.cons.assume(sym, *taken).is_contradiction()
            }
            Decision::Switch { scrutinee, case, block } => {
                let transparent = self.transparent(d.block(), *scrutinee);
                let s = self.eval.eval(*scrutinee);
                if transparent {
                    return true;
                }
                match case {
                    // A matched arm pins the scrutinee to the case value.
                    Some(c) => {
                        let k = self.eval.eval(*c);
                        let eq = Sym::binary(BinOp::Eq, s, k);
                        !self.cons.assume(eq, true).is_contradiction()
                    }
                    // The default arm excludes every constant case value.
                    None => {
                        if let Terminator::Switch { cases, .. } = &cfg.block(*block).term {
                            for &(value, _) in cases {
                                let k = self.eval.eval(value);
                                let ne = Sym::binary(BinOp::Eq, s, k);
                                if self.cons.assume(ne, false).is_contradiction() {
                                    return false;
                                }
                            }
                        }
                        true
                    }
                }
            }
        }
    }
}

/// Relates a havocked monotone counter to the value the walked prefix
/// reached: the iterations the havoc stands in for can only move the
/// counter further in its single update's direction, so `post >= pre`
/// (increasing) or `post <= pre` (decreasing). Constant-step terms of
/// the counter's own direction peel off `pre` (a weaker bound is still
/// a bound); anything else contributes no fact.
fn seed_direction_fact(cons: &mut ConstraintSet, pre: Sym, post: Sym, dir: CounterDir) {
    let up = matches!(dir, CounterDir::Increasing);
    let mut base = pre;
    loop {
        match base.node() {
            SymNode::Int(_) | SymNode::Input(_) | SymNode::Temp(_) => break,
            SymNode::Binary(BinOp::Add, a, b) => {
                if let Some(c) = b.as_int() {
                    if (c >= 0) == up {
                        base = *a;
                        continue;
                    }
                }
                if let Some(c) = a.as_int() {
                    if (c >= 0) == up {
                        base = *b;
                        continue;
                    }
                }
                return;
            }
            _ => return,
        }
    }
    let cmp = if up {
        Sym::binary_raw(BinOp::Ge, post, base)
    } else {
        Sym::binary_raw(BinOp::Le, post, base)
    };
    // `post` is a fresh temporary with no prior facts, so this can
    // only narrow, never contradict.
    let _ = cons.assume(cmp, true);
}

impl OracleEval<'_> {
    fn lvalue_key(&mut self, e: ExprId) -> Option<KeyId> {
        self.keys.lvalue(self.ast, e)
    }

    fn read(&mut self, key: KeyId) -> Sym {
        self.env.get(key, &mut self.keys)
    }

    /// Call results are opaque: bound values become fresh temporaries,
    /// the extractor's `V#` convention.
    fn detemporalize_call(&mut self, value: Sym) -> Sym {
        if let SymNode::Call { .. } = value.node() {
            self.temp += 1;
            return Sym::temp(self.temp);
        }
        value
    }

    fn exec_stmt(&mut self, id: StmtId) {
        let ast = self.ast;
        let stmt = ast.stmt(id);
        match &stmt.kind {
            StmtKind::Decl { name, init, .. } => {
                let value = match init {
                    Some(e) => {
                        let value = self.eval(*e);
                        self.detemporalize_call(value)
                    }
                    None => Sym::unknown(),
                };
                let key = self.keys.decl(id, name);
                self.env.bind(key, value);
            }
            StmtKind::Expr(e) => {
                self.eval(*e);
            }
            _ => {}
        }
    }

    /// The extraction evaluator minus event recording; see
    /// [`crate::extract`]. Divergence here would make the oracle judge
    /// a different condition value than the extractor later records,
    /// so every arm mirrors the extractor's `eval` exactly.
    fn eval(&mut self, e: ExprId) -> Sym {
        let ast = self.ast;
        match &ast.expr(e).kind {
            ExprKind::Int(v) => Sym::int(*v),
            ExprKind::Str(s) => self.keys.leaf(e, || Sym::str_lit(s.as_str())),
            ExprKind::Ident(_) => {
                let key = self.lvalue_key(e).expect("identifiers are lvalues");
                self.read(key)
            }
            ExprKind::Unary(op, inner) => {
                let (op, inner) = (*op, *inner);
                if op.mutates() {
                    let value = self.eval(inner);
                    if let Some(key) = self.lvalue_key(inner) {
                        let delta = if matches!(op, UnOp::PreInc | UnOp::PostInc) { 1 } else { -1 };
                        let new = Sym::binary(BinOp::Add, value, Sym::int(delta));
                        self.env.bind(key, new);
                        return match op {
                            UnOp::PostInc | UnOp::PostDec => value,
                            _ => new,
                        };
                    }
                    return Sym::unknown();
                }
                if matches!(op, UnOp::Addr) {
                    self.eval(inner);
                    return Sym::unknown();
                }
                let v = self.eval(inner);
                if matches!(op, UnOp::Deref) {
                    return match self.lvalue_key(e) {
                        Some(key) => self.read(key),
                        None => Sym::unknown(),
                    };
                }
                Sym::unary(op, v)
            }
            ExprKind::Binary(op, a, b) => {
                let (op, a, b) = (*op, *a, *b);
                let va = self.eval(a);
                let vb = self.eval(b);
                Sym::binary(op, va, vb)
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let (op, lhs, rhs) = (*op, *lhs, *rhs);
                let rhs_value = self.eval(rhs);
                let key = match self.lvalue_key(lhs) {
                    Some(k) => k,
                    None => return Sym::unknown(),
                };
                let value = match op {
                    AssignOp::Assign => rhs_value,
                    AssignOp::Compound(bin) => {
                        let cur = self.read(key);
                        Sym::binary(bin, cur, rhs_value)
                    }
                };
                let value = self.detemporalize_call(value);
                self.env.bind(key, value);
                value
            }
            ExprKind::Ternary(c, t, el) => {
                let (c, t, el) = (*c, *t, *el);
                self.eval(c);
                let tv = self.eval(t);
                let ev = self.eval(el);
                if tv == ev {
                    tv
                } else {
                    Sym::unknown()
                }
            }
            ExprKind::Call { callee, args } => {
                let callee_name = self.keys.callee(ast, *callee);
                let mut arg_syms = Vec::with_capacity(args.len());
                for &a in args {
                    arg_syms.push(self.eval(a));
                }
                Sym::call(callee_name, arg_syms)
            }
            ExprKind::Member { base, .. } => {
                let base = *base;
                self.eval(base);
                match self.lvalue_key(e) {
                    Some(key) => self.read(key),
                    None => Sym::unknown(),
                }
            }
            ExprKind::Index(b, i) => {
                let (b, i) = (*b, *i);
                self.eval(b);
                self.eval(i);
                match self.lvalue_key(e) {
                    Some(key) => self.read(key),
                    None => Sym::unknown(),
                }
            }
            ExprKind::Cast(_, inner) => self.eval(*inner),
            ExprKind::SizeofType(ty) => {
                self.keys.leaf(e, || Sym::input(format!("sizeof({ty})")))
            }
            ExprKind::SizeofExpr(inner) => {
                self.eval(*inner);
                Sym::unknown()
            }
            ExprKind::Comma(a, b) => {
                let (a, b) = (*a, *b);
                self.eval(a);
                self.eval(b)
            }
        }
    }
}

impl PathOracle for FeasibilityOracle<'_> {
    fn enter_block(&mut self, cfg: &Cfg, bb: BlockId) {
        if self.stack.is_empty() {
            self.start_walk(cfg);
        }
        self.visits[bb.0 as usize] += 1;
        self.push_frame();
        // Havoc inside the new block's frame so backtracking out of
        // `bb` restores the pre-havoc environment and facts.
        if self.use_summaries {
            if let Some(&prev) = self.stack.last() {
                self.havoc_loop_exits(prev, bb);
            }
        }
        self.stack.push(bb);
        for &stmt in &cfg.block(bb).stmts {
            self.eval.exec_stmt(stmt);
        }
        for &step in self.tables.get().steps(bb) {
            self.eval.eval(step);
        }
    }

    fn push_decision(&mut self, cfg: &Cfg, d: &Decision) -> bool {
        self.push_frame();
        if self.decide(cfg, d) {
            true
        } else {
            // Restore both the environment (condition side effects)
            // and the constraint set before declining the arm.
            self.pop_frame();
            false
        }
    }

    fn pop_decision(&mut self) {
        self.pop_frame();
    }

    fn leave_block(&mut self, _cfg: &Cfg, bb: BlockId) {
        self.visits[bb.0 as usize] -= 1;
        self.stack.pop();
        self.pop_frame();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(n: &str) -> Sym {
        Sym::input(n)
    }

    fn cmp(op: BinOp, a: Sym, k: i64) -> Sym {
        Sym::binary_raw(op, a, Sym::int(k))
    }

    #[test]
    fn empty_set_is_feasible() {
        assert_eq!(path_feasibility(&[]), Feasibility::Feasible);
    }

    #[test]
    fn constant_condition_contradicts_wrong_arm() {
        assert_eq!(path_feasibility(&[(Sym::int(0), true)]), Feasibility::Contradiction);
        assert_eq!(path_feasibility(&[(Sym::int(1), false)]), Feasibility::Contradiction);
        assert_eq!(path_feasibility(&[(Sym::int(7), true)]), Feasibility::Feasible);
        assert_eq!(path_feasibility(&[(Sym::int(0), false)]), Feasibility::Feasible);
    }

    #[test]
    fn eq_vs_ne_contradicts() {
        let conds = [(cmp(BinOp::Eq, input("x"), 3), true), (cmp(BinOp::Ne, input("x"), 3), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // Same thing via arm polarity: `x == 3` taken then not taken.
        let conds = [(cmp(BinOp::Eq, input("x"), 3), true), (cmp(BinOp::Eq, input("x"), 3), false)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    #[test]
    fn two_distinct_equalities_contradict() {
        let conds = [(cmp(BinOp::Eq, input("x"), 1), true), (cmp(BinOp::Eq, input("x"), 2), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // Distinct variables are independent.
        let conds = [(cmp(BinOp::Eq, input("x"), 1), true), (cmp(BinOp::Eq, input("y"), 2), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Feasible);
    }

    #[test]
    fn disjoint_intervals_contradict() {
        let conds = [(cmp(BinOp::Lt, input("x"), 0), true), (cmp(BinOp::Gt, input("x"), 10), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        let conds = [(cmp(BinOp::Ge, input("x"), 5), true), (cmp(BinOp::Le, input("x"), 4), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // Touching intervals are satisfiable (x == 5).
        let conds = [(cmp(BinOp::Ge, input("x"), 5), true), (cmp(BinOp::Le, input("x"), 5), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Feasible);
    }

    #[test]
    fn equality_outside_interval_contradicts() {
        let conds = [(cmp(BinOp::Lt, input("x"), 0), true), (cmp(BinOp::Eq, input("x"), 3), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        let conds = [(cmp(BinOp::Eq, input("x"), 3), true), (cmp(BinOp::Gt, input("x"), 7), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    #[test]
    fn constant_on_the_left_is_oriented() {
        // `0 < x` then `x <= 0`.
        let conds = [
            (Sym::binary_raw(BinOp::Lt, Sym::int(0), input("x")), true),
            (cmp(BinOp::Le, input("x"), 0), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    #[test]
    fn bare_truth_values_constrain_to_zero_or_nonzero() {
        let conds = [(input("flag"), false), (cmp(BinOp::Eq, input("flag"), 1), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        let conds = [(input("flag"), true), (cmp(BinOp::Eq, input("flag"), 0), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        let conds = [(input("flag"), true), (cmp(BinOp::Eq, input("flag"), 1), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Feasible);
    }

    #[test]
    fn negation_and_conjunction_decompose() {
        // `!(x)` taken == `x == 0`; then `x != 0` contradicts.
        let conds = [
            (Sym::unary_raw(UnOp::Not, input("x")), true),
            (cmp(BinOp::Ne, input("x"), 0), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // `a > 0 && a < 0` taken is contradictory on its own.
        let and = Sym::binary_raw(
            BinOp::And,
            cmp(BinOp::Gt, input("a"), 0),
            cmp(BinOp::Lt, input("a"), 0),
        );
        assert_eq!(path_feasibility(&[(and, true)]), Feasibility::Contradiction);
        // ...but not-taken tells us nothing certain.
        assert_eq!(path_feasibility(&[(and, false)]), Feasibility::Feasible);
        // `a || b` not taken pins both to zero.
        let or = Sym::binary_raw(BinOp::Or, input("a"), input("b"));
        let conds = [(or, false), (cmp(BinOp::Ne, input("a"), 0), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    #[test]
    fn temporaries_are_stable_values() {
        // `r = g(); if (r < 0) ... if (r >= 0)` — both conditions see
        // the same V#1.
        let conds =
            [(cmp(BinOp::Lt, Sym::temp(1), 0), true), (cmp(BinOp::Ge, Sym::temp(1), 0), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    #[test]
    fn opaque_conditions_contribute_nothing() {
        let call = Sym::call("f", vec![input("x")]);
        let conds = [
            (cmp(BinOp::Lt, call, 0), true),
            (cmp(BinOp::Ge, call, 0), true),
            (Sym::unknown(), true),
            (Sym::unknown(), false),
            (cmp(BinOp::BitAnd, input("m"), 16), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Feasible);
    }

    #[test]
    fn i64_rim_strict_comparisons_are_unsatisfiable() {
        assert_eq!(
            path_feasibility(&[(cmp(BinOp::Lt, input("x"), i64::MIN), true)]),
            Feasibility::Contradiction
        );
        assert_eq!(
            path_feasibility(&[(cmp(BinOp::Gt, input("x"), i64::MAX), true)]),
            Feasibility::Contradiction
        );
        // Non-strict rim bounds are fine.
        assert_eq!(
            path_feasibility(&[(cmp(BinOp::Le, input("x"), i64::MIN), true)]),
            Feasibility::Feasible
        );
    }

    #[test]
    fn rollback_restores_prior_facts() {
        let mut set = ConstraintSet::new();
        assert!(!set.assume(cmp(BinOp::Eq, input("x"), 1), true).is_contradiction());
        let mark = set.mark();
        assert!(set.assume(cmp(BinOp::Eq, input("x"), 2), true).is_contradiction());
        set.rollback(mark);
        // `x == 1` is still in force; `x != 1` must now contradict.
        assert!(set.assume(cmp(BinOp::Ne, input("x"), 1), true).is_contradiction());
        set.rollback(mark);
        assert!(!set.assume(cmp(BinOp::Eq, input("x"), 1), true).is_contradiction());
    }

    #[test]
    fn interval_chain_narrows_to_contradiction() {
        let conds = [
            (cmp(BinOp::Ge, input("n"), 0), true),
            (cmp(BinOp::Le, input("n"), 10), true),
            (cmp(BinOp::Gt, input("n"), 4), true),
            (cmp(BinOp::Lt, input("n"), 5), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    fn rel(op: BinOp, a: Sym, b: Sym) -> Sym {
        Sym::binary_raw(op, a, b)
    }

    #[test]
    fn relational_cycle_contradicts() {
        // `x < y` and `y < x` cannot both hold.
        let conds =
            [(rel(BinOp::Lt, input("x"), input("y")), true), (rel(BinOp::Lt, input("y"), input("x")), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // `x < y` with `x > y` via the mirrored orientation.
        let conds =
            [(rel(BinOp::Lt, input("x"), input("y")), true), (rel(BinOp::Gt, input("x"), input("y")), true)];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    #[test]
    fn antisymmetry_pins_equality() {
        // `x <= y`, `y <= x` forces `x == y`; `x != y` then contradicts.
        let conds = [
            (rel(BinOp::Le, input("x"), input("y")), true),
            (rel(BinOp::Le, input("y"), input("x")), true),
            (rel(BinOp::Ne, input("x"), input("y")), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // Without the `!=`, the pair is satisfiable.
        let conds = [
            (rel(BinOp::Le, input("x"), input("y")), true),
            (rel(BinOp::Le, input("y"), input("x")), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Feasible);
    }

    #[test]
    fn reflexive_strict_comparison_contradicts() {
        assert_eq!(
            path_feasibility(&[(rel(BinOp::Lt, input("x"), input("x")), true)]),
            Feasibility::Contradiction
        );
        assert_eq!(
            path_feasibility(&[(rel(BinOp::Ne, input("x"), input("x")), true)]),
            Feasibility::Contradiction
        );
        assert_eq!(
            path_feasibility(&[(rel(BinOp::Le, input("x"), input("x")), true)]),
            Feasibility::Feasible
        );
    }

    #[test]
    fn relational_eq_vs_ne_contradicts() {
        let conds = [
            (rel(BinOp::Eq, input("x"), input("y")), true),
            (rel(BinOp::Ne, input("x"), input("y")), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // Arm polarity spells the same thing.
        let conds = [
            (rel(BinOp::Eq, input("x"), input("y")), true),
            (rel(BinOp::Eq, input("x"), input("y")), false),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }

    #[test]
    fn relational_facts_roll_back() {
        let mut set = ConstraintSet::new();
        let mark = set.mark();
        assert!(!set.assume(rel(BinOp::Lt, input("x"), input("y")), true).is_contradiction());
        assert!(set.assume(rel(BinOp::Gt, input("x"), input("y")), true).is_contradiction());
        set.rollback(mark);
        // After rollback `x > y` must be freely assumable again.
        assert!(!set.assume(rel(BinOp::Gt, input("x"), input("y")), true).is_contradiction());
    }

    #[test]
    fn ne_exhaustion_closes_narrow_intervals() {
        // `5 <= x <= 6` with both residents excluded is unsatisfiable —
        // the pre-fix check only caught the width-one (`lo == hi`) case.
        let conds = [
            (cmp(BinOp::Ge, input("x"), 5), true),
            (cmp(BinOp::Le, input("x"), 6), true),
            (cmp(BinOp::Ne, input("x"), 5), true),
            (cmp(BinOp::Ne, input("x"), 6), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
        // Excluding only one resident leaves the other.
        let conds = [
            (cmp(BinOp::Ge, input("x"), 5), true),
            (cmp(BinOp::Le, input("x"), 6), true),
            (cmp(BinOp::Ne, input("x"), 5), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Feasible);
        // Order independence: exclusions first, bounds second.
        let conds = [
            (cmp(BinOp::Ne, input("x"), 5), true),
            (cmp(BinOp::Ne, input("x"), 6), true),
            (cmp(BinOp::Ge, input("x"), 5), true),
            (cmp(BinOp::Le, input("x"), 6), true),
        ];
        assert_eq!(path_feasibility(&conds), Feasibility::Contradiction);
    }
}
