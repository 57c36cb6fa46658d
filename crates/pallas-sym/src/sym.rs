//! Symbolic values.
//!
//! The extractor evaluates path statements over symbolic values in the
//! notation of the paper's Table 5: `S#` marks a symbolic expression
//! (an input whose value is unknown statically), `I#` an integer
//! constant, `V#` a temporary, and `E#` the result of a call.
//!
//! # Hash-consed representation
//!
//! A [`Sym`] is a `Copy` handle (one pointer) into a process-global
//! hash-consing arena. Structurally equal values intern to the *same*
//! node, so:
//!
//! - equality is a pointer comparison instead of a tree walk;
//! - the node count that feeds the widening budget is a memoized
//!   per-node `size` field instead of an O(n) traversal on every
//!   constructor call;
//! - cloning a value into an event, an environment binding, or a cache
//!   copies 8 bytes instead of re-boxing a tree.
//!
//! The arena is global (not per-extraction) because symbolic values
//! outlive any single extraction: they sit in the engine's bounded
//! unit cache, in the persistent store's decoded records, and cross
//! worker threads in the daemon. Arena memory grows with the number of
//! *distinct* nodes ever built, which hash-consing keeps proportional
//! to the source under analysis rather than to the number of paths
//! exercised. Pattern-match through [`Sym::node`], which returns the
//! underlying [`SymNode`].
//!
//! # Sharded arena
//!
//! Every constructor looks its node up in the arena, and extraction
//! runs on every core, so the arena is split into 64 independently
//! locked shards (the crate-private `shard` module). A node's shard is
//! a cheap mix of its parts, which are already interned: the [`Istr`]
//! address of a name, the ids of child nodes, the operator and the
//! integer value. Each shard keeps its own SipHash-keyed map. The
//! shards are built, empty, on first use.
//!
//! Node ids come from one atomic counter, taken inside the inserting
//! shard's lock. Ids are therefore unique and dense, and a
//! single-threaded run numbers nodes in interning order.
//! [`arena_node_count`] and [`arena_lookups`] sum the shards, so both
//! are exact.

use crate::intern::Istr;
use crate::shard::{mix, Sharded};
use pallas_lang::ast::{BinOp, UnOp};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// The structure of one symbolic node. Obtained from [`Sym::node`];
/// children are themselves interned [`Sym`] handles.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum SymNode {
    /// `S#name`: the unknown entry value of a variable or lvalue path.
    Input(Istr),
    /// `I#v`: a known integer constant.
    Int(i64),
    /// A string literal.
    Str(Istr),
    /// `V#n`: a temporary introduced for a call result or unknown.
    Temp(u32),
    /// `E#callee(...)`: the result of calling `callee`.
    Call {
        /// Callee function name (or rendered callee expression).
        callee: Istr,
        /// Symbolic arguments.
        args: Vec<Sym>,
    },
    /// A unary operation over a symbolic operand.
    Unary(UnOp, Sym),
    /// A binary operation over symbolic operands.
    Binary(BinOp, Sym, Sym),
    /// A value the evaluator cannot usefully track (ternaries, sizeof,
    /// address-taken values).
    Unknown,
}

/// An interned node: the structure plus its memoized total node count
/// and a small dense id assigned in interning order.
struct HNode {
    node: SymNode,
    size: u32,
    id: u32,
}

/// A symbolic value computed along one execution path: a `Copy` handle
/// to a hash-consed node. Structural equality coincides with pointer
/// equality because equal structures intern to the same node.
#[derive(Clone, Copy)]
pub struct Sym(&'static HNode);

/// Node budget for constructed symbolic expressions. Self-referential
/// updates along an unrolled loop path (`x = x * x + x` executed many
/// times) otherwise roughly double the tree per assignment, and every
/// `State` event captures the current value — the fuzzer found a deep
/// generated unit whose symbolic state reached gigabytes and stalled
/// the extractor in the allocator. A result that would exceed the
/// budget is widened to [`Sym::unknown`], the usual sound
/// over-approximation. With hash-consing the check is O(1): a binary
/// result widens iff its operands' memoized sizes sum past the budget,
/// exactly the condition the old O(budget) counting walk enforced.
pub const MAX_SYM_NODES: usize = 256;

const SMALL_INT_MAX: i64 = 128;

/// The arena's shards, built on first use.
fn arena() -> &'static Sharded<HashMap<SymNode, Sym>> {
    static ARENA: OnceLock<Sharded<HashMap<SymNode, Sym>>> = OnceLock::new();
    ARENA.get_or_init(Sharded::new)
}

/// The next node id. Taken inside the inserting shard's lock, so a
/// single-threaded run numbers nodes in interning order. `Relaxed` is
/// enough: the counter publishes no data (the node reaches other
/// threads through the shard's lock), and a read-modify-write never
/// hands out one value twice.
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// The shard hash of a node: a [`mix`] of its parts, which are all
/// already interned — names by address, children by id — so picking a
/// shard never walks a tree or a string.
fn shard_hash(node: &SymNode) -> u64 {
    match node {
        SymNode::Input(n) => mix(1, n.addr() as u64),
        SymNode::Int(v) => mix(2, *v as u64),
        SymNode::Str(s) => mix(3, s.addr() as u64),
        SymNode::Temp(n) => mix(4, u64::from(*n)),
        SymNode::Call { callee, args } => args
            .iter()
            .fold(mix(5, callee.addr() as u64), |h, a| mix(h, u64::from(a.id()))),
        SymNode::Unary(op, a) => mix(mix(6, *op as u64), u64::from(a.id())),
        SymNode::Binary(op, a, b) => {
            mix(mix(mix(7, *op as u64), u64::from(a.id())), u64::from(b.id()))
        }
        SymNode::Unknown => mix(8, 0),
    }
}

fn intern(node: SymNode) -> Sym {
    let size = match &node {
        SymNode::Call { args, .. } => args
            .iter()
            .fold(1u32, |acc, a| acc.saturating_add(a.0.size)),
        SymNode::Unary(_, a) => 1u32.saturating_add(a.0.size),
        SymNode::Binary(_, a, b) => 1u32
            .saturating_add(a.0.size)
            .saturating_add(b.0.size),
        _ => 1,
    };
    let mut shard = arena().lookup(shard_hash(&node));
    if let Some(&found) = shard.table.get(&node) {
        return found;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let leaked: &'static HNode = Box::leak(Box::new(HNode {
        node: node.clone(),
        size,
        id,
    }));
    shard.table.insert(node, Sym(leaked));
    Sym(leaked)
}

/// Number of distinct nodes interned so far. The arena only grows, so
/// this is also the peak node count — reported by `repro --sym-bench`
/// and guarded by the CI regression step.
pub fn arena_node_count() -> usize {
    arena().sum(HashMap::len)
}

/// Number of arena lookups so far: every constructor call that reached
/// the arena, whether it found its node or inserted it. Constants
/// served from the small-integer table and the `Unknown` singleton do
/// not count.
pub fn arena_lookups() -> u64 {
    arena().lookups()
}

impl Sym {
    /// `S#name`: an input value.
    pub fn input(name: impl Into<Istr>) -> Sym {
        intern(SymNode::Input(name.into()))
    }

    /// `I#v`: an integer constant. Small non-negative constants hit a
    /// pre-interned table.
    pub fn int(v: i64) -> Sym {
        if (0..=SMALL_INT_MAX).contains(&v) {
            static SMALL: OnceLock<Vec<Sym>> = OnceLock::new();
            let table = SMALL.get_or_init(|| {
                (0..=SMALL_INT_MAX).map(|i| intern(SymNode::Int(i))).collect()
            });
            return table[v as usize];
        }
        intern(SymNode::Int(v))
    }

    /// A string literal.
    pub fn str_lit(s: impl Into<Istr>) -> Sym {
        intern(SymNode::Str(s.into()))
    }

    /// `V#n`: a temporary.
    pub fn temp(n: u32) -> Sym {
        intern(SymNode::Temp(n))
    }

    /// `E#callee(args...)`: a call result. Mirrors the pre-arena
    /// literal `Sym::Call { .. }` construction: no folding and no
    /// budget widening (the budget applies where trees *grow*, in
    /// [`Sym::binary`]/[`Sym::unary`]).
    pub fn call(callee: impl Into<Istr>, args: Vec<Sym>) -> Sym {
        intern(SymNode::Call { callee: callee.into(), args })
    }

    /// The widened "don't know" value.
    pub fn unknown() -> Sym {
        static UNKNOWN: OnceLock<Sym> = OnceLock::new();
        *UNKNOWN.get_or_init(|| intern(SymNode::Unknown))
    }

    /// Constant-folds integer operands where possible, otherwise builds
    /// a symbolic binary node (widened to unknown over the node
    /// budget).
    pub fn binary(op: BinOp, a: Sym, b: Sym) -> Sym {
        if let (SymNode::Int(x), SymNode::Int(y)) = (a.node(), b.node()) {
            if let Some(v) = fold(op, *x, *y) {
                return Sym::int(v);
            }
        }
        if a.0.size as usize + b.0.size as usize > MAX_SYM_NODES {
            return Sym::unknown();
        }
        intern(SymNode::Binary(op, a, b))
    }

    /// Constant-folds a unary operation where possible (widened to
    /// unknown over the node budget).
    pub fn unary(op: UnOp, a: Sym) -> Sym {
        if let SymNode::Int(x) = a.node() {
            match op {
                UnOp::Neg => return Sym::int(-x),
                UnOp::Not => return Sym::int(i64::from(*x == 0)),
                UnOp::BitNot => return Sym::int(!x),
                _ => {}
            }
        }
        if a.0.size as usize > MAX_SYM_NODES {
            return Sym::unknown();
        }
        intern(SymNode::Unary(op, a))
    }

    /// Interns a binary node verbatim — no folding, no widening.
    /// Mirrors the pre-arena literal `Sym::Binary(..)` construction;
    /// used by the store codec (a decoded node must round-trip to the
    /// byte-identical structure that was written) and by tests that pin
    /// specific shapes.
    pub fn binary_raw(op: BinOp, a: Sym, b: Sym) -> Sym {
        intern(SymNode::Binary(op, a, b))
    }

    /// Interns a unary node verbatim — no folding, no widening. See
    /// [`Sym::binary_raw`].
    pub fn unary_raw(op: UnOp, a: Sym) -> Sym {
        intern(SymNode::Unary(op, a))
    }

    /// The underlying node, for pattern matching.
    pub fn node(self) -> &'static SymNode {
        &self.0.node
    }

    /// Dense, unique arena id, in interning order when one thread
    /// interns. Stable within a process run.
    pub fn id(self) -> u32 {
        self.0.id
    }

    /// Memoized total node count of this value's tree, counting shared
    /// subtrees once per occurrence (i.e. the size the old boxed tree
    /// would have had).
    pub fn size(self) -> u32 {
        self.0.size
    }

    /// The concrete integer value, if this symbol is a constant.
    pub fn as_int(self) -> Option<i64> {
        match self.node() {
            SymNode::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The input name, if this symbol is an untouched input.
    pub fn as_input(self) -> Option<&'static str> {
        match self.node() {
            SymNode::Input(n) => Some(n.as_str()),
            _ => None,
        }
    }

    /// Whether the symbol mentions the given input name anywhere.
    pub fn mentions(self, name: &str) -> bool {
        match self.node() {
            SymNode::Input(n) => *n == *name,
            SymNode::Call { args, .. } => args.iter().any(|a| a.mentions(name)),
            SymNode::Unary(_, a) => a.mentions(name),
            SymNode::Binary(_, a, b) => a.mentions(name) || b.mentions(name),
            _ => false,
        }
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Sym {}

// Hash by arena id: consistent with pointer equality, one instruction,
// and dense. Ids depend on interning order, so they are stable within
// a process but not across runs — nothing output-facing iterates a
// `Sym`-keyed hash map (outputs key on rendered strings or ordered
// maps).
impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            SymNode::Input(n) => write!(f, "(S#{n})"),
            SymNode::Int(v) => write!(f, "(I#{v})"),
            SymNode::Str(s) => write!(f, "{s:?}"),
            SymNode::Temp(n) => write!(f, "(V#{n})"),
            SymNode::Call { callee, args } => {
                write!(f, "(E#{callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str("))")
            }
            SymNode::Unary(op, a) => write!(f, "{}{a}", op.as_str()),
            // Parenthesized so structurally distinct trees render
            // distinctly: without the parens `a + (b * c)` and
            // `(a + b) * c` would both print `... + ... * ...`,
            // ambiguous in NDJSON output and a digest-collision hazard
            // for the fuzz oracles.
            SymNode::Binary(op, a, b) => write!(f, "({a} {} {b})", op.as_str()),
            SymNode::Unknown => f.write_str("(?)"),
        }
    }
}

// Renders exactly like the pre-arena derived `Debug` (e.g.
// `Binary(Add, Input("x"), Int(1))`): the extractor's summary dedup
// keys on `format!("{event:?}")`, and diagnostic snapshots pin these
// strings.
impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            SymNode::Input(n) => f.debug_tuple("Input").field(n).finish(),
            SymNode::Int(v) => f.debug_tuple("Int").field(v).finish(),
            SymNode::Str(s) => f.debug_tuple("Str").field(s).finish(),
            SymNode::Temp(n) => f.debug_tuple("Temp").field(n).finish(),
            SymNode::Call { callee, args } => f
                .debug_struct("Call")
                .field("callee", callee)
                .field("args", args)
                .finish(),
            SymNode::Unary(op, a) => f.debug_tuple("Unary").field(op).field(a).finish(),
            SymNode::Binary(op, a, b) => {
                f.debug_tuple("Binary").field(op).field(a).field(b).finish()
            }
            SymNode::Unknown => f.write_str("Unknown"),
        }
    }
}

impl fmt::Debug for SymNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Delegate through an interned handle-shaped view so a node
        // prints identically whether reached via `Sym` or directly.
        match self {
            SymNode::Input(n) => f.debug_tuple("Input").field(n).finish(),
            SymNode::Int(v) => f.debug_tuple("Int").field(v).finish(),
            SymNode::Str(s) => f.debug_tuple("Str").field(s).finish(),
            SymNode::Temp(n) => f.debug_tuple("Temp").field(n).finish(),
            SymNode::Call { callee, args } => f
                .debug_struct("Call")
                .field("callee", callee)
                .field("args", args)
                .finish(),
            SymNode::Unary(op, a) => f.debug_tuple("Unary").field(op).field(a).finish(),
            SymNode::Binary(op, a, b) => {
                f.debug_tuple("Binary").field(op).field(a).field(b).finish()
            }
            SymNode::Unknown => f.write_str("Unknown"),
        }
    }
}

fn fold(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        // A shift count outside [0, 63] is undefined behaviour in C;
        // `wrapping_shl(y as u32)` would silently mask it mod 64 (so
        // `1 << 64` folds to `1` and negative counts fold to garbage).
        // Stay symbolic instead, mirroring division by zero.
        BinOp::Shl => {
            if !(0..64).contains(&y) {
                return None;
            }
            x.wrapping_shl(y as u32)
        }
        BinOp::Shr => {
            if !(0..64).contains(&y) {
                return None;
            }
            x.wrapping_shr(y as u32)
        }
        BinOp::Lt => i64::from(x < y),
        BinOp::Gt => i64::from(x > y),
        BinOp::Le => i64::from(x <= y),
        BinOp::Ge => i64::from(x >= y),
        BinOp::Eq => i64::from(x == y),
        BinOp::Ne => i64::from(x != y),
        BinOp::BitAnd => x & y,
        BinOp::BitXor => x ^ y,
        BinOp::BitOr => x | y,
        BinOp::And => i64::from(x != 0 && y != 0),
        BinOp::Or => i64::from(x != 0 || y != 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        assert_eq!(Sym::binary(BinOp::Add, Sym::int(2), Sym::int(3)), Sym::int(5));
        assert_eq!(Sym::binary(BinOp::Eq, Sym::int(2), Sym::int(2)), Sym::int(1));
        assert_eq!(Sym::unary(UnOp::Not, Sym::int(0)), Sym::int(1));
        assert_eq!(Sym::unary(UnOp::Neg, Sym::int(7)), Sym::int(-7));
    }

    #[test]
    fn division_by_zero_stays_symbolic() {
        let s = Sym::binary(BinOp::Div, Sym::int(1), Sym::int(0));
        assert!(matches!(s.node(), SymNode::Binary(..)));
    }

    #[test]
    fn symbolic_operands_do_not_fold() {
        let s = Sym::binary(BinOp::BitAnd, Sym::input("gfp_mask"), Sym::int(16));
        assert_eq!(s.to_string(), "((S#gfp_mask) & (I#16))");
    }

    #[test]
    fn out_of_range_shift_counts_stay_symbolic() {
        // `1 << 64` must not fold (the hardware masks the count mod 64,
        // which would yield 1); same for negative counts.
        let s = Sym::binary(BinOp::Shl, Sym::int(1), Sym::int(64));
        assert!(matches!(s.node(), SymNode::Binary(..)), "1 << 64 must stay symbolic, got {s}");
        let s = Sym::binary(BinOp::Shl, Sym::int(1), Sym::int(-1));
        assert!(matches!(s.node(), SymNode::Binary(..)), "1 << -1 must stay symbolic, got {s}");
        let s = Sym::binary(BinOp::Shr, Sym::int(1), Sym::int(64));
        assert!(matches!(s.node(), SymNode::Binary(..)), "1 >> 64 must stay symbolic, got {s}");
        let s = Sym::binary(BinOp::Shr, Sym::int(1), Sym::int(i64::MIN));
        assert!(matches!(s.node(), SymNode::Binary(..)), "negative shift count must stay symbolic");
        // The boundary count 63 still folds (wrapping into the sign bit).
        assert_eq!(Sym::binary(BinOp::Shl, Sym::int(1), Sym::int(63)), Sym::int(i64::MIN));
        assert_eq!(Sym::binary(BinOp::Shl, Sym::int(1), Sym::int(3)), Sym::int(8));
        assert_eq!(Sym::binary(BinOp::Shr, Sym::int(16), Sym::int(63)), Sym::int(0));
    }

    #[test]
    fn display_parenthesizes_binary_nodes_unambiguously() {
        let a = Sym::input("a");
        let b = Sym::input("b");
        let c = Sym::input("c");
        // a + (b * c) vs (a + b) * c must render distinctly.
        let left = Sym::binary(BinOp::Add, a, Sym::binary(BinOp::Mul, b, c));
        let right = Sym::binary(BinOp::Mul, Sym::binary(BinOp::Add, a, b), c);
        assert_eq!(left.to_string(), "((S#a) + ((S#b) * (S#c)))");
        assert_eq!(right.to_string(), "(((S#a) + (S#b)) * (S#c))");
        assert_ne!(left.to_string(), right.to_string());
        // Unary over a binary is distinct from binary over a unary.
        let neg_sum = Sym::unary(UnOp::Neg, Sym::binary(BinOp::Add, a, b));
        let sum_of_neg = Sym::binary(BinOp::Add, Sym::unary(UnOp::Neg, a), b);
        assert_ne!(neg_sum.to_string(), sum_of_neg.to_string());
    }

    #[test]
    fn mentions_traverses_structure() {
        let s = Sym::binary(
            BinOp::Add,
            Sym::call("f", vec![Sym::input("x")]),
            Sym::int(1),
        );
        assert!(s.mentions("x"));
        assert!(!s.mentions("y"));
    }

    #[test]
    fn table5_notation() {
        assert_eq!(Sym::input("gfp_mask").to_string(), "(S#gfp_mask)");
        assert_eq!(Sym::int(16).to_string(), "(I#16)");
        assert_eq!(Sym::temp(1).to_string(), "(V#1)");
        let call = Sym::call("memalloc_noio_flags", vec![Sym::input("gfp_mask")]);
        assert_eq!(call.to_string(), "(E#memalloc_noio_flags((S#gfp_mask)))");
    }

    #[test]
    fn oversized_trees_stay_within_node_budget() {
        // `x = x * x + x` style growth: without the node budget this
        // doubles per step and reaches gigabytes within ~40 steps.
        // With it, oversized results widen to unknown (and may regrow
        // from there), so every constructed value stays small.
        let mut v = Sym::input("x");
        let mut widened = false;
        for _ in 0..1000 {
            let sq = Sym::binary(BinOp::Mul, v, v);
            v = Sym::binary(BinOp::Add, sq, v);
            widened |= v == Sym::unknown();
            assert!(
                v.size() as usize <= MAX_SYM_NODES + 1,
                "value exceeded the node budget: size {}",
                v.size()
            );
        }
        assert!(widened, "the growth chain must hit the budget at least once");
        // Small combinations stay structural.
        let s = Sym::binary(BinOp::Add, Sym::input("a"), Sym::input("b"));
        assert!(matches!(s.node(), SymNode::Binary(..)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Sym::int(3).as_int(), Some(3));
        assert_eq!(Sym::input("a").as_int(), None);
        assert_eq!(Sym::input("a").as_input(), Some("a"));
    }

    #[test]
    fn structurally_equal_values_intern_to_one_node() {
        let a = Sym::binary(BinOp::Add, Sym::input("x"), Sym::int(1));
        let b = Sym::binary(BinOp::Add, Sym::input("x"), Sym::int(1));
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a.node(), b.node()));
        // Distinct structures get distinct nodes.
        let c = Sym::binary(BinOp::Add, Sym::input("x"), Sym::int(2));
        assert_ne!(a, c);
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn sizes_are_memoized_per_node() {
        let x = Sym::input("x");
        assert_eq!(x.size(), 1);
        let e = Sym::binary(BinOp::Add, x, Sym::int(1));
        assert_eq!(e.size(), 3);
        // Sharing: `e + e` counts the shared subtree once per
        // occurrence, matching the old boxed-tree node count.
        let ee = Sym::binary(BinOp::Mul, e, e);
        assert_eq!(ee.size(), 7);
        let call = Sym::call("f", vec![e, x]);
        assert_eq!(call.size(), 5);
    }

    #[test]
    fn debug_matches_the_pre_arena_derived_format() {
        let e = Sym::binary(BinOp::Add, Sym::input("x"), Sym::int(1));
        assert_eq!(format!("{e:?}"), "Binary(Add, Input(\"x\"), Int(1))");
        let c = Sym::call("f", vec![Sym::temp(2), Sym::str_lit("s")]);
        assert_eq!(format!("{c:?}"), "Call { callee: \"f\", args: [Temp(2), Str(\"s\")] }");
        let u = Sym::unary(UnOp::Neg, Sym::input("a"));
        assert_eq!(format!("{u:?}"), "Unary(Neg, Input(\"a\"))");
        assert_eq!(format!("{:?}", Sym::unknown()), "Unknown");
    }
}
