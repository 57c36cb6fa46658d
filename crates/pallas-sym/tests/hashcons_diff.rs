//! Differential battery: hash-consed [`Sym`] vs the pre-arena boxed
//! tree, replayed over 256 seeded construction programs.
//!
//! [`RefSym`] below is an independent reimplementation of the old
//! representation — an owned tree with per-call constant folding, an
//! O(n) node-counting walk, and the same 256-node widening budget. Each
//! seed drives an identical random sequence of constructor calls
//! through both implementations and asserts, after every step, that
//! they agree on:
//!
//! - `Display` and `Debug` rendering (the strings NDJSON, Table 5, and
//!   the summary-dedup keys are built from);
//! - the memoized size vs the counted size (the widening input);
//! - *when* widening fires (an oversized result collapses to unknown in
//!   both, at the same step);
//! - equality: two handles are pointer-equal iff the reference trees
//!   are structurally equal (no behavioral hash-consing collisions).
//!
//! A second battery extracts seeded source variants and checks that
//! every symbolic value reachable from the path database survives a
//! round trip through the reference tree and back into the arena as
//! the *same* node, and that re-extraction reproduces the event
//! multiset exactly (interning is invisible to extraction).

use pallas_lang::ast::{BinOp, UnOp};
use pallas_lang::parse;
use pallas_sym::{extract, Event, ExtractConfig, Sym, SymNode};
use std::fmt;

// ---------------------------------------------------------------------------
// Reference implementation: the pre-arena boxed tree.
// ---------------------------------------------------------------------------

/// Node budget, mirrored from `pallas_sym::sym::MAX_SYM_NODES`.
const BUDGET: usize = 256;

#[derive(Clone, PartialEq, Eq, Debug)]
enum RefSym {
    Input(String),
    Int(i64),
    Str(String),
    Temp(u32),
    Call { callee: String, args: Vec<RefSym> },
    Unary(UnOp, Box<RefSym>),
    Binary(BinOp, Box<RefSym>, Box<RefSym>),
    Unknown,
}

impl RefSym {
    /// The old O(n) counting walk: every node once per occurrence.
    fn count(&self) -> usize {
        match self {
            RefSym::Call { args, .. } => 1 + args.iter().map(RefSym::count).sum::<usize>(),
            RefSym::Unary(_, a) => 1 + a.count(),
            RefSym::Binary(_, a, b) => 1 + a.count() + b.count(),
            _ => 1,
        }
    }

    fn binary(op: BinOp, a: RefSym, b: RefSym) -> RefSym {
        if let (RefSym::Int(x), RefSym::Int(y)) = (&a, &b) {
            if let Some(v) = ref_fold(op, *x, *y) {
                return RefSym::Int(v);
            }
        }
        if a.count() + b.count() > BUDGET {
            return RefSym::Unknown;
        }
        RefSym::Binary(op, Box::new(a), Box::new(b))
    }

    fn unary(op: UnOp, a: RefSym) -> RefSym {
        if let RefSym::Int(x) = &a {
            match op {
                UnOp::Neg => return RefSym::Int(-x),
                UnOp::Not => return RefSym::Int(i64::from(*x == 0)),
                UnOp::BitNot => return RefSym::Int(!x),
                _ => {}
            }
        }
        if a.count() > BUDGET {
            return RefSym::Unknown;
        }
        RefSym::Unary(op, Box::new(a))
    }
}

/// Independent copy of the constant-folding table (division and
/// remainder by zero stay symbolic; shift counts outside `[0, 64)`
/// stay symbolic because the hardware would mask them).
fn ref_fold(op: BinOp, x: i64, y: i64) -> Option<i64> {
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

impl fmt::Display for RefSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefSym::Input(n) => write!(f, "(S#{n})"),
            RefSym::Int(v) => write!(f, "(I#{v})"),
            RefSym::Str(s) => write!(f, "{s:?}"),
            RefSym::Temp(n) => write!(f, "(V#{n})"),
            RefSym::Call { callee, args } => {
                write!(f, "(E#{callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str("))")
            }
            RefSym::Unary(op, a) => write!(f, "{}{a}", op.as_str()),
            RefSym::Binary(op, a, b) => write!(f, "({a} {} {b})", op.as_str()),
            RefSym::Unknown => f.write_str("(?)"),
        }
    }
}

/// Projects an interned handle back into a reference tree.
fn sym_to_ref(s: Sym) -> RefSym {
    match s.node() {
        SymNode::Input(n) => RefSym::Input(n.to_string()),
        SymNode::Int(v) => RefSym::Int(*v),
        SymNode::Str(t) => RefSym::Str(t.to_string()),
        SymNode::Temp(n) => RefSym::Temp(*n),
        SymNode::Call { callee, args } => RefSym::Call {
            callee: callee.to_string(),
            args: args.iter().map(|a| sym_to_ref(*a)).collect(),
        },
        SymNode::Unary(op, a) => RefSym::Unary(*op, Box::new(sym_to_ref(*a))),
        SymNode::Binary(op, a, b) => {
            RefSym::Binary(*op, Box::new(sym_to_ref(*a)), Box::new(sym_to_ref(*b)))
        }
        SymNode::Unknown => RefSym::Unknown,
    }
}

/// Re-interns a reference tree verbatim (raw constructors: no folding,
/// no widening — the tree already carries whatever shape the original
/// construction produced).
fn ref_to_sym_raw(r: &RefSym) -> Sym {
    match r {
        RefSym::Input(n) => Sym::input(n.as_str()),
        RefSym::Int(v) => Sym::int(*v),
        RefSym::Str(s) => Sym::str_lit(s.as_str()),
        RefSym::Temp(n) => Sym::temp(*n),
        RefSym::Call { callee, args } => {
            Sym::call(callee.as_str(), args.iter().map(ref_to_sym_raw).collect())
        }
        RefSym::Unary(op, a) => Sym::unary_raw(*op, ref_to_sym_raw(a)),
        RefSym::Binary(op, a, b) => {
            Sym::binary_raw(*op, ref_to_sym_raw(a), ref_to_sym_raw(b))
        }
        RefSym::Unknown => Sym::unknown(),
    }
}

// ---------------------------------------------------------------------------
// Deterministic RNG (SplitMix64), self-contained.
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const BIN_OPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Lt,
    BinOp::Gt,
    BinOp::Le,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::BitAnd,
    BinOp::BitXor,
    BinOp::BitOr,
    BinOp::And,
    BinOp::Or,
];

/// The unary operators the evaluator actually builds nodes for, plus
/// the ones it folds — widened operators like `&x` never reach
/// `Sym::unary` in the extractor, but the constructor must still agree
/// with the reference on them.
const UN_OPS: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::BitNot, UnOp::Deref];

const NAMES: [&str; 6] = ["gfp_mask", "order", "page", "flags", "zone", "nid"];
const CALLEES: [&str; 5] =
    ["memalloc_noio_flags", "get_page_from_freelist", "prep_page", "zone_watermark_ok", "kmalloc"];

/// One step of the construction program: applies the same randomly
/// chosen constructor to both implementations and pushes the results.
fn step(rng: &mut Rng, refs: &mut Vec<RefSym>, syms: &mut Vec<Sym>) {
    debug_assert_eq!(refs.len(), syms.len());
    let pick = |rng: &mut Rng, len: usize| rng.below(len);
    match rng.below(10) {
        // Fresh leaves keep the pool from collapsing into unknowns.
        0 => {
            let n = NAMES[rng.below(NAMES.len())];
            refs.push(RefSym::Input(n.to_string()));
            syms.push(Sym::input(n));
        }
        1 => {
            // Mix small (pre-interned table), large, and negative ints.
            let v = match rng.below(4) {
                0 => rng.below(129) as i64,
                1 => -(rng.below(1000) as i64),
                2 => i64::MAX - rng.below(10) as i64,
                _ => rng.next() as i64,
            };
            refs.push(RefSym::Int(v));
            syms.push(Sym::int(v));
        }
        2 => {
            let n = rng.below(32) as u32;
            refs.push(RefSym::Temp(n));
            syms.push(Sym::temp(n));
        }
        3 => {
            let s = NAMES[rng.below(NAMES.len())];
            refs.push(RefSym::Str(s.to_string()));
            syms.push(Sym::str_lit(s));
        }
        4 => {
            refs.push(RefSym::Unknown);
            syms.push(Sym::unknown());
        }
        5..=7 => {
            let op = BIN_OPS[rng.below(BIN_OPS.len())];
            let (i, j) = (pick(rng, refs.len()), pick(rng, refs.len()));
            refs.push(RefSym::binary(op, refs[i].clone(), refs[j].clone()));
            syms.push(Sym::binary(op, syms[i], syms[j]));
        }
        8 => {
            let op = UN_OPS[rng.below(UN_OPS.len())];
            let i = pick(rng, refs.len());
            refs.push(RefSym::unary(op, refs[i].clone()));
            syms.push(Sym::unary(op, syms[i]));
        }
        _ => {
            let callee = CALLEES[rng.below(CALLEES.len())];
            let argc = rng.below(4);
            let idx: Vec<usize> = (0..argc).map(|_| pick(rng, refs.len())).collect();
            refs.push(RefSym::Call {
                callee: callee.to_string(),
                args: idx.iter().map(|&i| refs[i].clone()).collect(),
            });
            syms.push(Sym::call(callee, idx.iter().map(|&i| syms[i]).collect()));
        }
    }
}

#[test]
fn arena_matches_reference_trees_over_256_seeds() {
    for seed in 0..256u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1));
        let mut refs: Vec<RefSym> = Vec::new();
        let mut syms: Vec<Sym> = Vec::new();
        // Seed the pool so the first composite steps have operands.
        refs.push(RefSym::Input("x".into()));
        syms.push(Sym::input("x"));
        for stepno in 0..160 {
            step(&mut rng, &mut refs, &mut syms);
            let (r, s) = (refs.last().unwrap(), *syms.last().unwrap());
            assert_eq!(
                r.to_string(),
                s.to_string(),
                "seed {seed} step {stepno}: Display diverged"
            );
            assert_eq!(
                format!("{r:?}"),
                format!("{s:?}"),
                "seed {seed} step {stepno}: Debug diverged"
            );
            // Memoized size == counted size: the widening inputs agree,
            // so widening fires at exactly the same constructions (also
            // checked directly: unknown iff unknown).
            assert_eq!(
                r.count(),
                s.size() as usize,
                "seed {seed} step {stepno}: size diverged for `{s}`"
            );
            assert_eq!(
                matches!(r, RefSym::Unknown),
                s == Sym::unknown(),
                "seed {seed} step {stepno}: widening diverged"
            );
        }
        // Equality coherence across the whole pool: handles are equal
        // iff the reference trees are structurally equal. A hash-cons
        // collision (two structures on one node) or a missed dedup
        // (one structure on two nodes) both fail here.
        for _ in 0..64 {
            let i = rng.below(refs.len());
            let j = rng.below(refs.len());
            assert_eq!(
                refs[i] == refs[j],
                syms[i] == syms[j],
                "seed {seed}: equality diverged between #{i} `{}` and #{j} `{}`",
                refs[i],
                refs[j]
            );
        }
    }
}

#[test]
fn widening_threshold_matches_the_reference_exactly() {
    // Drive a `x = x * x + x` growth chain through both implementations
    // in lockstep; the step index where each first widens must match,
    // as must every intermediate rendering.
    let mut r = RefSym::Input("x".into());
    let mut s = Sym::input("x");
    let mut first_widen = None;
    for i in 0..64 {
        let rsq = RefSym::binary(BinOp::Mul, r.clone(), r.clone());
        r = RefSym::binary(BinOp::Add, rsq, r);
        let ssq = Sym::binary(BinOp::Mul, s, s);
        s = Sym::binary(BinOp::Add, ssq, s);
        assert_eq!(r.to_string(), s.to_string(), "step {i}");
        assert_eq!(
            matches!(r, RefSym::Unknown),
            s == Sym::unknown(),
            "step {i}: widening diverged"
        );
        if first_widen.is_none() && s == Sym::unknown() {
            first_widen = Some(i);
        }
    }
    assert!(first_widen.is_some(), "the chain must widen within 64 doublings");
}

// ---------------------------------------------------------------------------
// Extraction battery: every Sym the extractor produces round-trips
// through a reference tree back to the identical arena node, and
// extraction itself is reproducible event-for-event.
// ---------------------------------------------------------------------------

/// A seeded source-variant generator over templates the grammar is
/// known to accept: arithmetic rewrites, flag masks, helper calls, and
/// branches, parameterized by the seed.
fn variant_source(seed: u64) -> String {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let op = ["+", "-", "*", "&", "|", "^"][rng.below(6)];
    let k1 = rng.below(512);
    let k2 = rng.below(64);
    let name = NAMES[rng.below(NAMES.len())];
    let helper = CALLEES[rng.below(CALLEES.len())];
    format!(
        "int {helper}(int m);\n\
         int helper_{seed}(int v) {{ return v {op} {k2}; }}\n\
         int fast_{seed}(int {name}, int order) {{\n\
           int t = {name} {op} {k1};\n\
           if (order > {k2}) {{\n\
             t = {helper}(t);\n\
             {name} = t {op} {name};\n\
           }} else {{\n\
             t = helper_{seed}(t);\n\
           }}\n\
           if (t) return 1;\n\
           return 0;\n\
         }}\n"
    )
}

/// All symbolic values reachable from a path database.
fn db_syms(db: &pallas_sym::PathDb) -> Vec<Sym> {
    let mut out = Vec::new();
    for f in &db.functions {
        for rec in f.paths() {
            for ev in rec.events() {
                if let Event::State { value, .. } = ev {
                    out.push(*value);
                }
            }
            if let Some(v) = rec.output.value {
                out.push(v);
            }
        }
    }
    out
}

/// The event-multiset projection of a database: every event's Debug
/// rendering plus the per-path output, sorted.
fn event_multiset(db: &pallas_sym::PathDb) -> Vec<String> {
    let mut out = Vec::new();
    for f in &db.functions {
        for rec in f.paths() {
            for ev in rec.events() {
                out.push(format!("{}:{}:{ev:?}", f.name, rec.index));
            }
            out.push(format!("{}:{}:out:{:?}", f.name, rec.index, rec.output));
        }
    }
    out.sort();
    out
}

#[test]
fn extracted_syms_round_trip_through_reference_trees() {
    let mut total = 0usize;
    for seed in 0..256u64 {
        let src = variant_source(seed);
        let ast = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let db = extract("diff", &ast, &src, &ExtractConfig::default());
        for s in db_syms(&db) {
            let r = sym_to_ref(s);
            assert_eq!(r.to_string(), s.to_string(), "seed {seed}: projection changed rendering");
            let back = ref_to_sym_raw(&r);
            // Same *node*, not merely an equal value: interning is
            // canonical for every shape extraction produces.
            assert!(
                std::ptr::eq(s.node(), back.node()),
                "seed {seed}: `{s}` re-interned to a different node"
            );
            total += 1;
        }
        // Extraction is reproducible: a second run over a fresh AST
        // yields the identical event multiset (per-run interning state
        // never leaks into recorded events).
        let ast2 = parse(&src).unwrap();
        let db2 = extract("diff", &ast2, &src, &ExtractConfig::default());
        assert_eq!(
            event_multiset(&db),
            event_multiset(&db2),
            "seed {seed}: re-extraction changed the event multiset"
        );
    }
    assert!(total > 1000, "battery too weak: only {total} symbolic values exercised");
}
