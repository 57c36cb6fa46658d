//! Concurrent interning is canonical.
//!
//! Four threads run the same seeded construction program against the
//! sharded arena and interner, kept in lockstep by a barrier so that
//! they race to insert the same new values. Every thread must get the
//! same handle for every value, ids must be unique, and the global
//! node and string counts must grow by exactly the number of distinct
//! values — checked against a single-threaded hash-consing model of
//! the program. Each thread then builds every value a second time,
//! now mostly from its front cache, and must get the same handles
//! without adding a node or making as many shard lookups. The counts
//! are process-global, so this file holds a single test.

use pallas_lang::ast::{BinOp, UnOp};
use pallas_sym::{arena_lookups, arena_node_count, Istr, Sym};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const THREADS: usize = 4;
const STEPS: usize = 4096;
/// Steps between barrier waits.
const LOCKSTEP: usize = 64;

/// One construction: a leaf, or a node over earlier steps' values.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Step {
    Input(String),
    Str(String),
    Int(i64),
    Temp(u32),
    Call(String, Vec<usize>),
    Unary(UnOp, usize),
    Binary(BinOp, usize, usize),
}

/// SplitMix64.
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

/// A program whose names are private to `round`, so that nothing
/// interned before it (or by another round) can match its values.
/// Small pools of names and constants make values repeat.
fn program(round: u64) -> Vec<Step> {
    let mut rng = Rng(round);
    let mut steps = Vec::with_capacity(STEPS);
    for i in 0..STEPS {
        let kind = if i < 8 { rng.below(4) } else { rng.below(7) };
        let pick = |rng: &mut Rng| rng.below(i);
        steps.push(match kind {
            0 => Step::Input(format!("cc{round}_v{}", rng.below(24))),
            1 => Step::Str(format!("cc{round}_s{}", rng.below(8))),
            // Outside the pre-interned small-integer table.
            2 => Step::Int(1_000 + round as i64 * 100 + rng.below(40) as i64),
            3 => Step::Temp(1_000_000 + round as u32 * 100 + rng.below(40) as u32),
            4 => {
                let args = (0..rng.below(3)).map(|_| pick(&mut rng)).collect();
                Step::Call(format!("cc{round}_f{}", rng.below(6)), args)
            }
            5 => Step::Unary([UnOp::Neg, UnOp::Not, UnOp::BitNot][rng.below(3)], pick(&mut rng)),
            _ => {
                let op = [BinOp::Add, BinOp::Mul, BinOp::Lt, BinOp::BitAnd][rng.below(4)];
                let a = pick(&mut rng);
                Step::Binary(op, a, pick(&mut rng))
            }
        });
    }
    steps
}

/// Runs the program, returning every step's value and every name it
/// interned, in program order.
fn build(steps: &[Step], barrier: &Barrier) -> (Vec<Sym>, Vec<Istr>) {
    let mut syms: Vec<Sym> = Vec::with_capacity(steps.len());
    let mut names = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        if i % LOCKSTEP == 0 {
            barrier.wait();
        }
        let sym = match step {
            Step::Input(n) => {
                names.push(Istr::new(n));
                Sym::input(n.as_str())
            }
            Step::Str(s) => {
                names.push(Istr::new(s));
                Sym::str_lit(s.as_str())
            }
            Step::Int(v) => Sym::int(*v),
            Step::Temp(n) => Sym::temp(*n),
            Step::Call(f, args) => {
                names.push(Istr::new(f));
                Sym::call(f.as_str(), args.iter().map(|&a| syms[a]).collect())
            }
            Step::Unary(op, a) => Sym::unary_raw(*op, syms[*a]),
            Step::Binary(op, a, b) => Sym::binary_raw(*op, syms[*a], syms[*b]),
        };
        syms.push(sym);
    }
    (syms, names)
}

/// Runs the program twice. Between the runs every thread waits while
/// one of them reads the shard lookups made so far into `between`.
fn run(steps: &[Step], barrier: &Barrier, between: &AtomicU64) -> (Vec<Sym>, Vec<Istr>) {
    let first = build(steps, barrier);
    if barrier.wait().is_leader() {
        between.store(arena_lookups(), Ordering::SeqCst);
    }
    let second = build(steps, barrier);
    for (a, b) in first.0.iter().zip(&second.0) {
        assert!(std::ptr::eq(a.node(), b.node()), "a rebuilt value changed its node");
    }
    assert!(first.1 == second.1, "a re-interned name changed its address");
    first
}

/// The single-threaded model: each step's canonical class (equal
/// classes iff structurally equal values), the number of distinct
/// values, and the distinct names.
fn model(steps: &[Step]) -> (Vec<usize>, usize, HashSet<String>) {
    let mut canon: HashMap<Step, usize> = HashMap::new();
    let mut class = Vec::with_capacity(steps.len());
    let mut names = HashSet::new();
    for step in steps {
        // Children are replaced by their classes, so the key is
        // structural.
        let key = match step {
            Step::Input(n) | Step::Str(n) => {
                names.insert(n.clone());
                step.clone()
            }
            Step::Call(f, args) => {
                names.insert(f.clone());
                Step::Call(f.clone(), args.iter().map(|&a| class[a]).collect())
            }
            Step::Unary(op, a) => Step::Unary(*op, class[*a]),
            Step::Binary(op, a, b) => Step::Binary(*op, class[*a], class[*b]),
            Step::Int(_) | Step::Temp(_) => step.clone(),
        };
        let next = canon.len();
        class.push(*canon.entry(key).or_insert(next));
    }
    (class, canon.len(), names)
}

#[test]
fn threads_building_the_same_values_share_one_node_each() {
    for round in 0..8 {
        let steps = program(round);
        let (class, distinct, names) = model(&steps);
        let nodes_before = arena_node_count();
        let strings_before = Istr::interned_count();
        let lookups_before = arena_lookups();

        let barrier = Barrier::new(THREADS);
        let between = AtomicU64::new(0);
        let runs: Vec<(Vec<Sym>, Vec<Istr>)> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..THREADS).map(|_| s.spawn(|| run(&steps, &barrier, &between))).collect();
            handles.into_iter().map(|h| h.join().expect("interning thread")).collect()
        });
        let between = between.load(Ordering::SeqCst);
        let (first, second) = (between - lookups_before, arena_lookups() - between);
        assert!(
            second < first,
            "round {round}: the second build made {second} shard lookups, the first {first}"
        );

        let (first_syms, first_names) = &runs[0];
        for (syms, names) in &runs[1..] {
            for (a, b) in first_syms.iter().zip(syms) {
                let id = a.id();
                assert!(std::ptr::eq(a.node(), b.node()), "round {round}: two nodes for id {id}");
            }
            for (a, b) in first_names.iter().zip(names) {
                assert!(std::ptr::eq(a.as_str(), b.as_str()), "round {round}: two copies of {a}");
            }
        }

        // One id per structural class, and no id shared by two classes.
        let mut id_of_class: HashMap<usize, u32> = HashMap::new();
        for (sym, &c) in first_syms.iter().zip(&class) {
            assert_eq!(*id_of_class.entry(c).or_insert(sym.id()), sym.id(), "round {round}");
        }
        let ids: HashSet<u32> = id_of_class.values().copied().collect();
        assert_eq!(ids.len(), distinct, "round {round}: ids are not unique");
        assert!(ids.iter().all(|&id| (id as usize) < arena_node_count()), "round {round}");

        assert_eq!(arena_node_count() - nodes_before, distinct, "round {round}: node count");
        assert_eq!(
            Istr::interned_count() - strings_before,
            names.len(),
            "round {round}: string count"
        );
    }
}
