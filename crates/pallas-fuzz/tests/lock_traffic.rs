//! Exact lock traffic of the symbol arena and the string interner.
//!
//! Every `Sym` constructor that reaches the arena and every
//! `Istr::new` call takes a shard lock, so the number of lookups is
//! the extractor's locking cost, counted exactly rather than timed.
//! This suite pins it for the first sixteen `deep_paths` pool units,
//! together with the node and string counts that must not move when
//! the lookups do. The counters are process-global: this file holds a
//! single test so that nothing else in its process interns.

use pallas_core::Engine;
use pallas_fuzz::{generate_with, GenConfig};
use pallas_sym::{arena_lookups, arena_node_count, Istr};

/// The `deep_paths` benchmark's generator knobs.
fn deep_config() -> GenConfig {
    GenConfig { loop_density: 30, max_block_len: 5, max_depth: 3, ..GenConfig::default() }
}

#[test]
fn pool_units_0_to_15_make_pinned_lookups() {
    let config = deep_config();
    for seed in 0..16u64 {
        let unit = generate_with(seed, &config).unit;
        Engine::new()
            .check_unit(&unit)
            .unwrap_or_else(|e| panic!("generator seed {seed} failed to check: {e}"));
    }
    let counts = [
        ("arena lookups", arena_lookups() as usize),
        ("interner lookups", Istr::lookup_count() as usize),
        ("arena nodes", arena_node_count()),
        ("interned strings", Istr::interned_count()),
    ];
    let pinned = [
        ("arena lookups", 4_847),
        ("interner lookups", 1_526),
        ("arena nodes", 1_171),
        ("interned strings", 153),
    ];
    assert_eq!(counts, pinned);
}
