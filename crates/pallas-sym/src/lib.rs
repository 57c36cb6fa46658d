//! # pallas-sym
//!
//! Symbolic path extraction for the Pallas fast-path checker. Every
//! bounded CFG path is interpreted over symbolic values (`S#` inputs,
//! `I#` integers, `V#` temporaries, `E#` call results — the notation of
//! the paper's Table 5) to produce an ordered event timeline; the set
//! of timelines for a merged translation unit is the *path database*
//! the twelve rule checkers run over.
//!
//! ```
//! use pallas_sym::{extract, ExtractConfig};
//! use pallas_lang::parse;
//!
//! # fn main() -> Result<(), pallas_lang::ParseError> {
//! let src = "int f(int x) { if (x) return 1; return 0; }";
//! let ast = parse(src)?;
//! let db = extract("demo", &ast, src, &ExtractConfig::default());
//! let f = db.function("f").expect("extracted");
//! assert_eq!(f.literal_returns(), vec![0, 1]);
//! # Ok(())
//! # }
//! ```

pub mod callgraph;
mod env;
pub mod event;
pub mod extract;
pub mod feasible;
pub mod intern;
mod keys;
mod shard;
pub mod stats;
pub mod sym;
pub mod table5;
mod tables;

pub use callgraph::CallGraph;
pub use event::{CondSym, Event, EventId, FunctionPaths, OutputRecord, PathDb, PathRecord, PathView};
pub use extract::{extract, ExtractConfig, FunctionExtractor};
pub use feasible::{path_feasibility, ConstraintSet, Feasibility, FeasibilityOracle};
pub use intern::Istr;
pub use stats::DbStats;
pub use sym::{arena_lookups, arena_node_count, Sym, SymNode, MAX_SYM_NODES};
pub use table5::render_table5;
