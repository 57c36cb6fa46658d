//! Symbolic path extraction: CFG paths → [`PathDb`] event timelines.
//!
//! For every function the extractor enumerates bounded CFG paths and
//! interprets each path's statements over symbolic values, producing
//! the ordered [`Event`] timeline the checkers consume. Calls to
//! functions defined in the same (merged) unit can be *summary-inlined*
//! up to a configurable depth — the union of the callee's own events is
//! appended at `depth + 1` — mirroring the paper's "inlines a limited
//! number of callee functions" design (§4).
//!
//! Allocation discipline: events are interned into the function's event
//! table (see [`crate::event`]) by an [`EventKey`] built from AST ids
//! and [`Sym`]/[`Istr`] handles — the node that produced the event plus
//! the values that vary between paths — so an event's strings are built
//! only the first time its key is seen in the function, and every later
//! path pushes a `u32`. Callee summaries are interned once per calling
//! function and spliced as id lists. One [`Evaluator`] walks all paths
//! of a function as a trie, evaluating each shared prefix once and
//! rolling back to undo marks between paths (see
//! [`Evaluator::run_paths`]); expression renderings / atom sets /
//! lvalue keys are memoized per [`ExprId`] in unit-scoped caches, and
//! environment keys are interned [`Istr`]s.

use crate::env::Env;
use crate::event::{CondSym, Event, EventId, FunctionPaths, OutputRecord, PathDb, PathRecord};
use crate::feasible::FeasibilityOracle;
use crate::intern::Istr;
use crate::sym::{Sym, SymNode};
use crate::tables::FunctionTables;
use pallas_cfg::{
    build_cfg, enumerate_paths_reusing, BlockId, Cfg, CfgPath, Decision, NoOracle, PathConfig,
    PathScratch,
};
use pallas_lang::ast::{AssignOp, Ast, ExprId, ExprKind, StmtId, StmtKind, UnOp};
use pallas_lang::{expr_to_string, LineMap};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Extraction configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractConfig {
    /// CFG path-enumeration limits.
    pub paths: PathConfig,
    /// How many levels of same-unit callees to summary-inline
    /// (0 disables inlining).
    pub inline_depth: u8,
    /// Whether to prune provably infeasible decision arms during path
    /// enumeration (the [`crate::feasible`] engine). Pruning is sound —
    /// only contradictory condition sets are cut — so on an
    /// untruncated enumeration it can only remove paths no execution
    /// takes; under truncation it additionally frees budget for
    /// feasible paths the limits would otherwise have cut.
    pub prune_infeasible: bool,
    /// Whether to compute per-loop effect summaries
    /// ([`pallas_cfg::summarize_loops`]) and use them in two places:
    /// the extractor havocs exactly the may-written variable set when
    /// a path leaves a loop body (instead of trusting the bounded
    /// unroll's final bindings), and the feasibility oracle asserts
    /// loop-invariant conditions inside loop bodies instead of
    /// treating every in-loop decision as transparent.
    pub loop_summaries: bool,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            paths: PathConfig::default(),
            inline_depth: 1,
            prune_infeasible: true,
            loop_summaries: true,
        }
    }
}

impl ExtractConfig {
    /// A stable byte encoding of every field that influences
    /// extraction output. Content-addressed caches (the staged
    /// engine's frontend cache) must include these bytes in their
    /// keys: two configurations with different encodings can produce
    /// different path databases for the same source.
    ///
    /// Layout: the four [`PathConfig`] limits as little-endian `u64`s
    /// (bytes 0–31), then `inline_depth`, `prune_infeasible` and
    /// `loop_summaries` (bytes 32–34). Both structs are destructured
    /// exhaustively, so a field added to either one does not compile
    /// until it is encoded here.
    pub fn cache_key_bytes(&self) -> [u8; 35] {
        let ExtractConfig { paths, inline_depth, prune_infeasible, loop_summaries } = *self;
        let PathConfig { max_paths, max_visits, max_len, max_steps } = paths;
        let mut out = [0u8; 35];
        let limits = [max_paths, max_visits, max_len, max_steps];
        for (bytes, limit) in out.chunks_exact_mut(8).zip(limits) {
            bytes.copy_from_slice(&(limit as u64).to_le_bytes());
        }
        out[32] = inline_depth;
        out[33] = prune_infeasible as u8;
        out[34] = loop_summaries as u8;
        out
    }
}

/// Extracts the path database for a parsed unit.
///
/// `src` must be the exact text the unit was parsed from (line numbers
/// are derived from it).
pub fn extract(unit: &str, ast: &Ast, src: &str, config: &ExtractConfig) -> PathDb {
    let mut fx = FunctionExtractor::new(ast, src, config);
    let mut db = PathDb::new(unit);
    for func in ast.functions() {
        db.insert(fx.extract_function(&func.sig.name));
    }
    db
}

/// Per-function extraction over one parsed unit, sharing the callee
/// summary memo across calls. This is the incremental re-analysis
/// entry point: a caller that can prove some functions' content
/// unchanged (the persistent store's per-function hashes) reuses their
/// stored [`FunctionPaths`] and extracts only the rest. Extracting
/// every function in [`Ast::functions`] order is exactly [`extract`].
pub struct FunctionExtractor<'a> {
    ast: &'a Ast,
    lm: LineMap,
    config: ExtractConfig,
    caches: ExtractCaches,
}

impl<'a> FunctionExtractor<'a> {
    /// Prepares extraction for `ast`, which must have been parsed from
    /// exactly `src` (line numbers are derived from it).
    pub fn new(ast: &'a Ast, src: &str, config: &ExtractConfig) -> Self {
        FunctionExtractor {
            ast,
            lm: LineMap::new(src),
            config: *config,
            caches: ExtractCaches::default(),
        }
    }

    /// Extracts the paths of one function defined in the unit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a function defined in the AST.
    pub fn extract_function(&mut self, name: &str) -> FunctionPaths {
        let mut span = pallas_trace::span(pallas_trace::Layer::Paths, name);
        let fp = extract_function(self.ast, &self.lm, name, &self.config, &mut self.caches);
        span.attr_u64("paths", fp.records.len() as u64);
        span.attr_bool("truncated", fp.truncated);
        span.attr_u64("pruned", fp.pruned as u64);
        fp
    }

    /// `(hits, misses)` of the callee summary memo so far. A hit means
    /// a call site reused an already-computed `(callee, depth)` summary
    /// (including the empty placeholder that breaks recursion cycles)
    /// instead of re-extracting the callee.
    pub fn summary_cache_stats(&self) -> (u64, u64) {
        (self.caches.summary_hits, self.caches.summary_misses)
    }

    /// `(loops summarized, variables havocked)` so far: how many
    /// natural loops got effect summaries and how many environment
    /// bindings were havocked at loop exits across all extracted
    /// paths. Both stay zero with `loop_summaries` off.
    pub fn loop_summary_stats(&self) -> (u64, u64) {
        (self.caches.loops_summarized, self.caches.vars_havocked)
    }
}

/// Unit-scoped memo state shared by every function extracted from one
/// AST: callee summaries plus per-[`ExprId`] derived-string caches
/// (all pure functions of the AST, so they never need invalidation).
#[derive(Default)]
struct ExtractCaches {
    /// Callee summaries keyed by `(function, remaining depth)`, with
    /// every event already one level deeper (as spliced).
    summaries: HashMap<(Istr, u8), Vec<Event>>,
    summary_hits: u64,
    summary_misses: u64,
    /// Rendered expression text (event `text` fields, callee names).
    texts: HashMap<ExprId, String>,
    /// Canonical lvalue key, `None` for non-lvalues.
    lvalues: HashMap<ExprId, Option<Istr>>,
    /// Interned declared names.
    decls: HashMap<StmtId, Istr>,
    /// Interned callee names (keyed by the callee expression).
    callees: HashMap<ExprId, Istr>,
    /// Values of constant leaves: string literals and `sizeof(T)`.
    leaves: HashMap<ExprId, Sym>,
    /// Name atoms mentioned by an expression.
    atoms: HashMap<ExprId, Vec<String>>,
    /// Reused DFS buffers for path enumeration (one per unit, warm
    /// across every function and inlined callee).
    paths_scratch: PathScratch,
    /// Natural loops summarized across every extraction in the unit
    /// (including inlined callees).
    loops_summarized: u64,
    /// Variable bindings havocked at loop exits across every path.
    vars_havocked: u64,
}

fn extract_function(
    ast: &Ast,
    lm: &LineMap,
    name: &str,
    config: &ExtractConfig,
    caches: &mut ExtractCaches,
) -> FunctionPaths {
    let func = ast.function(name).expect("function exists");
    let cfg = build_cfg(ast, func);
    let with_loops = config.prune_infeasible || config.loop_summaries;
    let tables = Rc::new(FunctionTables::new(ast, &cfg, with_loops));
    let paths = if config.prune_infeasible {
        let mut oracle = FeasibilityOracle::with_tables(ast, Rc::clone(&tables));
        if !config.loop_summaries {
            oracle = oracle.without_loop_summaries();
        }
        enumerate_paths_reusing(&cfg, &config.paths, &mut oracle, &mut caches.paths_scratch)
    } else {
        enumerate_paths_reusing(&cfg, &config.paths, &mut NoOracle, &mut caches.paths_scratch)
    };
    if config.loop_summaries {
        caches.loops_summarized += tables.loops.len() as u64;
    }
    let mut ev = Evaluator::new(ast, lm, config, &cfg, &tables, caches);
    let records = ev.run_paths(&paths.paths);
    FunctionPaths {
        name: func.sig.name.clone(),
        signature: func.sig.to_string(),
        params: func.sig.params.iter().map(|p| p.name.clone()).collect(),
        line: lm.line(func.span.start),
        events: ev.table,
        records,
        truncated: paths.truncated,
        pruned: paths.pruned,
    }
}

/// Computes (and memoizes) the summary event set of a callee: the union
/// of events over all of its extracted paths, deduplicated, each one
/// level deeper than in the callee's own timeline. `remaining`
/// is the inlining budget left at the *call site*: the callee's own
/// extraction gets `remaining - 1`, so a budget of 2 surfaces the
/// callee's callees' conditions at cumulative depth 2, and so on.
///
/// Returns a borrow of the memoized entry: a calling function interns
/// it into its own event table once and splices the resulting id list,
/// and the union vector itself is inserted exactly once (no
/// insert-empty-then-overwrite double write of the final value, no
/// defensive clone of the whole union).
fn callee_summary<'c>(
    ast: &Ast,
    lm: &LineMap,
    name: Istr,
    remaining: u8,
    base: &ExtractConfig,
    caches: &'c mut ExtractCaches,
) -> &'c [Event] {
    const EMPTY: &[Event] = &[];
    if remaining == 0 {
        return EMPTY;
    }
    let key = (name, remaining);
    if caches.summaries.contains_key(&key) {
        caches.summary_hits += 1;
        return &caches.summaries[&key];
    }
    caches.summary_misses += 1;
    // Insert a placeholder first to break recursion cycles.
    caches.summaries.insert(key, Vec::new());
    let sub_config = ExtractConfig {
        paths: PathConfig { max_paths: 64, ..base.paths },
        inline_depth: remaining - 1,
        ..*base
    };
    let fp = extract_function(ast, lm, name.as_str(), &sub_config, caches);
    // Distinct ids first (cheap), then structural dedup: two keys can
    // build equal events.
    let mut visited = vec![false; fp.events.len()];
    let mut seen = HashSet::new();
    let mut union = Vec::new();
    for rec in &fp.records {
        for &id in &rec.events {
            let e = &fp.events[id.index()];
            if !std::mem::replace(&mut visited[id.index()], true) && seen.insert(e) {
                let mut e = e.clone();
                match &mut e {
                    Event::Cond { depth, .. }
                    | Event::State { depth, .. }
                    | Event::Call { depth, .. }
                    | Event::Decl { depth, .. } => *depth += 1,
                }
                union.push(e);
            }
        }
    }
    caches.summaries.insert(key, union);
    &caches.summaries[&key]
}

/// What fully determines an event the evaluator produces (always at
/// depth 0): the AST node it comes from plus the path-dependent values.
/// Two paths producing the same key produce the same event, so the
/// key — AST ids and [`Sym`]/[`Istr`] handles, cheap to hash — stands
/// in for the event when interning.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum EventKey {
    /// The `Decl` of a declaration statement.
    Decl(StmtId),
    /// The initializing `State` of a declaration, with its value.
    Init(StmtId, Sym),
    /// The `State` written by an assignment or `++`/`--` expression.
    Write(ExprId, Sym),
    /// A branch condition, the arm taken, and the condition's value.
    Branch(ExprId, bool, Sym),
    /// A switch scrutinee, its case label (`None` = `default`), and
    /// the scrutinee's value.
    Switch(ExprId, Option<ExprId>, Sym),
    /// A ternary condition and its value.
    Ternary(ExprId, Sym),
    /// A call expression, the lvalue its result was assigned to, and
    /// whether it sat inside a flow-control condition.
    Call(ExprId, Option<Istr>, bool),
}

/// One unit of a path's evaluation. A path is the sequence of its
/// steps; consecutive enumerated paths share a prefix of steps, and
/// that prefix is evaluated once.
#[derive(Clone, Copy, PartialEq)]
enum Step<'p> {
    /// Run block `bb`'s statements, entered from `prev` (which decides
    /// the loop-exit havoc).
    Enter { bb: BlockId, prev: Option<BlockId> },
    /// Record a decision the path made. A decision of the path's last
    /// block leads nowhere on the path, so it is not a step.
    Decide(&'p Decision),
}

/// The steps of `path`, into `out`.
fn steps_of<'p>(path: &'p CfgPath, out: &mut Vec<Step<'p>>) {
    out.clear();
    let mut decisions = path.decisions.iter().peekable();
    for (i, &bb) in path.blocks.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| path.blocks[p]);
        out.push(Step::Enter { bb, prev });
        if i + 1 < path.blocks.len() {
            if let Some(d) = decisions.next_if(|d| d.block() == bb) {
                out.push(Step::Decide(d));
            }
        }
    }
}

/// Evaluator state after some prefix of steps: everything
/// [`Evaluator::rollback`] needs to return to it. The in-condition
/// depth is zero between steps, so it needs no slot.
#[derive(Clone, Copy)]
struct Mark {
    env: usize,
    undo: usize,
    path: usize,
    temp: u32,
    havocked: u64,
    splices: u64,
}

/// A change to the current path's timeline or pending calls, logged
/// so that [`Evaluator::rollback`] can reverse it.
enum Undo {
    /// `path[at]` held `prev` before a call result was assigned.
    Rewrite { at: usize, prev: EventId },
    /// A call was pushed onto `unassigned_calls`.
    Pushed,
    /// This call was popped off `unassigned_calls`.
    Popped((usize, ExprId, bool)),
}

struct Evaluator<'a> {
    ast: &'a Ast,
    lm: &'a LineMap,
    config: &'a ExtractConfig,
    cfg: &'a Cfg,
    env: Env,
    temp_counter: u32,
    in_condition: u32,
    /// The function's event table under construction.
    table: Vec<Event>,
    /// Interning index over `table`.
    index: HashMap<EventKey, EventId>,
    /// Callee summaries already interned into `table`.
    spliced: HashMap<Istr, Vec<EventId>>,
    /// The current path's timeline.
    path: Vec<EventId>,
    /// The current path's depth-0 calls whose result has not been
    /// assigned yet: `(timeline position, call expr, in condition)`,
    /// most recent last.
    unassigned_calls: Vec<(usize, ExprId, bool)>,
    /// Rewrites of `path` and changes to `unassigned_calls` along the
    /// current prefix, newest last.
    undo: Vec<Undo>,
    /// Bindings the current path havocked at loop exits.
    havocked: u64,
    /// Callee summaries the current path spliced.
    splices: u64,
    /// The function's step expressions and loop-exit havoc lists.
    tables: &'a FunctionTables,
    caches: &'a mut ExtractCaches,
}

impl<'a> Evaluator<'a> {
    fn new(
        ast: &'a Ast,
        lm: &'a LineMap,
        config: &'a ExtractConfig,
        cfg: &'a Cfg,
        tables: &'a FunctionTables,
        caches: &'a mut ExtractCaches,
    ) -> Self {
        Evaluator {
            ast,
            lm,
            config,
            cfg,
            env: Env::default(),
            temp_counter: 0,
            in_condition: 0,
            table: Vec::new(),
            index: HashMap::new(),
            spliced: HashMap::new(),
            path: Vec::new(),
            unassigned_calls: Vec::new(),
            undo: Vec::new(),
            havocked: 0,
            splices: 0,
            tables,
            caches,
        }
    }

    /// Interprets the enumerated paths in order, walking the trie they
    /// form: each path rolls back to the mark where it leaves the
    /// previous path and evaluates only its own remaining steps.
    ///
    /// Re-evaluating a shared prefix would only re-intern events and
    /// re-build symbolic values that already exist, so the event table
    /// and every record come out exactly as if each path ran from the
    /// entry. The per-path counters keep that meaning too: each path
    /// adds its own havoc count at its leaf, and every splice on every
    /// path counts as a summary-memo hit except the function's first
    /// splice of each callee, which `callee_summary` counts.
    fn run_paths(&mut self, paths: &[CfgPath]) -> Vec<PathRecord> {
        let mut records = Vec::with_capacity(paths.len());
        let (mut prev, mut steps) = (Vec::new(), Vec::new());
        let mut marks = vec![self.mark()];
        let mut splices = 0;
        for (index, path) in paths.iter().enumerate() {
            steps_of(path, &mut steps);
            let shared = prev.iter().zip(&steps).take_while(|(a, b)| a == b).count();
            marks.truncate(shared + 1);
            self.rollback(marks[shared]);
            for &step in &steps[shared..] {
                self.run_step(step);
                marks.push(self.mark());
            }
            records.push(self.finish_path(path, index));
            self.caches.vars_havocked += self.havocked;
            splices += self.splices;
            std::mem::swap(&mut prev, &mut steps);
        }
        self.caches.summary_hits += splices - self.spliced.len() as u64;
        records
    }

    fn mark(&self) -> Mark {
        debug_assert_eq!(self.in_condition, 0, "marks sit between steps");
        Mark {
            env: self.env.mark(),
            undo: self.undo.len(),
            path: self.path.len(),
            temp: self.temp_counter,
            havocked: self.havocked,
            splices: self.splices,
        }
    }

    fn rollback(&mut self, mark: Mark) {
        self.env.rollback(mark.env);
        for undo in self.undo.drain(mark.undo..).rev() {
            match undo {
                Undo::Rewrite { at, prev } => self.path[at] = prev,
                Undo::Pushed => {
                    self.unassigned_calls.pop();
                }
                Undo::Popped(call) => self.unassigned_calls.push(call),
            }
        }
        self.path.truncate(mark.path);
        self.temp_counter = mark.temp;
        self.havocked = mark.havocked;
        self.splices = mark.splices;
    }

    fn run_step(&mut self, step: Step) {
        match step {
            Step::Enter { bb, prev } => {
                // A loop-exit stand-in path ran the body a bounded
                // number of times; the real execution may have run it
                // arbitrarily often. Havoc exactly the may-written set
                // so post-loop events never see the k-th iteration's
                // bindings.
                let tables = self.tables;
                let exit = prev.and_then(|p| tables.exit(p, bb));
                if let Some(exit) = exit.filter(|_| self.config.loop_summaries) {
                    for &key in &exit.keys {
                        self.env.bind(key, Sym::unknown());
                    }
                    self.havocked += exit.keys.len() as u64;
                }
                for &stmt in &self.cfg.block(bb).stmts {
                    self.exec_stmt(stmt);
                }
                for &step in tables.steps(bb) {
                    self.eval(step);
                }
            }
            Step::Decide(d) => self.record_decision(d),
        }
    }

    /// Evaluates the path's return value and emits its record.
    fn finish_path(&mut self, path: &CfgPath, index: usize) -> PathRecord {
        let output = match path.ret {
            Some(e) => {
                let value = self.eval_in_return(e);
                OutputRecord {
                    line: self.line_of(e),
                    text: self.text_of(e),
                    value: Some(value),
                    vars: self.atoms_of(e),
                }
            }
            None => OutputRecord {
                line: path
                    .blocks
                    .last()
                    .map(|&b| self.lm.line(self.cfg.block(b).span.start))
                    .unwrap_or(0),
                text: String::new(),
                value: None,
                vars: Vec::new(),
            },
        };
        PathRecord { index, events: self.path.to_vec(), output }
    }

    /// Appends the event named by `key` to the current path, building
    /// it (and its strings) only if the function has not seen `key`.
    fn push(&mut self, key: EventKey, build: impl FnOnce(&mut Self) -> Event) {
        let id = self.intern(key, build);
        self.path.push(id);
    }

    fn intern(&mut self, key: EventKey, build: impl FnOnce(&mut Self) -> Event) -> EventId {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let event = build(self);
        let id = EventId(self.table.len() as u32);
        self.table.push(event);
        self.index.insert(key, id);
        id
    }

    /// Appends a callee's summary to the current path, interning it
    /// into the table on the function's first call to `callee`.
    fn splice_summary(&mut self, callee: Istr) {
        self.splices += 1;
        if let Some(ids) = self.spliced.get(&callee) {
            self.path.extend_from_slice(ids);
            return;
        }
        let remaining = self.config.inline_depth;
        let summary =
            callee_summary(self.ast, self.lm, callee, remaining, self.config, self.caches);
        let first = self.table.len() as u32;
        self.table.extend_from_slice(summary);
        let ids: Vec<EventId> = (first..self.table.len() as u32).map(EventId).collect();
        self.path.extend_from_slice(&ids);
        self.spliced.insert(callee, ids);
    }

    fn line_of(&self, e: ExprId) -> u32 {
        self.lm.line(self.ast.expr(e).span.start)
    }

    /// Memoized `expr_to_string`.
    fn text_of(&mut self, e: ExprId) -> String {
        if let Some(t) = self.caches.texts.get(&e) {
            return t.clone();
        }
        let t = expr_to_string(self.ast, e);
        self.caches.texts.insert(e, t.clone());
        t
    }

    /// The interned name a declaration binds. Memoized per statement.
    fn decl_key(&mut self, id: StmtId, name: &str) -> Istr {
        *self.caches.decls.entry(id).or_insert_with(|| Istr::new(name))
    }

    /// The value of a constant leaf (`build` runs once per
    /// expression). Memoized per expression.
    fn leaf(&mut self, e: ExprId, build: impl FnOnce() -> Sym) -> Sym {
        *self.caches.leaves.entry(e).or_insert_with(build)
    }

    fn exec_stmt(&mut self, id: pallas_lang::StmtId) {
        let ast = self.ast;
        let stmt = ast.stmt(id);
        match &stmt.kind {
            StmtKind::Decl { name, init, .. } => {
                let line = self.lm.line(stmt.span.start);
                self.push(EventKey::Decl(id), |_| Event::Decl {
                    line,
                    name: name.clone(),
                    has_init: init.is_some(),
                    depth: 0,
                });
                match init {
                    Some(e) => {
                        let e = *e;
                        let key = self.decl_key(id, name);
                        let value = self.eval(e);
                        let value = self.detemporalize_call(value, key);
                        self.push(EventKey::Init(id, value), |ev| Event::State {
                            line,
                            lvalue: name.clone(),
                            value,
                            text: format!("{name} = {}", ev.text_of(e)),
                            reads: ev.atoms_of(e),
                            depth: 0,
                        });
                        self.env.bind(key, value);
                    }
                    None => {
                        // Declared but uninitialized: poison so reads
                        // can be recognized by the init checker.
                        let key = self.decl_key(id, name);
                        self.env.bind(key, Sym::unknown());
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.eval(*e);
            }
            _ => {}
        }
    }

    fn record_decision(&mut self, d: &Decision) {
        match d {
            Decision::Branch { cond, taken, .. } => {
                self.in_condition += 1;
                let sym = self.eval(*cond);
                self.in_condition -= 1;
                let (cond, taken) = (*cond, *taken);
                self.push(EventKey::Branch(cond, taken, sym), |ev| Event::Cond {
                    line: ev.line_of(cond),
                    text: ev.text_of(cond),
                    symbolic: CondSym { value: sym, suffix: String::new() },
                    vars: ev.atoms_of(cond),
                    taken: Some(taken),
                    depth: 0,
                });
            }
            Decision::Switch { scrutinee, case, .. } => {
                self.in_condition += 1;
                let sym = self.eval(*scrutinee);
                self.in_condition -= 1;
                let (scrutinee, case) = (*scrutinee, *case);
                self.push(EventKey::Switch(scrutinee, case, sym), |ev| {
                    let suffix = case
                        .map(|c| format!(" == case {}", ev.text_of(c)))
                        .unwrap_or_else(|| " == default".to_string());
                    let mut vars = ev.atoms_of(scrutinee);
                    if let Some(c) = case {
                        for atom in ev.atoms_of(c) {
                            if !vars.contains(&atom) {
                                vars.push(atom);
                            }
                        }
                    }
                    Event::Cond {
                        line: ev.line_of(scrutinee),
                        text: format!("{}{suffix}", ev.text_of(scrutinee)),
                        symbolic: CondSym { value: sym, suffix },
                        vars,
                        taken: None,
                        depth: 0,
                    }
                });
            }
        }
    }

    fn eval_in_return(&mut self, e: ExprId) -> Sym {
        self.eval(e)
    }

    /// If the value is a raw call result, rewrite it as a `V#` temp (the
    /// Table 5 convention) and point the most recent unassigned Call
    /// event at the assigned lvalue, by re-interning it under its
    /// assigned key. Only the function's own call events qualify —
    /// summary events spliced from callees sit at depth > 0 and must
    /// not absorb the assignment.
    fn detemporalize_call(&mut self, value: Sym, lvalue: Istr) -> Sym {
        if let SymNode::Call { .. } = value.node() {
            if let Some(popped) = self.unassigned_calls.pop() {
                self.undo.push(Undo::Popped(popped));
                let (at, call, in_condition) = popped;
                let unassigned = self.path[at];
                self.undo.push(Undo::Rewrite { at, prev: unassigned });
                let key = EventKey::Call(call, Some(lvalue), in_condition);
                self.path[at] = self.intern(key, |ev| {
                    let mut event = ev.table[unassigned.index()].clone();
                    if let Event::Call { assigned_to, .. } = &mut event {
                        *assigned_to = Some(lvalue.to_string());
                    }
                    event
                });
            }
            self.temp_counter += 1;
            return Sym::temp(self.temp_counter);
        }
        value
    }

    /// Canonical (interned) lvalue key for identifier / member / index
    /// / deref chains; `None` for non-lvalue expressions. Memoized per
    /// expression.
    fn lvalue_key(&mut self, e: ExprId) -> Option<Istr> {
        if let Some(k) = self.caches.lvalues.get(&e) {
            return *k;
        }
        let key = match &self.ast.expr(e).kind {
            ExprKind::Ident(_) | ExprKind::Member { .. } | ExprKind::Index(..) => {
                Some(Istr::new(&expr_to_string(self.ast, e)))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.lvalue_key(*inner).map(|k| Istr::new(&format!("*{k}")))
            }
            _ => None,
        };
        self.caches.lvalues.insert(e, key);
        key
    }

    /// Name atoms mentioned by an expression: identifiers, full member
    /// paths, and bare field names. Memoized per expression.
    fn atoms_of(&mut self, e: ExprId) -> Vec<String> {
        if let Some(v) = self.caches.atoms.get(&e) {
            return v.clone();
        }
        let mut set = Vec::new();
        let mut push = |s: String| {
            if !set.contains(&s) {
                set.push(s);
            }
        };
        self.ast.walk_expr(e, &mut |id| match &self.ast.expr(id).kind {
            ExprKind::Ident(n) => push(n.clone()),
            ExprKind::Member { field, .. } => {
                push(field.clone());
                push(expr_to_string(self.ast, id));
            }
            _ => {}
        });
        self.caches.atoms.insert(e, set.clone());
        set
    }

    fn eval(&mut self, e: ExprId) -> Sym {
        let ast = self.ast;
        match &ast.expr(e).kind {
            ExprKind::Int(v) => Sym::int(*v),
            ExprKind::Str(s) => self.leaf(e, || Sym::str_lit(s.as_str())),
            ExprKind::Ident(_) => {
                let key = self.lvalue_key(e).expect("identifiers are lvalues");
                self.env.get(key)
            }
            ExprKind::Unary(op, inner) => {
                let (op, inner) = (*op, *inner);
                if op.mutates() {
                    let value = self.eval(inner);
                    if let Some(key) = self.lvalue_key(inner) {
                        let delta = if matches!(op, UnOp::PreInc | UnOp::PostInc) { 1 } else { -1 };
                        let new = Sym::binary(
                            pallas_lang::ast::BinOp::Add,
                            value,
                            Sym::int(delta),
                        );
                        self.push(EventKey::Write(e, new), |ev| Event::State {
                            line: ev.line_of(e),
                            lvalue: key.to_string(),
                            value: new,
                            text: ev.text_of(e),
                            reads: ev.atoms_of(inner),
                            depth: 0,
                        });
                        self.env.bind(key, new);
                        return match op {
                            UnOp::PostInc | UnOp::PostDec => value,
                            _ => new,
                        };
                    }
                    return Sym::unknown();
                }
                if matches!(op, UnOp::Addr) {
                    // Taking an address counts as a read; value unknown.
                    self.eval(inner);
                    return Sym::unknown();
                }
                let v = self.eval(inner);
                if matches!(op, UnOp::Deref) {
                    return match self.lvalue_key(e) {
                        Some(key) => self.env.get(key),
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
                let mut value = match op {
                    AssignOp::Assign => rhs_value,
                    AssignOp::Compound(bin) => {
                        let cur = self.env.get(key);
                        Sym::binary(bin, cur, rhs_value)
                    }
                };
                value = self.detemporalize_call(value, key);
                self.push(EventKey::Write(e, value), |ev| {
                    let mut reads = ev.atoms_of(rhs);
                    if matches!(op, AssignOp::Compound(_)) {
                        for a in ev.atoms_of(lhs) {
                            if !reads.contains(&a) {
                                reads.push(a);
                            }
                        }
                    }
                    Event::State {
                        line: ev.line_of(e),
                        lvalue: key.to_string(),
                        value,
                        text: ev.text_of(e),
                        reads,
                        depth: 0,
                    }
                });
                self.env.bind(key, value);
                value
            }
            ExprKind::Ternary(c, t, el) => {
                let (c, t, el) = (*c, *t, *el);
                self.in_condition += 1;
                let sym = self.eval(c);
                self.in_condition -= 1;
                self.push(EventKey::Ternary(c, sym), |ev| Event::Cond {
                    line: ev.line_of(c),
                    text: ev.text_of(c),
                    symbolic: CondSym { value: sym, suffix: String::new() },
                    vars: ev.atoms_of(c),
                    taken: None,
                    depth: 0,
                });
                let tv = self.eval(t);
                let ev = self.eval(el);
                if tv == ev {
                    tv
                } else {
                    Sym::unknown()
                }
            }
            ExprKind::Call { callee, args } => {
                let callee_name = match self.caches.callees.get(callee) {
                    Some(&n) => n,
                    None => {
                        let n = Istr::new(&self.text_of(*callee));
                        self.caches.callees.insert(*callee, n);
                        n
                    }
                };
                let arg_syms: Vec<Sym> = args.iter().map(|&a| self.eval(a)).collect();
                let in_condition = self.in_condition > 0;
                self.unassigned_calls.push((self.path.len(), e, in_condition));
                self.undo.push(Undo::Pushed);
                self.push(EventKey::Call(e, None, in_condition), |ev| {
                    let mut arg_vars = Vec::new();
                    for &a in args {
                        for atom in ev.atoms_of(a) {
                            if !arg_vars.contains(&atom) {
                                arg_vars.push(atom);
                            }
                        }
                    }
                    Event::Call {
                        line: ev.line_of(e),
                        callee: callee_name.to_string(),
                        arg_vars,
                        assigned_to: None,
                        in_condition,
                        depth: 0,
                    }
                });
                // Summary-inline same-unit callees.
                if self.config.inline_depth > 0 && ast.function(callee_name.as_str()).is_some() {
                    self.splice_summary(callee_name);
                }
                Sym::call(callee_name, arg_syms)
            }
            ExprKind::Member { base, .. } => {
                let base = *base;
                self.eval(base);
                match self.lvalue_key(e) {
                    Some(key) => self.env.get(key),
                    None => Sym::unknown(),
                }
            }
            ExprKind::Index(b, i) => {
                let (b, i) = (*b, *i);
                self.eval(b);
                self.eval(i);
                match self.lvalue_key(e) {
                    Some(key) => self.env.get(key),
                    None => Sym::unknown(),
                }
            }
            ExprKind::Cast(_, inner) => self.eval(*inner),
            ExprKind::SizeofType(ty) => self.leaf(e, || Sym::input(format!("sizeof({ty})"))),
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

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;

    fn db_of(src: &str) -> PathDb {
        let ast = parse(src).unwrap();
        extract("test", &ast, src, &ExtractConfig::default())
    }

    #[test]
    fn cache_key_byte_layout_is_stable() {
        // Persisted store keys and frontend fingerprints hash these
        // bytes: the layout must not drift.
        let config = ExtractConfig {
            paths: PathConfig { max_paths: 1, max_visits: 2, max_len: 3, max_steps: 0x0405 },
            inline_depth: 6,
            prune_infeasible: true,
            loop_summaries: false,
        };
        let mut expected = [0u8; 35];
        expected[0] = 1;
        expected[8] = 2;
        expected[16] = 3;
        expected[24..26].copy_from_slice(&[5, 4]);
        expected[32..35].copy_from_slice(&[6, 1, 0]);
        assert_eq!(config.cache_key_bytes(), expected);
    }

    #[test]
    fn straight_line_states_recorded() {
        let db = db_of("int f(int x) {\n  int y = x + 1;\n  y = y * 2;\n  return y;\n}");
        let f = db.function("f").unwrap();
        assert_eq!(f.records.len(), 1);
        let rec = f.path(0);
        let states: Vec<_> = rec.states().collect();
        assert_eq!(states.len(), 2);
        match &states[1] {
            Event::State { lvalue, line, .. } => {
                assert_eq!(lvalue, "y");
                assert_eq!(*line, 3);
            }
            _ => unreachable!(),
        }
        // y = (x+1)*2 stays symbolic in x.
        assert!(rec.output.value.unwrap().mentions("x"));
    }

    #[test]
    fn constant_propagation_to_return() {
        let db = db_of("int f(void) { int a = 2; int b = a + 3; return b * 2; }");
        let f = db.function("f").unwrap();
        assert_eq!(f.records[0].output.value, Some(Sym::int(10)));
        assert_eq!(f.literal_returns(), vec![10]);
    }

    #[test]
    fn branch_conditions_recorded_per_path() {
        let db = db_of("int f(int x) {\n  if (x > 0)\n    return 1;\n  return 0;\n}");
        let f = db.function("f").unwrap();
        assert_eq!(f.records.len(), 2);
        for rec in f.paths() {
            assert!(rec.checks_atom("x"));
            assert_eq!(rec.conditions().count(), 1);
        }
        assert_eq!(f.literal_returns(), vec![0, 1]);
    }

    #[test]
    fn member_lvalues_tracked() {
        let db = db_of(
            "struct page { int private; };\n\
             int f(struct page *page, int migratetype) {\n\
               page->private = migratetype;\n\
               page->private = 0;\n\
               return page->private;\n\
             }",
        );
        let f = db.function("f").unwrap();
        let rec = f.path(0);
        let lvalues: Vec<&str> = rec
            .states()
            .map(|e| match e {
                Event::State { lvalue, .. } => lvalue.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lvalues, vec!["page->private", "page->private"]);
        assert_eq!(rec.output.value, Some(Sym::int(0)));
    }

    #[test]
    fn calls_recorded_with_assignment_target() {
        let db = db_of(
            "int g(int a);\n\
             int f(int x) {\n\
               int r = g(x);\n\
               if (r < 0)\n\
                 return -1;\n\
               return 0;\n\
             }",
        );
        let f = db.function("f").unwrap();
        let rec = f.path(0);
        let call = rec.calls().next().unwrap();
        match call {
            Event::Call { callee, assigned_to, in_condition, arg_vars, .. } => {
                assert_eq!(callee, "g");
                assert_eq!(assigned_to.as_deref(), Some("r"));
                assert!(!in_condition);
                assert_eq!(arg_vars, &vec!["x".to_string()]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn call_inside_condition_flagged() {
        let db = db_of(
            "int ok(int a);\n\
             int f(int x) { if (ok(x)) return 1; return 0; }",
        );
        let f = db.function("f").unwrap();
        let call = f.path(0).calls().next().unwrap();
        assert!(matches!(call, Event::Call { in_condition: true, .. }));
    }

    #[test]
    fn compound_assignment_reads_lhs() {
        let db = db_of("int f(int x) { x |= 4; return x; }");
        let f = db.function("f").unwrap();
        let st = f.path(0).states().next().unwrap();
        match st {
            Event::State { lvalue, reads, .. } => {
                assert_eq!(lvalue, "x");
                assert!(reads.contains(&"x".to_string()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn increment_is_a_state_update() {
        let db = db_of("int f(int i) { i++; return i; }");
        let f = db.function("f").unwrap();
        assert_eq!(f.path(0).states().count(), 1);
    }

    #[test]
    fn ternary_condition_recorded() {
        let db = db_of("int f(int flag) { return flag ? 1 : 0; }");
        let f = db.function("f").unwrap();
        assert!(f.path(0).checks_atom("flag"));
    }

    #[test]
    fn summary_inlining_surfaces_callee_conditions() {
        let src = "int handle_fault(int err) {\n\
               if (err == -5)\n\
                 return 1;\n\
               return 0;\n\
             }\n\
             int f(int err) {\n\
               handle_fault(err);\n\
               return 0;\n\
             }";
        let db = db_of(src);
        let f = db.function("f").unwrap();
        // The callee's `err == -5` check appears at depth 1.
        let has_inlined_cond = f.path(0).conditions()
            .any(|e| matches!(e, Event::Cond { depth: 1, vars, .. } if vars.iter().any(|v| v == "err")));
        assert!(has_inlined_cond);
        // With inlining disabled it does not.
        let ast = parse(src).unwrap();
        let db0 = extract(
            "test",
            &ast,
            src,
            &ExtractConfig { inline_depth: 0, ..ExtractConfig::default() },
        );
        let f0 = db0.function("f").unwrap();
        assert_eq!(f0.path(0).conditions().count(), 0);
    }

    #[test]
    fn recursive_functions_do_not_hang() {
        let db = db_of("int f(int x) { if (x) return f(x - 1); return 0; }");
        assert!(db.function("f").is_some());
    }

    #[test]
    fn switch_scrutinee_recorded() {
        let db = db_of(
            "int f(int mode) { switch (mode) { case 1: return 1; default: return 0; } }",
        );
        let f = db.function("f").unwrap();
        assert!(f.paths().all(|r| r.checks_atom("mode")));
        assert_eq!(f.records.len(), 2);
    }

    #[test]
    fn member_path_atoms_include_field_names() {
        let db = db_of(
            "struct q { struct t *rps_flow_table; };\n\
             int f(struct q *rxq) {\n\
               if (!rxq->rps_flow_table)\n\
                 return 1;\n\
               return 0;\n\
             }",
        );
        let f = db.function("f").unwrap();
        let rec = f.path(0);
        assert!(rec.checks_atom("rps_flow_table"));
        assert!(rec.checks_atom("rxq->rps_flow_table"));
        assert!(rec.checks_atom("rxq"));
    }

    #[test]
    fn globals_default_to_symbolic_inputs() {
        let db = db_of(
            "int total_pages = 100;\n\
             int f(void) { return total_pages; }",
        );
        let f = db.function("f").unwrap();
        assert_eq!(f.records[0].output.value, Some(Sym::input("total_pages")));
    }

    #[test]
    fn for_loop_step_event_present() {
        let db = db_of("int f(void) { int s = 0; for (int i = 0; i < 2; i++) s += i; return s; }");
        let f = db.function("f").unwrap();
        // At least one path iterates and thus records the i++ state.
        let any_step = f
            
            .paths()
            .any(|r| r.states().any(|e| matches!(e, Event::State { lvalue, .. } if lvalue == "i")));
        assert!(any_step);
    }

    #[test]
    fn summary_cache_hit_counts_are_stable() {
        // Three call sites of the same callee at the same depth: the
        // first misses (and extracts `callee` once), the remaining two
        // hit the memo. The counts pin the insert-once protocol — a
        // regression that re-extracts per call site shows up as extra
        // misses, one that drops the placeholder shows up as a hang on
        // the recursive case below.
        let src = "int callee(int x) { if (x) return 1; return 0; }\n\
             int f(int a) {\n\
               callee(a);\n\
               callee(a);\n\
               callee(a);\n\
               return 0;\n\
             }";
        let ast = parse(src).unwrap();
        let mut fx = FunctionExtractor::new(&ast, src, &ExtractConfig::default());
        let _ = fx.extract_function("callee");
        let _ = fx.extract_function("f");
        assert_eq!(fx.summary_cache_stats(), (2, 1));

        // A self-recursive function: extracting `r` computes its own
        // summary once (the recursive call site inside sits at
        // remaining depth 0, where inlining is gated off, so it never
        // queries the cache), and `g`'s call site then reuses it.
        let src = "int r(int x) { if (x) return r(x - 1); return 0; }\n\
             int g(int a) { return r(a); }";
        let ast = parse(src).unwrap();
        let mut fx = FunctionExtractor::new(&ast, src, &ExtractConfig::default());
        let _ = fx.extract_function("r");
        let _ = fx.extract_function("g");
        let (hits, misses) = fx.summary_cache_stats();
        assert_eq!(misses, 1, "r's summary must be computed exactly once");
        assert_eq!(hits, 1, "g's call site must reuse r's cached summary");
    }

    /// Extracts `f` from `src` alone and renders each path as one line:
    /// its events (`depth:` prefixed), then `=>` and the returned value.
    /// Also returns the summary-memo and loop-summary counters.
    fn timelines(src: &str) -> (Vec<String>, (u64, u64), (u64, u64)) {
        let ast = parse(src).unwrap();
        let mut fx = FunctionExtractor::new(&ast, src, &ExtractConfig::default());
        let f = fx.extract_function("f");
        let lines = f
            .paths()
            .map(|p| {
                let mut line: Vec<String> = p
                    .events()
                    .map(|e| match e {
                        Event::Decl { name, depth, .. } => format!("{depth}:decl {name}"),
                        Event::State { lvalue, value, depth, .. } => {
                            format!("{depth}:{lvalue}={value}")
                        }
                        Event::Cond { symbolic, taken, depth, .. } => {
                            format!("{depth}:if {symbolic} {taken:?}")
                        }
                        Event::Call { callee, assigned_to, in_condition, depth, .. } => format!(
                            "{depth}:call {callee}->{} cond={in_condition}",
                            assigned_to.as_deref().unwrap_or("_")
                        ),
                    })
                    .collect();
                let ret = p.output.value.map_or("-".to_string(), |v| v.to_string());
                line.push(format!("=> {ret}"));
                line.join("; ")
            })
            .collect();
        (lines, fx.summary_cache_stats(), fx.loop_summary_stats())
    }

    // The pins below are the output of per-path replay from the entry,
    // which the prefix-sharing walk must reproduce exactly.

    #[test]
    fn call_assignments_roll_back_between_sibling_arms() {
        // `h(r)` in the condition stays unassigned on both arms; each
        // arm then assigns a call result after the decision's mark, so
        // the second arm must see the pending-call stack and the
        // timeline as they were before the first arm's rewrite.
        let (lines, ..) = timelines(
            "int g(int a);\nint h(int a);\nint f(int x, int y) {\n  int r = g(x);\n  \
             if (h(r))\n    r = h(x);\n  else\n    y = g(y);\n  r = g(r) + y;\n  return r;\n}",
        );
        assert_eq!(
            lines,
            [
                "0:decl r; 0:call g->r cond=false; 0:r=(V#1); 0:call h->_ cond=true; \
                 0:if (E#h((V#1))) Some(true); 0:call h->r cond=false; 0:r=(V#2); \
                 0:call g->_ cond=false; 0:r=((E#g((V#2))) + (S#y)); => ((E#g((V#2))) + (S#y))",
                "0:decl r; 0:call g->r cond=false; 0:r=(V#1); 0:call h->_ cond=true; \
                 0:if (E#h((V#1))) Some(false); 0:call g->y cond=false; 0:y=(V#2); \
                 0:call g->_ cond=false; 0:r=((E#g((V#1))) + (V#2)); => ((E#g((V#1))) + (V#2))",
            ]
        );
    }

    #[test]
    fn return_effects_do_not_leak_into_sibling_paths() {
        // `return g(x)` splices g's summary and `return x++` rebinds x,
        // both after the last mark of their path.
        let (lines, hits, _) = timelines(
            "int g(int a) { if (a) return 1; return 0; }\nint f(int x) {\n  x = x + 1;\n  \
             if (x > 2)\n    return g(x);\n  if (x < 0)\n    return x++;\n  return x;\n}",
        );
        assert_eq!(
            lines,
            [
                "0:x=((S#x) + (I#1)); 0:if (((S#x) + (I#1)) > (I#2)) Some(true); \
                 0:call g->_ cond=false; 1:if (S#a) Some(true); 1:if (S#a) Some(false); \
                 => (E#g(((S#x) + (I#1))))",
                "0:x=((S#x) + (I#1)); 0:if (((S#x) + (I#1)) > (I#2)) Some(false); \
                 0:if (((S#x) + (I#1)) < (I#0)) Some(true); 0:x=(((S#x) + (I#1)) + (I#1)); \
                 => ((S#x) + (I#1))",
                "0:x=((S#x) + (I#1)); 0:if (((S#x) + (I#1)) > (I#2)) Some(false); \
                 0:if (((S#x) + (I#1)) < (I#0)) Some(false); => ((S#x) + (I#1))",
            ]
        );
        assert_eq!(hits, (0, 1));
    }

    #[test]
    fn loop_exit_havoc_is_counted_per_path() {
        // Both loop-exit prefixes diverge after the havoc; each of the
        // four paths havocs `s` and `i` once, so 8 in all.
        let (lines, _, loops) = timelines(
            "int f(int n, int m) {\n  int s = 0;\n  for (int i = 0; i < n; i++)\n    \
             s = s + i;\n  if (s > m)\n    return s;\n  s = s - m;\n  return s;\n}",
        );
        let head = "0:decl s; 0:s=(I#0); 0:decl i; 0:i=(I#0);";
        let once = "0:if ((I#0) < (S#n)) Some(true); 0:s=(I#0); 0:i=(I#1); \
                    0:if ((I#1) < (S#n)) Some(false);";
        let never = "0:if ((I#0) < (S#n)) Some(false);";
        let taken = "0:if ((?) > (S#m)) Some(true); => (?)";
        let not_taken = "0:if ((?) > (S#m)) Some(false); 0:s=((?) - (S#m)); => ((?) - (S#m))";
        assert_eq!(
            lines,
            [
                format!("{head} {once} {taken}"),
                format!("{head} {once} {not_taken}"),
                format!("{head} {never} {taken}"),
                format!("{head} {never} {not_taken}"),
            ]
        );
        assert_eq!(loops, (1, 8));
    }

    #[test]
    fn switch_arms_share_the_scrutinee_prefix() {
        let (lines, ..) = timelines(
            "int f(int mode, int x) {\n  x = x * 2;\n  switch (mode) {\n  case 1:\n    \
             x = x + 1;\n    break;\n  case 2:\n    return x;\n  default:\n    x = 0;\n  }\n  \
             return x;\n}",
        );
        assert_eq!(
            lines,
            [
                "0:x=((S#x) * (I#2)); 0:if (S#mode) == case 1 None; \
                 0:x=(((S#x) * (I#2)) + (I#1)); => (((S#x) * (I#2)) + (I#1))",
                "0:x=((S#x) * (I#2)); 0:if (S#mode) == case 2 None; => ((S#x) * (I#2))",
                "0:x=((S#x) * (I#2)); 0:if (S#mode) == default None; 0:x=(I#0); => (I#0)",
            ]
        );
    }

    #[test]
    fn summary_hits_count_every_splice_on_every_path() {
        // Five splices over the two paths: the first misses, the four
        // others hit, including the one in the prefix the second path
        // shares with the first and never re-evaluates.
        let (lines, hits, _) = timelines(
            "int callee(int x) { if (x) return 1; return 0; }\nint f(int a) {\n  callee(a);\n  \
             if (a > 3)\n    callee(a);\n  callee(a);\n  return 0;\n}",
        );
        let call = "0:call callee->_ cond=false; 1:if (S#x) Some(true); 1:if (S#x) Some(false);";
        assert_eq!(
            lines,
            [
                format!("{call} 0:if ((S#a) > (I#3)) Some(true); {call} {call} => (I#0)"),
                format!("{call} 0:if ((S#a) > (I#3)) Some(false); {call} => (I#0)"),
            ]
        );
        assert_eq!(hits, (4, 1));
    }
}
