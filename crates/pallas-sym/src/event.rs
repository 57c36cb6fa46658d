//! The path database: per-path timelines of semantic events.
//!
//! Each enumerated execution path becomes a [`PathRecord`] — an ordered
//! timeline of semantic events (condition checks, state updates, calls,
//! declarations) plus the path's output. The twelve rule checkers run
//! entirely over this representation; they never look at the AST again.
//!
//! # Layout
//!
//! Paths through loop-heavy code repeat the same events over and over
//! (the same condition with the same symbolic value, the same inlined
//! callee summary), so events are stored once per function:
//!
//! - [`FunctionPaths::events`] is the function's *event table*: every
//!   distinct event its paths produced, each built (strings and all)
//!   once.
//! - [`PathRecord::events`] is a list of [`EventId`]s into that table,
//!   in timeline order, plus the path's [`OutputRecord`].
//!
//! Readers never touch ids: [`FunctionPaths::paths`] yields borrowed
//! [`PathView`]s whose [`events`](PathView::events) iterator resolves
//! each id against the table, so a path still reads as a sequence of
//! `&Event`s. Table-wide questions ("does any path of this function
//! mention `x`?") can scan the table once instead of every path.
//!
//! Rendering is late: a condition's symbolic form is kept as a
//! [`CondSym`] (the evaluated [`Sym`] plus a switch arm's suffix) and
//! only turned into Table 5's `S#/I#/V#/E#` text when displayed.

use crate::sym::Sym;
use std::collections::HashMap;
use std::fmt;

/// One semantic event on a path's timeline.
///
/// `Hash`/`Eq` are structural: the extractor's summary-union dedup
/// keys on whole events (hashing a [`Sym`] is O(1) on its arena id).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// A flow-control condition was evaluated (branch, switch, or
    /// ternary).
    Cond {
        /// 1-based source line.
        line: u32,
        /// Rendered condition text.
        text: String,
        /// Symbolic value of the evaluated condition; displays in
        /// Table 5's `S#/I#/V#/E#` notation.
        symbolic: CondSym,
        /// Name atoms mentioned by the condition (identifiers, member
        /// paths, and field names).
        vars: Vec<String>,
        /// For branches: which arm the path took.
        taken: Option<bool>,
        /// Inlining depth (0 = the function's own code).
        depth: u8,
    },
    /// An lvalue was written.
    State {
        /// 1-based source line.
        line: u32,
        /// Canonical lvalue text (`gfp_mask`, `page->private`).
        lvalue: String,
        /// Symbolic value written.
        value: Sym,
        /// Rendered statement text.
        text: String,
        /// Name atoms read while computing the value.
        reads: Vec<String>,
        /// Inlining depth.
        depth: u8,
    },
    /// A function was called.
    Call {
        /// 1-based source line.
        line: u32,
        /// Callee name (or rendered callee expression).
        callee: String,
        /// Name atoms mentioned by the arguments.
        arg_vars: Vec<String>,
        /// Lvalue the result was assigned to, if any.
        assigned_to: Option<String>,
        /// Whether the call occurred inside a flow-control condition.
        in_condition: bool,
        /// Inlining depth.
        depth: u8,
    },
    /// A local variable was declared.
    Decl {
        /// 1-based source line.
        line: u32,
        /// Variable name.
        name: String,
        /// Whether the declaration had an initializer.
        has_init: bool,
        /// Inlining depth.
        depth: u8,
    },
}

impl Event {
    /// The source line of the event.
    pub fn line(&self) -> u32 {
        match self {
            Event::Cond { line, .. }
            | Event::State { line, .. }
            | Event::Call { line, .. }
            | Event::Decl { line, .. } => *line,
        }
    }

    /// The inlining depth of the event (0 = own code).
    pub fn depth(&self) -> u8 {
        match self {
            Event::Cond { depth, .. }
            | Event::State { depth, .. }
            | Event::Call { depth, .. }
            | Event::Decl { depth, .. } => *depth,
        }
    }

    /// All name atoms the event mentions (reads and writes).
    pub fn atoms(&self) -> impl Iterator<Item = &str> + Clone {
        let (list, last): (&[String], Option<&String>) = match self {
            Event::Cond { vars, .. } => (vars, None),
            Event::State { lvalue, reads, .. } => (reads, Some(lvalue)),
            Event::Call { arg_vars, callee, .. } => (arg_vars, Some(callee)),
            Event::Decl { name, .. } => (&[], Some(name)),
        };
        list.iter().chain(last).map(String::as_str)
    }

    /// Whether `atom` is one of the event's [`atoms`](Self::atoms).
    pub fn mentions(&self, atom: &str) -> bool {
        self.atoms().any(|a| a == atom)
    }
}

/// The symbolic form of an evaluated condition: its value, plus the
/// ` == case <label>` / ` == default` suffix of a switch arm (empty for
/// branches and ternaries). Displays as Table 5 renders it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CondSym {
    /// The evaluated condition (or switch scrutinee).
    pub value: Sym,
    /// Switch-arm suffix, empty otherwise.
    pub suffix: String,
}

impl fmt::Display for CondSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.value, self.suffix)
    }
}

/// Index of an event in its function's event table
/// ([`FunctionPaths::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

impl EventId {
    /// The table index this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The output of one path.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRecord {
    /// 1-based source line of the `return` (or end of function).
    pub line: u32,
    /// Rendered return expression (`""` for a bare return).
    pub text: String,
    /// Symbolic return value (`None` for a bare return).
    pub value: Option<Sym>,
    /// Name atoms mentioned by the return expression.
    pub vars: Vec<String>,
}

/// One extracted execution path, as stored: ids into the owning
/// function's event table. Read it through [`FunctionPaths::paths`].
#[derive(Debug, Clone, PartialEq)]
pub struct PathRecord {
    /// Index of this path within its function (enumeration order).
    pub index: usize,
    /// Ordered event timeline, as ids into [`FunctionPaths::events`].
    pub events: Vec<EventId>,
    /// Path output.
    pub output: OutputRecord,
}

/// A borrowed view of one path: its record resolved against the
/// function's event table.
#[derive(Debug, Clone, Copy)]
pub struct PathView<'a> {
    table: &'a [Event],
    ids: &'a [EventId],
    /// Index of this path within its function (enumeration order).
    pub index: usize,
    /// Path output.
    pub output: &'a OutputRecord,
}

impl<'a> PathView<'a> {
    /// The ordered event timeline.
    pub fn events(
        &self,
    ) -> impl DoubleEndedIterator<Item = &'a Event> + ExactSizeIterator + Clone + 'a {
        let table = self.table;
        self.ids.iter().map(move |id| &table[id.index()])
    }

    /// The `i`-th event of the timeline.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn event(&self, i: usize) -> &'a Event {
        &self.table[self.ids[i].index()]
    }

    /// Iterates over condition events at any depth.
    pub fn conditions(&self) -> impl Iterator<Item = &'a Event> + Clone + 'a {
        self.events().filter(|e| matches!(e, Event::Cond { .. }))
    }

    /// Iterates over state-update events.
    pub fn states(&self) -> impl Iterator<Item = &'a Event> + Clone + 'a {
        self.events().filter(|e| matches!(e, Event::State { .. }))
    }

    /// Iterates over call events.
    pub fn calls(&self) -> impl Iterator<Item = &'a Event> + Clone + 'a {
        self.events().filter(|e| matches!(e, Event::Call { .. }))
    }

    /// Whether any condition event (at any depth) mentions `atom`.
    pub fn checks_atom(&self, atom: &str) -> bool {
        self.conditions().any(|e| match e {
            Event::Cond { vars, .. } => vars.iter().any(|v| v == atom),
            _ => false,
        })
    }

    /// The first event index whose atoms mention `atom`, if any.
    pub fn first_mention(&self, atom: &str) -> Option<usize> {
        self.events().position(|e| e.mentions(atom))
    }
}

/// All extracted paths of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionPaths {
    /// Function name.
    pub name: String,
    /// Rendered signature (Table 5's `Signature` row).
    pub signature: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// 1-based line of the function definition.
    pub line: u32,
    /// The event table: every distinct event of this function's paths
    /// (see the [module docs](self)). Every [`PathRecord`] id indexes
    /// into it. It may also hold the unassigned form of a `Call` whose
    /// result every producing path then assigned (`assigned_to` is the
    /// only field that differs), so a scan of the table answers
    /// questions about all paths as long as it ignores `assigned_to`.
    pub events: Vec<Event>,
    /// Extracted paths.
    pub records: Vec<PathRecord>,
    /// Whether enumeration hit a limit (the set under-approximates).
    pub truncated: bool,
    /// Decision arms the feasibility oracle proved contradictory — each
    /// one a doomed subtree path enumeration never entered. Always 0
    /// when pruning is disabled.
    pub pruned: usize,
}

impl FunctionPaths {
    /// The view of path `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn path(&self, i: usize) -> PathView<'_> {
        self.view(&self.records[i])
    }

    /// Views of every path, in enumeration order.
    pub fn paths(
        &self,
    ) -> impl DoubleEndedIterator<Item = PathView<'_>> + ExactSizeIterator + Clone {
        self.records.iter().map(|r| self.view(r))
    }

    fn view<'a>(&'a self, r: &'a PathRecord) -> PathView<'a> {
        PathView { table: &self.events, ids: &r.events, index: r.index, output: &r.output }
    }

    /// Whether a condition event of any path (at any depth) mentions
    /// `atom`: one scan of the event table.
    pub fn checks_atom(&self, atom: &str) -> bool {
        self.events.iter().any(|e| match e {
            Event::Cond { vars, .. } => vars.iter().any(|v| v == atom),
            _ => false,
        })
    }

    /// Set of distinct constant return values across all paths.
    pub fn literal_returns(&self) -> Vec<i64> {
        let mut v: Vec<i64> = self
            .records
            .iter()
            .filter_map(|r| r.output.value.and_then(|s| s.as_int()))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Set of distinct symbolic (named) return values across paths.
    pub fn named_returns(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .records
            .iter()
            .filter_map(|r| r.output.value.and_then(|s| s.as_input().map(str::to_string)))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// The path database for one merged translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathDb {
    /// Unit name (for reports).
    pub unit: String,
    /// Per-function path sets, in source order.
    pub functions: Vec<FunctionPaths>,
    by_name: HashMap<String, usize>,
}

impl PathDb {
    /// Creates an empty database for the named unit.
    pub fn new(unit: impl Into<String>) -> Self {
        PathDb { unit: unit.into(), functions: Vec::new(), by_name: HashMap::new() }
    }

    /// Adds a function's paths, indexing it by name.
    pub fn insert(&mut self, fp: FunctionPaths) {
        self.by_name.insert(fp.name.clone(), self.functions.len());
        self.functions.push(fp);
    }

    /// Looks up a function's paths by name.
    pub fn function(&self, name: &str) -> Option<&FunctionPaths> {
        self.by_name.get(name).map(|&i| &self.functions[i])
    }

    /// Total number of extracted paths across all functions.
    pub fn path_count(&self) -> usize {
        self.functions.iter().map(|f| f.records.len()).sum()
    }

    /// True if any function's enumeration hit a [`PathConfig`] limit,
    /// i.e. the database under-approximates the path set.
    ///
    /// [`PathConfig`]: pallas_cfg::PathConfig
    pub fn any_truncated(&self) -> bool {
        self.functions.iter().any(|f| f.truncated)
    }

    /// Total number of decision arms pruned as infeasible across all
    /// functions.
    pub fn pruned_paths(&self) -> usize {
        self.functions.iter().map(|f| f.pruned).sum()
    }

    /// Functions whose paths contain a call to `callee` at depth 0.
    pub fn callers_of(&self, callee: &str) -> Vec<&FunctionPaths> {
        self.functions
            .iter()
            .filter(|f| {
                f.name != callee
                    && f.events.iter().any(
                        |c| matches!(c, Event::Call { callee: c2, depth: 0, .. } if c2 == callee),
                    )
            })
            .collect()
    }
}

impl fmt::Display for PathDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "path database for unit `{}`:", self.unit)?;
        for func in &self.functions {
            writeln!(
                f,
                "  {} — {} path(s){}",
                func.signature,
                func.records.len(),
                if func.truncated { " (truncated)" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(line: u32, lvalue: &str) -> Event {
        Event::State {
            line,
            lvalue: lvalue.into(),
            value: Sym::int(0),
            text: format!("{lvalue} = 0"),
            reads: vec![],
            depth: 0,
        }
    }

    fn output(line: u32, text: &str, value: Option<Sym>) -> OutputRecord {
        OutputRecord { line, text: text.into(), value, vars: vec![] }
    }

    fn function(name: &str, events: Vec<Event>, records: Vec<PathRecord>) -> FunctionPaths {
        FunctionPaths {
            name: name.into(),
            signature: format!("int {name}()"),
            params: vec![],
            line: 1,
            events,
            records,
            truncated: false,
            pruned: 0,
        }
    }

    #[test]
    fn path_record_queries() {
        let cond = Event::Cond {
            line: 3,
            text: "order == 0".into(),
            symbolic: CondSym {
                value: Sym::binary(pallas_lang::ast::BinOp::Eq, Sym::input("order"), Sym::int(0)),
                suffix: String::new(),
            },
            vars: vec!["order".into()],
            taken: Some(true),
            depth: 0,
        };
        let fp = function(
            "f",
            vec![cond, state(4, "page")],
            vec![PathRecord {
                index: 0,
                events: vec![EventId(0), EventId(1), EventId(1)],
                output: output(5, "page", None),
            }],
        );
        let rec = fp.path(0);
        assert!(rec.checks_atom("order"));
        assert!(!rec.checks_atom("page"));
        assert_eq!(rec.first_mention("page"), Some(1));
        assert_eq!(rec.conditions().count(), 1);
        assert_eq!(rec.states().count(), 2, "a repeated id is a repeated event");
        assert_eq!(rec.event(2).line(), 4);
        assert_eq!(rec.output.line, 5);
        match rec.event(0) {
            Event::Cond { symbolic, .. } => {
                assert_eq!(symbolic.to_string(), "((S#order) == (I#0))")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn db_lookup_and_callers() {
        let mut db = PathDb::new("u");
        db.insert(function("callee", vec![], vec![]));
        let call = Event::Call {
            line: 11,
            callee: "callee".into(),
            arg_vars: vec![],
            assigned_to: None,
            in_condition: false,
            depth: 0,
        };
        db.insert(function(
            "caller",
            vec![call],
            vec![PathRecord { index: 0, events: vec![EventId(0)], output: output(12, "", None) }],
        ));
        assert!(db.function("callee").is_some());
        assert!(db.function("nope").is_none());
        let callers = db.callers_of("callee");
        assert_eq!(callers.len(), 1);
        assert_eq!(callers[0].name, "caller");
        assert_eq!(db.path_count(), 1);
        assert!(!db.any_truncated());
    }

    #[test]
    fn any_truncated_reflects_function_records() {
        let mut db = PathDb::new("u");
        db.insert(function("full", vec![], vec![]));
        assert!(!db.any_truncated());
        db.insert(FunctionPaths { truncated: true, ..function("capped", vec![], vec![]) });
        assert!(db.any_truncated());
    }

    #[test]
    fn literal_and_named_returns() {
        let fp = function(
            "f",
            vec![],
            vec![
                PathRecord { index: 0, events: vec![], output: output(2, "0", Some(Sym::int(0))) },
                PathRecord {
                    index: 1,
                    events: vec![],
                    output: output(3, "err", Some(Sym::input("err"))),
                },
            ],
        );
        assert_eq!(fp.literal_returns(), vec![0]);
        assert_eq!(fp.named_returns(), vec!["err"]);
    }

    #[test]
    fn event_accessors() {
        let e = state(7, "x");
        assert_eq!(e.line(), 7);
        assert_eq!(e.depth(), 0);
        assert!(e.mentions("x"));
        let call = Event::Call {
            line: 1,
            callee: "g".into(),
            arg_vars: vec!["a".into(), "b".into()],
            assigned_to: Some("r".into()),
            in_condition: false,
            depth: 0,
        };
        assert_eq!(call.atoms().collect::<Vec<_>>(), ["a", "b", "g"]);
        assert!(!call.mentions("r"), "the assignment target is not an atom");
    }
}
