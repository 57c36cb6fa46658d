//! Static per-function tables shared by the extractor and the
//! feasibility oracle.
//!
//! Both evaluators enter the same blocks over and over, once per path
//! or DFS prefix. What they look up on every entry depends only on the
//! CFG and the loop summaries, so it is computed once per function
//! here: each block's `for`-step expressions, each loop's body and
//! interned may-write set, and what to havoc on each loop-exit edge.

use crate::intern::Istr;
use pallas_cfg::{summarize_loops, BlockId, Cfg, CounterDir};
use pallas_lang::ast::{Ast, ExprId};
use std::collections::BTreeSet;

/// One natural loop as the oracle consumes it.
#[derive(Debug)]
pub(crate) struct LoopBody {
    pub(crate) body: BTreeSet<BlockId>,
    /// Lvalue keys the body may write, interned.
    pub(crate) may_write: BTreeSet<Istr>,
}

/// What leaving one or more loops along the edge `from -> to` havocs.
#[derive(Debug)]
pub(crate) struct LoopExit {
    to: BlockId,
    /// The extractor's havoc list: each exited loop's may-write keys,
    /// loops in [`summarize_loops`] order, keys in order. A key two
    /// exited loops share appears twice.
    pub(crate) keys: Vec<Istr>,
    /// The oracle's havoc list: the union of the exited loops' keys in
    /// key order, each with the counter direction of the first exited
    /// loop that has the key as a monotone counter.
    pub(crate) havoc: Vec<(Istr, Option<CounterDir>)>,
}

/// The per-function tables; see the module docs.
#[derive(Debug)]
pub(crate) struct FunctionTables {
    /// Natural loops in [`summarize_loops`] order; empty when built
    /// without loops.
    pub(crate) loops: Vec<LoopBody>,
    /// `for`-step expressions per block, in [`Cfg::step_exprs`] order.
    steps: Vec<Vec<ExprId>>,
    /// Loop-exit edges per source block.
    exits: Vec<Vec<LoopExit>>,
}

impl FunctionTables {
    /// Builds the tables of `cfg`. `with_loops` decides whether loops
    /// are summarized at all; without them there are no loop-exit
    /// edges.
    pub(crate) fn new(ast: &Ast, cfg: &Cfg, with_loops: bool) -> Self {
        let blocks = cfg.block_count();
        let mut steps = vec![Vec::new(); blocks];
        for &(bb, e) in &cfg.step_exprs {
            steps[bb.0 as usize].push(e);
        }
        let summaries = if with_loops { summarize_loops(ast, cfg) } else { Vec::new() };
        let keys: Vec<Vec<Istr>> =
            summaries.iter().map(|l| l.may_write.iter().map(|k| Istr::new(k)).collect()).collect();
        let mut exits: Vec<Vec<LoopExit>> = (0..blocks).map(|_| Vec::new()).collect();
        for (from, out) in exits.iter_mut().enumerate() {
            let from = BlockId(from as u32);
            if !summaries.iter().any(|l| l.contains(from)) {
                continue;
            }
            for to in cfg.successors(from) {
                let leaving = || {
                    summaries.iter().zip(&keys).filter(|(l, _)| l.contains(from) && !l.contains(to))
                };
                if out.iter().any(|e| e.to == to) || leaving().next().is_none() {
                    continue;
                }
                let keys: Vec<Istr> = leaving().flat_map(|(_, k)| k.iter().copied()).collect();
                let union: BTreeSet<Istr> = keys.iter().copied().collect();
                let havoc = union
                    .into_iter()
                    .map(|key| {
                        let dir =
                            leaving().find_map(|(l, _)| l.counters.get(key.as_str()).copied());
                        (key, dir)
                    })
                    .collect();
                out.push(LoopExit { to, keys, havoc });
            }
        }
        let loops = summaries
            .into_iter()
            .zip(keys)
            .map(|(l, keys)| LoopBody { body: l.body, may_write: keys.into_iter().collect() })
            .collect();
        FunctionTables { loops, steps, exits }
    }

    /// The `for`-step expressions executed in `bb`.
    pub(crate) fn steps(&self, bb: BlockId) -> &[ExprId] {
        &self.steps[bb.0 as usize]
    }

    /// What the edge `from -> to` havocs, if it leaves any loop.
    pub(crate) fn exit(&self, from: BlockId, to: BlockId) -> Option<&LoopExit> {
        self.exits[from.0 as usize].iter().find(|e| e.to == to)
    }

    /// Whether `bb` lies in some loop body.
    pub(crate) fn in_loop(&self, bb: BlockId) -> bool {
        self.loops.iter().any(|l| l.body.contains(&bb))
    }
}
