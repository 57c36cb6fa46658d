//! Static per-function tables shared by the extractor and the
//! feasibility oracle.
//!
//! Both evaluators enter the same blocks over and over, once per path
//! or DFS prefix. What they look up on every entry depends only on the
//! CFG and the loop summaries, so it is computed once per function
//! here: each block's `for`-step expressions, the keys the loops around
//! each block may write, and what to havoc on each loop-exit edge. Keys
//! are [`KeyId`]s of the unit's key table.

use crate::intern::Istr;
use crate::keys::{KeyId, Keys};
use pallas_cfg::{summarize_loops, BlockId, Cfg, CounterDir};
use pallas_lang::ast::{Ast, ExprId};
use std::collections::BTreeSet;

/// What leaving one or more loops along the edge `from -> to` havocs.
#[derive(Debug)]
pub(crate) struct LoopExit {
    to: BlockId,
    /// The extractor's havoc list: each exited loop's may-write keys,
    /// loops in [`summarize_loops`] order, keys in spelling order. A
    /// key two exited loops share appears twice.
    pub(crate) keys: Vec<KeyId>,
    /// The oracle's havoc list: the union of the exited loops' keys in
    /// spelling order, each with the counter direction of the first
    /// exited loop that has the key as a monotone counter.
    pub(crate) havoc: Vec<(KeyId, Option<CounterDir>)>,
}

/// The per-function tables; see the module docs.
#[derive(Debug)]
pub(crate) struct FunctionTables {
    /// Natural loops summarized; zero when built without loops.
    pub(crate) loops: usize,
    /// `for`-step expressions per block, in [`Cfg::step_exprs`] order.
    steps: Vec<Vec<ExprId>>,
    /// Per block: `None` outside every loop, else the union of the
    /// may-write keys of the loops containing it, sorted by id.
    loop_writes: Vec<Option<Box<[KeyId]>>>,
    /// Loop-exit edges per source block.
    exits: Vec<Vec<LoopExit>>,
}

impl FunctionTables {
    /// Builds the tables of `cfg`, keying lvalues through `keys`.
    /// `with_loops` decides whether loops are summarized at all;
    /// without them no block is in a loop and no edge exits one.
    pub(crate) fn new(ast: &Ast, cfg: &Cfg, with_loops: bool, keys: &mut Keys) -> Self {
        let blocks = cfg.block_count();
        let mut steps = vec![Vec::new(); blocks];
        for &(bb, e) in &cfg.step_exprs {
            steps[bb.0 as usize].push(e);
        }
        let summaries = if with_loops { summarize_loops(ast, cfg) } else { Vec::new() };
        let ids: Vec<Vec<KeyId>> = summaries
            .iter()
            .map(|l| l.may_write.iter().map(|k| keys.id(Istr::new(k))).collect())
            .collect();
        let mut loop_writes: Vec<Option<Box<[KeyId]>>> = vec![None; blocks];
        let mut exits: Vec<Vec<LoopExit>> = (0..blocks).map(|_| Vec::new()).collect();
        for (from, out) in exits.iter_mut().enumerate() {
            let from = BlockId(from as u32);
            let around = || summaries.iter().zip(&ids).filter(|(l, _)| l.contains(from));
            if around().next().is_none() {
                continue;
            }
            let mut writes: Vec<KeyId> = around().flat_map(|(_, k)| k.iter().copied()).collect();
            writes.sort_unstable();
            writes.dedup();
            loop_writes[from.0 as usize] = Some(writes.into_boxed_slice());
            for to in cfg.successors(from) {
                let leaving = || {
                    summaries.iter().zip(&ids).filter(|(l, _)| l.contains(from) && !l.contains(to))
                };
                if out.iter().any(|e| e.to == to) || leaving().next().is_none() {
                    continue;
                }
                let list: Vec<KeyId> = leaving().flat_map(|(_, k)| k.iter().copied()).collect();
                let union: BTreeSet<(Istr, KeyId)> = list.iter().map(|&k| (keys.name(k), k)).collect();
                let havoc = union
                    .into_iter()
                    .map(|(name, key)| {
                        let dir =
                            leaving().find_map(|(l, _)| l.counters.get(name.as_str()).copied());
                        (key, dir)
                    })
                    .collect();
                out.push(LoopExit { to, keys: list, havoc });
            }
        }
        FunctionTables { loops: summaries.len(), steps, loop_writes, exits }
    }

    /// The `for`-step expressions executed in `bb`.
    pub(crate) fn steps(&self, bb: BlockId) -> &[ExprId] {
        &self.steps[bb.0 as usize]
    }

    /// What the edge `from -> to` havocs, if it leaves any loop.
    pub(crate) fn exit(&self, from: BlockId, to: BlockId) -> Option<&LoopExit> {
        self.exits[from.0 as usize].iter().find(|e| e.to == to)
    }

    /// `None` if `bb` lies in no loop body, else the keys some loop
    /// containing it may write.
    pub(crate) fn loop_writes(&self, bb: BlockId) -> Option<&[KeyId]> {
        self.loop_writes[bb.0 as usize].as_deref()
    }
}
