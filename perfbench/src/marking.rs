//! The `mark_*` workloads: `mark1` passes on the work-stealing runtime
//! over a shared graph, and the COST ladder that times the same marking
//! one layer at a time down to the benchmark's own sequential floors.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dgr_core::driver::{run_mark1, MarkRunConfig};
use dgr_core::threaded::{reset_shared_r, run_mark1_shared, ThreadedMarkStats};
use dgr_graph::markword::Claim;
use dgr_graph::{
    oracle, Color, GraphStore, MarkParent, MarkWords, PartitionStrategy, Slot, VertexId,
};
use dgr_sim::{SchedPolicy, SharedGraph};
use dgr_workloads::graphs::{binary_tree_dfs, random_digraph};

use crate::panic_text;

/// Vertices of `mark_digraph`.
pub const DIGRAPH_N: usize = 1_000_000;
/// Mean out-degree of `mark_digraph`.
pub const DIGRAPH_DEGREE: f64 = 3.0;
/// Depth of `mark_tree` (131 071 vertices).
pub const TREE_DEPTH: usize = 16;
/// Partition of every marking pass.
pub const PARTITION: PartitionStrategy = PartitionStrategy::Block;

/// The two graph families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `binary_tree_dfs(16)`: local parallel work, near-zero envelopes.
    Tree,
    /// `random_digraph(1M, 3.0, seed)`: memory-bound, cross-PE heavy.
    Digraph,
}

/// Builds the family's graph; only the digraph depends on `seed`.
pub fn build_store(family: Family, seed: u64) -> GraphStore {
    match family {
        Family::Tree => binary_tree_dfs(TREE_DEPTH),
        Family::Digraph => {
            let mut g = random_digraph(DIGRAPH_N, DIGRAPH_DEGREE, seed);
            let root = giant_root(&g, GIANT);
            g.set_root(root);
            g
        }
    }
}

/// Reaching this many vertices puts a start vertex in the giant
/// out-component.
const GIANT: usize = 10_000;

/// The first vertex (by index) that reaches `giant` vertices. With a
/// geometric out-degree of mean 3, a third of the vertices reach only a
/// handful of others (the branching process dies out), and vertex 0,
/// `random_digraph`'s root, is one of them for a third of the seeds.
/// Re-rooting keeps the graph and makes every seed mark the same giant
/// component rather than, now and then, almost nothing.
fn giant_root(g: &GraphStore, giant: usize) -> VertexId {
    let mut seen = vec![false; g.capacity()];
    for start in g.live_ids() {
        let mut stack = vec![start];
        let mut reached = Vec::from([start]);
        seen[start.index()] = true;
        while let Some(v) = stack.pop() {
            g.vertex(v).for_each_r_child(|c| {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    reached.push(c);
                    stack.push(c);
                }
            });
            if reached.len() >= giant {
                return start;
            }
        }
        for v in reached {
            seen[v.index()] = false;
        }
    }
    g.root().expect("random_digraph sets a root")
}

/// A frozen compressed-sparse-row snapshot of the `M_R` child lists of
/// the live vertices: the flat arrays the sequential floors walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `targets[offsets[v]..offsets[v + 1]]` are `v`'s children.
    pub offsets: Vec<u32>,
    /// Child vertex indices.
    pub targets: Vec<u32>,
    /// Root index.
    pub root: u32,
}

impl Csr {
    /// Snapshots `g` (free vertices get no children).
    pub fn from_store(g: &GraphStore) -> Csr {
        let mut offsets = Vec::with_capacity(g.capacity() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for v in g.ids() {
            if !g.is_free(v) {
                g.vertex(v).for_each_r_child(|c| targets.push(c.raw()));
            }
            offsets.push(u32::try_from(targets.len()).expect("arc count fits u32"));
        }
        Csr {
            offsets,
            targets,
            root: g.root().expect("marking needs a root").raw(),
        }
    }

    /// Number of vertex slots.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn children(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// Floor 1: a plain depth-first search over the snapshot. Returns the
/// vertices reached.
pub fn floor_dfs(csr: &Csr) -> usize {
    let mut seen = vec![false; csr.len()];
    let mut stack = vec![csr.root];
    seen[csr.root as usize] = true;
    let mut reached = 1;
    while let Some(v) = stack.pop() {
        for &c in csr.children(v) {
            if !seen[c as usize] {
                seen[c as usize] = true;
                reached += 1;
                stack.push(c);
            }
        }
    }
    reached
}

/// `rootpar`, the termination target of the marking wave.
const ROOTPAR: u32 = u32::MAX;

/// A `mark1`/`return1` task of the sequential protocol floors.
#[derive(Clone, Copy)]
enum Task {
    Mark { v: u32, par: u32 },
    Return { to: u32 },
}

/// Floor 2: the sequential `mark1`/`return1` protocol (Figure 4-1) over
/// the snapshot, with its state in plain arrays: the same messages the
/// marking runtimes exchange, one thread, no atomics. Returns the
/// messages handled (marks plus returns, the final return to `rootpar`
/// included).
pub fn floor_protocol(csr: &Csr) -> u64 {
    // Per vertex: outstanding child count, `u32::MAX` while unmarked.
    let mut cnt = vec![u32::MAX; csr.len()];
    let mut par = vec![ROOTPAR; csr.len()];
    let mut stack = vec![Task::Mark {
        v: csr.root,
        par: ROOTPAR,
    }];
    let mut messages = 0;
    while let Some(t) = stack.pop() {
        messages += 1;
        match t {
            Task::Mark { v, par: p } => {
                if cnt[v as usize] != u32::MAX {
                    stack.push(Task::Return { to: p });
                    continue;
                }
                let kids = csr.children(v);
                cnt[v as usize] = kids.len() as u32;
                if kids.is_empty() {
                    stack.push(Task::Return { to: p });
                } else {
                    par[v as usize] = p;
                    stack.extend(kids.iter().map(|&c| Task::Mark { v: c, par: v }));
                }
            }
            Task::Return { to } => {
                let mut to = to;
                while to != ROOTPAR {
                    cnt[to as usize] -= 1;
                    if cnt[to as usize] != 0 {
                        break;
                    }
                    // Completing `to` sends its own return: handle it here
                    // as the next message rather than through the stack.
                    messages += 1;
                    to = par[to as usize];
                }
            }
        }
    }
    messages
}

/// The protocol floor with its state in the graph layer's `MarkWords`
/// (`try_claim` / `complete_child`), still one thread over the snapshot:
/// isolates the cost of the atomic mark-word encoding. `words` must be
/// fresh for `epoch`.
pub fn markword_protocol(csr: &Csr, words: &MarkWords, epoch: u32) -> u64 {
    let mut stack = vec![Task::Mark {
        v: csr.root,
        par: ROOTPAR,
    }];
    let parent = |p: u32| {
        if p == ROOTPAR {
            MarkParent::RootPar
        } else {
            MarkParent::Vertex(VertexId::new(p))
        }
    };
    let mut messages = 0;
    while let Some(t) = stack.pop() {
        messages += 1;
        match t {
            Task::Mark { v, par } => {
                let kids = csr.children(v);
                match words.try_claim(v as usize, epoch, kids.len() as u32, parent(par)) {
                    Claim::Won(Color::Transient) => {
                        stack.extend(kids.iter().map(|&c| Task::Mark { v: c, par: v }));
                    }
                    Claim::Won(_) | Claim::Lost => stack.push(Task::Return { to: par }),
                }
            }
            Task::Return { to } => {
                if to == ROOTPAR {
                    continue;
                }
                match words.complete_child(to as usize, epoch) {
                    Some(MarkParent::Vertex(p)) => stack.push(Task::Return { to: p.raw() }),
                    Some(_) => stack.push(Task::Return { to: ROOTPAR }),
                    None => {}
                }
            }
        }
    }
    messages
}

/// The reference a marking pass is checked against, computed on the
/// graph store before it is shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// `oracle::reachable_r`, as a per-slot membership vector.
    pub reachable: Vec<bool>,
    /// Messages of a `mark1` pass as DetSim counts them.
    pub messages: u64,
}

/// One DetSim `mark1` pass at 1 PE (the handler `GcDriver` runs).
pub fn detsim_mark1(store: &mut GraphStore) -> u64 {
    let cfg = MarkRunConfig {
        num_pes: 1,
        policy: SchedPolicy::Fifo,
        partition: PARTITION,
        ..MarkRunConfig::default()
    };
    run_mark1(store, &cfg).events
}

/// Membership vector of `oracle::reachable_r`.
pub fn oracle_reachable(store: &GraphStore) -> Vec<bool> {
    let set = oracle::reachable_r(store);
    let mut out = vec![false; store.capacity()];
    for v in set.iter() {
        out[v.index()] = true;
    }
    out
}

/// One timed-loop operation: reset the R slots, then one `mark1` pass on
/// `pes` worker threads.
pub fn pass(shared: &SharedGraph, pes: u16) -> ThreadedMarkStats {
    reset_shared_r(shared);
    run_mark1_shared(shared, pes, PARTITION)
}

/// One [`pass`] whose panic, or message count other than `expected`
/// (when given), is returned as an error.
pub fn checked_pass(
    shared: &SharedGraph,
    pes: u16,
    expected: Option<u64>,
) -> Result<ThreadedMarkStats, String> {
    let s = catch_unwind(AssertUnwindSafe(|| pass(shared, pes)))
        .map_err(|e| format!("{pes}-PE pass panicked: {}", panic_text(&e)))?;
    match expected {
        Some(m) if s.messages != m => Err(format!(
            "{pes}-PE pass handled {} messages, DetSim {m}",
            s.messages
        )),
        _ => Ok(s),
    }
}

/// Checks the last pass's marks against the oracle: every reachable
/// vertex Marked, nothing else marked, nothing left Transient.
pub fn check_marked_set(shared: &SharedGraph, reachable: &[bool]) -> Result<(), String> {
    let epoch = shared.mark_epoch(Slot::R);
    let marks = shared.marks();
    let mut wrong = 0usize;
    let mut first = None;
    for (i, &want) in reachable.iter().enumerate() {
        let color = marks.probe(i, epoch).unwrap_or(Color::Unmarked);
        if (color == Color::Marked) != want || color == Color::Transient {
            wrong += 1;
            first.get_or_insert((i, color, want));
        }
    }
    match first {
        None => Ok(()),
        Some((i, color, want)) => Err(format!(
            "{wrong} vertices disagree with oracle::reachable_r (first: {i} is {color:?}, reachable = {want})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> GraphStore {
        random_digraph(3000, DIGRAPH_DEGREE, seed)
    }

    #[test]
    fn every_seed_marks_the_giant_component() {
        let reach = |g: &GraphStore| oracle_reachable(g).iter().filter(|&&r| r).count();
        // Vertex 0 dies out for about a third of the seeds; re-rooting
        // makes every one of them mark most of the graph.
        let mut rerooted = 0;
        for seed in 0..20 {
            let mut g = small(seed);
            let v0 = reach(&g);
            let root = giant_root(&g, 300);
            rerooted += usize::from(root.index() != 0);
            g.set_root(root);
            assert!(reach(&g) > 1500, "seed {seed}: {} of 3000", reach(&g));
            assert!(root.index() != 0 || v0 > 1500);
        }
        assert!(rerooted > 0, "some seed needs a new root");
        // Seed 2 is one of them at full size.
        let g = build_store(Family::Digraph, 2);
        assert!(reach(&g) > DIGRAPH_N / 2);
    }

    #[test]
    fn floors_runtimes_and_detsim_agree_on_messages_and_marks() {
        for mut store in [small(3), binary_tree_dfs(8)] {
            let csr = Csr::from_store(&store);
            let reachable = oracle_reachable(&store);
            let n_reach = reachable.iter().filter(|&&r| r).count();
            assert_eq!(floor_dfs(&csr), n_reach);
            let detsim = detsim_mark1(&mut store);
            assert_eq!(floor_protocol(&csr), detsim);
            assert_eq!(
                markword_protocol(&csr, &MarkWords::new(csr.len()), 1),
                detsim
            );
            let shared = SharedGraph::from_store(store);
            for pes in [1, 2] {
                checked_pass(&shared, pes, Some(detsim)).unwrap();
                check_marked_set(&shared, &reachable).unwrap();
            }
            assert!(checked_pass(&shared, 2, Some(detsim + 1))
                .unwrap_err()
                .contains("messages"));
        }
    }

    #[test]
    fn a_wrong_reference_set_is_reported() {
        let store = small(4);
        let mut reachable = oracle_reachable(&store);
        let shared = SharedGraph::from_store(store);
        pass(&shared, 1);
        reachable[0] = !reachable[0];
        assert!(check_marked_set(&shared, &reachable).is_err());
    }

    #[test]
    fn graphs_follow_the_seed() {
        let snap = |seed| Csr::from_store(&small(seed));
        assert_eq!(snap(9), snap(9));
        assert_ne!(snap(9), snap(10));
        let mut a = small(9);
        let mut b = small(9);
        assert_eq!(detsim_mark1(&mut a), detsim_mark1(&mut b));
        assert_eq!(
            Csr::from_store(&build_store(Family::Tree, 1)),
            Csr::from_store(&build_store(Family::Tree, 2)),
            "the tree does not depend on the seed"
        );
    }
}
