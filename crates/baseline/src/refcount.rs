//! Distributed reference counting.
//!
//! Each vertex carries a count of incoming references; `connect` and
//! `disconnect` adjust it (in a distributed setting each adjustment is a
//! message — counted here as `count_messages`). When a count reaches zero
//! the vertex is reclaimed and its outgoing references are released
//! transitively. Cycles never reach zero: dropping the last external
//! reference to a cycle strands it — the leak the paper's Section 4 cites
//! as a principal reason to prefer marking.

use dgr_telemetry::LifecycleTracker;
use dgr_workloads::churn::ChurnOp;

#[derive(Debug, Clone, Default)]
struct RcNode {
    children: Vec<usize>,
    rc: u32,
    free: bool,
}

/// A reference-counted vertex store.
#[derive(Debug, Default)]
pub struct RcStore {
    nodes: Vec<RcNode>,
    free: Vec<usize>,
    /// Vertices reclaimed so far.
    pub reclaimed: usize,
    /// Count-adjustment messages sent (one per increment/decrement).
    pub count_messages: u64,
    /// Indices reclaimed since the log was last drained (lifecycle
    /// instrumentation; cleared by [`RcStore::drain_reclaim_log`]).
    pub reclaim_log: Vec<usize>,
}

impl RcStore {
    /// Creates a store with `capacity` free vertices.
    pub fn new(capacity: usize) -> Self {
        RcStore {
            nodes: vec![
                RcNode {
                    free: true,
                    ..RcNode::default()
                };
                capacity
            ],
            free: (0..capacity).rev().collect(),
            reclaimed: 0,
            count_messages: 0,
            reclaim_log: Vec::new(),
        }
    }

    /// Takes the indices reclaimed since the last drain.
    pub fn drain_reclaim_log(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.reclaim_log)
    }

    /// Allocates a vertex (count zero until referenced); grows on demand.
    pub fn alloc(&mut self) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = RcNode::default();
            i
        } else {
            self.nodes.push(RcNode::default());
            self.nodes.len() - 1
        }
    }

    /// Adds an arc `a → b`, incrementing `b`'s count.
    pub fn connect(&mut self, a: usize, b: usize) {
        self.nodes[a].children.push(b);
        self.nodes[b].rc += 1;
        self.count_messages += 1;
    }

    /// Pins a vertex (an external/root reference).
    pub fn pin(&mut self, v: usize) {
        self.nodes[v].rc += 1;
        self.count_messages += 1;
    }

    /// Removes one arc `a → b`, decrementing `b`'s count and reclaiming
    /// transitively on zero.
    pub fn disconnect(&mut self, a: usize, b: usize) -> bool {
        let Some(i) = self.nodes[a].children.iter().position(|&c| c == b) else {
            return false;
        };
        self.nodes[a].children.remove(i);
        self.release(b);
        true
    }

    /// Releases one reference to `v`.
    pub fn release(&mut self, v: usize) {
        let mut stack = vec![v];
        while let Some(v) = stack.pop() {
            debug_assert!(self.nodes[v].rc > 0, "release of zero-count node");
            self.nodes[v].rc -= 1;
            self.count_messages += 1;
            if self.nodes[v].rc == 0 && !self.nodes[v].free {
                self.nodes[v].free = true;
                self.free.push(v);
                self.reclaimed += 1;
                self.reclaim_log.push(v);
                let children = std::mem::take(&mut self.nodes[v].children);
                stack.extend(children);
            }
        }
    }

    /// Vertices that are unreachable from `roots` yet not reclaimed — the
    /// leaked cycles. (Computed by tracing, which a real distributed RC
    /// system cannot do; this is the experiment's ground-truth check.)
    pub fn leaked(&self, roots: &[usize]) -> usize {
        self.leaked_ids(roots).len()
    }

    /// The leaked vertices themselves (see [`RcStore::leaked`]).
    pub fn leaked_ids(&self, roots: &[usize]) -> Vec<usize> {
        let mut reach = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = roots.to_vec();
        for &r in roots {
            reach[r] = true;
        }
        while let Some(v) = stack.pop() {
            for &c in &self.nodes[v].children {
                if !reach[c] {
                    reach[c] = true;
                    stack.push(c);
                }
            }
        }
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].free && !reach[i])
            .collect()
    }

    /// Live (non-free) vertex count.
    pub fn live(&self) -> usize {
        self.nodes.iter().filter(|n| !n.free).count()
    }
}

/// Result of replaying a churn trace against reference counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcChurnReport {
    /// Vertices reclaimed by counting.
    pub reclaimed: usize,
    /// Vertices leaked (unreachable but never reclaimed — stranded
    /// cycles).
    pub leaked: usize,
    /// Count-adjustment messages sent.
    pub count_messages: u64,
    /// Live vertices at the end.
    pub live: usize,
}

/// Replays a churn trace against reference counting.
///
/// Kept free of lifecycle hooks (rather than delegating to
/// [`replay_churn_rc_observed`] with a throwaway tracker) so that
/// telemetry-on builds of the T2 experiment never pay the observed
/// variant's per-op ground-truth traces.
pub fn replay_churn_rc(trace: &[ChurnOp]) -> RcChurnReport {
    let mut s = RcStore::new(64);
    let root = s.alloc();
    s.pin(root);
    let mut clusters: Vec<usize> = Vec::new();
    for &op in trace {
        match op {
            ChurnOp::New { size, cyclic } => {
                let size = size.max(1) as usize;
                let ids: Vec<usize> = (0..size).map(|_| s.alloc()).collect();
                for w in ids.windows(2) {
                    s.connect(w[0], w[1]);
                }
                if cyclic && size > 1 {
                    s.connect(ids[size - 1], ids[0]);
                }
                s.connect(root, ids[0]);
                clusters.push(ids[0]);
            }
            ChurnOp::Drop { index } => {
                if clusters.is_empty() {
                    continue;
                }
                let head = clusters.swap_remove(index % clusters.len());
                s.disconnect(root, head);
            }
        }
    }
    RcChurnReport {
        reclaimed: s.reclaimed,
        leaked: s.leaked(&[root]),
        count_messages: s.count_messages,
        live: s.live(),
    }
}

/// [`replay_churn_rc`] with lifecycle accounting: each churn op is one
/// tracker cycle. Reference counting reclaims the instant a count hits
/// zero, so every reclaim carries an exact latency of 0 — while stranded
/// cycles are censused as floating garbage on every subsequent op (the
/// leak *is* permanent float). Count-adjustment messages are metered on
/// the `M_R` (collector-message) meter; no Section 4 bound applies.
pub fn replay_churn_rc_observed(trace: &[ChurnOp], lc: &mut LifecycleTracker) -> RcChurnReport {
    let mut s = RcStore::new(64);
    let root = s.alloc();
    s.pin(root);
    let mut clusters: Vec<usize> = Vec::new();
    let mut msgs_before = 0u64;
    for (cycle, &op) in trace.iter().enumerate() {
        lc.begin_cycle(cycle as u64);
        match op {
            ChurnOp::New { size, cyclic } => {
                let size = size.max(1) as usize;
                let ids: Vec<usize> = (0..size).map(|_| s.alloc()).collect();
                for w in ids.windows(2) {
                    s.connect(w[0], w[1]);
                }
                if cyclic && size > 1 {
                    s.connect(ids[size - 1], ids[0]);
                }
                s.connect(root, ids[0]);
                clusters.push(ids[0]);
            }
            ChurnOp::Drop { index } => {
                // An empty-cluster drop is a no-op, but the cycle still
                // closes below: the census must re-see the floating set
                // every cycle or the sweep would misread it as resurrected.
                if !clusters.is_empty() {
                    let head = clusters.swap_remove(index % clusters.len());
                    s.disconnect(root, head);
                }
            }
        }
        if lc.enabled() {
            // A reclaimed vertex was garbage for exactly this op: stamp
            // and free it in the same cycle (latency 0). The stranded
            // cycles age on every census — RC's float never drains.
            for v in s.drain_reclaim_log() {
                lc.garbage_vertex(v);
                lc.reclaim_vertex(v);
            }
            for v in s.leaked_ids(&[root]) {
                lc.garbage_vertex(v);
            }
        }
        lc.meter_msgs(0, s.count_messages - msgs_before, 0);
        msgs_before = s.count_messages;
        lc.end_cycle();
    }
    RcChurnReport {
        reclaimed: s.reclaimed,
        leaked: s.leaked(&[root]),
        count_messages: s.count_messages,
        live: s.live(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_workloads::churn::churn_trace;

    #[test]
    fn acyclic_chain_reclaimed_on_drop() {
        let mut s = RcStore::new(8);
        let root = s.alloc();
        s.pin(root);
        let a = s.alloc();
        let b = s.alloc();
        s.connect(a, b);
        s.connect(root, a);
        s.disconnect(root, a);
        assert_eq!(s.reclaimed, 2, "a and b cascade");
        assert_eq!(s.leaked(&[root]), 0);
    }

    #[test]
    fn cycle_leaks() {
        let mut s = RcStore::new(8);
        let root = s.alloc();
        s.pin(root);
        let a = s.alloc();
        let b = s.alloc();
        s.connect(a, b);
        s.connect(b, a); // cycle
        s.connect(root, a);
        s.disconnect(root, a);
        assert_eq!(s.reclaimed, 0, "counts never reach zero");
        assert_eq!(s.leaked(&[root]), 2, "both stranded");
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut s = RcStore::new(2);
        let root = s.alloc();
        s.pin(root);
        let a = s.alloc();
        s.connect(root, a);
        s.disconnect(root, a);
        let b = s.alloc();
        assert_eq!(b, a, "slot recycled");
    }

    #[test]
    fn churn_without_cycles_leaks_nothing() {
        let trace = churn_trace(300, 4, 0.0, 0.5, 1);
        let r = replay_churn_rc(&trace);
        assert_eq!(r.leaked, 0);
        assert!(r.reclaimed > 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn observed_rc_reclaims_at_zero_latency_and_floats_leaks() {
        let trace = churn_trace(300, 4, 0.5, 0.5, 1);
        let mut lc = LifecycleTracker::new();
        let r = replay_churn_rc_observed(&trace, &mut lc);
        let s = lc.snapshot();
        assert_eq!(s.reclaimed, r.reclaimed as u64);
        assert_eq!(s.exact, s.reclaimed, "RC latencies are always exact");
        assert_eq!(s.mean_latency(), 0.0, "counting reclaims instantly");
        assert_eq!(s.float_now, r.leaked as u64, "the leak is permanent float");
        assert_eq!(s.msgs_mr, r.count_messages);
        assert!(
            s.float_age.iter().skip(4).any(|&b| b > 0),
            "stranded cycles keep aging"
        );
        assert_eq!(replay_churn_rc(&trace), r, "observed replay is faithful");
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn observed_rc_is_silent_feature_off() {
        let trace = churn_trace(100, 4, 0.5, 0.5, 1);
        let mut lc = LifecycleTracker::new();
        let r = replay_churn_rc_observed(&trace, &mut lc);
        assert!(lc.snapshot().is_empty());
        assert_eq!(replay_churn_rc(&trace), r, "replay identical either way");
    }

    #[test]
    fn churn_leak_scales_with_cyclic_fraction() {
        let trace_lo = churn_trace(300, 4, 0.2, 0.5, 1);
        let trace_hi = churn_trace(300, 4, 0.8, 0.5, 1);
        let lo = replay_churn_rc(&trace_lo);
        let hi = replay_churn_rc(&trace_hi);
        assert!(lo.leaked > 0);
        assert!(
            hi.leaked > lo.leaked,
            "more cycles, more leak: {} vs {}",
            hi.leaked,
            lo.leaked
        );
    }
}
