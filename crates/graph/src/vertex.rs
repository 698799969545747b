//! Vertices: labels, the paper's three edge sets, and marking slots.

use std::fmt;

use crate::ids::VertexId;
use crate::label::NodeLabel;
use crate::value::Value;

/// How an argument's value was requested.
///
/// The paper refines `req-args(v)` into the disjoint sets `req-args_v(v)`
/// ("vitally requested") and `req-args_e(v)` ("eagerly requested"); the
/// remaining arcs (`req-args_r(v)`) are the arguments not requested at all.
/// An arc with no request is represented here by `None` in
/// [`Vertex::request_kinds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// The value is known to be needed (`req-args_v`).
    Vital,
    /// The value was demanded speculatively (`req-args_e`).
    Eager,
}

impl RequestKind {
    /// The marking priority carried by a request of this kind.
    pub fn priority(self) -> Priority {
        match self {
            RequestKind::Vital => Priority::Vital,
            RequestKind::Eager => Priority::Eager,
        }
    }
}

/// Marking priority, the paper's integers 3 / 2 / 1.
///
/// `M_R` tags each reachable vertex with the *best* (maximum over paths of
/// the minimum over arcs) request type on a root path:
/// [`Priority::Vital`] (3) for vertices in `R_v`, [`Priority::Eager`] (2)
/// for `R_e`, and [`Priority::Reserve`] (1) for `R_r`.
///
/// # Example
///
/// ```
/// use dgr_graph::Priority;
/// assert!(Priority::Vital > Priority::Eager);
/// assert_eq!(Priority::Vital.min(Priority::Eager), Priority::Eager);
/// assert_eq!(Priority::Reserve.level(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Priority 1: reachable only through at least one unrequested arc.
    #[default]
    Reserve = 1,
    /// Priority 2: best root path uses requested arcs with ≥ 1 eager arc.
    Eager = 2,
    /// Priority 3: reachable through vitally-requested arcs only.
    Vital = 3,
}

impl Priority {
    /// The paper's integer encoding (3, 2 or 1).
    pub fn level(self) -> u8 {
        self as u8
    }

    /// `request-type(c, v)` from Figure 5-1: the priority contributed by an
    /// arc with the given request kind (`None` means unrequested).
    pub fn of_request(kind: Option<RequestKind>) -> Priority {
        match kind {
            Some(k) => k.priority(),
            None => Priority::Reserve,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Vital => f.write_str("vital"),
            Priority::Eager => f.write_str("eager"),
            Priority::Reserve => f.write_str("reserve"),
        }
    }
}

/// The tri-state marking color of a vertex (paper Section 4.1).
///
/// Similar to Dijkstra's white/gray/black cells, "but subtly different due
/// to the distributed system context": *transient* means a mark task has
/// executed at the vertex but the marks spawned on its children have not all
/// returned (`mt-cnt > 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Color {
    /// No mark task has executed at this vertex.
    #[default]
    Unmarked,
    /// A mark task executed; children's marks have not all returned.
    Transient,
    /// Marking is complete for this vertex.
    Marked,
}

/// The parent of a vertex in the marking tree, or one of the two dummy
/// roots used for termination detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkParent {
    /// A real vertex parent (`mt-par`).
    Vertex(VertexId),
    /// The dummy `rootpar` above the computation root (process `M_R`).
    RootPar,
    /// The dummy parent above the virtual task root `troot` (process `M_T`).
    TaskRootPar,
}

impl MarkParent {
    /// Returns the vertex, if this parent is a real vertex.
    pub fn as_vertex(self) -> Option<VertexId> {
        match self {
            MarkParent::Vertex(v) => Some(v),
            _ => None,
        }
    }
}

/// Per-vertex, per-marking-process state: the color, `mt-cnt`, `mt-par` and
/// (for `M_R`) the priority field of Section 5.1.
///
/// Each vertex carries **two** independent slots ([`Slot::R`] and
/// [`Slot::T`]) because the paper requires the bits used by `M_T` to be
/// distinct from those used by `M_R`.
///
/// Slots are reset **lazily** via epochs: a store-wide per-slot epoch is
/// bumped to start a marking cycle (O(1) instead of an O(|V|) sweep), and a
/// slot whose [`MarkSlot::epoch`] differs from the current cycle's epoch
/// reads as freshly reset. The predicates below interpret the raw fields
/// and are only meaningful on a slot known to belong to the current cycle;
/// use [`Vertex::mark_at`] / [`crate::GraphStore::mark`] for the
/// epoch-normalized view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarkSlot {
    /// Marking color.
    pub color: Color,
    /// Number of mark tasks spawned from this vertex that have not returned.
    pub mt_cnt: u32,
    /// Parent in the marking tree, valid while transient or marked.
    pub mt_par: Option<MarkParent>,
    /// Priority this vertex was traced with (only meaningful for `M_R`).
    pub prior: Priority,
    /// The marking cycle this slot's contents belong to. `0` is never a
    /// live epoch (store epochs start at 1), so default slots are stale.
    pub epoch: u32,
}

impl MarkSlot {
    /// Resets the slot to its pre-marking state.
    pub fn reset(&mut self) {
        *self = MarkSlot::default();
    }

    /// A freshly reset slot stamped with the given epoch.
    pub fn fresh(epoch: u32) -> Self {
        MarkSlot {
            epoch,
            ..MarkSlot::default()
        }
    }

    /// `unmarked(v)` from the paper.
    pub fn is_unmarked(&self) -> bool {
        self.color == Color::Unmarked
    }

    /// `transient(v)` from the paper.
    pub fn is_transient(&self) -> bool {
        self.color == Color::Transient
    }

    /// `marked(v)` from the paper.
    pub fn is_marked(&self) -> bool {
        self.color == Color::Marked
    }
}

/// Selects which marking process's slot to operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The slot used by `M_R` (marking from the root).
    R,
    /// The slot used by `M_T` (marking from tasks).
    T,
}

impl Slot {
    /// Dense index (`R` = 0, `T` = 1), used to key per-slot epoch arrays.
    pub fn index(self) -> usize {
        match self {
            Slot::R => 0,
            Slot::T => 1,
        }
    }
}

/// A party awaiting a vertex's value: either another vertex or an entity
/// outside the graph (the initial task `<-, root>` has no source vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requester {
    /// A vertex that spawned a request task.
    Vertex(VertexId),
    /// An external observer (the "`-`" source of the initial task).
    External,
}

impl Requester {
    /// Returns the vertex, if the requester is a vertex.
    pub fn as_vertex(self) -> Option<VertexId> {
        match self {
            Requester::Vertex(v) => Some(v),
            Requester::External => None,
        }
    }
}

impl From<VertexId> for Requester {
    fn from(v: VertexId) -> Self {
        Requester::Vertex(v)
    }
}

/// A vertex of the computation graph.
///
/// Carries the label, the paper's three outgoing-edge sets, the received
/// argument values (reduction-engine state), the computed value, and the two
/// marking slots. Arcs are kept as parallel vectors:
/// `args[i]` is the target, `request_kinds[i]` records whether (and how) the
/// arc was requested, and `arg_values[i]` holds the returned value once the
/// requested computation replies.
///
/// Edges form a *multiset*: the same target may appear more than once (e.g.
/// `x + x`). The paper treats `args` as a set; reachability is unaffected by
/// the generalization and deletion removes one occurrence at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    /// The operator/value label.
    pub label: NodeLabel,
    args: Vec<VertexId>,
    request_kinds: Vec<Option<RequestKind>>,
    arg_values: Vec<Option<Value>>,
    requested: Vec<Requester>,
    /// The computed ultimate value, if the reduction process has produced it.
    pub value: Option<Value>,
    /// Marking slot for `M_R`.
    pub mr: MarkSlot,
    /// Marking slot for `M_T`.
    pub mt: MarkSlot,
    /// The *effective demand priority* this vertex is being computed at:
    /// the maximum request kind received so far, refreshed from the `M_R`
    /// priority marks by each GC cycle (the paper's dynamic
    /// prioritization). Sub-requests are scheduled at
    /// `min(demand, request-type)`, so speculative subcomputations never
    /// ride the vital lanes.
    pub demand: Priority,
    /// The touch epoch in force when a task last executed at this vertex
    /// or was spawned targeting it; "touched" means this equals the
    /// store's current touch epoch (see [`crate::GraphStore::is_touched`]).
    /// The stamp set is cleared at the start of each `M_T` pass by bumping
    /// the store epoch (O(1)). A vertex deadlocked before a pass by
    /// definition sees no task activity afterwards, so the deadlock report
    /// `R_v' − T'` additionally requires "not touched" — this screens out
    /// vertices whose task-reachability arose *during* the pass (e.g.
    /// freshly expanded subgraphs), which stale `M_T` marks cannot know
    /// about. `0` is never a live epoch.
    pub(crate) touched_at: u32,
    pub(crate) in_free_list: bool,
}

impl Vertex {
    /// Creates a fresh vertex with the given label and no edges.
    pub fn new(label: NodeLabel) -> Self {
        Vertex {
            label,
            args: Vec::new(),
            request_kinds: Vec::new(),
            arg_values: Vec::new(),
            requested: Vec::new(),
            value: None,
            mr: MarkSlot::default(),
            mt: MarkSlot::default(),
            demand: Priority::Reserve,
            touched_at: 0,
            in_free_list: false,
        }
    }

    /// The `args(v)` edge set (in insertion order; may contain duplicates).
    pub fn args(&self) -> &[VertexId] {
        &self.args
    }

    /// Request kinds parallel to [`Vertex::args`]; `None` = unrequested.
    pub fn request_kinds(&self) -> &[Option<RequestKind>] {
        &self.request_kinds
    }

    /// Received argument values parallel to [`Vertex::args`].
    pub fn arg_values(&self) -> &[Option<Value>] {
        &self.arg_values
    }

    /// `requested(v)`: the parties that have requested this vertex's value
    /// and have not yet been replied to.
    pub fn requested(&self) -> &[Requester] {
        &self.requested
    }

    /// Returns `true` while the vertex sits on the free list `F`.
    pub fn is_free(&self) -> bool {
        self.in_free_list
    }

    /// Selects a marking slot by process.
    pub fn slot(&self, s: Slot) -> &MarkSlot {
        match s {
            Slot::R => &self.mr,
            Slot::T => &self.mt,
        }
    }

    /// Mutably selects a marking slot by process.
    pub fn slot_mut(&mut self, s: Slot) -> &mut MarkSlot {
        match s {
            Slot::R => &mut self.mr,
            Slot::T => &mut self.mt,
        }
    }

    /// The epoch-normalized view of a marking slot: the stored contents if
    /// they belong to marking cycle `epoch`, a fresh (reset) slot
    /// otherwise. This is how slot state must be *read* under lazy epoch
    /// reset — a stale slot still physically holds the previous cycle's
    /// colors.
    pub fn mark_at(&self, s: Slot, epoch: u32) -> MarkSlot {
        let slot = self.slot(s);
        if slot.epoch == epoch {
            *slot
        } else {
            MarkSlot::fresh(epoch)
        }
    }

    /// Mutable access to a marking slot under lazy epoch reset: a slot
    /// from an earlier cycle is reset and stamped with `epoch` before the
    /// reference is handed out, so writes always land in current-cycle
    /// state.
    pub fn mark_at_mut(&mut self, s: Slot, epoch: u32) -> &mut MarkSlot {
        let slot = self.slot_mut(s);
        if slot.epoch != epoch {
            *slot = MarkSlot::fresh(epoch);
        }
        slot
    }

    /// Appends an (unrequested) arc to `args(v)`.
    pub fn push_arg(&mut self, target: VertexId) {
        self.args.push(target);
        self.request_kinds.push(None);
        self.arg_values.push(None);
    }

    /// Removes the first occurrence of `target` from `args(v)`, returning
    /// the arc's request kind if the arc existed.
    pub fn remove_arg(&mut self, target: VertexId) -> Option<Option<RequestKind>> {
        let i = self.args.iter().position(|&a| a == target)?;
        self.args.remove(i);
        self.arg_values.remove(i);
        Some(self.request_kinds.remove(i))
    }

    /// Removes the arc at index `i`, returning its target and request kind.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn remove_arg_at(&mut self, i: usize) -> (VertexId, Option<RequestKind>) {
        let target = self.args.remove(i);
        self.arg_values.remove(i);
        (target, self.request_kinds.remove(i))
    }

    /// Marks arc `i` as requested with the given kind, returning the
    /// previous kind.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_request_kind(&mut self, i: usize, kind: Option<RequestKind>) -> Option<RequestKind> {
        std::mem::replace(&mut self.request_kinds[i], kind)
    }

    /// Records the returned value for arc `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_arg_value(&mut self, i: usize, v: Value) {
        self.arg_values[i] = Some(v);
    }

    /// Adds a requester to `requested(v)`.
    pub fn add_requester(&mut self, r: Requester) {
        self.requested.push(r);
    }

    /// Removes one occurrence of a requester (the paper's *dereference*
    /// partner operation), returning `true` if it was present.
    pub fn remove_requester(&mut self, r: Requester) -> bool {
        if let Some(i) = self.requested.iter().position(|&x| x == r) {
            self.requested.remove(i);
            true
        } else {
            false
        }
    }

    /// Keeps only the requesters for which `keep` returns `true` (used by
    /// the restructuring phase to purge reclaimed requesters). Returns how
    /// many were removed.
    pub fn retain_requesters(&mut self, mut keep: impl FnMut(Requester) -> bool) -> usize {
        let before = self.requested.len();
        self.requested.retain(|&r| keep(r));
        before - self.requested.len()
    }

    /// Drains and returns `requested(v)` (used when replying to all
    /// requesters at once).
    pub fn take_requested(&mut self) -> Vec<Requester> {
        std::mem::take(&mut self.requested)
    }

    /// `req-args(v)`: targets of arcs that have been requested (any kind).
    pub fn req_args(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.args
            .iter()
            .zip(&self.request_kinds)
            .filter(|(_, k)| k.is_some())
            .map(|(&a, _)| a)
    }

    /// `req-args_v(v)` or `req-args_e(v)` depending on `kind`.
    pub fn req_args_of(&self, kind: RequestKind) -> impl Iterator<Item = VertexId> + '_ {
        self.args
            .iter()
            .zip(&self.request_kinds)
            .filter(move |(_, k)| **k == Some(kind))
            .map(|(&a, _)| a)
    }

    /// `args(v) − req-args(v)`: targets of unrequested arcs.
    pub fn unrequested_args(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.args
            .iter()
            .zip(&self.request_kinds)
            .filter(|(_, k)| k.is_none())
            .map(|(&a, _)| a)
    }

    /// The child set traced by `M_T` (Figure 5-3):
    /// `requested(v) ∪ (args(v) − req-args(v))`, plus the vertices a computed
    /// structured value keeps live.
    pub fn t_children(&self) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .requested
            .iter()
            .filter_map(|r| r.as_vertex())
            .collect();
        out.extend(self.unrequested_args());
        if let Some(v) = &self.value {
            out.extend(v.referenced_vertices());
        }
        out
    }

    /// Visits the children [`Vertex::t_children`] returns, in the same
    /// order, without allocating.
    pub fn for_each_t_child(&self, mut f: impl FnMut(VertexId)) {
        for r in &self.requested {
            if let Some(v) = r.as_vertex() {
                f(v);
            }
        }
        for a in self.unrequested_args() {
            f(a);
        }
        if let Some(v) = &self.value {
            v.for_each_referenced(f);
        }
    }

    /// The child set traced by `M_R`: all of `args(v)`, plus the vertices a
    /// computed structured value keeps live (a cons value names its head and
    /// tail even after the arcs are rewritten).
    pub fn r_children(&self) -> Vec<VertexId> {
        let mut out = self.args.clone();
        if let Some(v) = &self.value {
            out.extend(v.referenced_vertices());
        }
        out
    }

    /// Visits the children [`Vertex::r_children`] returns, in the same
    /// order, without allocating — the marking wave's hot path.
    pub fn for_each_r_child(&self, mut f: impl FnMut(VertexId)) {
        for &a in &self.args {
            f(a);
        }
        if let Some(v) = &self.value {
            v.for_each_referenced(f);
        }
    }

    /// The child set traced by `M_R` together with each arc's request kind
    /// (`request-type(c, v)` in Figure 5-1). Vertices referenced by a
    /// computed structured value behave like *unrequested* arcs: a cons
    /// cell's components are exactly the lazily-reachable parts of the
    /// value — nothing has demanded them yet, so they contribute
    /// `Reserve`, and they are promoted the moment a real request arc is
    /// added for them.
    pub fn r_children_kinds(&self) -> Vec<(VertexId, Option<RequestKind>)> {
        let mut out: Vec<(VertexId, Option<RequestKind>)> = self
            .args
            .iter()
            .zip(&self.request_kinds)
            .map(|(&a, &k)| (a, k))
            .collect();
        if let Some(v) = &self.value {
            out.extend(v.referenced_vertices().into_iter().map(|c| (c, None)));
        }
        out
    }

    /// Number of requested arcs whose values have not yet arrived.
    pub fn pending_arg_values(&self) -> usize {
        self.request_kinds
            .iter()
            .zip(&self.arg_values)
            .filter(|(k, v)| k.is_some() && v.is_none())
            .count()
    }

    /// Clears reduction state and edges, leaving a `Hole` (used when the
    /// vertex is returned to the free list).
    pub fn clear_for_free(&mut self) {
        self.label = NodeLabel::Hole;
        self.args.clear();
        self.request_kinds.clear();
        self.arg_values.clear();
        self.requested.clear();
        self.value = None;
        self.demand = Priority::Reserve;
        self.touched_at = 0;
        // Marking slots are deliberately left alone: the restructuring phase
        // may free vertices while a later cycle's marks are still being
        // consulted; slots are reset when the next marking cycle begins.
    }

    /// Replaces all edges at once (used by `splice-in-subgraph`).
    pub fn replace_args(&mut self, args: Vec<VertexId>) {
        let n = args.len();
        self.args = args;
        self.request_kinds = vec![None; n];
        self.arg_values = vec![None; n];
    }

    /// Internal consistency of the parallel vectors.
    pub fn check_consistency(&self) -> bool {
        self.args.len() == self.request_kinds.len() && self.args.len() == self.arg_values.len()
    }
}

impl Default for Vertex {
    fn default() -> Self {
        Vertex::new(NodeLabel::Hole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::PrimOp;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn priority_order_matches_paper_levels() {
        assert_eq!(Priority::Vital.level(), 3);
        assert_eq!(Priority::Eager.level(), 2);
        assert_eq!(Priority::Reserve.level(), 1);
        assert!(Priority::Vital > Priority::Eager && Priority::Eager > Priority::Reserve);
    }

    #[test]
    fn priority_of_request() {
        assert_eq!(
            Priority::of_request(Some(RequestKind::Vital)),
            Priority::Vital
        );
        assert_eq!(
            Priority::of_request(Some(RequestKind::Eager)),
            Priority::Eager
        );
        assert_eq!(Priority::of_request(None), Priority::Reserve);
    }

    #[test]
    fn mark_slot_state_predicates() {
        let mut s = MarkSlot::default();
        assert!(s.is_unmarked());
        s.color = Color::Transient;
        assert!(s.is_transient());
        s.color = Color::Marked;
        assert!(s.is_marked());
        s.reset();
        assert!(s.is_unmarked());
        assert_eq!(s.mt_cnt, 0);
    }

    #[test]
    fn push_and_remove_args_keep_vectors_parallel() {
        let mut x = Vertex::new(NodeLabel::Prim(PrimOp::Add));
        x.push_arg(v(1));
        x.push_arg(v(2));
        x.push_arg(v(1)); // duplicate arc, multiset semantics
        assert!(x.check_consistency());
        assert_eq!(x.args(), &[v(1), v(2), v(1)]);

        x.set_request_kind(0, Some(RequestKind::Vital));
        let removed = x.remove_arg(v(1)).unwrap();
        assert_eq!(removed, Some(RequestKind::Vital));
        assert_eq!(x.args(), &[v(2), v(1)]);
        assert!(x.check_consistency());
        // remaining duplicate is unrequested
        assert_eq!(x.request_kinds()[1], None);
    }

    #[test]
    fn remove_missing_arg_returns_none() {
        let mut x = Vertex::new(NodeLabel::If);
        x.push_arg(v(5));
        assert!(x.remove_arg(v(9)).is_none());
        assert_eq!(x.args().len(), 1);
    }

    #[test]
    fn req_args_partitions() {
        let mut x = Vertex::new(NodeLabel::If);
        x.push_arg(v(1)); // predicate, vital
        x.push_arg(v(2)); // then, eager
        x.push_arg(v(3)); // else, unrequested
        x.set_request_kind(0, Some(RequestKind::Vital));
        x.set_request_kind(1, Some(RequestKind::Eager));

        let vital: Vec<_> = x.req_args_of(RequestKind::Vital).collect();
        let eager: Vec<_> = x.req_args_of(RequestKind::Eager).collect();
        let unreq: Vec<_> = x.unrequested_args().collect();
        let req: Vec<_> = x.req_args().collect();
        assert_eq!(vital, vec![v(1)]);
        assert_eq!(eager, vec![v(2)]);
        assert_eq!(unreq, vec![v(3)]);
        assert_eq!(req, vec![v(1), v(2)]);
    }

    #[test]
    fn t_children_trace_requested_and_unrequested() {
        let mut x = Vertex::new(NodeLabel::Prim(PrimOp::Add));
        x.push_arg(v(1));
        x.push_arg(v(2));
        x.set_request_kind(0, Some(RequestKind::Vital));
        x.add_requester(Requester::Vertex(v(7)));
        x.add_requester(Requester::External);

        let t = x.t_children();
        // requested(v) ∪ (args − req-args): {7} ∪ {2}; External contributes
        // nothing.
        assert!(t.contains(&v(7)));
        assert!(t.contains(&v(2)));
        assert!(!t.contains(&v(1)));
    }

    #[test]
    fn children_include_value_references() {
        let mut x = Vertex::new(NodeLabel::Cons);
        x.value = Some(Value::Cons(v(4), v(5)));
        assert!(x.r_children().contains(&v(4)));
        assert!(x.r_children().contains(&v(5)));
        assert!(x.t_children().contains(&v(4)));
        // Value components are lazily reachable: unrequested kind.
        let kinds = x.r_children_kinds();
        assert!(kinds.contains(&(v(4), None)) && kinds.contains(&(v(5), None)));
    }

    #[test]
    fn requester_management() {
        let mut x = Vertex::new(NodeLabel::If);
        x.add_requester(v(1).into());
        x.add_requester(v(2).into());
        assert!(x.remove_requester(Requester::Vertex(v(1))));
        assert!(!x.remove_requester(Requester::Vertex(v(1))));
        let drained = x.take_requested();
        assert_eq!(drained, vec![Requester::Vertex(v(2))]);
        assert!(x.requested().is_empty());
    }

    #[test]
    fn pending_arg_values_counts_only_requested() {
        let mut x = Vertex::new(NodeLabel::Prim(PrimOp::Add));
        x.push_arg(v(1));
        x.push_arg(v(2));
        x.set_request_kind(0, Some(RequestKind::Vital));
        x.set_request_kind(1, Some(RequestKind::Vital));
        assert_eq!(x.pending_arg_values(), 2);
        x.set_arg_value(0, Value::Int(1));
        assert_eq!(x.pending_arg_values(), 1);
        x.set_arg_value(1, Value::Int(2));
        assert_eq!(x.pending_arg_values(), 0);
    }

    #[test]
    fn clear_for_free_leaves_hole_but_keeps_marks() {
        let mut x = Vertex::new(NodeLabel::Prim(PrimOp::Add));
        x.push_arg(v(1));
        x.mr.color = Color::Marked;
        x.clear_for_free();
        assert!(x.label.is_hole());
        assert!(x.args().is_empty());
        assert_eq!(x.mr.color, Color::Marked);
    }

    #[test]
    fn replace_args_resets_parallel_state() {
        let mut x = Vertex::new(NodeLabel::Apply);
        x.push_arg(v(1));
        x.set_request_kind(0, Some(RequestKind::Vital));
        x.replace_args(vec![v(8), v(9)]);
        assert_eq!(x.args(), &[v(8), v(9)]);
        assert_eq!(x.request_kinds(), &[None, None]);
        assert!(x.check_consistency());
    }

    #[test]
    fn slot_selection() {
        let mut x = Vertex::new(NodeLabel::Hole);
        x.slot_mut(Slot::R).color = Color::Marked;
        assert!(x.slot(Slot::R).is_marked());
        assert!(x.slot(Slot::T).is_unmarked());
    }

    #[test]
    fn slot_indices_are_dense() {
        assert_eq!(Slot::R.index(), 0);
        assert_eq!(Slot::T.index(), 1);
    }

    #[test]
    fn mark_at_normalizes_stale_epochs() {
        let mut x = Vertex::new(NodeLabel::Hole);
        {
            let s = x.mark_at_mut(Slot::R, 1);
            s.color = Color::Marked;
            s.mt_cnt = 3;
        }
        assert!(x.mark_at(Slot::R, 1).is_marked());
        assert_eq!(x.mark_at(Slot::R, 1).mt_cnt, 3);
        // A later cycle sees a fresh slot without any physical reset.
        let stale_view = x.mark_at(Slot::R, 2);
        assert!(stale_view.is_unmarked());
        assert_eq!(stale_view.mt_cnt, 0);
        // The raw contents are still the old cycle's until written.
        assert!(x.mr.is_marked());
        // First write under the new epoch lazily resets, then applies.
        x.mark_at_mut(Slot::R, 2).color = Color::Transient;
        assert!(x.mr.is_transient());
        assert_eq!(x.mr.mt_cnt, 0, "lazy reset cleared the old count");
        assert_eq!(x.mr.epoch, 2);
    }
}
