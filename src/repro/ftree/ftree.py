"""The F-tree: incremental maintenance and expected-flow evaluation.

The F-tree represents the subgraph induced by the edges selected so far
as a tree of components anchored at the query vertex ``Q`` (Definition
9).  :meth:`FTree.insert_edge` implements the incremental insertion cases
of Section 5.4:

* **Case II** — one endpoint is new: the vertex is attached as a dead end
  (to the mono component that owns the anchor, or as a fresh
  single-vertex mono component below a bi component).
* **Case IIIa** — both endpoints live in the same bi-connected component:
  the edge joins that component, whose reachability must be re-estimated.
* **Case IIIb** — both endpoints live in the same mono-connected
  component: a cycle appears; the affected path is split off into a new
  bi-connected component and orphaned subtrees become new mono
  components (``splitTree``).
* **Case IV** — the endpoints live in different components: the new cycle
  spans a whole chain of components up to their lowest common ancestor;
  bi components on the chain are absorbed, mono components contribute
  the path towards their articulation vertex, and the ancestor is
  handled like Case III.

Cases IIIb and IV share one generic cycle-closing routine; the paper's
case labels are preserved in the returned :class:`InsertionResult` for
observability.  The routine first *plans* the insertion without touching
the tree, then applies the plan.

:meth:`FTree.probe` scores a candidate edge without inserting it, as a
flow delta over per-vertex aggregates of the *vertex tree*: every
connected vertex hangs below its mono parent, or below the articulation
of its bi component, with the edge probability or its local
reachability as factor.  The tree keeps those aggregates current as it
changes: a Case II insertion updates them along the new vertex's
ancestor path, a cycle merge along the articulation's, and the first
probe of a round applies the re-estimate of every bi component whose
factors moved.  An edge that closes a cycle then costs one estimate of
the planned bi component plus a sum over its vertices; an edge to a new
vertex costs one multiply-add, so :meth:`FTree.probe_new_vertices`
scores a whole array of them at once over the reach arrays, and the
scalar :meth:`FTree.probe` remains the oracle it is tested against.
:meth:`FTree.check_invariants` recomputes the aggregates from scratch
and compares.

The tree also keeps, per cycle candidate, the plan its last probe made:
the planned bi component and the ids of the tree components the plan
read.  A Case IIIa plan reads only its target; any other plan reads the
chain components strictly below the lowest common ancestor on both
sides and the ancestor itself, never the components above it.  A cycle
insertion drops exactly the plans that read a component it consumed,
split or grew; a Case II leaf changes no existing path to an
articulation, so it drops none.  A reused plan skips planning; only
the merge sum and ``R(A)`` are recomputed against the live aggregates.
Its estimate is reused only where it is deterministic in the plan: an
exact one, at cost 0.  A sampled estimate is re-drawn through the
sampler every probe, because FT keys its stream on the round and FT+M's
memo may have evicted it (§6.2), and its cost is priced against the
live memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import (
    DisconnectedInsertionError,
    DuplicateEdgeError,
    FTreeInvariantError,
    VertexNotFoundError,
)
from repro.ftree.components import (
    BiConnectedComponent,
    Component,
    MonoConnectedComponent,
)
from repro.ftree.sampler import ComponentSampler
from repro.reachability.confidence import normal_bounds, standard_normal_quantile
from repro.types import Edge, VertexId


@dataclass
class InsertionResult:
    """Describes what one edge insertion did to the F-tree."""

    edge: Edge
    #: Paper case label: "IIa", "IIb", "IIIa", "IIIb" or "IV".
    case: str
    #: Ids of components created by the insertion.
    created_components: List[int] = field(default_factory=list)
    #: Ids of components removed (absorbed or emptied) by the insertion.
    removed_components: List[int] = field(default_factory=list)
    #: Ids of bi components whose reachability must be re-estimated.
    invalidated_components: List[int] = field(default_factory=list)


class ProbeScore(NamedTuple):
    """What inserting one candidate edge would do, scored without inserting it.

    ``flow`` is :meth:`FTree.expected_flow`, ``(lower, upper)`` is
    :meth:`FTree.flow_interval` and ``cost`` is
    :meth:`FTree.pending_estimation_cost` of the tree with the edge
    inserted.
    """

    flow: float
    lower: float
    upper: float
    cost: int


@dataclass
class _CyclePlan:
    """An insertion between two connected vertices, worked out but not applied."""

    #: Paper case label: "IIIa", "IIIb" or "IV".
    case: str
    #: The bi component the insertion creates (or grows, for Case IIIa),
    #: built but not registered with the tree.
    component: BiConnectedComponent
    #: Case IIIa: the existing component that receives the edge in place.
    target: Optional[BiConnectedComponent] = None
    #: Cases IIIb and IV: the components merged into the cycle, in merge
    #: order — a bi component whole (``None``), a mono component with the
    #: path of vertices that moves out of it.
    consumed: List[Tuple[Component, Optional[List[VertexId]]]] = field(default_factory=list)
    #: Ids of the tree components the plan read: the target (Case IIIa),
    #: otherwise the chain components strictly below the lowest common
    #: ancestor on both sides and the ancestor itself, if there is one.
    reads: Tuple[int, ...] = ()


class FTree:
    """Flow tree over the currently selected edge set of an uncertain graph.

    Parameters
    ----------
    graph:
        The full uncertain graph; supplies edge probabilities and vertex
        weights.  The F-tree itself only tracks the *selected* edges, and
        takes the graph's edge probabilities as fixed while it lives.
    query:
        The query vertex ``Q``; all flow is measured towards it.
    sampler:
        The :class:`ComponentSampler` used to estimate bi-connected
        components (a default sampler is created when omitted).
    alpha:
        Significance level of the interval bounds that :meth:`probe`
        reports (the lower and upper flow of :meth:`flow_interval`).
    """

    def __init__(
        self,
        graph,
        query: VertexId,
        sampler: Optional[ComponentSampler] = None,
        alpha: float = 0.01,
    ) -> None:
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        self.graph = graph
        self.query = query
        self.sampler = sampler if sampler is not None else ComponentSampler()
        self.alpha = alpha
        self._z = standard_normal_quantile(1.0 - alpha / 2.0)
        self._components: Dict[int, Component] = {}
        #: vertex -> id of the component that owns it (Q is never owned)
        self._owner: Dict[VertexId, int] = {}
        self._selected: Set[Edge] = set()
        self._next_id = 0
        self._root_mono_id: Optional[int] = None

        # The vertex tree's aggregates, indexed by UncertainGraph.vertex_index()
        # ids.  Every connected vertex x hangs below its parent π(x) with factor
        # f(x): R(x) = f(x)·R(π(x)) is its probability of reaching Q and
        # D(x) = w(x) + Σ_children f(c)·D(c) the expected weight collected at x;
        # D(Q) leaves out w(Q), so it is the flow.  There is one factor set (the
        # estimate) until a sampled bi component appears, then three: the
        # estimate and its lower and upper interval bounds.
        index = graph.vertex_index()
        self._ids = index.ids
        self._vertices = index.vertices
        n_vertices = len(index.vertices)
        self._q = self._ids[query]
        #: π(x); -1 for Q and for vertices not connected
        self._parent: List[int] = [-1] * n_vertices
        self._children: Dict[int, Set[int]] = {}
        self._factors: List[List[float]] = [[0.0] * n_vertices]
        self._downs: List[List[float]] = [[0.0] * n_vertices]
        reach = np.zeros(n_vertices)
        reach[self._q] = 1.0
        self._reach: List[np.ndarray] = [reach]
        #: bi components whose factors may have changed since they were applied
        self._stale: Set[int] = set()
        #: vertices whose R — and their subtrees' — must be recomputed
        self._dirty: Set[int] = set()
        # The plan cache: per cycle candidate, the plan its last probe made,
        # whose component keeps the tree sampler's estimate; filed under
        # every component id the plan read, so that an insertion drops
        # exactly the plans that read a component it changes.
        self._plans: Dict[Edge, _CyclePlan] = {}
        self._readers: Dict[int, Set[Edge]] = {}
        #: cycle plans that probe and probe_cost took from the cache / made afresh
        self.reused_plans = 0
        self.fresh_plans = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def selected_edges(self) -> Set[Edge]:
        """The set of edges inserted so far."""
        return set(self._selected)

    @property
    def n_selected(self) -> int:
        """Number of selected edges."""
        return len(self._selected)

    def components(self) -> List[Component]:
        """Return all components (arbitrary order)."""
        return list(self._components.values())

    def component(self, component_id: int) -> Component:
        """Return the component with the given id."""
        return self._components[component_id]

    def connected_vertices(self) -> Set[VertexId]:
        """Return all vertices currently connected to the query vertex (including Q)."""
        return set(self._owner) | {self.query}

    def is_connected_vertex(self, vertex: VertexId) -> bool:
        """Return True if ``vertex`` is the query vertex or reachable via selected edges."""
        return vertex == self.query or vertex in self._owner

    def owner_of(self, vertex: VertexId) -> Optional[Component]:
        """Return the component owning ``vertex`` (None for the query vertex)."""
        if vertex == self.query:
            return None
        component_id = self._owner.get(vertex)
        return None if component_id is None else self._components[component_id]

    def begin_round(self, round_index: int) -> None:
        """Start a selection round: advance the sampler's round and mark
        every bi-connected component for re-estimation.

        Each bi component is then estimated once in the round, on the
        first probe or flow evaluation, through the same sampler call
        (memo key and CRN stream) that evaluating a fresh copy of the
        tree with one candidate inserted would make.
        """
        self.sampler.begin_round(round_index)
        for component in self._components.values():
            if isinstance(component, BiConnectedComponent):
                component.invalidate()
                self._stale.add(component.component_id)

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _register(self, component: Component) -> None:
        self._components[component.component_id] = component
        for vertex in component.vertices:
            self._owner[vertex] = component.component_id

    def _unregister(self, component: Component) -> None:
        self._components.pop(component.component_id, None)
        if self._root_mono_id == component.component_id:
            self._root_mono_id = None

    def _root_mono(self) -> MonoConnectedComponent:
        """Return (creating lazily) the mono component anchored directly at Q."""
        if self._root_mono_id is not None:
            component = self._components.get(self._root_mono_id)
            if isinstance(component, MonoConnectedComponent):
                return component
        component = MonoConnectedComponent(self._new_id(), self.query)
        self._components[component.component_id] = component
        self._root_mono_id = component.component_id
        return component

    # ------------------------------------------------------------------
    # edge insertion (Section 5.4)
    # ------------------------------------------------------------------
    def insert_edge(self, u: VertexId, v: VertexId) -> InsertionResult:
        """Insert the selected edge ``(u, v)`` and update the decomposition.

        At least one endpoint must already be connected to the query
        vertex (Case I of the paper never occurs because edge selection
        grows a single connected component around ``Q``).
        """
        edge = Edge(u, v)
        probability = self._check_insertion(edge)
        self._selected.add(edge)
        self._drop_plan(edge)
        u_connected = self.is_connected_vertex(u)
        v_connected = self.is_connected_vertex(v)
        if u_connected and not v_connected:
            return self._attach_new_vertex(u, v, edge, probability)
        if v_connected and not u_connected:
            return self._attach_new_vertex(v, u, edge, probability)
        return self._apply_cycle(self._plan_cycle(u, v, edge), edge)

    def _check_insertion(self, edge: Edge) -> float:
        """Validate a would-be insertion of ``edge``; return its probability.

        A non-edge raises :class:`~repro.exceptions.EdgeNotFoundError`
        from the graph lookup.
        """
        probability = self.graph.probability(edge)
        if edge in self._selected:
            raise DuplicateEdgeError(edge.u, edge.v)
        if not (self.is_connected_vertex(edge.u) or self.is_connected_vertex(edge.v)):
            raise DisconnectedInsertionError(edge.u, edge.v)
        return probability

    # -- Case II ---------------------------------------------------------
    def _attach_new_vertex(
        self, anchor: VertexId, new_vertex: VertexId, edge: Edge, probability: float
    ) -> InsertionResult:
        if new_vertex not in self._ids:
            self._grow()
        self._link(self._ids[new_vertex], self._ids[anchor], probability)
        owner = self.owner_of(anchor)
        if owner is None:
            # the anchor is the query vertex: grow the root mono component
            root = self._root_mono()
            root.add_vertex(new_vertex, anchor)
            self._owner[new_vertex] = root.component_id
            return InsertionResult(edge=edge, case="IIa", created_components=[], removed_components=[])
        if owner.is_mono:
            assert isinstance(owner, MonoConnectedComponent)
            owner.add_vertex(new_vertex, anchor)
            self._owner[new_vertex] = owner.component_id
            return InsertionResult(edge=edge, case="IIa")
        # anchor lives in a bi component: a new dead-end mono component hangs below it
        mono = MonoConnectedComponent(self._new_id(), anchor)
        mono.add_vertex(new_vertex, anchor)
        self._register(mono)
        return InsertionResult(edge=edge, case="IIb", created_components=[mono.component_id])

    # -- Cases III and IV --------------------------------------------------
    def _anchor_chain(self, vertex: VertexId) -> List[Tuple[Component, VertexId]]:
        """Return the chain of (component, entry vertex) pairs from ``vertex`` up to Q."""
        chain: List[Tuple[Component, VertexId]] = []
        current = vertex
        guard = 0
        while current != self.query:
            component = self.owner_of(current)
            if component is None:
                raise FTreeInvariantError(
                    f"vertex {current!r} is connected but owned by no component"
                )
            chain.append((component, current))
            current = component.articulation
            guard += 1
            if guard > len(self._components) + 1:
                raise FTreeInvariantError("cycle detected in the component ancestry")
        return chain

    def _plan_cycle(self, u: VertexId, v: VertexId, edge: Edge) -> _CyclePlan:
        """Work out the bi component that edge ``(u, v)`` between two connected
        vertices would create or grow, without changing the tree.

        :meth:`insert_edge` applies the plan (:meth:`_apply_cycle`);
        :meth:`probe` only evaluates its component.
        """
        owner_u = self.owner_of(u)
        owner_v = self.owner_of(v)
        if (
            owner_u is not None
            and owner_v is not None
            and owner_u.component_id == owner_v.component_id
        ):
            if not owner_u.is_mono:
                # Case IIIa: new edge inside an existing bi component
                assert isinstance(owner_u, BiConnectedComponent)
                return self._plan_in_place(owner_u, edge)
            case = "IIIb"
        else:
            # the paper treats an edge between a bi component and its own articulation
            # vertex as Case IIIa as well: the edge lies entirely inside that component
            for inside, outside in ((owner_u, v), (owner_v, u)):
                if (
                    inside is not None
                    and not inside.is_mono
                    and inside.articulation == outside
                ):
                    assert isinstance(inside, BiConnectedComponent)
                    return self._plan_in_place(inside, edge)
            case = "IV"

        # Cases IIIb and IV share one generic cycle-closing routine
        chain_u = self._anchor_chain(u)
        chain_v = self._anchor_chain(v)
        ids_u = {component.component_id: index for index, (component, _) in enumerate(chain_u)}
        ancestor: Optional[Component] = None
        cut_u, cut_v = len(chain_u), len(chain_v)
        for index_v, (component, _) in enumerate(chain_v):
            if component.component_id in ids_u:
                ancestor = component
                cut_u = ids_u[component.component_id]
                cut_v = index_v
                break
        below_u = chain_u[:cut_u]
        below_v = chain_v[:cut_v]
        entry_u = u if not below_u else below_u[-1][0].articulation
        entry_v = v if not below_v else below_v[-1][0].articulation

        moved_vertices: Set[VertexId] = set()
        moved_edges: Set[Edge] = {edge}
        consumed: List[Tuple[Component, Optional[List[VertexId]]]] = []

        for component, entry in below_u + below_v:
            # merge one chain component (strictly below the ancestor) into the new cycle
            if component.is_mono:
                assert isinstance(component, MonoConnectedComponent)
                path = component.path_to_articulation(entry)
                # the articulation vertex belongs to the component above
                self._plan_split(component, path[:-1], moved_vertices, moved_edges, consumed)
            else:
                moved_vertices |= component.vertices
                moved_edges |= component.edges()
                consumed.append((component, None))

        if ancestor is None:
            articulation: VertexId = self.query
        elif entry_u == entry_v:
            articulation = entry_u
        elif not ancestor.is_mono:
            # the lowest common ancestor is itself cyclic: it merges into the new component
            moved_vertices |= ancestor.vertices
            moved_edges |= ancestor.edges()
            consumed.append((ancestor, None))
            articulation = ancestor.articulation
        else:
            assert isinstance(ancestor, MonoConnectedComponent)
            path_u = ancestor.path_to_articulation(entry_u)
            path_v = ancestor.path_to_articulation(entry_v)
            on_path_u = set(path_u)
            meet = next(vertex for vertex in path_v if vertex in on_path_u)
            moved_in_ancestor: List[VertexId] = []
            for vertex in path_u:
                if vertex == meet:
                    break
                moved_in_ancestor.append(vertex)
            for vertex in path_v:
                if vertex == meet:
                    break
                moved_in_ancestor.append(vertex)
            self._plan_split(ancestor, moved_in_ancestor, moved_vertices, moved_edges, consumed)
            articulation = meet

        # the new bi-connected component; it gets its id when the plan is applied
        component = BiConnectedComponent(self._next_id + 1, articulation)
        component.absorb(moved_vertices - {articulation}, moved_edges)
        # components above the ancestor are never read
        reads = [chained.component_id for chained, _ in below_u + below_v]
        if ancestor is not None:
            reads.append(ancestor.component_id)
        return _CyclePlan(case=case, component=component, consumed=consumed, reads=tuple(reads))

    @staticmethod
    def _plan_in_place(target: BiConnectedComponent, edge: Edge) -> _CyclePlan:
        """Case IIIa: the edge joins ``target``, which keeps its id and articulation."""
        component = target.clone()
        component.add_edge(edge)
        return _CyclePlan(
            case="IIIa", component=component, target=target, reads=(target.component_id,)
        )

    @staticmethod
    def _plan_split(
        component: MonoConnectedComponent,
        moved: List[VertexId],
        moved_vertices: Set[VertexId],
        moved_edges: Set[Edge],
        consumed: List[Tuple[Component, Optional[List[VertexId]]]],
    ) -> None:
        """Move ``moved`` (a path towards the articulation) and its parent edges into the cycle."""
        for vertex in moved:
            moved_vertices.add(vertex)
            moved_edges.add(Edge(vertex, component.parent_of[vertex]))
        consumed.append((component, moved))

    def _apply_cycle(self, plan: _CyclePlan, edge: Edge) -> InsertionResult:
        """Carry out a cycle-closing plan made by :meth:`_plan_cycle` on this tree."""
        # the components the insertion grows, consumes or splits
        changed = [plan.target] if plan.target is not None else [c for c, _ in plan.consumed]
        self._drop_plans_reading([component.component_id for component in changed])
        if plan.target is not None:
            plan.target.add_edge(edge)
            self._stale.add(plan.target.component_id)
            return InsertionResult(
                edge=edge,
                case=plan.case,
                invalidated_components=[plan.target.component_id],
            )
        orphans: List[Tuple[VertexId, Dict[VertexId, VertexId]]] = []
        removed: List[Component] = []
        for component, moved in plan.consumed:
            if moved is None:
                removed.append(component)
            else:
                assert isinstance(component, MonoConnectedComponent)
                self._split_mono(component, moved, orphans, removed)

        new_component = plan.component
        new_component.component_id = self._new_id()
        removed_ids: List[int] = []
        for component in removed:
            self._unregister(component)
            removed_ids.append(component.component_id)
        self._register(new_component)

        created_ids = [new_component.component_id]
        for anchor, parent_map in orphans:
            orphan = MonoConnectedComponent(self._new_id(), anchor)
            orphan.vertices = set(parent_map)
            orphan.parent_of = dict(parent_map)
            self._register(orphan)
            created_ids.append(orphan.component_id)
        self._merge_vertices(new_component)

        return InsertionResult(
            edge=edge,
            case=plan.case,
            created_components=created_ids,
            removed_components=removed_ids,
            invalidated_components=[new_component.component_id],
        )

    def _split_mono(
        self,
        component: MonoConnectedComponent,
        moved: Sequence[VertexId],
        orphans: List[Tuple[VertexId, Dict[VertexId, VertexId]]],
        removed: List[Component],
    ) -> None:
        """Move ``moved`` (a path towards the articulation) out of a mono component.

        Implements the ``splitTree`` operation: the moved vertices have
        joined the new cycle; remaining vertices whose path to the
        articulation crosses a moved vertex become orphan mono components
        anchored at the first moved vertex on their path; all other
        vertices stay in the (shrunk) original component.
        """
        moved_set = set(moved)
        remaining = component.vertices - moved_set
        orphan_groups: Dict[VertexId, Set[VertexId]] = {}
        for vertex in remaining:
            current = vertex
            anchor: Optional[VertexId] = None
            while True:
                parent = component.parent_of[current]
                if parent in moved_set:
                    anchor = parent
                    break
                if parent == component.articulation:
                    break
                current = parent
            if anchor is not None:
                orphan_groups.setdefault(anchor, set()).add(vertex)

        orphaned: Set[VertexId] = set()
        for anchor, group in orphan_groups.items():
            parent_map = {vertex: component.parent_of[vertex] for vertex in group}
            orphans.append((anchor, parent_map))
            orphaned |= group

        component.remove_vertices(moved_set | orphaned)
        for vertex in moved_set | orphaned:
            # ownership is reassigned by the caller through _register;
            # drop the stale entry now so emptied components disappear cleanly
            self._owner.pop(vertex, None)
        if not component.vertices:
            self._unregister(component)
            removed.append(component)

    # ------------------------------------------------------------------
    # vertex-tree aggregates
    # ------------------------------------------------------------------
    def _link(self, vertex: int, parent: int, factor: float) -> None:
        """Hang ``vertex`` (an id) below ``parent`` with ``factor`` in every set.

        ``D(vertex)`` gains ``w(vertex)`` on top of whatever its already
        linked children put there, and ``factor·D(vertex)`` climbs the
        ancestor path.  A Case II leaf is the whole story: ``R(vertex)``
        is ``R(parent)·factor``.
        """
        self._parent[vertex] = parent
        self._children.setdefault(parent, set()).add(vertex)
        weight = self.graph.weight(self._vertices[vertex])
        deltas = []
        for factors, down, reach in zip(self._factors, self._downs, self._reach):
            factors[vertex] = factor
            down[vertex] += weight
            reach[vertex] = reach[parent] * factor
            deltas.append(factor * down[vertex])
        self._lift(parent, deltas)

    def _grow(self) -> None:
        """Extend the aggregates to vertices added to the graph since they were sized.

        Adding a vertex appends it to :meth:`UncertainGraph.vertex_index`,
        so the ids the tree already holds stay valid.
        """
        index = self.graph.vertex_index()
        n_old = len(self._vertices)
        if index.vertices[:n_old] != self._vertices:
            raise FTreeInvariantError("the graph lost or reordered vertices under the F-tree")
        extra = len(index.vertices) - n_old
        self._ids = index.ids
        self._vertices = index.vertices
        self._parent.extend([-1] * extra)
        for factors, down in zip(self._factors, self._downs):
            factors.extend([0.0] * extra)
            down.extend([0.0] * extra)
        self._reach = [np.concatenate([reach, np.zeros(extra)]) for reach in self._reach]

    def _lift(self, vertex: int, deltas: Sequence[float]) -> None:
        """Add ``deltas`` (one per factor set) to ``D(vertex)`` and, scaled by
        the factors on the way, to every ``D`` above it up to ``Q``."""
        parent = self._parent
        for factors, down, delta in zip(self._factors, self._downs, deltas):
            node = vertex
            down[node] += delta
            up = parent[node]
            while up >= 0:
                delta *= factors[node]
                node = up
                down[node] += delta
                up = parent[node]

    def _merge_vertices(self, component: BiConnectedComponent) -> None:
        """Rehang the vertices of a new bi component below its articulation ``A``.

        Every vertex ``m`` of the component had its parent in the
        component or at ``A``.  Its old contribution leaves ``D(A)``, it
        now keeps only its children outside the component, and it waits
        with factor 0 until :meth:`_refresh` applies the component's
        estimate.
        """
        ids = self._ids
        parent = self._parent
        children = self._children
        articulation = ids[component.articulation]
        members = [ids[vertex] for vertex in component.vertices]
        detached = [
            sum(factors[m] * down[m] for m in members if parent[m] == articulation)
            for factors, down in zip(self._factors, self._downs)
        ]
        for m in members:
            children[parent[m]].discard(m)
            parent[m] = articulation
        children.setdefault(articulation, set()).update(members)
        weights = [self.graph.weight(self._vertices[m]) for m in members]
        for factors, down in zip(self._factors, self._downs):
            for m, weight in zip(members, weights):
                factors[m] = 0.0
                for child in children.get(m, ()):
                    weight += factors[child] * down[child]
                down[m] = weight
        self._lift(articulation, [-delta for delta in detached])
        self._dirty.update(members)
        self._stale.add(component.component_id)

    def _adopt(self, component: Component) -> None:
        """Register a component built from scratch and link its vertices.

        Used by :func:`~repro.ftree.builder.build_ftree`; any order of
        adoption leaves the same aggregates.
        """
        self._register(component)
        ids = self._ids
        if isinstance(component, MonoConnectedComponent):
            for vertex, up in component.parent_of.items():
                self._link(ids[vertex], ids[up], self.graph.probability(vertex, up))
        else:
            articulation = ids[component.articulation]
            for vertex in component.vertices:
                self._link(ids[vertex], articulation, 0.0)
            self._stale.add(component.component_id)
        self._dirty.update(ids[vertex] for vertex in component.vertices)

    def _refresh(self) -> None:
        """Bring the aggregates up to date: apply the estimate of every stale
        bi component, then recompute ``R`` below every vertex that moved."""
        if self._stale:
            for component in self._components.values():
                if component.component_id in self._stale:
                    assert isinstance(component, BiConnectedComponent)
                    self._apply_estimate(component)
            self._stale.clear()
        if self._dirty:
            self._refresh_reach()

    def _apply_estimate(self, component: BiConnectedComponent) -> None:
        """Estimate ``component`` (or take its cached estimate) and apply the
        factors that changed bit for bit; ancestors and subtrees of the
        others are left alone."""
        local = component.local_reachability(self.graph, self.sampler)
        targets = _bi_factors(component, local, self._z)
        if len(self._factors) == 1 and targets[1] is not local:
            self._split()
        ids = self._ids
        members = [ids[vertex] for vertex in local]
        deltas = []
        for factors, down, target in zip(self._factors, self._downs, targets):
            delta = 0.0
            for m, value in zip(members, target.values()):
                old = factors[m]
                if value != old:
                    delta += (value - old) * down[m]
                    factors[m] = value
                    self._dirty.add(m)
            deltas.append(delta)
        if any(deltas):
            self._lift(ids[component.articulation], deltas)

    def _split(self) -> None:
        """Give the lower and upper bounds their own factor sets (copies of the
        estimate's), once the first sampled bi component appears."""
        factors, down, reach = self._factors[0], self._downs[0], self._reach[0]
        self._factors = [factors, list(factors), list(factors)]
        self._downs = [down, list(down), list(down)]
        self._reach = [reach, reach.copy(), reach.copy()]

    def _refresh_reach(self) -> None:
        """Recompute ``R`` top-down below every dirty vertex, once per subtree."""
        dirty = self._dirty
        parent = self._parent
        children = self._children
        for root in dirty:
            up = parent[root]
            node = up
            while node >= 0 and node not in dirty:
                node = parent[node]
            if node >= 0:
                continue  # a dirty ancestor's walk covers this subtree
            order = [root]
            for node in order:
                order.extend(children.get(node, ()))
            for factors, reach in zip(self._factors, self._reach):
                values = {up: float(reach[up])}
                for node in order:
                    values[node] = factors[node] * values[parent[node]]
                del values[up]
                reach[order] = list(values.values())
        self._dirty = set()

    # ------------------------------------------------------------------
    # candidate probes (Section 6.1)
    # ------------------------------------------------------------------
    def probe(
        self,
        u: "VertexId | Edge",
        v: Optional[VertexId] = None,
        include_query: bool = False,
        sampler: Optional[ComponentSampler] = None,
    ) -> ProbeScore:
        """Score inserting an edge as a flow delta, without changing the tree.

        Accepts either ``probe(edge)`` or ``probe(u, v)``.  The result
        equals cloning the tree, inserting the edge and asking the clone
        for :meth:`expected_flow`, :meth:`flow_interval` at the tree's
        ``alpha`` and :meth:`pending_estimation_cost`, up to rounding.
        An edge from ``a`` to a new vertex ``b`` (Case II) adds
        ``R(a)·p(a, b)·w(b)``; an edge that closes a cycle replaces,
        below the would-be articulation ``A``, the contribution of the
        vertices it merges by that of the new bi component, whose local
        reachability is the only estimate the probe makes.  ``sampler``
        (the tree's own by default) makes that estimate; ``cost`` is
        always measured against the tree's sampler.

        The plan of a cycle candidate is cached until an insertion
        changes a component it read (see the module docstring).  The
        cached component keeps the tree sampler's estimate: an exact one
        is reused with cost 0, a sampled one is re-estimated every probe.
        A foreign ``sampler`` estimates a copy of the component, so its
        estimate never reaches the cache.
        """
        edge = u if isinstance(u, Edge) and v is None else Edge(u, v)
        probability = self._check_insertion(edge)
        self._refresh()
        q = self._q
        sets = (0, 1, 2) if len(self._factors) == 3 else (0, 0, 0)
        u_connected = self.is_connected_vertex(edge.u)
        v_connected = self.is_connected_vertex(edge.v)
        if not (u_connected and v_connected):
            anchor, new_vertex = (edge.u, edge.v) if u_connected else (edge.v, edge.u)
            gain = probability * self.graph.weight(new_vertex)
            a = self._ids[anchor]
            flows = [self._downs[k][q] + float(self._reach[k][a]) * gain for k in sets]
            cost = 0
        else:
            component = self._cached_plan(edge).component
            cost = self._plan_cost(component)
            if sampler is not None and sampler is not self.sampler:
                # a foreign estimate never lands in the cached component
                component = component.clone()
                component.invalidate()
                local = component.local_reachability(self.graph, sampler)
            elif component.reach_exact:
                local = component.reach
            else:
                # re-drawn: FT keys the stream on the round, FT+M's memo answers it
                component.invalidate()
                local = component.local_reachability(self.graph, self.sampler)
            merged = _bi_factors(component, local, self._z)
            if sets[1] == 0 and merged[1] is local:
                # one factor set, merged with zero-width bounds: one sum serves all three
                gains = [self._merge_gain(0, local)] * 3
            else:
                gains = [self._merge_gain(k, factors) for k, factors in zip(sets, merged)]
            a = self._ids[component.articulation]
            flows = [
                self._downs[k][q] + float(self._reach[k][a]) * gain
                for k, gain in zip(sets, gains)
            ]
        if include_query:
            query_weight = self.graph.weight(self.query)
            flows = [flow + query_weight for flow in flows]
        flow, lower, upper = flows
        return ProbeScore(flow, lower, upper, cost)

    def _merge_gain(self, k: int, local: Dict[VertexId, float]) -> float:
        """Change of ``D(A)`` in factor set ``k`` when the vertices ``M`` of
        ``local`` merge into one bi component with articulation ``A`` and
        local reachability ``local``.

        Every merged vertex ``c`` now hangs below ``A`` with factor
        ``local(c)`` and keeps only its children outside ``M``:
        ``D'(c) = D(c) − Σ_{m∈M, π(m)=c} f(m)·D(m)``.  The gain is
        ``Σ_c local(c)·D'(c) − Σ_{t∈M, π(t)=A} f(t)·D(t)``; every ``π(m)``
        lies in ``M`` or is ``A``.
        """
        ids = self._ids
        vertices = self._vertices
        parent = self._parent
        factors = self._factors[k]
        down = self._downs[k]
        gain = 0.0
        for vertex, probability in local.items():
            m = ids[vertex]
            collected = down[m]
            gain += (
                probability * collected
                - factors[m] * collected * local.get(vertices[parent[m]], 1.0)
            )
        return gain

    def probe_new_vertices(
        self,
        anchors: np.ndarray,
        gains: np.ndarray,
        include_query: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score many edges to new vertices (Case II) at once.

        Row ``i`` is an edge from the connected vertex whose
        :meth:`UncertainGraph.vertex_index` id is ``anchors[i]`` to a
        vertex not yet connected, with ``gains[i] = p(edge)·w(new
        vertex)``.  Returns the ``flow``, ``lower`` and ``upper`` arrays
        of :meth:`probe` for those rows, bit for bit: the same operands
        in the same order, as elementwise IEEE arithmetic.  The caller
        vouches for the rows; nothing is checked.
        """
        self._refresh()
        flows = [
            down[self._q] + reach[anchors] * gains
            for down, reach in zip(self._downs, self._reach)
        ]
        if include_query:
            query_weight = self.graph.weight(self.query)
            flows = [flow + query_weight for flow in flows]
        if len(flows) == 1:
            # no sampled component: the bounds are the estimate
            return flows[0], flows[0], flows[0]
        flow, lower, upper = flows
        return flow, lower, upper

    def probe_cost(self, u: "VertexId | Edge", v: Optional[VertexId] = None) -> int:
        """Return the ``cost`` of :meth:`probe` without estimating anything.

        It plans through the same cache as :meth:`probe`, so a probe that
        follows reuses the plan.
        """
        edge = u if isinstance(u, Edge) and v is None else Edge(u, v)
        self._check_insertion(edge)
        if not (self.is_connected_vertex(edge.u) and self.is_connected_vertex(edge.v)):
            return 0
        return self._plan_cost(self._cached_plan(edge).component)

    def _plan_cost(self, component: BiConnectedComponent) -> int:
        """``estimation_cost`` of a planned component against the live memo;
        0 once the tree sampler has estimated it exactly."""
        if component.reach_exact:
            return 0
        return self.sampler.estimation_cost(self.graph, component.edges(), component.articulation)

    def _cached_plan(self, edge: Edge) -> _CyclePlan:
        """The plan for cycle candidate ``edge``: the cached one while nothing
        it read has changed, otherwise a fresh :meth:`_plan_cycle`, cached."""
        plan = self._plans.get(edge)
        if plan is not None:
            self.reused_plans += 1
            return plan
        self.fresh_plans += 1
        plan = self._plan_cycle(edge.u, edge.v, edge)
        self._plans[edge] = plan
        for component_id in plan.reads:
            self._readers.setdefault(component_id, set()).add(edge)
        return plan

    def _drop_plan(self, edge: Edge) -> None:
        """Forget the cached plan of ``edge`` and unfile it from every id it read."""
        plan = self._plans.pop(edge, None)
        if plan is None:
            return
        for component_id in plan.reads:
            readers = self._readers[component_id]
            readers.discard(edge)
            if not readers:
                del self._readers[component_id]

    def _drop_plans_reading(self, component_ids: Sequence[int]) -> None:
        """Forget every cached plan that read one of ``component_ids``."""
        for component_id in component_ids:
            for edge in list(self._readers.get(component_id, ())):
                self._drop_plan(edge)

    # ------------------------------------------------------------------
    # flow evaluation (Section 5.3)
    # ------------------------------------------------------------------
    def _topological_components(self) -> List[Component]:
        """Return components ordered so that parents precede children."""
        depth: Dict[int, int] = {}

        def component_depth(component: Component) -> int:
            cached = depth.get(component.component_id)
            if cached is not None:
                return cached
            seen: List[Component] = []
            current = component
            while True:
                if current.component_id in depth:
                    base = depth[current.component_id]
                    break
                seen.append(current)
                if current.articulation == self.query:
                    base = -1
                    break
                parent = self.owner_of(current.articulation)
                if parent is None:
                    raise FTreeInvariantError(
                        f"articulation vertex {current.articulation!r} of component "
                        f"{current.component_id} is owned by no component"
                    )
                if any(parent.component_id == c.component_id for c in seen):
                    raise FTreeInvariantError("component ancestry contains a cycle")
                current = parent
            for offset, visited in enumerate(reversed(seen), start=1):
                depth[visited.component_id] = base + offset
            return depth[component.component_id]

        ordered = sorted(self._components.values(), key=component_depth)
        return ordered

    def reachability_to_query(self) -> Dict[VertexId, float]:
        """Return the estimated probability of reaching Q for every connected vertex.

        The query vertex maps to 1.0.  Probabilities multiply along the
        component tree: a vertex's local reachability towards its
        component's articulation vertex times that articulation vertex's
        own reachability towards Q (independent components, Theorem 2).
        """
        reach: Dict[VertexId, float] = {self.query: 1.0}
        for component in self._topological_components():
            anchor_probability = reach.get(component.articulation)
            if anchor_probability is None:
                raise FTreeInvariantError(
                    f"anchor {component.articulation!r} of component "
                    f"{component.component_id} evaluated before its parent"
                )
            local = component.local_reachability(self.graph, self.sampler)
            for vertex, probability in local.items():
                reach[vertex] = probability * anchor_probability
        return reach

    def expected_flow(self, include_query: bool = False) -> float:
        """Return the expected information flow towards Q of the selected subgraph."""
        total = self._weighted_sum(self.reachability_to_query())
        if include_query:
            total += self.graph.weight(self.query)
        return total

    def _weighted_sum(self, reach: Dict[VertexId, float]) -> float:
        """Return ``Σ w(x)·reach(x)`` over every vertex except Q."""
        total = 0.0
        for vertex, probability in reach.items():
            if vertex == self.query:
                continue
            total += probability * self.graph.weight(vertex)
        return total

    def flow_interval(self, alpha: float = 0.01, include_query: bool = False) -> Tuple[float, float]:
        """Return a (lower, upper) confidence interval on the expected flow.

        Mono components and exactly-evaluated bi components contribute
        with zero width; sampled bi components contribute per-vertex
        normal-approximation intervals (Definition 10) which are
        propagated multiplicatively down the component tree.
        """
        z = standard_normal_quantile(1.0 - alpha / 2.0)
        lower: Dict[VertexId, float] = {self.query: 1.0}
        upper: Dict[VertexId, float] = {self.query: 1.0}
        for component in self._topological_components():
            anchor_lower = lower.get(component.articulation)
            anchor_upper = upper.get(component.articulation)
            if anchor_lower is None or anchor_upper is None:
                raise FTreeInvariantError(
                    f"anchor {component.articulation!r} evaluated before its parent"
                )
            local = component.local_reachability(self.graph, self.sampler)
            for vertex, probability in local.items():
                local_lower, local_upper = _local_bounds(component, probability, z)
                lower[vertex] = local_lower * anchor_lower
                upper[vertex] = local_upper * anchor_upper
        flow_lower = self._weighted_sum(lower)
        flow_upper = self._weighted_sum(upper)
        if include_query:
            query_weight = self.graph.weight(self.query)
            flow_lower += query_weight
            flow_upper += query_weight
        return flow_lower, flow_upper

    def pending_estimation_cost(self) -> int:
        """Return the number of edges in stale bi components not served by the memo cache.

        This is the ``cost(e)`` of the delayed-sampling heuristic
        (Section 6.4): zero when every stale component is either small
        enough for exact evaluation or already memoized.
        """
        cost = 0
        for component in self._components.values():
            if component.is_mono or not isinstance(component, BiConnectedComponent):
                continue
            if not component.needs_estimation:
                continue
            cost += self.sampler.estimation_cost(
                self.graph, component.edges(), component.articulation
            )
        return cost

    # ------------------------------------------------------------------
    # copying and verification
    # ------------------------------------------------------------------
    def clone(self) -> "FTree":
        """Return a deep copy sharing the graph and the sampler (and its memo cache).

        The copy starts with an empty plan cache: a cached component keeps
        its estimate in place, so the two trees must not share one.
        """
        clone = FTree(self.graph, self.query, sampler=self.sampler, alpha=self.alpha)
        clone._components = {
            component_id: component.clone()
            for component_id, component in self._components.items()
        }
        clone._owner = dict(self._owner)
        clone._selected = set(self._selected)
        clone._next_id = self._next_id
        clone._root_mono_id = self._root_mono_id
        # the ids this tree's aggregates are sized for, not the graph's current ones
        clone._ids = self._ids
        clone._vertices = self._vertices
        clone._q = self._q
        clone._parent = list(self._parent)
        clone._children = {vertex: set(below) for vertex, below in self._children.items()}
        clone._factors = [list(factors) for factors in self._factors]
        clone._downs = [list(down) for down in self._downs]
        clone._reach = [reach.copy() for reach in self._reach]
        clone._stale = set(self._stale)
        clone._dirty = set(self._dirty)
        return clone

    def check_invariants(self) -> None:
        """Verify the structural invariants of Definition 9, the plan cache
        and the probe aggregates; raise on violation.

        Every cached plan must match a fresh :meth:`_plan_cycle` and be
        filed exactly under the components it read.

        The aggregates are brought up to date (estimating stale bi
        components) and compared with a recomputation from the
        components: parents and factors exactly, ``R`` with
        :meth:`reachability_to_query` and a top-down product, ``D`` with a
        children walk and the flows with :meth:`expected_flow` and
        :meth:`flow_interval`, all to 1e-12 relative.
        """
        seen_vertices: Set[VertexId] = set()
        component_edges: List[Edge] = []
        for component in self._components.values():
            if isinstance(component, MonoConnectedComponent):
                component.check_invariants()
            elif isinstance(component, BiConnectedComponent):
                component.check_invariants()
            if self.query in component.vertices:
                raise FTreeInvariantError("the query vertex must never be owned by a component")
            overlap = component.vertices & seen_vertices
            if overlap:
                raise FTreeInvariantError(
                    f"vertices {overlap!r} are owned by more than one component"
                )
            seen_vertices |= component.vertices
            for vertex in component.vertices:
                if self._owner.get(vertex) != component.component_id:
                    raise FTreeInvariantError(
                        f"ownership map disagrees with component {component.component_id} "
                        f"about vertex {vertex!r}"
                    )
            component_edges.extend(component.edges())
        if set(self._owner) != seen_vertices:
            raise FTreeInvariantError("ownership map references vertices owned by no component")
        if len(component_edges) != len(set(component_edges)):
            raise FTreeInvariantError("an edge belongs to more than one component")
        if set(component_edges) != self._selected:
            raise FTreeInvariantError(
                "the union of component edges does not equal the selected edge set"
            )
        for edge in self._selected:
            if not self.graph.has_edge(edge.u, edge.v):
                raise FTreeInvariantError(f"selected edge {edge!r} is not in the graph")
        # the ancestry must be acyclic and terminate at Q
        self._topological_components()
        self._check_plans()
        self._check_aggregates()

    def _check_plans(self) -> None:
        """Every cached plan equals a fresh one and is filed exactly under the
        live components it read."""
        filed: Dict[int, Set[Edge]] = {}
        for edge, plan in self._plans.items():
            fresh = self._plan_cycle(edge.u, edge.v, edge)
            cached = plan.component
            if (
                fresh.reads != plan.reads
                or fresh.component.articulation != cached.articulation
                or fresh.component.vertices != cached.vertices
                or fresh.component.edges() != cached.edges()
            ):
                raise FTreeInvariantError(f"the cached plan of {edge!r} disagrees with a fresh one")
            for component_id in plan.reads:
                filed.setdefault(component_id, set()).add(edge)
        if filed != self._readers:
            raise FTreeInvariantError("the plan index disagrees with the cached plans")

    def _check_aggregates(self) -> None:
        """Recompute the vertex tree and its aggregates from scratch; compare."""
        self._refresh()
        ids = self._ids
        q = self._q
        parent: Dict[int, int] = {}
        expected: Tuple[Dict[int, float], ...] = ({}, {}, {})
        for component in self._components.values():
            if isinstance(component, MonoConnectedComponent):
                for vertex, up in component.parent_of.items():
                    parent[ids[vertex]] = ids[up]
                    probability = self.graph.probability(vertex, up)
                    for factors in expected:
                        factors[ids[vertex]] = probability
            else:
                local = component.local_reachability(self.graph, self.sampler)
                for factors, target in zip(expected, _bi_factors(component, local, self._z)):
                    for vertex, value in target.items():
                        parent[ids[vertex]] = ids[component.articulation]
                        factors[ids[vertex]] = value
        linked = {vertex: up for vertex, up in enumerate(self._parent) if up >= 0}
        if linked != parent:
            raise FTreeInvariantError("the vertex tree's parents disagree with the components")
        children: Dict[int, Set[int]] = {}
        for vertex, up in parent.items():
            children.setdefault(up, set()).add(vertex)
        if {vertex: below for vertex, below in self._children.items() if below} != children:
            raise FTreeInvariantError("the vertex tree's child sets disagree with its parents")
        n_sets = len(self._factors)
        if n_sets == 1 and not expected[0] == expected[1] == expected[2]:
            raise FTreeInvariantError("a sampled component but no separate bound factors")
        order: List[int] = []
        stack = [q]
        while stack:
            below = children.get(stack.pop(), ())
            order.extend(below)
            stack.extend(below)
        weights = {vertex: self.graph.weight(self._vertices[vertex]) for vertex in order}
        scale = 1.0 + sum(abs(weight) for weight in weights.values())
        flows = (self.expected_flow(), *self.flow_interval(self.alpha))
        reference_reach = self.reachability_to_query()
        for k, (factors, down, reach) in enumerate(zip(self._factors, self._downs, self._reach)):
            if any(factors[vertex] != expected[k][vertex] for vertex in order):
                raise FTreeInvariantError(f"factor set {k} disagrees with the components")
            reached = {q: 1.0}
            collected = dict(weights)
            collected[q] = 0.0
            for vertex in order:
                reached[vertex] = factors[vertex] * reached[parent[vertex]]
            for vertex in reversed(order):
                collected[parent[vertex]] += factors[vertex] * collected[vertex]
            for vertex in range(len(self._parent)):
                have_reach, have_down = float(reach[vertex]), down[vertex]
                want_reach, want_down = reached.get(vertex, 0.0), collected.get(vertex, 0.0)
                if not math.isclose(have_reach, want_reach, rel_tol=1e-12):
                    raise FTreeInvariantError(
                        f"R({self._vertices[vertex]!r}) in set {k} is {have_reach!r}, "
                        f"recomputed {want_reach!r}"
                    )
                if not math.isclose(have_down, want_down, rel_tol=1e-12, abs_tol=1e-12 * scale):
                    raise FTreeInvariantError(
                        f"D({self._vertices[vertex]!r}) in set {k} is {have_down!r}, "
                        f"recomputed {want_down!r}"
                    )
            for flow in flows if n_sets == 1 else flows[k : k + 1]:
                if not math.isclose(down[q], flow, rel_tol=1e-12, abs_tol=1e-12 * scale):
                    raise FTreeInvariantError(
                        f"flow of set {k} is {down[q]!r}, evaluated {flow!r}"
                    )
        for vertex, probability in reference_reach.items():
            if not math.isclose(float(self._reach[0][ids[vertex]]), probability, rel_tol=1e-12):
                raise FTreeInvariantError(
                    f"R({vertex!r}) disagrees with reachability_to_query(): {probability!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FTree Q={self.query!r}: {len(self._components)} components, "
            f"{len(self._selected)} selected edges>"
        )


def _local_bounds(component: Component, probability: float, z: float) -> Tuple[float, float]:
    """Interval on one local reachability: zero width unless the component was sampled."""
    if (
        isinstance(component, BiConnectedComponent)
        and not component.reach_exact
        and component.reach_samples is not None
    ):
        return normal_bounds(probability, component.reach_samples or 1, z)
    return probability, probability


def _bi_factors(
    component: Component, local: Dict[VertexId, float], z: float
) -> Tuple[Dict[VertexId, float], Dict[VertexId, float], Dict[VertexId, float]]:
    """A bi component's estimate, lower and upper factors; ``local`` itself
    stands for all three when the interval has no width."""
    if not (
        isinstance(component, BiConnectedComponent)
        and not component.reach_exact
        and component.reach_samples is not None
    ):
        return local, local, local
    lower: Dict[VertexId, float] = {}
    upper: Dict[VertexId, float] = {}
    for vertex, probability in local.items():
        lower[vertex], upper[vertex] = _local_bounds(component, probability, z)
    return local, lower, upper
