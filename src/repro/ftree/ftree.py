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
flow delta over per-vertex aggregates that are built once per tree
state: an edge that closes a cycle costs one estimate of the planned bi
component plus a sum over its vertices.  An edge to a new vertex costs
one multiply-add, so :meth:`FTree.probe_new_vertices` scores a whole
array of them at once over the aggregates' reach arrays; the scalar
:meth:`FTree.probe` remains the oracle it is tested against.
"""

from __future__ import annotations

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


@dataclass
class _FlowSums:
    """Per-vertex aggregates of the vertex tree for one choice of local factors.

    In the vertex tree every connected vertex ``x`` hangs below its
    parent ``π(x)`` — the mono parent, or the articulation vertex of a bi
    component — with factor ``f(x)``: the edge probability, or the local
    reachability inside the bi component.
    """

    #: ``f(x)``
    factor: Dict[VertexId, float]
    #: ``R(x)``: probability of reaching Q, the product of factors up to Q,
    #: at ``x``'s id in :meth:`UncertainGraph.vertex_index` (0 if not connected)
    reach: np.ndarray
    #: ``D(x) = w(x) + Σ_children f(c)·D(c)``: expected weight collected at ``x``
    down: Dict[VertexId, float]
    #: ``Σ_x w(x)·R(x)`` without the query vertex's own weight
    flow: float


@dataclass
class _VertexTree:
    """The committed tree's vertex-tree aggregates, built once per tree state."""

    alpha: float
    z: float
    #: ``π(x)`` for every connected vertex except Q
    parent: Dict[VertexId, VertexId]
    #: sums over the estimates, their lower and their upper interval bounds
    sums: Tuple[_FlowSums, _FlowSums, _FlowSums]


class FTree:
    """Flow tree over the currently selected edge set of an uncertain graph.

    Parameters
    ----------
    graph:
        The full uncertain graph; supplies edge probabilities and vertex
        weights.  The F-tree itself only tracks the *selected* edges.
    query:
        The query vertex ``Q``; all flow is measured towards it.
    sampler:
        The :class:`ComponentSampler` used to estimate bi-connected
        components (a default sampler is created when omitted).
    """

    def __init__(
        self,
        graph,
        query: VertexId,
        sampler: Optional[ComponentSampler] = None,
    ) -> None:
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        self.graph = graph
        self.query = query
        self.sampler = sampler if sampler is not None else ComponentSampler()
        self._components: Dict[int, Component] = {}
        #: vertex -> id of the component that owns it (Q is never owned)
        self._owner: Dict[VertexId, int] = {}
        self._selected: Set[Edge] = set()
        self._next_id = 0
        self._root_mono_id: Optional[int] = None
        #: probe aggregates of the current state (see :meth:`probe`)
        self._vertex_tree: Optional[_VertexTree] = None
        #: probability of each mono vertex's parent edge, looked up once per
        #: tree; like the memo cache's keys, this takes the graph's edge
        #: probabilities as fixed while the tree lives
        self._parent_probability: Dict[Tuple[VertexId, VertexId], float] = {}

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
        self._vertex_tree = None

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
        self._check_insertion(edge)
        self._selected.add(edge)
        self._vertex_tree = None
        u_connected = self.is_connected_vertex(u)
        v_connected = self.is_connected_vertex(v)
        if u_connected and not v_connected:
            return self._attach_new_vertex(u, v, edge)
        if v_connected and not u_connected:
            return self._attach_new_vertex(v, u, edge)
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
    def _attach_new_vertex(self, anchor: VertexId, new_vertex: VertexId, edge: Edge) -> InsertionResult:
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
        return _CyclePlan(case=case, component=component, consumed=consumed)

    @staticmethod
    def _plan_in_place(target: BiConnectedComponent, edge: Edge) -> _CyclePlan:
        """Case IIIa: the edge joins ``target``, which keeps its id and articulation."""
        component = target.clone()
        component.add_edge(edge)
        return _CyclePlan(case="IIIa", component=component, target=target)

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
        if plan.target is not None:
            plan.target.add_edge(edge)
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
    # candidate probes (Section 6.1)
    # ------------------------------------------------------------------
    def probe(
        self,
        u: "VertexId | Edge",
        v: Optional[VertexId] = None,
        include_query: bool = False,
        alpha: float = 0.01,
        sampler: Optional[ComponentSampler] = None,
    ) -> ProbeScore:
        """Score inserting an edge as a flow delta, without changing the tree.

        Accepts either ``probe(edge)`` or ``probe(u, v)``.  The result
        equals cloning the tree, inserting the edge and asking the clone
        for :meth:`expected_flow`, :meth:`flow_interval` and
        :meth:`pending_estimation_cost`, up to rounding.  An edge from
        ``a`` to a new vertex ``b`` (Case II) adds ``R(a)·p(a, b)·w(b)``;
        an edge that closes a cycle replaces, below the would-be
        articulation ``A``, the contribution of the vertices it merges by
        that of the new bi component, whose local reachability is the
        only estimate the probe makes.  ``sampler`` (the tree's own by
        default) makes that estimate; ``cost`` is always measured against
        the tree's sampler.
        """
        edge = u if isinstance(u, Edge) and v is None else Edge(u, v)
        probability = self._check_insertion(edge)
        tree = self._current_vertex_tree(alpha)
        ids = self.graph.vertex_index().ids
        u_connected = self.is_connected_vertex(edge.u)
        v_connected = self.is_connected_vertex(edge.v)
        if not (u_connected and v_connected):
            anchor, new_vertex = (edge.u, edge.v) if u_connected else (edge.v, edge.u)
            gain = probability * self.graph.weight(new_vertex)
            flows = [sums.flow + float(sums.reach[ids[anchor]]) * gain for sums in tree.sums]
            cost = 0
        else:
            component = self._plan_cycle(edge.u, edge.v, edge).component
            cost = self.sampler.estimation_cost(component.edges(), component.articulation)
            local = component.local_reachability(
                self.graph, self.sampler if sampler is None else sampler
            )
            merged: Tuple[Dict[VertexId, float], ...] = ({}, {}, {})
            _add_bi_factors(merged, component, local, tree.z)
            articulation = ids[component.articulation]
            flows = [
                sums.flow
                + float(sums.reach[articulation]) * _merge_gain(sums, tree.parent, factor)
                for sums, factor in zip(tree.sums, merged)
            ]
        if include_query:
            query_weight = self.graph.weight(self.query)
            flows = [flow + query_weight for flow in flows]
        flow, lower, upper = flows
        return ProbeScore(flow, lower, upper, cost)

    def probe_new_vertices(
        self,
        anchors: np.ndarray,
        gains: np.ndarray,
        include_query: bool = False,
        alpha: float = 0.01,
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
        tree = self._current_vertex_tree(alpha)
        flows = [sums.flow + sums.reach[anchors] * gains for sums in tree.sums]
        if include_query:
            query_weight = self.graph.weight(self.query)
            flows = [flow + query_weight for flow in flows]
        flow, lower, upper = flows
        return flow, lower, upper

    def probe_cost(self, u: "VertexId | Edge", v: Optional[VertexId] = None) -> int:
        """Return the ``cost`` of :meth:`probe` without estimating anything."""
        edge = u if isinstance(u, Edge) and v is None else Edge(u, v)
        self._check_insertion(edge)
        if not (self.is_connected_vertex(edge.u) and self.is_connected_vertex(edge.v)):
            return 0
        component = self._plan_cycle(edge.u, edge.v, edge).component
        return self.sampler.estimation_cost(component.edges(), component.articulation)

    def _current_vertex_tree(self, alpha: float) -> _VertexTree:
        """Return the probe aggregates of the current state, building them in one pass."""
        tree = self._vertex_tree
        if tree is not None and tree.alpha == alpha:
            return tree
        z = standard_normal_quantile(1.0 - alpha / 2.0)
        parent: Dict[VertexId, VertexId] = {}
        factors: Tuple[Dict[VertexId, float], ...] = ({}, {}, {})
        for component in self._components.values():
            if isinstance(component, MonoConnectedComponent):
                for vertex, up in component.parent_of.items():
                    parent[vertex] = up
                    probability = self._parent_probability.get((vertex, up))
                    if probability is None:
                        probability = self.graph.probability(vertex, up)
                        self._parent_probability[vertex, up] = probability
                    for factor in factors:
                        factor[vertex] = probability
            else:
                # estimates a stale bi component, once per tree state
                local = component.local_reachability(self.graph, self.sampler)
                for vertex in local:
                    parent[vertex] = component.articulation
                _add_bi_factors(factors, component, local, z)
        # parents before children
        children: Dict[VertexId, List[VertexId]] = {}
        for vertex, up in parent.items():
            children.setdefault(up, []).append(vertex)
        order: List[VertexId] = []
        stack = [self.query]
        while stack:
            below = children.get(stack.pop(), ())
            order.extend(below)
            stack.extend(below)
        ids = self.graph.vertex_index().ids
        positions = [ids[self.query]] + [ids[vertex] for vertex in order]
        weights = [self.graph.weight(vertex) for vertex in order]
        estimate = self._flow_sums(parent, order, weights, factors[0], positions)
        # where no interval has width (nothing sampled) the bounds' sums are the estimate's
        lower, upper = (
            estimate
            if factor == factors[0]
            else self._flow_sums(parent, order, weights, factor, positions)
            for factor in factors[1:]
        )
        tree = _VertexTree(alpha=alpha, z=z, parent=parent, sums=(estimate, lower, upper))
        self._vertex_tree = tree
        return tree

    def _flow_sums(
        self,
        parent: Dict[VertexId, VertexId],
        order: List[VertexId],
        weights: List[float],
        factor: Dict[VertexId, float],
        positions: List[int],
    ) -> _FlowSums:
        """Aggregate one set of factors over the vertex tree.

        ``order`` lists the vertices parents first, ``weights`` their
        weights and ``positions`` the vertex ids of Q and then of ``order``.
        """
        reach = {self.query: 1.0}
        flow = 0.0
        for vertex, weight in zip(order, weights):
            reached = factor[vertex] * reach[parent[vertex]]
            reach[vertex] = reached
            flow += reached * weight
        down = dict(zip(order, weights))
        for vertex in reversed(order):
            up = parent[vertex]
            if up != self.query:
                down[up] += factor[vertex] * down[vertex]
        reach_array = np.zeros(self.graph.n_vertices)
        reach_array[positions] = list(reach.values())
        return _FlowSums(factor=factor, reach=reach_array, down=down, flow=flow)

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
            cost += self.sampler.estimation_cost(component.edges(), component.articulation)
        return cost

    # ------------------------------------------------------------------
    # copying and verification
    # ------------------------------------------------------------------
    def clone(self) -> "FTree":
        """Return a deep copy sharing the graph and the sampler (and its memo cache)."""
        clone = FTree(self.graph, self.query, sampler=self.sampler)
        clone._components = {
            component_id: component.clone()
            for component_id, component in self._components.items()
        }
        clone._owner = dict(self._owner)
        clone._selected = set(self._selected)
        clone._next_id = self._next_id
        clone._root_mono_id = self._root_mono_id
        clone._parent_probability = self._parent_probability
        return clone

    def check_invariants(self) -> None:
        """Verify the structural invariants of Definition 9; raise on violation."""
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


def _add_bi_factors(
    factors: Tuple[Dict[VertexId, float], ...],
    component: Component,
    local: Dict[VertexId, float],
    z: float,
) -> None:
    """Record a bi component's local reachability and its interval bounds as
    the estimate, lower and upper factors of its vertices."""
    for vertex, probability in local.items():
        factors[0][vertex] = probability
        factors[1][vertex], factors[2][vertex] = _local_bounds(component, probability, z)


def _merge_gain(
    sums: _FlowSums, parent: Dict[VertexId, VertexId], local: Dict[VertexId, float]
) -> float:
    """Change of ``D(A)`` when the vertices ``M`` of ``local`` merge into one bi
    component with articulation ``A`` and local reachability ``local``.

    Every merged vertex ``c`` now hangs below ``A`` with factor
    ``local(c)`` and keeps only its children outside ``M``:
    ``D'(c) = D(c) − Σ_{m∈M, π(m)=c} f(m)·D(m)``.  The gain is
    ``Σ_c local(c)·D'(c) − Σ_{t∈M, π(t)=A} f(t)·D(t)``; every ``π(m)``
    lies in ``M`` or is ``A``.
    """
    gain = 0.0
    for vertex, probability in local.items():
        down = sums.down[vertex]
        gain += probability * down - sums.factor[vertex] * down * local.get(parent[vertex], 1.0)
    return gain
