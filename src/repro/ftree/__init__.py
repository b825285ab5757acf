"""The F-tree (Flow tree): the paper's core data structure.

The F-tree (Section 5.3, Definition 9) decomposes the subgraph induced by
the currently selected edges into

* **mono-connected components** — tree-shaped pieces whose flow towards
  their articulation vertex is computed analytically (Theorem 2), and
* **bi-connected components** — cyclic pieces whose flow towards their
  articulation vertex is estimated by local Monte-Carlo sampling (or
  exact enumeration when the component is small).

Components form a tree rooted (conceptually) at the query vertex ``Q``:
each component forwards all information it collects through its
articulation vertex into the component that owns that vertex, until the
information reaches ``Q``.

Two construction paths are provided: :class:`FTree.insert_edge`
implements the incremental insertion cases of Section 5.4, and
:func:`~repro.ftree.builder.build_ftree` rebuilds the decomposition from
scratch using biconnected components — both must agree, which the test
suite verifies.  :meth:`FTree.probe` scores a candidate edge without
inserting it (a :class:`ProbeScore`), as a flow delta over the tree, and
:meth:`FTree.flow_interval` brackets the tree's flow with the
confidence bounds of its sampled components.
"""

from repro.ftree.components import (
    Component,
    MonoConnectedComponent,
    BiConnectedComponent,
)
from repro.ftree.memo import MemoCache
from repro.ftree.sampler import ComponentSampler
from repro.ftree.ftree import FTree, InsertionResult, ProbeScore
from repro.ftree.builder import build_ftree

__all__ = [
    "Component",
    "MonoConnectedComponent",
    "BiConnectedComponent",
    "MemoCache",
    "ComponentSampler",
    "FTree",
    "InsertionResult",
    "ProbeScore",
    "build_ftree",
]
