"""Graph transformations used when preparing experiments.

:func:`perturb_probabilities` never mutates its input; it returns a new
:class:`~repro.graph.uncertain_graph.UncertainGraph`, so an experiment
can derive noisy variants from one base graph without side effects.
"""

from __future__ import annotations

from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike, ensure_rng


def perturb_probabilities(
    graph: UncertainGraph,
    noise: float = 0.05,
    seed: SeedLike = None,
    name: str = "",
) -> UncertainGraph:
    """Return a copy with uniform multiplicative noise on the edge probabilities.

    Models imperfect knowledge of the link reliabilities; used by
    robustness experiments.
    """
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise!r}")
    rng = ensure_rng(seed)
    result = graph.copy(name=name or f"{graph.name}-perturbed")
    for edge in result.edges():
        factor = 1.0 + float(rng.uniform(-noise, noise))
        perturbed = min(1.0, max(1e-12, graph.probability(edge) * factor))
        result.set_probability(edge.u, edge.v, perturbed)
    return result
