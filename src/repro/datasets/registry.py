"""Dataset registry: resolve dataset names to uncertain graphs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.datasets.surrogates import (
    dblp_surrogate,
    facebook_surrogate,
    san_joaquin_surrogate,
    youtube_surrogate,
)
from repro.exceptions import DatasetError
from repro.graph.generators import (
    erdos_renyi_graph,
    partitioned_graph,
    wsn_graph,
)
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for a named dataset."""

    name: str
    description: str
    locality: bool
    default_size: int
    paper_reference: str
    builder: Callable[..., UncertainGraph]


def _erdos(n_vertices: int, seed: SeedLike) -> UncertainGraph:
    return erdos_renyi_graph(n_vertices, average_degree=6.0, seed=seed, name="erdos")


def _partitioned(n_vertices: int, seed: SeedLike) -> UncertainGraph:
    return partitioned_graph(n_vertices, degree=6, seed=seed, name="partitioned")


def _wsn_05(n_vertices: int, seed: SeedLike) -> UncertainGraph:
    return wsn_graph(n_vertices, eps=0.05, seed=seed, name="wsn-eps-0.05")


def _wsn_07(n_vertices: int, seed: SeedLike) -> UncertainGraph:
    return wsn_graph(n_vertices, eps=0.07, seed=seed, name="wsn-eps-0.07")


_REGISTRY: Dict[str, DatasetSpec] = {
    "erdos": DatasetSpec(
        name="erdos",
        description="Erdős–Rényi synthetic graph, no locality assumption (Section 7.1)",
        locality=False,
        default_size=1000,
        paper_reference="Fig. 5(b), 6(b), 7(b)",
        builder=_erdos,
    ),
    "partitioned": DatasetSpec(
        name="partitioned",
        description="Ring-of-partitions synthetic graph, locality assumption (Section 7.1)",
        locality=True,
        default_size=1000,
        paper_reference="Fig. 5(a), 6(a), 7(a)",
        builder=_partitioned,
    ),
    "wsn-0.05": DatasetSpec(
        name="wsn-0.05",
        description="Wireless sensor network, connection radius eps=0.05",
        locality=True,
        default_size=1000,
        paper_reference="Fig. 8(a)",
        builder=_wsn_05,
    ),
    "wsn-0.07": DatasetSpec(
        name="wsn-0.07",
        description="Wireless sensor network, connection radius eps=0.07",
        locality=True,
        default_size=1000,
        paper_reference="Fig. 8(b)",
        builder=_wsn_07,
    ),
    "san-joaquin": DatasetSpec(
        name="san-joaquin",
        description="Road network surrogate with exp(-0.001 d) edge probabilities",
        locality=True,
        default_size=400,
        paper_reference="Fig. 9(a)",
        builder=lambda n_vertices, seed: san_joaquin_surrogate(n_vertices, seed=seed),
    ),
    "facebook": DatasetSpec(
        name="facebook",
        description="Dense social-circles surrogate with 10 close friends per user",
        locality=False,
        default_size=300,
        paper_reference="Fig. 9(b)",
        builder=lambda n_vertices, seed: facebook_surrogate(n_vertices, seed=seed),
    ),
    "dblp": DatasetSpec(
        name="dblp",
        description="Co-authorship clique-union surrogate",
        locality=False,
        default_size=500,
        paper_reference="Fig. 9(c)",
        builder=lambda n_vertices, seed: dblp_surrogate(n_vertices, seed=seed),
    ),
    "youtube": DatasetSpec(
        name="youtube",
        description="Sparse heavy-tailed friendship surrogate",
        locality=False,
        default_size=800,
        paper_reference="Fig. 9(d)",
        builder=lambda n_vertices, seed: youtube_surrogate(n_vertices, seed=seed),
    ),
}

#: Names accepted by :func:`load_dataset`.
DATASET_NAMES = tuple(sorted(_REGISTRY))


def dataset_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_NAMES)}"
        ) from None


def load_dataset(
    name: str, n_vertices: Optional[int] = None, seed: SeedLike = 0
) -> UncertainGraph:
    """Generate the named dataset.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES`.
    n_vertices:
        Target number of vertices (defaults to the dataset's
        ``default_size``; surrogates are scaled-down versions of the
        original networks with the same degree and locality).
    seed:
        Random seed for the generator.
    """
    spec = dataset_spec(name)
    size = spec.default_size if n_vertices is None else int(n_vertices)
    if size <= 0:
        raise DatasetError(f"n_vertices must be positive, got {size}")
    return spec.builder(size, seed)
