"""Named datasets used by the experiments.

The paper evaluates on four real networks (San Joaquin road network,
Facebook social circles, DBLP, YouTube).  Those snapshots are not
redistributable and cannot be downloaded in this offline environment, so
each is replaced by a synthetic surrogate that reproduces the structural
properties the evaluation depends on (locality, density, degree
distribution, probability assignment scheme): the paper's conclusions
on these networks follow from those properties, not from the particular
vertices, so a graph that shares them exercises the same algorithmic
behaviour.  :func:`load_dataset` resolves names to graphs,
and :data:`DATASET_NAMES` lists everything available.
"""

from repro.datasets.registry import (
    DATASET_NAMES,
    DatasetSpec,
    dataset_spec,
    load_dataset,
)
from repro.datasets.surrogates import (
    san_joaquin_surrogate,
    facebook_surrogate,
    dblp_surrogate,
    youtube_surrogate,
)

__all__ = [
    "DATASET_NAMES",
    "DatasetSpec",
    "dataset_spec",
    "load_dataset",
    "san_joaquin_surrogate",
    "facebook_surrogate",
    "dblp_surrogate",
    "youtube_surrogate",
]
