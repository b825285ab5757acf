"""Reachability-probability and expected-information-flow estimation.

Computing the probability that two vertices of an uncertain graph are
connected is #P-hard (paper Section 5), so this subpackage offers a
spectrum of estimators:

* :mod:`repro.reachability.engine` — unbiased whole-graph sampling
  (Lemma 1), the building block of the Naive baseline.
  :class:`SamplingEngine` is the one Monte-Carlo estimator
  (``expected_flow``, ``pair_reachability``, ``component_reachability``);
  :class:`repro.runtime.Session` calls the same methods with sample
  budgets and seeds resolved from the session.  The engine indexes the
  (restricted) edge set once, delegates world generation and per-world
  reachability to a pluggable backend, and aggregates the resulting
  boolean world/vertex matrix into flow and reachability estimates;
* :mod:`repro.reachability.layout` — the flat precomputed graph layout:
  :class:`GraphLayout` interns a graph's vertices once into contiguous
  ``edge_u`` / ``edge_v`` / ``probabilities`` arrays plus a CSR
  half-edge adjacency, keyed by the graph's content digest (or, for a
  restriction, by its ordered ``(edge, probability)`` pairs) in a
  process-wide LRU so repeated estimator calls on the same content
  skip all per-call re-interning; :meth:`GraphLayout.problem` hands
  out :class:`SamplingProblem` views in O(1);
* :mod:`repro.reachability.backends` — the backend registry.  Built-ins:
  ``"naive"`` (one Python BFS per world, the behavioural reference),
  ``"csr"`` (the fast default: frontier-sparse bit-packed propagation
  over the shared CSR layout — per-round work shrinks with the frontier
  instead of staying ``O(E)``) and ``"csr-numba"`` (the same backend
  pinned to a compiled ``@njit`` per-world BFS kernel; registered only
  when numba is importable — ``repro-flow backends`` lists
  availability).  All consume
  the random stream identically, so estimates are bit-for-bit
  reproducible per seed on every backend; pick one with
  ``repro.session(backend=...)`` (or the CLI's ``--backend`` flag), or
  pin one for a single engine with ``SamplingEngine(backend)``;
* :mod:`repro.reachability.context` — the evaluation-context layer
  between the engine and the greedy selectors:
  :class:`EvaluationContext` draws one shared edge-flip matrix per
  selection round (common random numbers) and scores every candidate
  edge set against it with incremental reachability deltas, so a whole
  greedy round is one ``score_candidates`` call, candidate comparisons
  carry no cross-candidate sampling noise, and selections are identical
  across backends per seed.  All selectors use it by default; switch
  back to the paper's literal per-candidate resampling with
  ``crn=False`` (selectors / ``make_selector``),
  ``repro.session(crn=False)`` or the CLI's
  ``--resample-per-candidate`` flag;
* :mod:`repro.reachability.exact` — exact evaluation over every
  possible world at once (one world bitset per vertex), exponential in
  the uncertain edges, used as ground truth for small graphs and small
  bi-connected components;
* :mod:`repro.reachability.analytic` — closed-form reachability for
  mono-connected (tree-like) graphs (Lemma 2 / Theorem 2);
* :mod:`repro.reachability.confidence` — confidence intervals for
  sampled reachability probabilities (Definition 10);
* :mod:`repro.reachability.bounds` — cheap lower/upper bounds from the
  related-work discussion.
"""

from repro.reachability.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    SamplingBackend,
    make_backend,
    register_backend,
)
from repro.reachability.context import CandidateScores, EvaluationContext
from repro.reachability.engine import (
    FlipBatch,
    SamplingEngine,
    WorldBatch,
    aggregate_component_reachability,
    aggregate_expected_flow,
    aggregate_pair_reachability,
)
from repro.reachability.estimators import FlowEstimate, ReachabilityEstimate
from repro.reachability.exact import (
    exact_expected_flow,
    exact_reachability,
    exact_reachability_all,
)
from repro.reachability.analytic import (
    is_mono_connected,
    mono_connected_reachability,
    mono_connected_expected_flow,
)
from repro.reachability.confidence import (
    ConfidenceInterval,
    normal_confidence_interval,
    wilson_confidence_interval,
    flow_confidence_interval,
)
from repro.reachability.bounds import (
    most_probable_path_lower_bound,
    cut_upper_bound,
    reachability_bounds,
)
from repro.reachability.factoring import (
    two_terminal_reliability,
    FactoringBudgetExceeded,
)

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "SamplingBackend",
    "SamplingEngine",
    "WorldBatch",
    "FlipBatch",
    "aggregate_component_reachability",
    "aggregate_expected_flow",
    "aggregate_pair_reachability",
    "CandidateScores",
    "EvaluationContext",
    "make_backend",
    "register_backend",
    "FlowEstimate",
    "ReachabilityEstimate",
    "exact_expected_flow",
    "exact_reachability",
    "exact_reachability_all",
    "is_mono_connected",
    "mono_connected_reachability",
    "mono_connected_expected_flow",
    "ConfidenceInterval",
    "normal_confidence_interval",
    "wilson_confidence_interval",
    "flow_confidence_interval",
    "most_probable_path_lower_bound",
    "cut_upper_bound",
    "reachability_bounds",
    "two_terminal_reliability",
    "FactoringBudgetExceeded",
]
