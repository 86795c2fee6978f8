"""Unified entry point for histogram construction.

Maps algorithm names to builders so that the monitoring substrate, the
bench harness and user code can select construction strategies by
configuration.  All builders share the signature
``(hierarchy, metric, budget, **options) -> ConstructionResult``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PrunedHierarchy
from ..obs import get_registry, span
from .base import ConstructionResult
from .lpm_greedy import build_lpm_greedy
from .lpm_kholes import build_lpm_kholes
from .lpm_quantized import build_lpm_quantized
from .nonoverlapping import build_nonoverlapping
from .overlapping import build_overlapping

__all__ = ["ALGORITHMS", "build", "available_algorithms"]

ALGORITHMS: Dict[str, Callable[..., ConstructionResult]] = {
    "nonoverlapping": build_nonoverlapping,
    "overlapping": build_overlapping,
    "lpm_greedy": build_lpm_greedy,
    "lpm_quantized": build_lpm_quantized,
    "lpm_kholes": build_lpm_kholes,
}


def build(
    algorithm: str,
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    memo=None,
    **options,
) -> ConstructionResult:
    """Construct a partitioning function with the named algorithm.

    ``memo`` is an optional incremental-rebuild session (see
    :mod:`repro.algorithms.incremental`) forwarded to builders that
    support subtree-memoized sweeps; it never changes the result, only
    how much of the DP is re-run.

    >>> from repro.algorithms.construct import build  # doctest: +SKIP
    >>> result = build("lpm_greedy", hierarchy, metric, budget=100)
    """
    try:
        builder = ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(
            f"unknown construction algorithm {algorithm!r}; known: {known}"
        )
    if memo is not None:
        options = {**options, "memo": memo}
    with span(
        "build", algorithm=algorithm, budget=budget,
        nodes=len(hierarchy),
    ) as sp:
        result = builder(hierarchy, metric, budget, **options)
        sp.annotate(**result.stats)
    registry = get_registry()
    if registry.enabled:
        registry.timer("build.duration", algorithm=algorithm).observe(
            sp.duration
        )
        registry.counter("build.calls", algorithm=algorithm).inc()
        registry.counter("build.size.nodes", algorithm=algorithm).inc(
            len(hierarchy)
        )
        registry.counter("build.size.budget", algorithm=algorithm).inc(budget)
        for key, value in result.stats.items():
            registry.gauge(
                f"build.stats.{key}", algorithm=algorithm
            ).set(value)
    return result


def available_algorithms() -> Iterable[str]:
    return sorted(ALGORITHMS)
