"""Optimality and consistency tests for the nonoverlapping DP
(paper Section 3.2.2)."""

import numpy as np
import pytest

from repro import (
    PrunedHierarchy,
    build_nonoverlapping,
    evaluate_function,
    get_metric,
)
from repro.algorithms import exhaustive_nonoverlapping

from helpers import ALL_METRICS, random_instance


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mname", ALL_METRICS)
def test_matches_exhaustive_oracle(seed, mname):
    """The DP must equal brute-force search over every covering cut of
    the full virtual hierarchy, for every metric."""
    _dom, table, counts = random_instance(seed)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 1 + seed % 4
    res = build_nonoverlapping(h, metric, budget)
    oracle, _ = exhaustive_nonoverlapping(table, counts, metric, budget)
    assert res.error_at(budget) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mname", ALL_METRICS)
def test_predicted_error_is_delivered(seed, mname):
    """The DP's claimed error must equal the error measured through the
    full histogram/reconstruction pipeline."""
    _dom, table, counts = random_instance(seed + 100)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 1 + seed % 5
    res = build_nonoverlapping(h, metric, budget)
    predicted = res.error_at(budget)
    if not np.isfinite(predicted):
        return
    fn = res.function_at(budget)
    measured = evaluate_function(table, counts, fn, metric)
    assert measured == pytest.approx(predicted, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_curve_monotone_nonincreasing(seed):
    _dom, table, counts = random_instance(seed, height_range=(3, 6))
    metric = get_metric("rms")
    h = PrunedHierarchy(table, counts)
    res = build_nonoverlapping(h, metric, 12)
    finite = res.curve[np.isfinite(res.curve)]
    assert np.all(np.diff(finite) <= 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_full_budget_reaches_zero_error(seed):
    """With one bucket per pruned leaf the cut resolves every nonzero
    group exactly and every empty region to zero."""
    _dom, table, counts = random_instance(seed, height_range=(2, 5))
    metric = get_metric("average")
    h = PrunedHierarchy(table, counts)
    budget = h.max_useful_buckets()
    res = build_nonoverlapping(h, metric, budget)
    assert res.error_at(budget) == pytest.approx(0.0, abs=1e-12)


def test_budget_one_is_single_root_bucket(small_hierarchy):
    metric = get_metric("rms")
    res = build_nonoverlapping(small_hierarchy, metric, 1)
    fn = res.function_at(1)
    assert fn.num_buckets == 1
    assert fn.buckets[0].node == small_hierarchy.root.node


def test_function_is_valid_cut(small_hierarchy):
    metric = get_metric("rms")
    res = build_nonoverlapping(small_hierarchy, metric, 6)
    fn = res.function_at(6)  # construction validates disjointness
    # all groups covered
    table = small_hierarchy.table
    covered = np.zeros(len(table), dtype=bool)
    for b in fn.buckets:
        covered[table.group_indices_below(b.node)] = True
    assert covered.all()


def test_bad_budget_rejected(small_hierarchy):
    with pytest.raises(ValueError):
        build_nonoverlapping(small_hierarchy, get_metric("rms"), 0)


def test_all_zero_window(small_instance):
    _dom, table, _counts = small_instance
    h = PrunedHierarchy(table, np.zeros(len(table)))
    res = build_nonoverlapping(h, get_metric("rms"), 3)
    assert res.error_at(3) == 0.0
    fn = res.function_at(3)
    assert fn.num_buckets == 1


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mname", ["rms", "max_relative"])
def test_low_memory_mode_equivalent(seed, mname):
    """The Section 4.4 multi-pass mode must produce the same curve and
    an equally-good bucket set as the split-retaining mode."""
    _dom, table, counts = random_instance(seed + 300)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 2 + seed % 4
    fast = build_nonoverlapping(h, metric, budget)
    lean = build_nonoverlapping(h, metric, budget, low_memory=True)
    assert np.allclose(fast.curve[1:], lean.curve[1:], equal_nan=True)
    err_fast = evaluate_function(
        table, counts, fast.function_at(budget), metric
    )
    err_lean = evaluate_function(
        table, counts, lean.function_at(budget), metric
    )
    assert err_lean == pytest.approx(err_fast, abs=1e-9)
    assert err_lean == pytest.approx(lean.error_at(budget), abs=1e-9)


@pytest.mark.parametrize("mode", ["naive", "fast"])
@pytest.mark.parametrize("seed", range(4))
def test_builds_without_node_objects(mode, seed):
    """Full, low-memory and incremental builds read the hierarchy's
    arrays only: no PNode is ever created."""
    from repro.algorithms import incremental
    from repro.algorithms.kernels import use_kernel_mode

    _dom, table, counts = random_instance(seed + 300)
    metric = get_metric("rms")
    with use_kernel_mode(mode):
        memo = None
        for c in (counts, counts * 2.0):
            for low_memory in (False, True):
                h = PrunedHierarchy(table, c)
                build_nonoverlapping(
                    h, metric, 6, low_memory=low_memory
                ).function_at(6)
                assert h._nodes is None
            h = PrunedHierarchy(table, c)
            session = incremental.new_session(
                "nonoverlapping", h, metric, 6, memo
            )
            build_nonoverlapping(h, metric, 6, memo=session).function_at(6)
            memo = session.finish()
            assert h._nodes is None
