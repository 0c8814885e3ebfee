"""KS statistics against the reference model and independent oracles, and
representativeness reporting."""

from __future__ import annotations

import math
import random
import statistics

import pytest

import reference_model as model
from vcseffort import stats
from vcseffort.errors import ParameterError
from vcseffort.stats import (
    DEFAULT_CUTOFFS,
    ks_two_sample,
    representativeness_table,
    representativeness_to_csv,
    summarize,
)


def test_identical_samples():
    result = ks_two_sample([1, 2, 3, 4], [1, 2, 3, 4])
    assert result.d_statistic == 0.0
    assert result.p_value == 1.0


def test_disjoint_samples():
    result = ks_two_sample([1] * 30, [100] * 40)
    assert result.d_statistic == 1.0
    assert 0.0 < result.p_value < 1e-6
    assert (result.n1, result.n2) == (30, 40)


def test_empty_sample_rejected():
    with pytest.raises(ParameterError, match="non-empty"):
        ks_two_sample([], [1, 2])
    with pytest.raises(ParameterError, match="non-empty"):
        ks_two_sample([1, 2], [])


def test_known_small_case():
    # a = [1, 2], b = [2, 3]: the gap peaks at value 1 (1/2 vs 0).
    result = ks_two_sample([1, 2], [2, 3])
    assert result.d_statistic == 0.5


def test_d_matches_counting_oracle():
    rng = random.Random(12021)
    for _ in range(200):
        n1 = rng.randrange(1, 40)
        n2 = rng.randrange(1, 40)
        a = [rng.randrange(0, 25) for _ in range(n1)]
        b = [rng.randrange(0, 25) for _ in range(n2)]
        assert ks_two_sample(a, b) == (*model.ks(a, b), n1, n2)


def test_p_value_monotone_in_d_at_fixed_sizes():
    rng = random.Random(40004)
    pairs = []
    for shift in range(0, 30):
        a = [rng.randrange(0, 50) for _ in range(25)]
        b = [rng.randrange(0, 50) + shift for _ in range(35)]
        result = ks_two_sample(a, b)
        pairs.append((result.d_statistic, result.p_value))
    pairs.sort()
    for (d1, p1), (d2, p2) in zip(pairs, pairs[1:]):
        if d1 < d2:
            assert p1 >= p2
        else:
            assert p1 == p2


def test_p_value_formula_pinned():
    # Hand-evaluated: n1 = n2 = 10, D = 0.5 gives lambda = (sqrt(5) + 0.12 + 0.11/sqrt(5)) * 0.5.
    result = ks_two_sample(list(range(10)), [x + 5 for x in range(10)])
    assert result.d_statistic == 0.5
    ne = 100 / 20
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * 0.5
    expected = 2.0 * sum(
        (-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 30)
    )
    assert math.isclose(result.p_value, expected, rel_tol=1e-9)


def test_p_series_cap_returns_one_near_zero_lambda():
    assert stats._ks_significance(0.0) == 1.0
    assert stats._ks_significance(1e-9) == 1.0
    # The first term below 1e-12: none of 100 at 0.0370, the 100th at 0.0373, the 99th at 0.0376.
    for lam in (0.0370, 0.0373, 0.0376):
        assert stats._ks_significance(lam) == model.ks_significance(lam)


def test_p_underflow_clamped_positive():
    assert stats._ks_significance(60.0) > 0.0


def test_p_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(2025)
    for _ in range(20):
        a = [rng.gauss(0, 1) for _ in range(100)]
        b = [rng.gauss(0.3, 1.2) for _ in range(120)]
        ours = ks_two_sample(a, b)
        reference = scipy_stats.ks_2samp(a, b, method="asymp")
        assert math.isclose(ours.d_statistic, reference.statistic, rel_tol=0, abs_tol=1e-12)
        # Different small-sample corrections: agreement need only be loose.
        assert abs(ours.p_value - reference.pvalue) < 0.05


def test_summarize_known_values():
    summary = summarize([4, 1, 3, 2])
    assert summary.n == 4
    assert summary.minimum == 1 and summary.maximum == 4
    assert summary.q1 == 1.75
    assert summary.median == 2.5
    assert summary.q3 == 3.25
    assert summary.mean == 2.5
    single = summarize([7])
    assert (single.q1, single.median, single.q3) == (7.0, 7.0, 7.0)


def test_summarize_matches_stdlib_quantiles():
    rng = random.Random(606)
    for _ in range(50):
        xs = [rng.randrange(0, 100) for _ in range(rng.randrange(2, 60))]
        summary = summarize(xs)
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        assert math.isclose(summary.q1, q1, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(summary.median, median, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(summary.q3, q3, rel_tol=1e-12, abs_tol=1e-12)
        assert summary.mean == sum(xs) / len(xs)
    with pytest.raises(ParameterError):
        summarize([])


def test_default_cutoffs():
    assert DEFAULT_CUTOFFS == (0, 1, 2, 3, 4, 5, 8, 11)


def test_representativeness_requires_subset():
    with pytest.raises(ParameterError, match="not in population"):
        representativeness_table({"a": 1}, {"b": 2})
    with pytest.raises(ParameterError, match="not in population: b, c, d$"):
        representativeness_table({"a": 1}, dict.fromkeys("edcb", 2))


def test_representativeness_rows_and_insufficient_data():
    all_counts = {"a": 0, "b": 2, "c": 5, "d": 9}
    surveyed = {"b": 2, "c": 5}
    rows = representativeness_table(all_counts, surveyed, cutoffs=(0, 3, 6, 100))
    assert [row.cutoff for row in rows] == [0, 3, 6, 100]
    assert rows[0].status == "ok"
    assert rows[0].all_summary.n == 4 and rows[0].surveyed_summary.n == 2
    assert rows[1].all_summary.n == 2  # c and d survive cutoff 3
    assert rows[1].surveyed_summary.n == 1
    # Cutoff 6 keeps d in the population but nobody surveyed.
    assert rows[2].status == "insufficient-data"
    assert rows[2].all_summary.n == 1
    assert rows[2].surveyed_summary is None
    assert rows[2].ks is None
    # Cutoff 100 empties both sides.
    assert rows[3].all_summary is None and rows[3].surveyed_summary is None


def test_representativeness_csv_layout():
    # Cutoff 2 leaves nobody surveyed: its rows are insufficient-data.
    all_counts = {"a": 1, "b": 4}
    rows = representativeness_table(all_counts, {"a": 1}, cutoffs=(0, 2))
    expected, _ = model.representativeness(all_counts, "ab", "a", (0, 2))
    assert representativeness_to_csv(rows) == "".join(",".join(row) + "\n" for row in expected)


def test_ks_result_within_representativeness_matches_direct_call():
    all_counts = {"a": 1, "b": 4, "c": 6}
    surveyed = {"a": 1, "c": 6}
    rows = representativeness_table(all_counts, surveyed, cutoffs=(0,))
    assert rows[0].ks == (*model.ks([1, 4, 6], [1, 6]), 3, 2)
