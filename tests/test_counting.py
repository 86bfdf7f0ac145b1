"""Lattice-slab level-set measure: Monte Carlo, exact 1D oracle, bound."""

import math

import numpy as np
import pytest

from kflab import (
    LevelSetQuery,
    bound_rhs,
    counting_sweep,
    measure_level_set,
    measure_level_set_exact_1d,
)


def test_exact_1d_harmonic_sum():
    # M = inf, b1 = 0, N = 4, K = 1: intervals of length K/|n| summed over
    # 0 < |n| <= 4 give 2(1 + 1/2 + 1/3 + 1/4) = 25/6, and the closed form
    # sums the same terms
    exact, closed = measure_level_set_exact_1d(
        N=4, b1=0.0, C0=0.0, K=1.0, M=1e9
    )
    assert exact == pytest.approx(25.0 / 6.0, rel=1e-9)
    assert closed == pytest.approx(25.0 / 6.0, rel=1e-12)
    assert closed == pytest.approx(exact, rel=1e-9)


def test_exact_1d_single_interval():
    exact, _ = measure_level_set_exact_1d(N=1, b1=0.0, C0=0.0, K=1.0, M=100.0)
    # n = 1 and n = -1 each contribute an interval of length K/|n| = 1,
    # unclipped at M = 100
    assert exact == pytest.approx(2.0, rel=1e-12)


def test_exact_1d_k_linearity():
    a, _ = measure_level_set_exact_1d(N=4, b1=0.3, C0=0.0, K=0.25, M=50.0)
    b, _ = measure_level_set_exact_1d(N=4, b1=0.3, C0=0.0, K=0.5, M=50.0)
    assert b == pytest.approx(2.0 * a, rel=1e-10)


def test_mc_matches_exact_1d():
    q = LevelSetQuery(d=1, N=4, M=8.0, K=1, a=(0.0,), b=(0.3,), C0=2.0)
    est, stderr = measure_level_set(q, mc_samples=40000, seed=0)
    exact, _ = measure_level_set_exact_1d(
        N=4, b1=0.3, C0=2.0, K=1.0, M=8.0, a1=0.0
    )
    assert abs(est - exact) <= 3.0 * stderr


def test_c0_huge_empty():
    q = LevelSetQuery(d=2, N=2, M=2.0, K=1, a=(0.0, 0.0), b=(0.0, 0.0), C0=1e6)
    est, _ = measure_level_set(q, mc_samples=2000, seed=1)
    assert est == 0.0


def test_slab_containing_box_gives_volume():
    # n = b: the slab constraint |C0 - n.v + ...| <= K is |C0 - |b|^2 + b.v|;
    # with b = 0 and C0 = 0 it holds everywhere, so the measure is the
    # whole box volume (2M)^d
    q = LevelSetQuery(d=2, N=1, M=1.0, K=1, a=(0.0, 0.0), b=(0.0, 0.0), C0=0.0)
    est, _ = measure_level_set(q, mc_samples=5000, seed=2)
    assert est >= (2.0 * 1.0) ** 2  # at least the n = 0 term: full box


def test_bound_rhs_values():
    q = LevelSetQuery(d=2, N=1, M=1.0, K=1, a=(0, 0), b=(0, 0))
    assert bound_rhs(q) == pytest.approx(max(1.0, math.log(2.0)))
    q2 = LevelSetQuery(d=2, N=16, M=4.0, K=2, a=(0, 0), b=(0, 0))
    assert bound_rhs(q2) == pytest.approx(2.0 * max(16.0, 64.0 * math.log(17.0)))


def test_bound_rhs_monotone():
    base = bound_rhs(LevelSetQuery(d=2, N=4, M=2.0, K=1, a=(0, 0), b=(0, 0)))
    for kwargs in ({"N": 8}, {"M": 4.0}, {"K": 2}):
        q = LevelSetQuery(
            d=2,
            N=kwargs.get("N", 4),
            M=kwargs.get("M", 2.0),
            K=kwargs.get("K", 1),
            a=(0, 0),
            b=(0, 0),
        )
        assert bound_rhs(q) >= base


def test_sweep_small_deterministic():
    rep1 = counting_sweep(Ns=(2, 4), Ms=(1,), Ks=(1,), queries_per_cell=3,
                          mc_samples=500, seed=5, d=2)
    rep2 = counting_sweep(Ns=(2, 4), Ms=(1,), Ks=(1,), queries_per_cell=3,
                          mc_samples=500, seed=5, d=2)
    assert rep1.to_csv() == rep2.to_csv()
    ratios = rep1.column("ratio")
    assert all(np.isfinite(ratios))
