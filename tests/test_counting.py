"""Lattice-slab level-set measure: exact d=2 measure against a rational
oracle, exact 1D oracle, bound."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _area_below(w, c, M):
    """Area of {v in [-M, M]^2 : w.v <= c} for w1, w2 != 0, by
    inclusion-exclusion over the box's vertices: sum of
    (-1)^|e| (c - |w|.vertex_e)_+^2 / (2 |w1 w2|), vertex_e = M (2e - 1)."""
    total = Fraction(0)
    for e in itertools.product((0, 1), repeat=2):
        x = c - sum(abs(wi) * M * (2 * ei - 1) for wi, ei in zip(w, e))
        if x > 0:
            total += (-1) ** sum(e) * x * x
    return total / (2 * abs(w[0] * w[1]))


def rational_measure(q):
    """The d=2 level-set measure in exact rational arithmetic: floats
    convert to Fraction exactly, so nothing cancels badly.  Needs every
    w = n - b to have nonzero components (non-integer b)."""
    M, C0 = Fraction(q.M), Fraction(q.C0)
    a = [Fraction(x) for x in q.a]
    b = [Fraction(x) for x in q.b]
    total = Fraction(0)
    for n in itertools.product(range(-q.N, q.N + 1), repeat=2):
        w = [ni - bi for ni, bi in zip(n, b)]
        lo = C0 + sum(wi * ai for wi, ai in zip(w, a))
        total += _area_below(w, lo + q.K, M) - _area_below(w, lo, M)
    return total


def oracle_queries():
    """Fixed queries over N in {1, 3, 8, 16}, M in {1, 2.5, 4}, K in
    {1, 2, 4}, with (a, b, C0) drawn as counting_sweep draws them."""
    rng = np.random.default_rng(2024)
    for N, M, K in itertools.product((1, 3, 8, 16), (1.0, 2.5, 4.0), (1, 2, 4)):
        a = tuple(rng.uniform(-M, M, size=2))
        b = tuple(rng.uniform(-N, N, size=2))
        C0 = float(rng.uniform(0.0, M * N))
        yield LevelSetQuery(d=2, N=N, M=M, K=K, a=a, b=b, C0=C0)


def test_exact_matches_rational_oracle():
    for q in oracle_queries():
        assert all(bi != round(bi) for bi in q.b)
        exact = rational_measure(q)
        assert exact > 0, q
        assert measure_level_set(q) == pytest.approx(float(exact), rel=1e-12), q


def _query(N, M, K, a, b, C0):
    return LevelSetQuery(d=2, N=N, M=M, K=K, a=tuple(M * x for x in a),
                         b=tuple(N * x for x in b), C0=C0 * M * N)


_unit = st.floats(-1.0, 1.0)
_pair = st.tuples(_unit, _unit)
_slabs = dict(N=st.integers(1, 8), M=st.floats(0.5, 8.0), a=_pair, b=_pair,
              C0=st.floats(0.0, 1.0))


def _close(x, y, M):
    # 1e-12 relative, or 1e-12 of one whole box (2M)^2 when the measure
    # is smaller than that: each section length is a difference of
    # numbers of size M, rounded
    return x == pytest.approx(y, rel=1e-12, abs=1e-12 * (2.0 * M) ** 2)


@settings(max_examples=60, deadline=None)
@given(K1=st.integers(1, 4), K2=st.integers(1, 4), **_slabs)
def test_measure_additive_in_k(N, M, K1, K2, a, b, C0):
    q = _query(N, M, K1 + K2, a, b, C0)
    first = measure_level_set(replace(q, K=K1))
    second = measure_level_set(replace(q, K=K2, C0=q.C0 + K1))
    assert _close(measure_level_set(q), first + second, M)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 4), **_slabs)
def test_measure_reflection_invariant(N, M, K, a, b, C0):
    # (v, n) -> (-v, -n) maps the slab of (a, b) onto that of (-a, -b)
    q = _query(N, M, K, a, b, C0)
    r = replace(q, a=tuple(-x for x in q.a), b=tuple(-x for x in q.b))
    assert _close(measure_level_set(q), measure_level_set(r), M)


def test_hand_count():
    # N = M = K = 1, a = b = 0, C0 = 1/2: w = n, and 1/2 <= n.v <= 3/2.
    # n = 0 misses; each n = (+-1, 0), (0, +-1) gives 1/2 x 2 = 1; each
    # diagonal n gives 9/8 - 1/8 = 1 (two corner triangles)
    q = LevelSetQuery(d=2, N=1, M=1.0, K=1, a=(0.0, 0.0), b=(0.0, 0.0), C0=0.5)
    assert measure_level_set(q) == 8.0


def test_c0_huge_empty():
    q = LevelSetQuery(d=2, N=2, M=2.0, K=1, a=(0.0, 0.0), b=(0.0, 0.0), C0=1e6)
    assert measure_level_set(q) == 0.0


def test_slab_containing_box_gives_volume():
    # b = 0 and C0 = 0: the n = 0 term, 0 <= 0 <= K, is the whole box
    # (2M)^2 = 4; each n = (+-1, 0), (0, +-1) adds 2 and each diagonal n
    # adds 2 - 1/2, so the total is 4 + 8 + 6
    q = LevelSetQuery(d=2, N=1, M=1.0, K=1, a=(0.0, 0.0), b=(0.0, 0.0), C0=0.0)
    assert measure_level_set(q) == 18.0


def test_only_d2_is_measured():
    q = LevelSetQuery(d=3, N=1, M=1.0, K=1, a=(0, 0, 0), b=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="supports d=2 only, got d=3"):
        measure_level_set(q)


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
    rep1 = counting_sweep(Ns=(2, 4), Ms=(1,), Ks=(1,), queries_per_cell=3, seed=5)
    rep2 = counting_sweep(Ns=(2, 4), Ms=(1,), Ks=(1,), queries_per_cell=3, seed=5)
    assert rep1.to_csv() == rep2.to_csv()
    ratios = rep1.column("ratio")
    assert all(np.isfinite(ratios))
