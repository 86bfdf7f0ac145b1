"""Lattice-slab level-set measures.

Measures the product (counting x Lebesgue) measure of
{(n, v) in Z^d x R^d : C0 <= (v - a).(n - b) <= C0 + K} restricted to
n in [-N, N]^d and v in [-M, M]^d (box constant c = 1), and compares
against the bound K * max{M^d, (MN)^(d-1) log(1+N)}.

The measure is exact in d=2: for each lattice n the admissible v form a
box cut by two parallel lines, whose area is summed in closed form (Barrow
& Smith, Quart. Appl. Math. 1979; Marichal & Mossinghoff, Online J. Anal.
Comb. 2008).  d=1 has the separate interval oracle
measure_level_set_exact_1d; the bound is stated for every d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import ExperimentReport

__all__ = [
    "LevelSetQuery",
    "measure_level_set",
    "measure_level_set_exact_1d",
    "bound_rhs",
    "counting_sweep",
]


@dataclass(frozen=True)
class LevelSetQuery:
    """One slab query: dimension d, lattice box half-width N, velocity
    box half-width M, strip width K >= 1 (integer), shifts a (velocity,
    |a| of order M) and b (lattice, |b| of order N), offset C0 >= 0."""

    d: int
    N: int
    M: float
    K: int
    a: tuple
    b: tuple
    C0: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.K < 1 or int(self.K) != self.K:
            raise ValueError("K must be an integer >= 1")
        if self.C0 < 0:
            raise ValueError("C0 must be >= 0")
        if len(self.a) != self.d or len(self.b) != self.d:
            raise ValueError("a and b must have d components")


def measure_level_set(query: LevelSetQuery) -> float:
    """Exact level-set measure in d=2, summed over the lattice n.

    For each n, w = n - b, and the admissible v are the box [-M, M]^2 cut
    by C0 <= (v - a).w <= C0 + K.  Divided by the larger component w_i
    of w, the slab reads lo <= x + s y <= hi with x = v_i, y the other
    coordinate and |s| <= 1; the section length in x is piecewise linear
    in y, with kinks where a boundary line meets x = +-M, and the
    midpoint rule between the sorted kinks is exact.  lo and hi are
    C0/w_i and (C0 + K)/w_i, each one rounding, plus a.w/w_i, so a tiny
    C0 or a w with subnormal components is not rounded away.  The w = 0
    term is the whole box when C0 <= 0 <= C0 + K, and 0 otherwise.
    """
    if query.d != 2:
        raise ValueError(f"measure_level_set supports d=2 only, got d={query.d}")
    N, M, K, C0 = query.N, float(query.M), query.K, query.C0
    n = np.arange(-N, N + 1, dtype=float)
    w1, w2 = np.repeat(n, n.size) - query.b[0], np.tile(n, n.size) - query.b[1]
    swap = np.abs(w2) > np.abs(w1)
    major, minor = np.where(swap, w2, w1), np.where(swap, w1, w2)
    a_major = np.where(swap, query.a[1], query.a[0])
    a_minor = np.where(swap, query.a[0], query.a[1])
    zero = major == 0.0
    with np.errstate(all="ignore"):
        s = np.where(zero, 0.0, minor / major)
        # a negative major swaps the ends; a tiny one sends them to +-inf
        ends = C0 / major, (C0 + K) / major
        shift = a_major + s * a_minor
        lo, hi = np.minimum(*ends) + shift, np.maximum(*ends) + shift
        # y where a boundary line meets x = -M or +M; the two of one line
        # lie 2M/|s| >= 2M apart, so at most one is inside
        kinks = []
        for c in (lo, hi):
            y0, y1 = (c + M) / s, (c - M) / s
            kink = np.where(np.abs(y0) < M, y0, np.clip(y1, -M, M))
            kinks.append(np.where(s == 0.0, -M, kink))
        ys = np.stack([np.full_like(lo, -M), np.minimum(*kinks), np.maximum(*kinks),
                       np.full_like(lo, M)])
        mid = 0.5 * (ys[1:] + ys[:-1])
        length = np.minimum(hi - s * mid, M) - np.maximum(lo - s * mid, -M)
        area = np.maximum(length, 0.0) * np.diff(ys, axis=0)
    whole = (2.0 * M) ** 2 if C0 <= 0.0 <= C0 + K else 0.0
    return float(np.where(zero, 0.0, area).sum() + whole * zero.sum())


def measure_level_set_exact_1d(
    N: int, b1: float, C0: float, K: float, M: float = np.inf, a1: float = 0.0
) -> tuple:
    """Exact 1D measure by interval intersection, n != b1 terms only.

    Returns (exact, reference_sum) where the reference is the closed
    form sum K/|n - b1| over n in [-N, N], the unconstrained-v interval
    lengths: C0 <= (n - b1)(v - a1) <= C0 + K is one v-interval of
    length K/|n - b1|.  The sum over n already covers both signs, so the
    two agree whenever M clips no interval.
    """
    if not 0.0 <= b1 < 1.0:
        raise ValueError("b1 must lie in [0, 1)")
    exact = 0.0
    ref = 0.0
    for n in range(-N, N + 1):
        slope = n - b1
        if slope == 0.0:
            continue
        lo, hi = sorted(((C0) / slope, (C0 + K) / slope))
        lo += a1
        hi += a1
        if np.isfinite(M):
            lo, hi = max(lo, -M), min(hi, M)
        exact += max(hi - lo, 0.0)
        ref += K / abs(slope)
    return exact, ref


def bound_rhs(query: LevelSetQuery) -> float:
    """K * max{M^d, (MN)^(d-1) * log(1+N)} (log(1+N) avoids the N=1
    zero; immaterial except at M = N = 1 because of the max)."""
    d, N, M, K = query.d, query.N, query.M, query.K
    return float(K * max(M**d, (M * N) ** (d - 1) * np.log(1.0 + N)))


def counting_sweep(
    Ns, Ms, Ks, queries_per_cell: int, seed: int
) -> ExperimentReport:
    """Standard d=2 boundedness sweep: random (a, b, C0) per cell, ratio =
    measure / bound; C0 is drawn uniform on [0, MN] (documented choice)
    so slabs meet the box often."""
    report = ExperimentReport(
        experiment="counting-check",
        columns=["d", "N", "M", "K", "query", "estimate", "bound", "ratio"],
        seed=seed,
        grid_desc="d=2 lattice/velocity boxes, c=1",
        extra={"C0_model": "uniform[0, M*N]"},
    )
    root = np.random.SeedSequence(seed)
    for N in Ns:
        for M in Ms:
            for K in Ks:
                cell_seed = np.random.SeedSequence(
                    entropy=root.entropy, spawn_key=(N, M, K)
                )
                rng = np.random.default_rng(cell_seed)
                for q in range(queries_per_cell):
                    a = tuple(rng.uniform(-M, M, size=2))
                    b = tuple(rng.uniform(-N, N, size=2))
                    c0 = float(rng.uniform(0.0, M * N))
                    query = LevelSetQuery(d=2, N=N, M=M, K=K, a=a, b=b, C0=c0)
                    est = measure_level_set(query)
                    bound = bound_rhs(query)
                    report.add_row(2, N, M, K, q, est, bound, est / bound)
    return report.finish("ratio")
