"""Lattice-slab level-set measures.

Measures the product (counting x Lebesgue) measure of
{(n, v) in Z^d x R^d : C0 <= (v - a).(n - b) <= C0 + K} restricted to
n in [-N, N]^d and v in [-M, M]^d (box constant c = 1), and compares
against the bound K * max{M^d, (MN)^(d-1) log(1+N)}.

Monte Carlo over v with an exact inner lattice count per sample: for
each sampled v the admissible n form a slab whose last-coordinate
section is an interval, counted in closed form, so the only
statistical error is the v-sampling (CLT error bars reported).
"""

from __future__ import annotations

import itertools
import time
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


def _interval_count(lo: np.ndarray, hi: np.ndarray, bound: int) -> np.ndarray:
    """Number of integers in [lo, hi] intersected with [-bound, bound]."""
    low = np.maximum(np.ceil(lo), -bound)
    high = np.minimum(np.floor(hi), bound)
    return np.maximum(high - low + 1, 0.0)


def _count_lattice(query: LevelSetQuery, w: np.ndarray) -> np.ndarray:
    """For each sample row w = v - a, the exact number of n in
    [-N, N]^d with C0 <= w.(n - b) <= C0 + K."""
    d, N = query.d, query.N
    b = np.asarray(query.b, dtype=float)
    lo_val = query.C0 + w @ b
    hi_val = lo_val + query.K
    if d == 1:
        w1 = w[:, 0]
        safe = np.where(w1 == 0.0, 1.0, w1)
        lo = np.minimum(lo_val / safe, hi_val / safe)
        hi = np.maximum(lo_val / safe, hi_val / safe)
        counts = _interval_count(lo, hi, N)
        # degenerate direction: the constraint is 0 in [C0, C0+K]
        full = (lo_val <= 0.0) & (0.0 <= hi_val)
        return np.where(w1 == 0.0, np.where(full, 2 * N + 1.0, 0.0), counts)
    # enumerate the leading d-1 lattice coordinates, count the last one;
    # one division per cell (the two bounds differ by the fixed K/w_d)
    lead = np.array(
        list(itertools.product(range(-N, N + 1), repeat=d - 1)), dtype=float
    )
    partial = (w[:, : d - 1] @ lead.T).astype(np.float32)
    wd = w[:, d - 1 : d]
    safe = np.where(wd == 0.0, 1.0, wd).astype(np.float32)
    first = (np.float32(lo_val[:, None]) - partial) / safe
    second = first + (np.float32(query.K) / safe)
    lo = np.minimum(first, second)
    hi = np.maximum(first, second)
    counts = _interval_count(lo, hi, N)
    degenerate = (partial >= np.float32(lo_val[:, None])) & (
        partial <= np.float32(hi_val[:, None])
    )
    counts = np.where(wd == 0.0, np.where(degenerate, 2 * N + 1.0, 0.0), counts)
    return counts.sum(axis=1, dtype=np.float64)


def measure_level_set(query: LevelSetQuery, mc_samples: int, seed) -> tuple:
    """Monte Carlo estimate and CLT standard error of the level-set
    measure; v uniform over [-M, M]^d, inner lattice count exact."""
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    rng = np.random.default_rng(seed)
    vol = (2.0 * query.M) ** query.d
    a = np.asarray(query.a, dtype=float)
    chunk = max(256, int(2**21 // max(1, (2 * query.N + 1) ** (query.d - 1))))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < mc_samples:
        m = min(chunk, mc_samples - done)
        v = rng.uniform(-query.M, query.M, size=(m, query.d))
        vals = vol * _count_lattice(query, v - a)
        total += vals.sum()
        total_sq += (vals**2).sum()
        done += m
    mean = total / mc_samples
    var = max(total_sq / mc_samples - mean**2, 0.0)
    return mean, float(np.sqrt(var / mc_samples))


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
    Ns, Ms, Ks, queries_per_cell: int, mc_samples: int, seed: int, d: int
) -> ExperimentReport:
    """Standard boundedness sweep: random (a, b, C0) per cell, ratio =
    estimate / bound; C0 is drawn uniform on [0, MN] (documented
    choice) so slabs meet the box often."""
    t0 = time.time()
    report = ExperimentReport(
        experiment="counting-check",
        columns=["d", "N", "M", "K", "query", "estimate", "stderr", "bound", "ratio"],
        seed=seed,
        grid_desc=f"d={d} lattice/velocity boxes, c=1",
        extra={"mc_samples": mc_samples, "C0_model": "uniform[0, M*N]"},
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
                    a = tuple(rng.uniform(-M, M, size=d))
                    b = tuple(rng.uniform(-N, N, size=d))
                    c0 = float(rng.uniform(0.0, M * N))
                    query = LevelSetQuery(d=d, N=N, M=M, K=K, a=a, b=b, C0=c0)
                    est, err = measure_level_set(
                        query, mc_samples=mc_samples, seed=rng.integers(2**63)
                    )
                    bound = bound_rhs(query)
                    report.add_row(d, N, M, K, q, est, err, bound, est / bound)
    report.validate_finite("ratio")
    report.wall_clock = time.time() - t0
    return report
