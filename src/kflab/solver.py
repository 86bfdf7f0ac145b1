"""Local-in-time solver for the collisional transport equation in its
velocity-dual (hyperbolic Schroedinger) form.

The production path is a Picard iteration of the cutoff Duhamel map

    f -> psi(t) S(t) f0 + psi(t) int_0^t S(t-t') psi_T(t') Q(f, f) dt'

on a uniformly sampled window [-2T, 2T] (the support of psi_T), with
an auto-halving schedule realizing "T sufficiently small".

The iteration runs on the data's mode support.  The free flow is
diagonal in the x-mode n and Q is local in x, so data exactly
x_a-invariant at t = 0 stay so for the whole solve.  Both integrators
therefore restrict f0 once to its x-support (``grid.restrict_modes``:
n_modes on an axis the data vary along, 1 on an invariant one), run
there, the collision included, and embed the result back onto the full
grid (``embed_modes``), so callers see full-grid trajectories only.  A
classical 4-stage one-step integrator in the interaction frame serves
as an independent cross-check on |t| <= T, where the cutoffs are
identically one and the fixed point solves the true equation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .collision import (
    SphereQuadrature,
    _gain_cache_path,
    _padded_count,
    collide,
    collide_trajectory,
    moments,
)
from .grid import (
    GridSpec,
    PhaseField,
    _x_sizes,
    conjugate_symmetry_defect,
    embed_modes,
    random_field,
    restrict_modes,
    x_synthesize,
)
from .lp import bump_psi
from .norms import NormParams, default_params, sobolev_norm, xsb_norm
from .propagator import _free_flow
from .reports import ExperimentReport
from .trajectory import Trajectory, duhamel_integral, sample_free_evolution

__all__ = [
    "SolverConfig",
    "IterationReport",
    "maxwellian_perturbed",
    "duhamel_picard",
    "integrate_interaction_picture",
    "sup_l2_difference",
    "perturbation_experiment",
    "positivity_check",
    "conservation_drift",
]


# window halvings duhamel_picard tries before it gives up on contraction
_MAX_HALVINGS = 4
# the window halves when the contraction ratio after this sweep exceeds
# this threshold
_HALVE_SWEEP = 3
_HALVE_RATIO = 0.9
# positivity_check's tolerance for negative lobes, used by `kflab simulate`
POSITIVITY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters: window half-width T (the cutoff scale; samples
    cover [-2T, 2T]), sample spacing dt, which must divide T, sphere
    quadrature, Picard cap and tolerance.  The norm exponents ``params``
    follow from the grid dimension (default_params); products in x are
    always dealiased."""

    grid: GridSpec
    T: float
    dt: float
    quad: SphereQuadrature
    max_picard: int
    tol: float

    def __post_init__(self):
        if not 0 < self.dt <= self.T:
            raise ValueError("need 0 < dt <= T")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"dt={self.dt} does not divide T={self.T} (T/dt = {steps:.6g})")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_picard < 1:
            raise ValueError("max_picard must be >= 1")

    @property
    def params(self) -> NormParams:
        return default_params(self.grid.d)


@dataclass
class IterationReport:
    """Per-iteration Picard differences and contraction diagnostics."""

    deltas_sup: list = field(default_factory=list)
    deltas_x: list = field(default_factory=list)
    converged: bool = False
    halvings: int = 0
    t_final: float = 0.0
    realness_defect: float = 0.0
    message: str = ""
    # per-axis sizes of the collision's padded x-grid
    collision_x_sizes: list = field(default_factory=list)
    # one {sweep, ratio, threshold, T} record per halving, in order
    halvings_reasons: list = field(default_factory=list)
    # wall seconds of each sweep, one per entry of deltas_sup
    sweep_wall_s: list = field(default_factory=list)
    # the gain's stack-cache path of each sweep: "hit", "miss" or "bypass"
    gain_cache: list = field(default_factory=list)
    # per-axis x-mode counts the Picard sweeps stored: n_modes, or 1 on an
    # axis along which f0 is exactly invariant
    solve_mode_counts: list = field(default_factory=list)

    def ratios(self) -> list:
        eps = 10 * np.finfo(float).eps
        out = []
        for a, b in zip(self.deltas_sup[1:], self.deltas_sup[:-1]):
            out.append(a / b if b > eps else float("nan"))
        return out

    def to_dict(self) -> dict:
        return {
            "deltas_sup": [float(x) for x in self.deltas_sup],
            "deltas_x": [float(x) for x in self.deltas_x],
            "contraction_ratios": [float(x) for x in self.ratios()],
            "converged": self.converged,
            "halvings": self.halvings,
            "t_final": self.t_final,
            "realness_defect": self.realness_defect,
            "message": self.message,
            "collision_x_sizes": self.collision_x_sizes,
            "halvings_reasons": self.halvings_reasons,
            "sweep_wall_s": [float(x) for x in self.sweep_wall_s],
            "gain_cache": self.gain_cache,
            "solve_mode_counts": self.solve_mode_counts,
        }


def maxwellian_perturbed(grid: GridSpec, eps: float = 0.0, mode=None) -> PhaseField:
    """exp(-|v|^2) times (1 + eps cos(mode . x)); the unperturbed
    Maxwellian is a collision equilibrium.  ``mode`` must have d entries,
    each |m_a| < n_modes/2 (the +n_modes/2 slot has no stored partner);
    anything else is a ValueError."""
    if mode is not None:
        mode = tuple(int(m) for m in mode)
        if len(mode) != grid.d or any(2 * abs(m) >= grid.n_modes for m in mode):
            raise ValueError(
                f"mode {','.join(map(str, mode))} needs d={grid.d} entries, "
                f"each |m| < n_modes/2 = {grid.n_modes // 2}"
            )
    vv = grid.v_vectors()
    mu = np.exp(-np.sum(vv**2, axis=1)).reshape((grid.v_points,) * grid.d)
    data = np.zeros(grid.shape, dtype=np.complex128)
    zero = (0,) * grid.d
    data[zero] = mu
    if eps and mode is not None:
        plus = tuple(m % grid.n_modes for m in mode)
        minus = tuple((-m) % grid.n_modes for m in mode)
        data[plus] += 0.5 * eps * mu
        data[minus] += 0.5 * eps * mu
    return PhaseField(grid, data)


def _picard_once(f0: PhaseField, config: SolverConfig, T: float, dt: float):
    g = f0.grid
    # dt divides T (SolverConfig), so the count is odd and t = 0 a sample
    n_samples = int(round(4.0 * T / dt)) + 1
    free = sample_free_evolution(f0, 2.0 * T, n_samples)
    times = free.times
    psi = bump_psi(times)
    psi_t = bump_psi(times / T)
    ext = (...,) + (None,) * (2 * g.d)
    linear = psi[ext] * free.data

    report = IterationReport(t_final=T, realness_defect=conjugate_symmetry_defect(f0))
    report.collision_x_sizes = list(_x_sizes(g, _padded_count(g.n_modes, True)))
    cur = Trajectory(g, 2.0 * T, linear.copy(), cutoff="psi")
    halve = None
    for k in range(config.max_picard):
        t_sweep = time.perf_counter()
        active = (psi_t != 0.0) & np.any(cur.data.reshape(n_samples, -1), axis=1)
        report.gain_cache.append(_gain_cache_path(g, config.quad))
        q_all = collide_trajectory(cur.data, g, config.quad, active=active)
        forcing = Trajectory(g, 2.0 * T, psi_t[ext] * q_all)
        dh = duhamel_integral(forcing)
        new = Trajectory(g, 2.0 * T, linear + psi[ext] * dh.data, cutoff="psi")
        diff = Trajectory(g, 2.0 * T, new.data - cur.data, cutoff="psi")
        report.deltas_sup.append(diff.sup_l2())
        report.deltas_x.append(xsb_norm(diff, config.params))
        report.sweep_wall_s.append(time.perf_counter() - t_sweep)
        cur = new
        if report.deltas_sup[-1] <= config.tol:
            report.converged = True
            break
        ratios = report.ratios()
        if k + 1 == _HALVE_SWEEP and ratios and ratios[-1] > _HALVE_RATIO:
            halve = {"sweep": k + 1, "ratio": float(ratios[-1]),
                     "threshold": _HALVE_RATIO, "T": T}
            break
    if not report.converged and halve is None:
        report.message = "iteration cap reached without meeting tol"
    return cur, report, halve


def duhamel_picard(f0: PhaseField, config: SolverConfig):
    """Picard-iterate the cutoff Duhamel map; returns (trajectory,
    report).  The sweeps run on f0's mode support and the trajectory is
    returned on f0's full grid.  If the contraction
    ratio exceeds 0.9 at iteration 3, the window is halved and the solve
    restarts (up to _MAX_HALVINGS), and the report's halvings_reasons
    records why; non-convergence at the cap is flagged in the report,
    not raised."""
    T, dt = config.T, config.dt
    # an axis along which f0 is exactly invariant stores n_a = 0 alone,
    # and the solution stays invariant
    f0 = restrict_modes(f0)
    reasons = []
    while True:
        traj, report, halve = _picard_once(f0, config, T, dt)
        if halve is not None and len(reasons) < _MAX_HALVINGS:
            reasons.append(halve)
            T *= 0.5
            dt *= 0.5
            continue
        report.halvings = len(reasons)
        report.halvings_reasons = reasons
        report.t_final = T
        report.solve_mode_counts = list(f0.grid.mode_counts)
        if halve is not None:
            report.message = "contraction not achieved after max halvings"
        return embed_modes(traj), report


def integrate_interaction_picture(f0: PhaseField, config: SolverConfig) -> Trajectory:
    """Cross-check integrator on [-T, T]: solves g' = S(-t) Q(S(t)g)
    with the classical 4-stage one-step method, g = S(-t) f, and maps
    back to the lab frame.  Runs on f0's mode support, as duhamel_picard
    does, and returns the trajectory on f0's full grid.  Rejects a step
    if the state norm doubles."""
    f0 = restrict_modes(f0)
    g = f0.grid
    quad = config.quad
    T, dt = config.T, config.dt
    half = int(round(T / dt))
    times = dt * np.arange(-half, half + 1)
    data = np.zeros((len(times),) + g.shape, dtype=np.complex128)

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        fld = PhaseField(g, _free_flow(state, g, t))
        q = collide(fld, quad)
        return _free_flow(q.data, g, -t)

    center = half
    data[center] = f0.data
    for direction in (+1, -1):
        state = f0.data.copy()
        for step in range(half):
            j = center + direction * step
            t = times[j]
            h = direction * dt
            norm0 = np.linalg.norm(state)
            k1 = rhs(t, state)
            k2 = rhs(t + h / 2, state + (h / 2) * k1)
            k3 = rhs(t + h / 2, state + (h / 2) * k2)
            k4 = rhs(t + h, state + h * k3)
            state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.linalg.norm(state) > 2.0 * max(norm0, 1e-300):
                raise RuntimeError(
                    f"step rejected at t={t:.4g}: state norm doubled within one step"
                )
            data[j + direction] = state
    return embed_modes(Trajectory(g, T, _free_flow(data, g, times, out=data)))


def sup_l2_difference(a: Trajectory, b: Trajectory) -> float:
    """sup over b's sample times of the slice L2 difference, matching
    a's samples by time (times must align to rounding)."""
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    dvd = a.grid.dv**a.grid.d
    worst = 0.0
    for j, t in enumerate(b.times):
        i = int(round((t + a.t_half) / a.dt))
        if not (0 <= i < a.n_samples) or abs(a.times[i] - t) > 1e-9:
            raise ValueError(f"no matching sample in the reference at t={t}")
        d2 = dvd * np.sum(np.abs(a.data[i] - b.data[j]) ** 2)
        worst = max(worst, float(np.sqrt(d2)))
    return worst


def perturbation_experiment(
    f0: PhaseField,
    config: SolverConfig,
    deltas,
    seed: int,
) -> ExperimentReport:
    """Data-to-solution continuity: solve from f0 and from f0 + delta*g
    for a fixed unit direction g, report sup_{|t|<=T} H^{s,r} distance
    divided by delta across the ladder."""
    t0 = time.time()
    g = random_field(f0.grid, np.random.SeedSequence(seed), real=True)
    base, base_rep = duhamel_picard(f0, config)
    params = config.params
    report = ExperimentReport(
        experiment="perturbation-check",
        columns=["delta", "sup_diff", "ratio"],
        seed=seed,
        grid_desc=repr(f0.grid),
        extra={"T": base_rep.t_final, "s": params.s, "r": params.r},
    )
    if not base_rep.converged:
        raise RuntimeError("base solve did not converge: " + base_rep.message)
    T = base_rep.t_final
    keep = np.abs(base.times) <= T + 1e-12
    for delta in deltas:
        pert = PhaseField(f0.grid, f0.data + delta * g.data)
        sol, rep = duhamel_picard(pert, config)
        if not rep.converged or rep.t_final != base_rep.t_final:
            raise RuntimeError("perturbed solve incompatible with base solve")
        sup_diff = 0.0
        for j in np.flatnonzero(keep):
            d = PhaseField(f0.grid, sol.data[j] - base.data[j])
            sup_diff = max(sup_diff, sobolev_norm(d, params.s, params.r))
        report.add_row(float(delta), sup_diff, sup_diff / delta)
    report.validate_finite()
    report.wall_clock = time.time() - t0
    return report


def positivity_check(traj: Trajectory, threshold: float, t_limit) -> dict:
    """Minimum of the synthesized physical density over (t, x, v) at the
    samples with |t| <= t_limit (all samples if t_limit is None); passes
    iff min >= -threshold.  Honest detector: negative lobes in the data
    are reported as failures."""
    worst = np.inf
    imag = 0.0
    for j, t in enumerate(traj.times):
        if t_limit is not None and abs(t) > t_limit + 1e-12:
            continue
        vals = x_synthesize(traj.slice_field(j))
        worst = min(worst, float(np.min(vals.real)))
        imag = max(imag, float(np.max(np.abs(vals.imag))))
    return {
        "min_value": worst,
        "max_imag": imag,
        "threshold": threshold,
        "passed": bool(worst >= -threshold),
    }


def conservation_drift(traj: Trajectory, t_limit) -> dict:
    """Relative drift of total mass, momentum, and energy across the
    samples with |t| <= t_limit (all samples if t_limit is None), from
    x-integrated velocity moments."""
    g = traj.grid
    dxd = g.dx**g.d
    rows = []
    for j, t in enumerate(traj.times):
        if t_limit is not None and abs(t) > t_limit + 1e-12:
            continue
        mass, mom, energy = moments(traj.slice_field(j))
        rows.append(
            (
                float(t),
                float(np.real(mass.sum() * dxd)),
                [float(np.real(mom[..., i].sum() * dxd)) for i in range(g.d)],
                float(np.real(energy.sum() * dxd)),
            )
        )
    t_ref, m0, p0, e0 = rows[len(rows) // 2]
    mass_drift = max(abs(r[1] - m0) for r in rows) / max(abs(m0), 1e-300)
    mom_drift = max(
        abs(r[2][i] - p0[i]) for r in rows for i in range(g.d)
    ) / max(abs(m0), 1e-300)
    energy_drift = max(abs(r[3] - e0) for r in rows) / max(abs(e0), 1e-300)
    return {
        "samples": rows,
        "mass_drift": mass_drift,
        "momentum_drift": mom_drift,
        "energy_drift": energy_drift,
    }
