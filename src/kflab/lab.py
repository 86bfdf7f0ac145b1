"""Experiment drivers: bounded-ratio verification sweeps.

Each driver measures an estimate of the form LHS <= C * RHS on random
Gaussian block data and reports the ratio LHS/RHS per trial.  The
sweeps test boundedness (log-log slopes across dyadic scales), never a
specific constant.  All drivers are deterministic given (seed,
parameters, grid).
"""

from __future__ import annotations

import time

import numpy as np

from .collision import SphereQuadrature, gain_bobylev, loss_bobylev
from .grid import (
    GridSpec,
    PhaseField,
    _complex_normal,
    make_grid,
    random_field,
    v_to_xi,
    x_synthesize,
)
from .lp import (
    _shell_mask,
    bump_psi,
    modulation_mask,
    project_v_dyadic,
    project_x_block,
    project_x_shell,
    v_multiplier,
)
from .norms import (
    NormParams,
    apply_time_cutoff,
    l2_spacetime_norm,
    psi_window_hb,
    sobolev_norm,
    time_profile_hb,
    xsb_norm,
    _slice_l4_xi_4,
)
from .propagator import _free_flow
from .reports import ExperimentReport
from .trajectory import (
    Trajectory,
    _tau_grid,
    _trapz_weights,
    duhamel_integral,
    make_trajectory,
    sample_free_evolution,
    time_idft,
)

__all__ = [
    "loglog_slope",
    "random_block_field",
    "random_multiblock_field",
    "strichartz_scan",
    "strichartz_gauge_check",
    "bilinear_modulation_check",
    "loss_estimate_check",
    "gain_estimate_check",
    "holder_gain_check",
    "linear_xsb_checks",
    "psi_delta_scaling",
]


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _trial_seed(root, *key) -> np.random.SeedSequence:
    # root may itself be a SeedSequence; extend its spawn key instead of
    # nesting (SeedSequence entropy must be an int)
    key = tuple(int(k) for k in key)
    if isinstance(root, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=root.entropy, spawn_key=tuple(root.spawn_key) + key
        )
    return np.random.SeedSequence(entropy=root, spawn_key=key)


def _localize_block(grid: GridSpec, data: np.ndarray, N: int, M: int) -> None:
    """Multiply the x-shell N, then the velocity bump M, into ``data``
    (trailing axes grid.shape) in place: the bits of project_v_dyadic
    after project_x_shell, without their full-size results."""
    shell = _shell_mask(grid, N)
    data *= shell.reshape(shell.shape + (1,) * grid.d)
    data *= v_multiplier(grid, M)


def random_block_field(grid: GridSpec, N: int, M: int, seed) -> PhaseField:
    """Unit-normalized Gaussian field localized to the x-shell N and the
    velocity dyadic M (smooth cutoff): one _complex_normal draw,
    localized and normalized in place."""
    if 2 * M > grid.v_extent:
        raise ValueError(f"velocity scale M={M} does not fit in [-V, V)")
    fld = PhaseField(grid, _complex_normal(np.random.default_rng(seed), grid.shape))
    _localize_block(grid, fld.data, N, M)
    nrm = fld.l2_norm()
    if nrm == 0:
        raise ValueError("localization annihilated the field (empty block)")
    fld.data /= nrm
    return fld


def random_multiblock_field(grid: GridSpec, seed) -> PhaseField:
    """Unit-normalized sum of independent block fields over all
    representable dyadic (N, M) pairs (generic localized test data)."""
    total = np.zeros(grid.shape, dtype=np.complex128)
    N = 1
    part = 0
    while N <= grid.n_modes // 2:
        M = 1
        while 2 * M <= grid.v_extent:
            blk = random_block_field(grid, N, M, _trial_seed(seed, N, M, part))
            total += blk.data
            M *= 2
        N *= 2
    fld = PhaseField(grid, total)
    return PhaseField(grid, fld.data / fld.l2_norm())


def _strichartz_rhs(d: int, N: int, M: int) -> float:
    return max(float(M) ** d, (M * N) ** (d - 1) * np.log(1.0 + N))


def _cell_grid(grid: GridSpec, N: int, M: int, margin: int = 0) -> GridSpec:
    """Subgrid just large enough for one (N, M) cell, keeping the
    caller's velocity spacing (exactness of the norms is resolution
    independent, so this only buys speed)."""
    n_modes = min(grid.n_modes, 2 * N + 2 * margin)
    v_extent = min(grid.v_extent, 2.0 * M)
    v_points = int(round(2.0 * v_extent / grid.dv))
    v_points += v_points % 2
    v_extent = v_points * grid.dv / 2.0
    return make_grid(grid.d, max(2, n_modes), v_extent, max(2, v_points))


def _free_l4_norm(grid: GridSpec, data: np.ndarray, t_half: float, n_time: int) -> float:
    """L4 over (t, x, xi) of the free evolution of the coefficients
    ``data`` (shape grid.shape), streaming over time slices (exact quartic
    xi-integral per slice).

    Runs in data's dtype and never copies it: complex64 data (the scan's
    speed) keep single precision, complex128 data (the gauge-identity
    regression) double.  Each slice is propagator._free_flow of the data
    into one reused buffer, so no full-grid phase is built and the
    working set is data plus one slice plus one padded x-row.
    """
    from scipy import fft as sfft

    d = grid.d
    dt = 2.0 * t_half / (n_time - 1)
    tw = _trapz_weights(n_time, dt)
    slice_data = np.empty_like(data)
    total = 0.0
    for j in range(n_time):
        t = -t_half + j * dt
        _free_flow(data, grid, t, out=slice_data)
        # slice_data is refilled from data on every slice, so the
        # x-synthesis may overwrite it
        vals = sfft.ifftn(slice_data, axes=grid.n_axes, norm="forward", overwrite_x=True)
        total += tw[j] * grid.dx**d * _slice_l4_xi_4(vals, grid)
    return float(total**0.25)


def strichartz_scan(
    grid: GridSpec, Ns, Ms, trials: int, T: float, seed: int, n_time: int
) -> ExperimentReport:
    """Dispersive L4 bound for free evolutions of (N, M)-block data:
    ratio = |S(t)phi|_L4(t,x,xi) / (max{M^d,(MN)^(d-1)log(1+N)}^(1/4)
    |phi|_L2(x,xi)).  Each cell runs on its _cell_grid; the complex128
    field is dropped before the complex64 L4 time loop."""
    t0 = time.time()
    report = ExperimentReport(
        experiment="strichartz-scan",
        columns=["N", "M", "trial", "lhs", "rhs", "ratio"],
        seed=seed,
        grid_desc=repr(grid),
        extra={"T": T, "n_time": n_time},
    )
    for N in Ns:
        for M in Ms:
            cell = _cell_grid(grid, N, M)
            for trial in range(trials):
                phi = random_block_field(cell, N, M, _trial_seed(seed, N, M, trial))
                l2 = (2.0 * np.pi) ** cell.d * phi.l2_norm()
                data = phi.data.astype(np.complex64)
                del phi
                lhs = _free_l4_norm(cell, data, T, n_time)
                del data
                rhs = _strichartz_rhs(cell.d, N, M) ** 0.25 * l2
                report.add_row(N, M, trial, lhs, rhs, lhs / rhs)
    report.validate_finite()
    report.wall_clock = time.time() - t0
    return report


def strichartz_gauge_check(
    grid: GridSpec, N: int, M: int, shift, trials: int, T: float, seed: int, n_time: int
) -> ExperimentReport:
    """Frequency-center shift is an exact gauge transformation: the L4
    ratio of a block field centered at 0 equals the ratio of the same
    coefficients translated to center `shift`, to rounding."""
    t0 = time.time()
    shift = np.asarray(shift, dtype=np.int64)
    margin = int(np.max(np.abs(shift)))
    cell = _cell_grid(grid, N, M, margin=margin)
    report = ExperimentReport(
        experiment="strichartz-gauge",
        columns=["N", "M", "trial", "ratio_center", "ratio_shift", "defect"],
        seed=seed,
        grid_desc=repr(cell),
        extra={"shift": str(tuple(int(a) for a in shift)), "T": T},
    )
    rhs = _strichartz_rhs(cell.d, N, M) ** 0.25
    for trial in range(trials):
        rng = np.random.default_rng(_trial_seed(seed, N, M, trial))
        data = _complex_normal(rng, cell.shape)
        base = project_v_dyadic(
            project_x_block(PhaseField(cell, data), np.zeros(cell.d, int), N), M
        )
        base = PhaseField(cell, base.data / base.l2_norm())
        moved = PhaseField(cell, np.roll(base.data, tuple(shift), axis=cell.n_axes))
        r0 = _free_l4_norm(cell, base.data, T, n_time) / (rhs * (2 * np.pi) ** cell.d)
        r1 = _free_l4_norm(cell, moved.data, T, n_time) / (rhs * (2 * np.pi) ** cell.d)
        report.add_row(N, M, trial, r0, r1, abs(r0 - r1) / max(r0, r1))
    report.validate_finite("ratio_center")
    report.wall_clock = time.time() - t0
    return report


def _random_modulation_field(
    grid: GridSpec, t_half: float, n_samples: int, N: int, M: int, K: int, seed
) -> Trajectory:
    """Random trajectory synthesized directly on the (tau', n, v) grid,
    localized by Q_K and the (N, M) block (bandlimited by construction)."""
    carrier = make_trajectory(grid, t_half, n_samples)
    tau = _tau_grid(n_samples, carrier.dt)
    rng = np.random.default_rng(seed)
    shape = (n_samples,) + grid.shape
    coeffs = _complex_normal(rng, shape)
    mask_t = modulation_mask(tau, K)
    coeffs *= mask_t[(...,) + (None,) * (2 * grid.d)]
    traj = time_idft(carrier, coeffs)
    _localize_block(grid, traj.data, N, M)
    nrm = l2_spacetime_norm(traj)
    if nrm > 0:
        traj.data /= nrm
    return traj


def _product_l2(t1: Trajectory, t2: Trajectory) -> float:
    """L2 over (t, x, xi) of the pointwise product of two trajectories."""
    g = t1.grid
    tw = _trapz_weights(t1.n_samples, t1.dt)
    total = 0.0
    for j in range(t1.n_samples):
        a = x_synthesize(PhaseField(g, v_to_xi(t1.slice_field(j))))
        b = x_synthesize(PhaseField(g, v_to_xi(t2.slice_field(j))))
        total += tw[j] * g.dx**g.d * g.dxi**g.d * np.sum(np.abs(a * b) ** 2)
    return float(np.sqrt(total))


def bilinear_modulation_check(
    grid: GridSpec, N: int, M: int, K1s, K2s, trials: int, seed: int, t_half: float,
    n_samples: int,
) -> ExperimentReport:
    """Bilinear L2 bound for modulation-localized fields: ratio =
    |u1 u2|_L2 / (sqrt(K1 K2) max{M^d,(MN)^(d-1)log(1+N)}^(1/2)
    |u1|_L2 |u2|_L2).  Fields are seeded by (trial, K) only, so the
    (K1, K2) swap reuses the exact same pair."""
    t0 = time.time()
    report = ExperimentReport(
        experiment="bilinear-check",
        columns=["N", "M", "K1", "K2", "trial", "lhs", "rhs", "ratio"],
        seed=seed,
        grid_desc=repr(grid),
        extra={"t_half": t_half, "n_samples": n_samples},
    )
    cache = {}
    for trial in range(trials):
        for K in sorted(set(K1s) | set(K2s)):
            cache[(trial, K)] = _random_modulation_field(
                grid, t_half, n_samples, N, M, K, _trial_seed(seed, trial, K)
            )
    for K1 in K1s:
        for K2 in K2s:
            for trial in range(trials):
                u1, u2 = cache[(trial, K1)], cache[(trial, K2)]
                lhs = _product_l2(u1, u2)
                rhs = float(
                    np.sqrt(K1 * K2 * _strichartz_rhs(grid.d, N, M))
                    * l2_spacetime_norm(u1)
                    * l2_spacetime_norm(u2)
                )
                report.add_row(N, M, K1, K2, trial, lhs, rhs, lhs / rhs)
    report.validate_finite()
    report.wall_clock = time.time() - t0
    return report


def _cutoff_free_trajectory(
    grid: GridSpec, T: float, n_samples: int, seed
) -> Trajectory:
    """psi_T-cutoff free evolution of random multi-block data on the
    window [-2T, 2T] (the support of psi_T)."""
    phi = random_multiblock_field(grid, seed)
    traj = sample_free_evolution(phi, 2.0 * T, n_samples)
    return apply_time_cutoff(traj, "psi_T", T)


# window samples and modulation exponent of the loss/gain estimate checks
_ESTIMATE_SAMPLES = 17
_ESTIMATE_B = 0.55


def _bilinear_collision_check(
    name: str, apply_op, grid: GridSpec, s: float, r: float, Ts, trials: int, seed: int
) -> ExperimentReport:
    t0 = time.time()
    n_samples, b = _ESTIMATE_SAMPLES, _ESTIMATE_B
    report = ExperimentReport(
        experiment=name,
        columns=["T", "trial", "lhs", "rhs", "ratio"],
        seed=seed,
        grid_desc=repr(grid),
        extra={"s": s, "r": r, "b": b},
    )
    params = NormParams(s=s, r=r, b=b)
    for T in Ts:
        for trial in range(trials):
            f = _cutoff_free_trajectory(grid, T, n_samples, _trial_seed(seed, 0, trial, int(1e3 * T)))
            g = _cutoff_free_trajectory(grid, T, n_samples, _trial_seed(seed, 1, trial, int(1e3 * T)))

            def op_norm(j: int) -> float:
                out = apply_op(f.slice_field(j), g.slice_field(j))
                return sobolev_norm(out, s, r)

            lhs = _restricted_l2_sobolev_op(op_norm, f, T)
            rhs = T**0.25 * xsb_norm(f, params) * xsb_norm(g, params)
            report.add_row(T, trial, lhs, rhs, lhs / rhs)
    report.validate_finite()
    report.wall_clock = time.time() - t0
    return report


def _restricted_l2_sobolev_op(op_norm, traj: Trajectory, T: float) -> float:
    keep = np.abs(traj.times) <= T + 1e-12
    idx = np.flatnonzero(keep)
    tw = _trapz_weights(len(idx), traj.dt)
    total = 0.0
    for k, j in enumerate(idx):
        total += tw[k] * op_norm(int(j)) ** 2
    return float(np.sqrt(total))


def loss_estimate_check(
    grid: GridSpec, s: float, r: float, Ts, trials: int, seed: int
) -> ExperimentReport:
    """Loss-term bilinear bound: |Q-(f,g)|_{L2_T H^{s,r}} <=
    C T^(1/4) |f|_X |g|_X on cutoff free evolutions."""
    return _bilinear_collision_check(
        "loss-check", lambda a, b: loss_bobylev(a, b), grid, s, r, Ts, trials, seed
    )


def gain_estimate_check(
    grid: GridSpec, s: float, r: float, Ts, trials: int, seed: int, quad: SphereQuadrature
) -> ExperimentReport:
    """Gain-term bilinear bound, same harness as the loss term."""
    return _bilinear_collision_check(
        "gain-check", lambda a, b: gain_bobylev(a, b, quad), grid, s, r, Ts, trials, seed
    )


def _lpxi_norm_per_x(fld: PhaseField, p: float) -> np.ndarray:
    """L^p_xi norm at every x-node, shape (n_modes,)*d."""
    g = fld.grid
    vals = x_synthesize(PhaseField(g, v_to_xi(fld)))
    return (g.dxi**g.d * np.sum(np.abs(vals) ** p, axis=g.v_axes)) ** (1.0 / p)


# (N1, M1, N2, M2) block scales of the Hoelder gain check
_HOLDER_SCALES = ((1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 2))


def holder_gain_check(
    grid: GridSpec, p: float, q: float, trials: int, seed: int, quad: SphereQuadrature
) -> ExperimentReport:
    """Per-x-node Hoelder bound for the gain term over _HOLDER_SCALES:
    |P_{N,M} Q+(P_{N1,M1}f, P_{N2,M2}g)|_{L^r_xi} <=
    C |P_{N1,M1}f|_{L^p_xi} |P_{N2,M2}g|_{L^q_xi}, 1/r = 1/p + 1/q."""
    if p <= 1.5 or q <= 1.5:
        raise ValueError("need p, q > 3/2")
    inv_r = 1.0 / p + 1.0 / q
    if inv_r > 1.0:
        raise ValueError("need 1/p + 1/q <= 1")
    r_exp = 1.0 / inv_r
    t0 = time.time()
    report = ExperimentReport(
        experiment="holder-check",
        columns=["N1", "M1", "N2", "M2", "trial", "lhs", "rhs", "ratio"],
        seed=seed,
        grid_desc=repr(grid),
        extra={"p": p, "q": q, "r": r_exp},
    )
    for N1, M1, N2, M2 in _HOLDER_SCALES:
        for trial in range(trials):
            f = random_block_field(grid, N1, M1, _trial_seed(seed, 0, trial, N1, M1))
            g = random_block_field(grid, N2, M2, _trial_seed(seed, 1, trial, N2, M2))
            out = gain_bobylev(f, g, quad)
            out = project_v_dyadic(project_x_shell(out, N1), max(M1, M2))
            lhs_x = _lpxi_norm_per_x(out, r_exp)
            rhs_x = _lpxi_norm_per_x(f, p) * _lpxi_norm_per_x(g, q)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(rhs_x > 0, lhs_x / np.maximum(rhs_x, 1e-300), 0.0)
            lhs, rhs = float(np.max(lhs_x)), float(np.max(rhs_x))
            report.add_row(N1, M1, N2, M2, trial, lhs, rhs, float(np.max(ratios)))
    report.validate_finite()
    report.wall_clock = time.time() - t0
    return report


def linear_xsb_checks(
    grid: GridSpec, s: float, r: float, b: float, seed: int, t_half: float, n_samples: int
) -> ExperimentReport:
    """Linear restriction-norm estimates on random data:
    (b2) |psi S(t)g|_X / |g|_{H^{s,r}} (= |psi|_{H^b} exactly),
    (b3) Duhamel: |psi int_0^t S(t-t') F dt'|_X / |F|_{X^{s,r,b-1}},
    (b4) |F|_{X^{s,r,b-1}} / |F|_{L2_t H^{s,r}} (<= 1 row-wise when b <= 1)."""
    t0 = time.time()
    params = NormParams(s=s, r=r, b=b)
    params_low = NormParams(s=s, r=r, b=b - 1.0)
    report = ExperimentReport(
        experiment="linear-check",
        columns=["estimate", "lhs", "rhs", "ratio"],
        seed=seed,
        grid_desc=repr(grid),
        extra={"s": s, "r": r, "b": b, "t_half": t_half, "n_samples": n_samples},
    )
    rng_seq = _trial_seed(seed, 0)
    phi = random_field(grid, rng_seq)
    free = apply_time_cutoff(sample_free_evolution(phi, t_half, n_samples), "psi")
    lhs = xsb_norm(free, params)
    rhs = sobolev_norm(phi, s, r)
    oracle = psi_window_hb(t_half, n_samples, b)
    report.add_row("b2", lhs, rhs, lhs / rhs)
    report.extra["b2_oracle"] = oracle

    forcing = _cutoff_free_trajectory(grid, t_half / 4.0, n_samples, _trial_seed(seed, 1))
    dh = duhamel_integral(forcing)
    dh = apply_time_cutoff(dh, "psi")
    lhs3 = xsb_norm(dh, params)
    rhs3 = xsb_norm(forcing, params_low)
    report.add_row("b3", lhs3, rhs3, lhs3 / rhs3)

    lhs4 = xsb_norm(forcing, params_low)
    tw = _trapz_weights(forcing.n_samples, forcing.dt)
    rhs4 = float(
        np.sqrt(
            sum(
                tw[j] * sobolev_norm(forcing.slice_field(j), s, r) ** 2
                for j in range(forcing.n_samples)
            )
        )
    )
    report.add_row("b4", lhs4, rhs4, lhs4 / rhs4)
    report.validate_finite()
    report.wall_clock = time.time() - t0
    return report


# cutoff widths, window half-width and samples of psi_delta_scaling
_PSI_DELTAS = tuple(2.0 ** -np.arange(1, 7))
_PSI_T_HALF = 2.0
_PSI_SAMPLES = 4097


def psi_delta_scaling(b: float) -> ExperimentReport:
    """Two-power scaling of the rescaled cutoff: |psi_delta|_{L2} ~
    delta^(1/2) and |psi_delta|_{Hdot^b} ~ delta^(1/2-b); fitted
    log-log slopes are stored in the report header."""
    t0 = time.time()
    t_half, n_samples = _PSI_T_HALF, _PSI_SAMPLES
    report = ExperimentReport(
        experiment="psi-delta-scaling",
        columns=["delta", "l2", "hdotb"],
        extra={"b": b, "t_half": t_half, "n_samples": n_samples},
    )
    for d in _PSI_DELTAS:
        t = np.linspace(-t_half, t_half, n_samples)
        prof = bump_psi(t / d)
        l2 = time_profile_hb(prof, t_half, 0.0)
        hb = psi_window_hb(t_half, n_samples, b, delta=d, homogeneous=True)
        report.add_row(float(d), l2, hb)
    report.extra["slope_l2"] = loglog_slope(report.column("delta"), report.column("l2"))
    report.extra["slope_hdotb"] = loglog_slope(
        report.column("delta"), report.column("hdotb")
    )
    report.wall_clock = time.time() - t0
    return report
