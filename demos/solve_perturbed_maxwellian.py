"""Solve the kinetic equation for a perturbed Maxwellian and verify it.

Walks the full production path: build eps-perturbed Maxwellian data,
Picard-iterate the cutoff Duhamel map, cross-check against the
interaction-picture integrator, then audit positivity and the
conserved moments.  Runs in about two minutes on one core.
"""

from dataclasses import replace

import numpy as np

from kflab import (
    SolverConfig,
    conservation_drift,
    duhamel_picard,
    integrate_interaction_picture,
    make_grid,
    maxwellian_perturbed,
    positivity_check,
    sphere_quadrature,
    sup_l2_difference,
)
from kflab.solver import POSITIVITY_THRESHOLD


def main() -> None:
    grid = make_grid(d=2, n_modes=4, v_points=24, v_extent=6.0)
    quad = sphere_quadrature(2, 16)
    f0 = maxwellian_perturbed(grid, eps=0.1, mode=(1, 0))
    config = SolverConfig(
        grid=grid, T=0.125, dt=0.125 / 16, quad=quad, max_picard=20, tol=1e-10
    )

    print("Picard iteration of the cutoff Duhamel map")
    traj, report = duhamel_picard(f0, config)
    print(f"  converged: {report.converged} after {len(report.deltas_sup)} steps")
    print(f"  window halvings: {report.halvings}, final T = {report.t_final}")
    print("  contraction ratios:", [round(r, 3) for r in report.ratios()[:6]], "...")

    print("Independent cross-check (interaction-picture one-step method)")
    Tf = report.t_final
    rk_config = replace(config, T=Tf, dt=traj.dt)
    rk = integrate_interaction_picture(f0, rk_config)
    print(f"  sup L2 difference on |t| <= {Tf}: {sup_l2_difference(traj, rk):.3e}")

    pos = positivity_check(traj, POSITIVITY_THRESHOLD, Tf)
    print(f"Positivity: min density {pos['min_value']:.3e}")
    drift = conservation_drift(traj, Tf)
    print(
        f"Conservation drift: mass {drift['mass_drift']:.2e}, "
        f"momentum {drift['momentum_drift']:.2e}, "
        f"energy {drift['energy_drift']:.2e}"
    )


if __name__ == "__main__":
    main()
