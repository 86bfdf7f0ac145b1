"""Spectral collision operator vs the physical-space oracle.

Shows the Bobylev-form gain converging to the slow scattering
quadrature under joint grid/node refinement, and the Maxwellian
annihilating the full operator.  Runs in under a minute.
"""

import numpy as np

from kflab import (
    PhaseField,
    collide,
    gain_bobylev,
    gain_direct_oracle,
    make_grid,
    maxwellian_perturbed,
    moments,
    sphere_quadrature,
)


def smooth_field(grid) -> PhaseField:
    vv = grid.v_vectors().reshape((grid.v_points,) * grid.d + (grid.d,))
    mu = np.exp(-np.sum(vv**2, axis=-1))
    data = np.zeros(grid.shape, dtype=np.complex128)
    data[(0,) * grid.d] = mu * (1.0 + 0.25 * np.sin(vv[..., 0]))
    data[(1,) + (0,) * (grid.d - 1)] = 0.15 * mu
    data[(-1 % grid.n_modes,) + (0,) * (grid.d - 1)] = 0.15 * mu
    return PhaseField(grid, data)


def main() -> None:
    print("gain refinement ladder (v_points, circle nodes) -> relative L2 error")
    for v_points, nodes in ((16, 16), (24, 32), (32, 64)):
        grid = make_grid(d=2, n_modes=4, v_points=v_points, v_extent=6.0)
        quad = sphere_quadrature(2, nodes)
        f = smooth_field(grid)
        fast = gain_bobylev(f, f, quad)
        slow = gain_direct_oracle(f, f, quad)
        err = np.sqrt(np.sum(np.abs(fast.data - slow.data) ** 2))
        err /= np.sqrt(np.sum(np.abs(slow.data) ** 2))
        print(f"  ({v_points:2d}, {nodes:2d}) -> {err:.3e}")

    print("Maxwellian equilibrium: ||Q(mu, mu)|| / ||Q+(mu, mu)||")
    for v_points in (16, 24, 32):
        grid = make_grid(d=2, n_modes=4, v_points=v_points, v_extent=6.0)
        quad = sphere_quadrature(2, 32)
        mu = maxwellian_perturbed(grid, eps=0.0)
        q = collide(mu, quad)
        gain = gain_bobylev(mu, mu, quad)
        mass, _, _ = moments(q)
        print(
            f"  v_points={v_points:2d}: residual {q.l2_norm() / gain.l2_norm():.3e}, "
            f"mass of Q {np.max(np.abs(mass)):.1e}"
        )


if __name__ == "__main__":
    main()
