"""Constants sheet: every normalization convention used by the package.

All modules defer to this sheet; cross-oracle tests (spectral gain vs
direct quadrature, Plancherel checks) pin the choices down numerically.

Fourier conventions
-------------------
Position ``x`` lives on the torus ``[0, 2pi)^d`` and carries integer
modes ``n``; velocity ``v`` lives on the uniform grid ``[-V, V)^d`` with
spacing ``dv = 2V / v_points``; the dual variable ``xi`` lives on the
grid with spacing ``dxi = pi / V``.

* x-series:        ``f(x, v) = sum_n fhat(n, v) exp(+i n.x)``
* x-coefficients:  ``fhat(n, v) = (2pi)^-d integral f exp(-i n.x) dx``
                   (discretely: mean over the x-grid with phase).
* v -> xi:         ``ftil(n, xi) = dv^d sum_v fhat(n, v) exp(+i xi.v)``
                   -- a plain Riemann sum with NO 2pi factor, so that
                   ``ftil(n, 0)`` is the discrete v-integral.
* xi -> v:         ``fhat(n, v) = (dxi / 2pi)^d sum_xi ftil(n, xi)
                   exp(-i xi.v)``, the exact discrete inverse.

With these choices ``ftil`` is a trigonometric polynomial in ``xi``,
periodic with period ``2pi/dv`` per axis, and the discrete Plancherel
identity reads ``dxi^d sum_xi |ftil|^2 = (2pi)^d dv^d sum_v |fhat|^2``.
The off-grid evaluator, ``grid.xi_phase_matrix``, uses the identical sum
at arbitrary ``xi``; it also evaluates on given per-axis nodes, such as
the gain's half-cell-shifted grid ``w = v + dv/2``, whose phase
``exp(-i (dv/2) sum_a xi_a)`` the gain restores in its transform back to
``v``.

Collision constants
-------------------
The loss term is ``SPHERE_AREA(d) * f(v) * integral g(u) du``; the gain
term is the sphere integral of ``ftil(xi_plus) * gtil(xi_minus)`` with
``xi_pm = (xi +- |xi| omega) / 2``.  With the v->xi convention above the
two sides carry no extra constant, and the Maxwellian ``exp(-|v|^2)`` is
an equilibrium of the continuous operator, which is the test that pins
the sheet.  On the grid it is not exact: the discrete residual
``|Q_N(mu, mu)| / |Q+_N(mu, mu)|`` falls spectrally with the velocity
count P, from 5.9e-3 on the shipped solve grid (d=2, n_modes 8, V=6,
P=16, 16 nodes) to 1.3e-8 at P=32 with 32 nodes.  Making it an exact
discrete equilibrium is ROADMAP item 2.

Discrete norms
--------------
* ``l2_n L2_v``:  ``(sum_n dv^d sum_v |fhat|^2)^(1/2)`` -- plain sum over
  modes, Riemann sum over v (no x-measure factor).
* Bracket:        ``<z> = (1 + |z|^2)^(1/2)`` everywhere.
* Time norms use the trapezoid rule on the uniform sample grid; the time
  transform acts on sqrt-trapezoid-weighted samples, so its Parseval
  identity reproduces the trapezoid rule exactly.
* The Duhamel integral ``int_0^t`` is a fourth-order 4-point rule in the
  interaction frame: ``dt/24 (-1, 13, 13, -1)`` per interior interval,
  the one-sided ``dt/24 (9, 19, -5, 1)`` on the window's end intervals.
* ``log N`` in the counting bound is implemented as ``log(1 + N)``.

VERSION bumps whenever any convention above changes; experiment report
headers record it.
"""

import math

VERSION = "1"


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2pi for d=2, 4pi for d=3)."""
    if d == 2:
        return 2.0 * math.pi
    if d == 3:
        return 4.0 * math.pi
    raise ValueError(f"dimension must be 2 or 3, got {d}")
