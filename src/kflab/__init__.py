"""Spectral solver and numerical verification lab for the periodic
constant-kernel collisional kinetic equation in its velocity-dual
(hyperbolic Schroedinger) form.

Layers: discrete phase-space transforms (grid), the free propagator
(propagator), gain/loss collision operators with a slow physical-space
oracle (collision), dyadic frequency calculus (lp), discrete function
space norms including the restriction norm (norms, trajectory),
lattice-slab measure estimates (counting), bounded-ratio experiment
drivers (lab), the Picard/Duhamel solver with cross-check integrator
(solver), and a batch CLI (cli).
"""

from .conventions import VERSION as CONVENTIONS_VERSION, sphere_area
from .grid import (
    GridSpec,
    PhaseField,
    conjugate_symmetry_defect,
    embed_modes,
    load_field,
    make_grid,
    random_field,
    restrict_modes,
    save_field,
    v_to_xi,
    x_analyze,
    x_synthesize,
    xi_phase_matrix,
    xi_to_v,
)
from .propagator import free_evolve
from .collision import (
    SphereQuadrature,
    collide,
    gain_bobylev,
    gain_direct_oracle,
    loss_bobylev,
    moments,
    sphere_quadrature,
)
from .lp import (
    bump,
    bump_psi,
    project_modulation,
    project_v_dyadic,
    project_x_block,
    project_x_shell,
)
from .trajectory import (
    Trajectory,
    duhamel_integral,
    make_trajectory,
    sample_free_evolution,
)
from .norms import (
    NormParams,
    apply_time_cutoff,
    default_params,
    l2_spacetime_norm,
    psi_window_hb,
    sobolev_norm,
    xsb_norm,
)
from .counting import (
    LevelSetQuery,
    bound_rhs,
    counting_sweep,
    measure_level_set,
    measure_level_set_exact_1d,
)
from .reports import ExperimentReport
from .lab import (
    bilinear_modulation_check,
    gain_estimate_check,
    holder_gain_check,
    linear_xsb_checks,
    loglog_slope,
    loss_estimate_check,
    psi_delta_scaling,
    random_block_field,
    strichartz_gauge_check,
    strichartz_scan,
)
from .solver import (
    IterationReport,
    SolverConfig,
    conservation_drift,
    duhamel_picard,
    integrate_interaction_picture,
    maxwellian_perturbed,
    perturbation_experiment,
    positivity_check,
    sup_l2_difference,
)

__version__ = "0.1.0"
