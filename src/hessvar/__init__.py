"""Finite-difference toolkit for Hessian-dependent variational integrals.

Clamped minimization of convex integrands F(D^2 u) on uniform grids, weak
residuals, and the oscillation/integrability diagnostics of elliptic
regularity theory (BMO modulus, Campanato decay, reverse-Hoelder constants,
singular-set detection), with the gradient-graph volume functional as the
flagship model.
"""

from .grids import (
    Ball,
    BallFamily,
    ScalarGrid,
    SymMatField,
    TestFunctionSet,
    ball_family,
    difference_quotient,
    hessian_field,
    integrate,
    make_grid,
    sample,
)
from .models import (
    EnergyModel,
    area_model,
    custom_model,
    ellipticity_constant,
    eval_F,
    eval_dF,
    eval_d2F,
    linearized_coefficients,
    quadratic_model,
)
from .solver import (
    SolveReport,
    assemble_energy,
    energy_gradient,
    linearized_residual,
    minimize_clamped,
    solve_constant_coeff_bvp,
    weak_residual,
)
from .diagnostics import (
    bmo_modulus,
    campanato_decay,
    fit_p0,
    holder_seminorm,
    iteration_lemma_check,
    john_nirenberg_ratio,
    mean_oscillation,
    reverse_holder_check,
    singular_set,
)
from .hamstat import (
    closed_form_dV,
    convexity_certificate,
    graph_geometry,
    hamstat_residual,
    laplace_beltrami,
    phase_harmonicity_residual,
    volume_integrand,
)

__version__ = "0.1.0"
