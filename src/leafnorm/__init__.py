"""Exact symbolic engine for Poisson structures around a symplectic leaf.

Everything computes over exact rationals; an identity "holds" exactly when
its residual normalizes to the zero rational function.
"""

from .rational import ChartContext, Poly, RatFunc, ratfunc_normalize
from .linalg import MatrixRF, matrix_inverse
from .multivector import (
    DiffForm, Multivector, cotangent_bracket, d_scalar, exterior_derivative,
    hamiltonian, is_poisson, lie_derivative, pairing, poisson_bracket,
    schouten, sharp,
)
from .omega import (
    MixedElement, OMEGA_E, OMEGA_TILDE, INVALID, curvature, dilation, ds_n,
    euler_field, gamma_S, gr_project, is_homogeneous, jet_n, ltimes_bracket,
    p_S, validate_membership,
)
from .vorobjev import (
    AlgebroidData, DiracElement, HorizontalData, LeafCheck,
    MoserPath, algebroid_from_jet, assemble, chain_map_residual, decompose,
    first_jet_model, gamma_dot_1, graded_differential, horizontal_blocks,
    is_horizontally_nondegenerate, leaf_check, linearization_cocycle,
    moser_at, moser_gamma_dot, moser_path, structure_equations, tau,
    tau_inverse,
)
from .models import (
    LieAlgebraData, PeriodModel, aff1, affine_in_params, heisenberg3,
    integer_affine_identity, lattice_discreteness, linear_poisson, monodromy,
    omega_chart, product_poisson, ratio_constancy, so3, sphere_context,
    sphere_example, sphere_period_model,
)
from .dsl import parse, print_program
from .interp import emit, execute

__version__ = "0.1.0"


def __getattr__(name):
    # Q is fractions.Fraction, which loads on first use (rational.Q)
    if name == "Q":
        from .rational import Q
        return Q
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def sphere_pipeline_path():
    """Filesystem path of the shipped sphere pipeline program."""
    import importlib.resources as res
    return str(res.files("leafnorm").joinpath("programs/sphere_pipeline.lnf"))
