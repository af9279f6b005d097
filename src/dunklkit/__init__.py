"""Numerical toolkit for harmonic analysis with reflection symmetry.

Covers the sign-product reflection group and its weighted measures, the deformed
exponential kernel and its compactly supported dual measure, the associated
integral transform, first-order difference-differential operators, the heat
flow, damped (potential-perturbed) semigroups with Riesz transforms, and
Kato-class diagnostics for potentials.  A CLI runs named verification suites
from a config file.

Submodules import lazily so the command line entry point can configure
threading before any numerics load.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "DunklkitError": ".errors",
    "InputError": ".errors",
    "ConfigError": ".errors",
    "CapabilityError": ".errors",
    "RangeError": ".errors",
    "NumericalError": ".errors",
    "IllPosedError": ".errors",
    # reflection
    "RootSystem": ".reflection",
    "sign_flips": ".reflection",
    "weight": ".reflection",
    "gamma_k": ".reflection",
    "orbit_distance": ".reflection",
    "ball_comparison_quantity": ".reflection",
    "ball_bracket_constants": ".reflection",
    "ball_volumes": ".reflection",
    "cube_volumes": ".reflection",
    "unit_ball_cover": ".reflection",
    # grids
    "QuadratureGrid": ".grids",
    "SampledFunction": ".grids",
    "build_grid": ".grids",
    # intertwine
    "OrbitMeasureQuad": ".intertwine",
    "nu_quadrature": ".intertwine",
    "dunkl_kernel": ".intertwine",
    "kernel_series_1d": ".intertwine",
    "kernel_bessel_1d": ".intertwine",
    "scaled_e_real": ".intertwine",
    "phi": ".intertwine",
    "phi_profile": ".intertwine",
    # transform
    "SpectralMatrix": ".transform",
    "c_k": ".transform",
    "build_spectral_matrix": ".transform",
    "dunkl_transform": ".transform",
    "inverse_transform": ".transform",
    "parseval_defect": ".transform",
    "translate_radial": ".transform",
    "convolve": ".transform",
    # operators
    "dunkl_derivative": ".operators",
    "dunkl_derivative_matrix": ".operators",
    "dunkl_laplacian": ".operators",
    "spectral_laplacian": ".operators",
    # heat
    "heat_kernel": ".heat",
    "heat_kernel_matrix": ".heat",
    "heat_apply": ".heat",
    "gaussian_bound_report": ".heat",
    # schrodinger
    "Potential": ".schrodinger",
    "EigenDecomp": ".schrodinger",
    "potential_preset": ".schrodinger",
    "potential_function": ".schrodinger",
    "assemble_L": ".schrodinger",
    "eig": ".schrodinger",
    "resolved_calculus": ".schrodinger",
    "semigroup_apply": ".schrodinger",
    "semigroup_trotter": ".schrodinger",
    "schrodinger_kernel": ".schrodinger",
    "splitting_kernel": ".schrodinger",
    "splitting_steps": ".schrodinger",
    "inv_sqrt_apply": ".schrodinger",
    "inv_sqrt_subordination": ".schrodinger",
    "riesz_apply": ".schrodinger",
    "riesz_matrix": ".schrodinger",
    "weak_type_report": ".schrodinger",
    "weighted_estimate_report": ".schrodinger",
    "scaling_identity_gap": ".schrodinger",
    # kato
    "KatoReport": ".kato",
    "SmoothingReport": ".kato",
    "kato_modulus": ".kato",
    "kato_equivalence_check": ".kato",
    "heat_modulus": ".kato",
    "resolvent_decay": ".kato",
    "growth_bound_check": ".kato",
    "smoothing_norms": ".kato",
    "smoothing_norms_of_kernel": ".kato",
    "classify": ".kato",
    # config / suites
    "RunConfig": ".config",
    "load_config": ".config",
    "Scene": ".suites",
    "REGISTRY": ".suites",
    "run_suites": ".suites",
}


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        mod = importlib.import_module(_EXPORTS[name], __name__)
        return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
