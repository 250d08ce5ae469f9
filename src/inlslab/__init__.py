"""Radial workbench for weighted nonlinear Schrodinger eigenproblems.

Exponent/regime calculus, a log-radial discretization of the weighted
energy space, the first nonlinear eigenvalue lambda_1 from minimizing the
quotient I/J, negative-level minimization of coercive subscaled
energies, and Pohozaev-based verification of computed solutions.

The public names resolve lazily (PEP 562): `import inlslab` loads no
submodule, and the first use of a name imports the module that defines
it. The scalar exponent calculus (exponents and regimes) runs without
numpy, so a program that uses only it never loads numpy.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "Diverged DomainError EmptyGridError HypothesisViolation InlsError "
    "NotCoerciveConfig SearchFailed SingularHessian ZeroProfileError",
    "functionals": "FunctionalReport TermSpec I_energy J_energy eigen_relation_residual "
    "el_residual functional_report grad_phi phi pohozaev_residual project_to_M rayleigh "
    "scale_profile",
    "grid": "ProfileFamily RadialGrid RadialProfile dirichlet_energy load_profile make_grid "
    "sample_function save_profile scale sphere_area weighted_integral",
    "exponents": "Params critical_exponent derive_params ell_of",
    "regimes": "EmbeddingInterval Regime RegimeVerdict WeightedPair classify_pair gamma_mu_roots "
    "interpolation_pair lower_endpoint nonexistence ps_threshold region_map region_map_csv "
    "scaled_threshold tilde_s_root",
    "solver": "SolveOptions SolveReport minimize_coercive minimize_rayleigh newton_refine "
    "probe_best_constant",
}
#: public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
