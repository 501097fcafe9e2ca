"""Exact spectra of scaled step potentials rebuilt from periodic orbits.

The package computes the quantum spectrum of a particle in a box whose
potential is a step scaling with the energy, maps the same system onto a
directed-graph scattering matrix, reconstructs the level density from
Newtonian and non-Newtonian periodic orbits, and verifies the exact
combinatorial identities behind that reconstruction.

The public names below are exported lazily (PEP 562): ``raysplit.find_roots``
imports ``raysplit.spectrum`` on first use, so importing the package, or one
layer of it, loads no other layer.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "model": ("NStepPotential", "build_nstep", "build_potential", "interface_coefficients",
              "step_parameters"),
    "spectrum": ("CompletenessError", "CompletenessReport", "SpectrumResult", "find_roots",
                 "secular_function"),
    "orbits": ("OrbitClass", "action_spectrum", "amplitude", "orbit_classes", "orbit_table",
               "primitive_count"),
    "graph": ("build_smatrix", "det_one_minus_s", "trace_powers"),
    "trace": ("DensityProfile", "cycle_expansion", "newtonian_prediction", "rho_resummed",
              "rho_trace", "trace_formula", "zeta"),
    "analysis": ("FourierProfile", "PeakMatchReport", "default_s_spacing", "default_tolerance",
                 "detect_peaks", "fourier_transform", "match_peaks"),
    "combinatorics": ("PoissonCaseReport", "binomial_sums", "poisson_special_case_check",
                      "sum_rule_polynomial"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
