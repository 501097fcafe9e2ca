"""Exact spectra of scaled step potentials rebuilt from periodic orbits.

The package computes the quantum spectrum of a particle in a box whose
potential is a step scaling with the energy, maps the same system onto a
directed-graph scattering matrix, reconstructs the level density from
Newtonian and non-Newtonian periodic orbits, and verifies the exact
combinatorial identities behind that reconstruction.
"""

from .model import (
    NStepPotential,
    ScaledStepPotential,
    build_nstep,
    build_potential,
    interface_coefficients,
)
from .spectrum import (
    CompletenessError,
    CompletenessReport,
    SpectrumResult,
    find_roots,
    matching_determinant,
    secular,
    weyl_count,
)
from .orbits import (
    OrbitClass,
    OrbitCode,
    OrbitRecord,
    action_spectrum,
    amplitude,
    canonical_rotation,
    classes_of,
    enumerate_necklaces,
    enumerate_primitive,
    necklace_count,
    orbit_classes,
    orbit_record,
    primitive_count,
)
from .graph import (
    build_smatrix,
    counting_function,
    det_one_minus_s,
    trace_power,
    trace_powers,
)
from .trace import (
    DensityProfile,
    cycle_expansion,
    evaluate_cycle_terms,
    newtonian_prediction,
    rho_resummed,
    rho_trace,
    trace_formula,
    zeta,
)
from .analysis import (
    FourierProfile,
    PeakMatchReport,
    default_s_spacing,
    default_tolerance,
    detect_peaks,
    fourier_transform,
    match_peaks,
)
from .combinatorics import (
    PoissonCaseReport,
    WordClass,
    WordClassTable,
    binomial_sums,
    build_word_table,
    poisson_special_case_check,
    sum_rule_polynomial,
    verify_sum_rule,
)

__version__ = "0.1.0"

__all__ = [
    "NStepPotential",
    "ScaledStepPotential",
    "build_nstep",
    "build_potential",
    "interface_coefficients",
    "CompletenessError",
    "CompletenessReport",
    "SpectrumResult",
    "find_roots",
    "matching_determinant",
    "secular",
    "weyl_count",
    "OrbitClass",
    "OrbitCode",
    "OrbitRecord",
    "action_spectrum",
    "amplitude",
    "canonical_rotation",
    "classes_of",
    "enumerate_necklaces",
    "enumerate_primitive",
    "necklace_count",
    "orbit_classes",
    "orbit_record",
    "primitive_count",
    "build_smatrix",
    "counting_function",
    "det_one_minus_s",
    "trace_power",
    "trace_powers",
    "DensityProfile",
    "cycle_expansion",
    "evaluate_cycle_terms",
    "newtonian_prediction",
    "rho_resummed",
    "rho_trace",
    "trace_formula",
    "zeta",
    "FourierProfile",
    "PeakMatchReport",
    "default_s_spacing",
    "default_tolerance",
    "detect_peaks",
    "fourier_transform",
    "match_peaks",
    "PoissonCaseReport",
    "WordClass",
    "WordClassTable",
    "binomial_sums",
    "build_word_table",
    "poisson_special_case_check",
    "sum_rule_polynomial",
    "verify_sum_rule",
    "__version__",
]
