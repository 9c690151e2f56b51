"""Computational model of the monodromy locus in a universal centralizer.

Modules:
  core        structural matrices, characteristic polynomial, inverse, expm
  connection  connection-form coefficient and its symmetries
  stokes      Stokes factors, the section, the root-set pair
  involutions the two twisting involutions and the fixed-locus test
  groupoid    groupoid structure maps, sampling, tangent spaces
  symplectic  the 2-form and its verification machinery
  bondal      triangular-pair groupoid and the embedding
  report/cli  verification suites and the command-line front end
"""

from .core import (
    char_poly,
    determinant,
    inverse,
    is_regular,
    structural_matrices,
)
from .stokes import (
    build_M,
    build_Q,
    build_S,
    derive_root_sets,
    section_membership,
    stokes_params_of,
)
from .involutions import (
    F_sigma,
    F_theta,
    apply_sigma,
    apply_theta,
    make_point,
    slocal_membership,
)
from .groupoid import (
    groupoid_compose,
    sample_commuting,
    sample_slocal_fiber,
    tangent_space,
    unit,
    z_membership,
)
from .symplectic import omega, unit_block_values
from .report import run_suite

__all__ = [
    "char_poly",
    "determinant",
    "inverse",
    "is_regular",
    "structural_matrices",
    "build_M",
    "build_Q",
    "build_S",
    "derive_root_sets",
    "section_membership",
    "stokes_params_of",
    "F_sigma",
    "F_theta",
    "apply_sigma",
    "apply_theta",
    "make_point",
    "slocal_membership",
    "groupoid_compose",
    "sample_commuting",
    "sample_slocal_fiber",
    "tangent_space",
    "unit",
    "z_membership",
    "omega",
    "unit_block_values",
    "run_suite",
]
