"""Exact equivariant K-theory of toric varieties from fan data.

Everything is integer arithmetic: cones and fans with exact polyhedral
duals, monoids of lattice points with Hilbert bases, K-classes of
graded modules as group-ring elements, and the cover complex whose
degree-zero cohomology is the global equivariant K_0 of a smooth toric
variety, with randomized exactness and flasqueness verifiers.
"""

from .cech import CechComplex, Cochain, H0Ring, verify_exactness
from .cones import Cone, Fan, Subfan, zero_cone
from .graded import (
    CoefficientSpec,
    GradedFreeData,
    KClass,
    coset_decomposition,
    extend_scalars_class,
    hom_rank,
    k0_affine_toric,
    k0_class,
)
from .intlinalg import (
    CertificateError,
    IntMatrix,
    Lattice,
    QuotientLattice,
    QuotientSurjection,
    canonical_surjection,
    kernel,
    quotient,
    snf,
    solve,
)
from .monoids import AffineMonoid, GroupRingElement, hilbert_basis
from .sheaves import FanSheaf, Section, extend_section, sheaf_a0
from .support_solver import SolverGaveUp

__version__ = "0.1.0"
