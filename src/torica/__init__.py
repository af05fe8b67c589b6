"""Exact-arithmetic toolkit for affine toric varieties.

Integer linear algebra (Smith and Hermite forms), rational polyhedral
cones with Hilbert bases, Groebner bases over prime fields, toric ideals,
Weil divisor class groups with divisorial modules, and line bundle
cohomology on products of projective lines. Everything is exact; there is
no floating point anywhere.
"""

from .cohomology import (
    LineBundleOnP1Product,
    check_danilov_hypothesis,
    danilov_violations,
    h_dim_p1,
    h_dim_product,
)
from .cone import (
    Cone,
    Semigroup,
    dual_cone,
    hilbert_basis,
    is_strongly_convex,
    product,
    rays,
)
from .divisor import (
    ClassGroup,
    DivisorClass,
    DivisorialModule,
    ToricVariety,
    TorusDivisor,
    a1_variety,
    affine_line_variety,
    affine_space_variety,
    canonical_class,
    canonical_divisor,
    class_arithmetic,
    class_group,
    div_of_character,
    divisor_from_ray_coeffs,
    enumerate_mcm_rank_one_candidates,
    half_canonical,
    module_generators,
    module_is_maximal_cohen_macaulay,
    multiplicity,
    steinberg_multiplicity,
    steinberg_product_variety,
    steinberg_variety,
    trace_surjectivity_witness,
)
from .errors import (
    BudgetExceeded,
    InfiniteCokernel,
    NonUnique,
    NoSolution,
    NotHomogeneous,
    NotPointed,
    NotStronglyConvex,
    ToricaError,
    VarietyMismatch,
)
from .polyring import (
    INFINITE,
    Ideal,
    PolyRing,
    Polynomial,
    groebner_basis,
    hilbert_function,
    hilbert_numerator,
    ideal_equal,
    ideal_sum,
    is_regular_sequence,
    module_regular_sequence,
    normal_form,
    quotient_dimension,
    saturate,
    standard_monomials,
)
from .toric import (
    MonomialMap,
    PHI_COLUMNS,
    ToricPresentation,
    product_ring,
    steinberg_minors_ideal,
    steinberg_monomial_map,
    steinberg_ring_mod_l,
    toric_ideal,
)
from .verification import run_checks
from .zlinalg import (
    IntMatrix,
    SmithDecomposition,
    cokernel_presentation,
    det,
    hermite_normal_form,
    invert_unimodular,
    kernel_basis,
    lattice_member,
    rank,
    smith_normal_form,
    solve_rational,
)

__version__ = "0.1.0"
