"""The public names of the `torica` package, frozen.

A change that drops or renames one of them breaks callers; it must then
change this list on purpose. Submodules are left out, because which of
them appear as attributes depends on what else has been imported.
"""

from types import ModuleType

import torica

PUBLIC_NAMES = [
    "BudgetExceeded", "ClassGroup", "Cone", "DivisorClass", "DivisorialModule", "INFINITE",
    "Ideal", "InfiniteCokernel", "IntMatrix", "LineBundleOnP1Product",
    "MonomialMap", "NoSolution", "NonUnique", "NotHomogeneous", "NotPointed",
    "NotStronglyConvex", "PHI_COLUMNS", "PolyRing", "Polynomial", "Semigroup",
    "SmithDecomposition", "ToricPresentation", "ToricVariety", "ToricaError", "TorusDivisor",
    "VarietyMismatch", "a1_variety", "affine_line_variety", "affine_space_variety",
    "canonical_class", "canonical_divisor", "check_danilov_hypothesis", "class_arithmetic",
    "class_group", "cokernel_presentation", "danilov_violations", "det", "div_of_character",
    "divisor_from_ray_coeffs", "dual_cone", "enumerate_mcm_rank_one_candidates",
    "groebner_basis", "h_dim_p1", "h_dim_product", "half_canonical", "hermite_normal_form",
    "hilbert_basis", "hilbert_function", "hilbert_numerator", "ideal_equal", "ideal_sum",
    "invert_unimodular", "is_regular_sequence", "is_strongly_convex", "kernel_basis",
    "lattice_member", "module_generators", "module_is_maximal_cohen_macaulay",
    "module_regular_sequence", "multiplicity", "normal_form", "product", "product_ring",
    "quotient_dimension", "rank", "rays", "run_checks", "saturate", "smith_normal_form",
    "solve_rational", "standard_monomials", "steinberg_minors_ideal", "steinberg_monomial_map",
    "steinberg_multiplicity", "steinberg_product_variety", "steinberg_ring_mod_l",
    "steinberg_variety", "toric_ideal", "trace_surjectivity_witness",
]


def test_public_names_are_frozen():
    names = sorted(
        name
        for name in dir(torica)
        if not name.startswith("_") and not isinstance(getattr(torica, name), ModuleType)
    )
    assert names == PUBLIC_NAMES
