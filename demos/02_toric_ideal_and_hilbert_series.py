"""Toric ideals, Groebner bases, and exact Hilbert series.

Computes the defining ideal of the six-generator monomial algebra
F[x, xz, xz^2, y, yz, yz^2] as a saturated lattice ideal, checks it equals
a determinantal ideal, and reads off dimensions from the Hilbert series.
"""

from torica import (
    PolyRing,
    groebner_basis,
    hilbert_function,
    hilbert_numerator,
    ideal_equal,
    ideal_sum,
    is_regular_sequence,
    quotient_dimension,
    standard_monomials,
    steinberg_minors_ideal,
    steinberg_ring_mod_l,
)


def main():
    pres = steinberg_ring_mod_l(101)
    ring = pres.ring
    print("presentation ring:", ring)
    print("reduced Groebner basis of the toric ideal:")
    for g in groebner_basis(pres.ideal).generators:
        print("   ", g)

    # The same ideal is the 2x2 minors of [[A, B, X, Y], [C, A, Z, X]].
    minors = steinberg_minors_ideal(ring)
    print("\nequals the determinantal ideal:", ideal_equal(pres.ideal, minors))

    # Hilbert numerator with respect to the ambient six-variable ring:
    # N(t) with series N(t) / (1 - t)^6.
    numerator = hilbert_numerator(pres.ideal)
    print("\nHilbert numerator:", numerator)
    values = hilbert_function(numerator, ring.nvars, 6)
    print("Hilbert function in degrees 0..6:", values)
    print("matches (2i+1)(i+1):", values == [(2 * i + 1) * (i + 1) for i in range(7)])

    # Cutting by the parameter sequence (C, Y, B - Z) leaves a 4-dimensional
    # artinian quotient, and the sequence is certified regular.
    cut = ideal_sum(pres.ideal, ring.ideal(["C", "Y", "B-Z"]))
    print("\ndim of the artinian quotient:", quotient_dimension(cut))
    print(
        "standard monomials:",
        sorted(str(ring.monomial(e)) for e in standard_monomials(cut)),
    )

    # The monomial basis depends on the variable order; listing the cut
    # variables first exhibits the quotient on the images of 1, A, B, X.
    ring2 = PolyRing(101, ("C", "Y", "Z", "A", "B", "X"))
    cut2 = ideal_sum(steinberg_minors_ideal(ring2), ring2.ideal(["C", "Y", "B-Z"]))
    print(
        "standard monomials, cut variables ordered first:",
        sorted(str(ring2.monomial(e)) for e in standard_monomials(cut2)),
    )
    elements = [ring.parse(s) for s in ("C", "Y", "B-Z")]
    print(
        "(C, Y, B - Z) is a regular sequence:",
        is_regular_sequence(elements, pres.ideal),
    )


if __name__ == "__main__":
    main()
