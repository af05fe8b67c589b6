"""Divisor class group, canonical class, and divisorial modules.

On the affine variety of the cone with rays e1, e2, e3, 2e1 + 2e2 - e3 the
class group is infinite cyclic. This demo locates the canonical class, its
unique half, the generators of the degree-one module, a monomial witness
that the trace pairing is surjective, and the five classes that survive a
maximal Cohen-Macaulay scan.
"""

from torica import (
    canonical_class,
    canonical_divisor,
    div_of_character,
    divisor_from_ray_coeffs,
    enumerate_mcm_rank_one_candidates,
    half_canonical,
    module_generators,
    steinberg_variety,
    trace_surjectivity_witness,
)


def main():
    v = steinberg_variety()
    cg = v.class_group()
    print("variety rays:", v.rays)
    print("class group: free rank", cg.free_rank, "torsion", list(cg.torsion))

    print("\nray divisor classes:")
    for ray in v.rays:
        cls = divisor_from_ray_coeffs(v, {ray: 1}).divisor_class()
        print("    [D_{}] = {}".format(ray, cls.free[0]))

    # Principal divisors are exactly the kernel of the class map.
    principal = div_of_character(v, (1, 0, 1))
    print("\ndiv(x*z) =", list(principal.coeffs), "class", principal.divisor_class())

    k = canonical_class(v)
    print("\ncanonical divisor:", list(canonical_divisor(v).coeffs))
    print("canonical class:", k.free[0])
    print("half-canonical class:", half_canonical(v).free[0])

    # An explicit divisor of class 1 and one in the canonical class.
    degree_one = divisor_from_ray_coeffs(v, {(1, 0, 0): -1, (0, 0, 1): -1})
    omega = divisor_from_ray_coeffs(v, {(1, 0, 0): -1})
    print("\nmodule generators of the class-1 divisor (xz, xz^2):")
    print("   ", list(module_generators(v, degree_one).generators))
    print("module generators of the canonical module (x, xz, xz^2):")
    print("   ", list(module_generators(v, omega).generators))

    ok, witness = trace_surjectivity_witness(v, degree_one, target=omega)
    print("\ntrace pairing surjective:", ok, " witness monomial:", witness)

    print("\nmaximal Cohen-Macaulay classes (every one, from the proved range):")
    for cls, n in enumerate_mcm_rank_one_candidates(v):
        print("    class {:>2}: {} generators".format(cls.free[0], n))


if __name__ == "__main__":
    main()
