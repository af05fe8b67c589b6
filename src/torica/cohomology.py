"""Line bundle cohomology on products of projective lines.

Everything here is the closed form for P^1 pushed through the Kunneth
formula: on one factor h^0(O(d)) = max(0, d+1), h^1(O(d)) = max(0, -d-1),
and nothing above degree one. A bundle on a product is a tuple of factor
degrees. The descent hypothesis checker asks for vanishing of H^1 and H^2
of all non-negative twists of each listed bundle.
"""

from .zlinalg import _int_tuple


class LineBundleOnP1Product:
    """External tensor product O(d_1) x ... x O(d_n) on (P^1)^n."""

    __slots__ = ("factor_degrees",)

    def __init__(self, factor_degrees):
        self.factor_degrees = _int_tuple(factor_degrees)

    def twist(self, i):
        return LineBundleOnP1Product(tuple(i * d for d in self.factor_degrees))

    def __eq__(self, other):
        return (
            isinstance(other, LineBundleOnP1Product)
            and self.factor_degrees == other.factor_degrees
        )

    def __hash__(self):
        return hash(self.factor_degrees)

    def __repr__(self):
        return f"LineBundleOnP1Product({list(self.factor_degrees)})"

    def to_json(self):
        return {"factor_degrees": list(self.factor_degrees)}


def _degrees(bundle):
    if isinstance(bundle, LineBundleOnP1Product):
        return bundle.factor_degrees
    return _int_tuple(bundle)


def _h_p1(deg):
    """(h^0, h^1) of O(deg) on P^1, for an integer `deg` already checked."""
    return max(0, deg + 1), max(0, -deg - 1)


def h_dim_p1(d, deg) -> int:
    """dim H^d(P^1, O(deg))."""
    d, deg = _int_tuple((d, deg))
    if d < 0:
        raise ValueError("cohomological degree must be non-negative")
    return _h_p1(deg)[d] if d <= 1 else 0


def h_dim_product(d, bundle) -> int:
    """dim H^d of O(d_1) x ... x O(d_n) on (P^1)^n, by the Kunneth formula.

    Each factor has cohomology only in degrees 0 and 1, so the answer is
    the coefficient of t^d in the product of (h^0_i + h^1_i t) over the
    factors: O(n^2) work.
    """
    (d,) = _int_tuple((d,))
    if d < 0:
        raise ValueError("cohomological degree must be non-negative")
    coeffs = [1]
    for deg in _degrees(bundle):
        h0, h1 = _h_p1(deg)
        coeffs = [h0 * a + h1 * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[d] if d < len(coeffs) else 0


def danilov_violations(factors, i_max=50):
    """All (factor_index, d, i) with H^d of the i-th twist non-zero, d in {1,2}."""
    (i_max,) = _int_tuple((i_max,))
    out = []
    for idx, bundle in enumerate(factors):
        degrees = _degrees(bundle)
        for i in range(0, i_max + 1):
            twisted = tuple(i * deg for deg in degrees)
            for d in (1, 2):
                if h_dim_product(d, twisted) != 0:
                    out.append({"factor": idx, "d": d, "i": i})
    return out


def check_danilov_hypothesis(factors, i_max=50) -> bool:
    """True iff H^1 and H^2 of every twist L^i, 0 <= i <= i_max, vanish.

    For bundles with all factor degrees >= 0 the closed form makes the
    conclusion independent of i_max: every twist keeps all degrees >= 0,
    so every h^1 factor max(0, -deg-1) is zero already.
    """
    return not danilov_violations(factors, i_max)
