"""Monomial maps and their lattice ideals.

Builds toric ideals as saturated lattice ideals from an integer matrix
whose columns record the monomial substitution (the binomials of an
LLL-reduced kernel basis, saturated at the product of all variables), and
packages the specific rings used across the library: the base surface
ring on six variables (A,B,C,X,Y,Z with A=xz, B=xz^2, C=x, X=yz, Y=yz^2,
Z=y) and tensor-power products of it with polynomial variables. A
presentation holds its ideal (the saturation, or the shifted copies of a
factor's ideal) from construction; its lattice-point lifting data is built
by the first lift and kept. A variety defers building its presentation
until a caller reads it.
"""

from __future__ import annotations

from functools import cached_property

from .cone import Cone, Semigroup, _grading, _placed
from .errors import FACTORS, InfiniteCokernel
from .polyring import Ideal, PolyRing, _poly, saturate
from .zlinalg import IntMatrix, _dot, _int_tuple, _lll, kernel_basis, rank

PHI_COLUMNS = ((1, 0, 1), (1, 0, 2), (1, 0, 0), (0, 1, 1), (0, 1, 2), (0, 1, 0))
STEINBERG_VARIABLES = ("A", "B", "C", "X", "Y", "Z")


class MonomialMap:
    """Z^h -> Z^d, columns giving the lattice point of each variable."""

    __slots__ = ("phi", "variable_names")

    def __init__(self, phi: IntMatrix, variable_names):
        names = tuple(str(v) for v in variable_names)
        if phi.cols != len(names):
            raise ValueError("one variable name per column required")
        self.phi = phi
        self.variable_names = names

    def __repr__(self):
        return f"MonomialMap(vars={list(self.variable_names)}, phi={self.phi!r})"

    def to_json(self):
        return {"phi": self.phi.to_json(), "vars": list(self.variable_names)}

    @classmethod
    def from_json(cls, data):
        return cls(IntMatrix.from_json(data["phi"]), data["vars"])


class ToricPresentation:
    """A semigroup ring presented as F[variables]/lattice ideal.

    `ideal` is the lattice ideal in `ring`. The lifting data, a double
    description of the column cone, is built by the first
    `lift_lattice_point` and kept.
    """

    def __init__(self, map: MonomialMap, ring: PolyRing, ideal: Ideal, semigroup: Semigroup):
        self.map = map
        self.ring = ring
        self.ideal = ideal
        self.semigroup = semigroup

    def __repr__(self):
        return (
            f"ToricPresentation(vars={list(self.map.variable_names)}, "
            f"dim={self.semigroup.ambient_dim})"
        )

    @cached_property
    def _lifts(self):
        """(column cone's dual generators, grading, column grades, memo) of `lift_lattice_point`."""
        cols = self.map.phi.columns()
        cone = Cone(self.map.phi.rows, cols)
        if not cone.is_strongly_convex():
            raise ValueError("lattice-point lifting needs a pointed column cone")
        weight = _grading(cone)
        grades = [_dot(weight, col) for col in cols]  # 0 only on a zero column
        duals = cone.dual_generators()
        return duals, weight, grades, {(0,) * self.map.phi.rows: (0,) * len(cols)}

    def lift_lattice_point(self, m):
        """Exponent tuple e with phi @ e == m, or None if m is not in the semigroup.

        A depth-first search subtracts columns in index order, skipping any
        column of higher grade than what is left, and the lift is that of the
        first column whose remainder lifts. The search is one loop over an
        explicit stack of [point, grade, next column], so deep lifts need no
        recursion; a point is graded when first on top, -1 outside the cone,
        which it is tested against directly by the dual generators.
        The memo, shared across calls, maps each settled point to its lift, or
        to None when the point has no lift; it starts with the origin.
        """
        m = _int_tuple(m, self.map.phi.rows)
        cols = self.map.phi.columns()
        duals, weight, grades, memo = self._lifts
        stack = [[m, None, 0]]
        while m not in memo:
            top = stack[-1]
            v, gv, idx = top
            if gv is None:
                inside = all(_dot(n, v) >= 0 for n in duals)
                gv = top[1] = _dot(weight, v) if inside else -1
            while idx < len(cols) and not 0 < grades[idx] <= gv:
                idx += 1
            if idx == len(cols):
                memo[v] = None
                stack.pop()
                continue
            rest = tuple(a - b for a, b in zip(v, cols[idx]))
            if rest not in memo:
                top[2] = idx
                stack.append([rest, None, 0])
            elif memo[rest] is None:
                top[2] = idx + 1
            else:
                memo[v] = tuple(e + (j == idx) for j, e in enumerate(memo[rest]))
                stack.pop()
        return memo[m]

    def monomial_for(self, m):
        """The ring monomial representing the character at lattice point m."""
        exps = self.lift_lattice_point(m)
        if exps is None:
            raise ValueError(f"{m!r} is not in the semigroup")
        return self.ring.monomial(exps)


def toric_ideal(map: MonomialMap, char) -> ToricPresentation:
    """Presentation of the semigroup ring of the columns of `map`.

    The lattice ideal of an LLL-reduced kernel basis (`zlinalg._lll` of
    the Hermite kernel basis) is saturated at the product of all
    variables, which removes the dependence on the choice of kernel basis.
    Short basis vectors leave the saturation fewer S-pairs to reduce.
    """
    phi = map.phi
    if rank(phi) < phi.rows:
        raise InfiniteCokernel("the column lattice has infinite cokernel")
    ring = PolyRing(char, map.variable_names)
    gens = [ring.binomial_from_vector(v) for v in _lll(kernel_basis(phi).columns())]
    ideal = Ideal(ring, gens)
    if gens:
        ideal = saturate(ideal, ring.monomial((1,) * ring.nvars))
    distinct = list(dict.fromkeys(phi.columns()))
    return ToricPresentation(map, ring, ideal, Semigroup(phi.rows, distinct))


def steinberg_monomial_map() -> MonomialMap:
    return MonomialMap(IntMatrix.from_columns(PHI_COLUMNS), STEINBERG_VARIABLES)


def _odd_prime(char):
    """`char`, refused when it is 2: the surface ring is only considered at odd primes."""
    if char == 2:
        raise ValueError("the surface ring is only considered at odd primes")
    return char


def _product_sizes(k, s):
    """(k, s) of a product S^k x A^s as integers, refused unless k, s >= 0 and k + s >= 1.

    The factor count k + s is charged to `toric.factors` before any
    factor list is built, so an oversized product raises BudgetExceeded at once.
    """
    k, s = _int_tuple((k, s))
    if k < 0 or s < 0 or k + s < 1:
        raise ValueError("need k >= 0, s >= 0, k + s >= 1")
    FACTORS.charge(k + s)
    return k, s


def steinberg_ring_mod_l(char) -> ToricPresentation:
    """The six-variable surface ring at an odd prime."""
    return toric_ideal(steinberg_monomial_map(), _odd_prime(char))


def steinberg_minors_ideal(ring: PolyRing) -> Ideal:
    """The 2x2-minors ideal of [[A,B,X,Y],[C,A,Z,X]] in a compatible ring."""
    top = ("A", "B", "X", "Y")
    bottom = ("C", "A", "Z", "X")
    gens = []
    for i in range(4):
        for j in range(i + 1, 4):
            a = ring.variable(top[i]) * ring.variable(bottom[j])
            b = ring.variable(top[j]) * ring.variable(bottom[i])
            gens.append(a - b)
    return Ideal(ring, gens)


def product_ring(k, s, char) -> ToricPresentation:
    """Presentation of the k-fold tensor power with s polynomial variables.

    Variables are A..Z per surface factor (suffixed 1..k when k >= 2) and
    x1..xs for the polynomial part; the ideal is the disjoint sum of the
    factor ideals, which presents the tensor product over the ground field.
    """
    k, s = _product_sizes(k, s)
    if k == 1 and s == 0:
        return steinberg_ring_mod_l(char)
    return _power_presentation(steinberg_ring_mod_l(char) if k else None, k, s, char)


def _power_presentation(base, k, s, char) -> ToricPresentation:
    """k shifted copies of the presentation `base` plus s polynomial variables.

    Each copy gets its own block of lattice coordinates and of variables, so
    the base ideal is reused as it stands and never saturated again. `base`
    is only read when k >= 1.
    """
    base_dim = base.map.phi.rows if k else 0
    base_nvars = base.ring.nvars if k else 0
    dim = base_dim * k + s
    suffixes = [str(f + 1) for f in range(k)] if k >= 2 else [""] * k
    names = [name + sfx for sfx in suffixes for name in base.map.variable_names]
    ring = PolyRing(char, names + [f"x{j + 1}" for j in range(s)])
    columns, gens = [], []
    for f in range(k):
        columns += _placed(base.map.phi.columns(), base_dim * f, dim)
        for g in base.ideal.generators:
            shifted = _placed(g.terms, base_nvars * f, ring.nvars)
            gens.append(_poly(ring, dict(zip(shifted, g.terms.values()))))
    for j in range(s):
        columns += _placed([(1,)], base_dim * k + j, dim)
    map = MonomialMap(IntMatrix.from_columns(columns, rows=dim), ring.variables)
    return ToricPresentation(map, ring, Ideal(ring, gens), Semigroup(dim, columns))
