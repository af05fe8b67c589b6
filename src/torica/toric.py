"""Monomial maps and their lattice ideals.

Builds toric ideals as saturated lattice ideals from an integer matrix
whose columns record the monomial substitution, and packages the specific
rings used across the library: the base surface ring on six variables
(A,B,C,X,Y,Z with A=xz, B=xz^2, C=x, X=yz, Y=yz^2, Z=y) and tensor-power
products of it with polynomial variables. A presentation holds its ideal
(the saturation, or the shifted copies of a factor's ideal) from
construction; its lattice-point lifting data is built by the first lift and
kept. A variety defers building its presentation until a caller reads it.
"""

from __future__ import annotations

from .cone import Cone, Semigroup, _grading
from .errors import InfiniteCokernel
from .polyring import Ideal, PolyRing, _poly, saturate
from .zlinalg import IntMatrix, _int_tuple, kernel_basis, rank

PHI_COLUMNS = ((1, 0, 1), (1, 0, 2), (1, 0, 0), (0, 1, 1), (0, 1, 2), (0, 1, 0))
STEINBERG_VARIABLES = ("A", "B", "C", "X", "Y", "Z")
STEINBERG_SUBSTITUTION = dict(zip(STEINBERG_VARIABLES, PHI_COLUMNS))


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

    __slots__ = ("map", "ring", "ideal", "semigroup", "_lifts")

    def __init__(self, map: MonomialMap, ring: PolyRing, ideal: Ideal, semigroup: Semigroup):
        self.map = map
        self.ring = ring
        self.ideal = ideal
        self.semigroup = semigroup
        self._lifts = None

    def __repr__(self):
        return (
            f"ToricPresentation(vars={list(self.map.variable_names)}, "
            f"dim={self.semigroup.ambient_dim})"
        )

    def lift_lattice_point(self, m):
        """Exponent tuple e with phi @ e == m, or None if m is not in the semigroup.

        A depth-first search subtracts columns in index order, skipping any
        column of higher grade than what is left. The search runs on an
        explicit stack, so deep lifts need no recursion. The memo, shared
        across calls, maps each visited point to the first column of its
        lift, or to None when the point has no lift.
        """
        m = _int_tuple(m, self.map.phi.rows)
        if self._lifts is None:
            cone = Cone(self.map.phi.rows, self.map.phi.columns())
            if not cone.is_strongly_convex():
                raise ValueError("lattice-point lifting needs a pointed column cone")
            self._lifts = (cone, _grading(cone), {})
        cone, weight, memo = self._lifts
        cols = self.map.phi.columns()

        def grade(v):
            return sum(w * x for w, x in zip(weight, v))

        col_grades = [grade(col) for col in cols]

        def frame(v):
            # [point, its grade or None outside the cone, next column to try]
            return [v, grade(v) if cone.contains(v) else None, 0]

        def settled(v):
            return v in memo or not any(v)

        def liftable(v):
            return not any(v) or memo[v] is not None

        stack = [] if settled(m) else [frame(m)]
        while stack:
            top = stack[-1]
            v, gv, idx = top
            if gv is not None:
                while idx < len(cols) and not (any(cols[idx]) and col_grades[idx] <= gv):
                    idx += 1
            if gv is None or idx == len(cols):
                memo[v] = None
                stack.pop()
                continue
            rest = tuple(a - b for a, b in zip(v, cols[idx]))
            if not settled(rest):
                top[2] = idx
                stack.append(frame(rest))
            elif liftable(rest):
                memo[v] = idx
                stack.pop()
            else:
                top[2] = idx + 1

        if not liftable(m):
            return None
        exps = [0] * len(cols)
        while any(m):
            idx = memo[m]
            exps[idx] += 1
            m = tuple(a - b for a, b in zip(m, cols[idx]))
        return tuple(exps)

    def monomial_for(self, m):
        """The ring monomial representing the character at lattice point m."""
        exps = self.lift_lattice_point(m)
        if exps is None:
            raise ValueError(f"{m!r} is not in the semigroup")
        return self.ring.monomial(exps)


def toric_ideal(map: MonomialMap, char) -> ToricPresentation:
    """Presentation of the semigroup ring of the columns of `map`.

    The lattice ideal of an HNF kernel basis is saturated at the product
    of all variables, which removes the dependence on the choice of
    kernel basis.
    """
    phi = map.phi
    if rank(phi) < phi.rows:
        raise InfiniteCokernel("the column lattice has infinite cokernel")
    ring = PolyRing(char, map.variable_names)
    gens = [ring.binomial_from_vector(col) for col in kernel_basis(phi).columns()]
    ideal = Ideal(ring, gens)
    if gens:
        ideal = saturate(ideal, ring.monomial((1,) * ring.nvars))
    seen = []
    for col in phi.columns():
        if col not in seen:
            seen.append(col)
    return ToricPresentation(map, ring, ideal, Semigroup(phi.rows, seen))


def steinberg_monomial_map() -> MonomialMap:
    return MonomialMap(IntMatrix.from_columns(PHI_COLUMNS), STEINBERG_VARIABLES)


def steinberg_ring_mod_l(char) -> ToricPresentation:
    """The six-variable surface ring at an odd prime."""
    if char == 2:
        raise ValueError("the surface ring is only considered at odd primes")
    return toric_ideal(steinberg_monomial_map(), char)


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
    k, s = _int_tuple((k, s))
    if k < 0 or s < 0 or k + s < 1:
        raise ValueError("need k >= 0, s >= 0, k + s >= 1")
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

    names = []
    columns = []
    for f in range(k):
        suffix = str(f + 1) if k >= 2 else ""
        names.extend(name + suffix for name in base.map.variable_names)
        for col in base.map.phi.columns():
            embedded = [0] * dim
            embedded[base_dim * f : base_dim * (f + 1)] = list(col)
            columns.append(tuple(embedded))
    names.extend(f"x{j + 1}" for j in range(s))
    for j in range(s):
        embedded = [0] * dim
        embedded[base_dim * k + j] = 1
        columns.append(tuple(embedded))
    map = MonomialMap(IntMatrix.from_columns(columns, rows=dim), names)

    ring = PolyRing(char, names)
    gens = []
    for f in range(k):
        offset = base_nvars * f
        for g in base.ideal.generators:
            shifted = {}
            for exps, coeff in g.terms.items():
                e = [0] * ring.nvars
                e[offset : offset + base_nvars] = list(exps)
                shifted[tuple(e)] = coeff
            gens.append(_poly(ring, shifted))
    return ToricPresentation(map, ring, Ideal(ring, gens), Semigroup(dim, columns))
