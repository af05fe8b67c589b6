"""Rational polyhedral cones with exact arithmetic.

A cone is stored by primitive integer generators. The double description
method (`_double_description`) is the one polyhedral enumeration: it gives
the facets of atomic cones and the vertices of divisor regions, and rays
follow from facet incidences. Product cones never enumerate: they compose
their dual and rays from the factors'. The dual of a pointed cone takes its
own dual generators from that cone's rays. A cone's dimension and
pointedness are computed once and cached: the double description gives
the dimension as d minus the dual's lineality, a product adds its
factors', and the dual of a full-dimensional cone is pointed with its
generators as rays. Only a cone none of these reached ranks its
generators.

Lattice points are held in slack coordinates: over a region
{p : <n, p> + a >= 0}, p has the slack vector (<n, p> + a). p lies in the
region when its slack is >= 0, its grade is the slack sum, and p - q lies in
the cone exactly when slack(q) <= slack(p), as in monomial divisibility.
A slack vector is one packed int (`_packing`), its fields topped by guard
bits and its sum in the top field, the way `polyring` packs exponent
vectors, so a dominance test is one subtract and one mask. `_minimal` is
the one sieve on such keys, and one route, `_lattice_points`, where the
dual algorithm of ROADMAP item 2 is to land, gives the candidates: a
pulling triangulation of a pointed cone and each simplex's half-open
parallelepiped, as in the primal algorithm of Normaliz (Bruns & Ichim, J.
Algebra 2010). A candidate carries its packed slack, built by one
multiply-add per parallelepiped node, and its coefficients over its
simplex; the point is rebuilt (`_point`) only when the sieve keeps it or a
witness search takes it. Hilbert bases use the cone itself, divisorial
modules and local-cohomology witnesses the cone over their region
(`_region_lattice`). Points given as tuples are keyed by `_minimal_points`
through `_keyed`. The work is counted as it is done, in two counts: the
enumeration charges 1 per simplex and each parallelepiped level's partial
nodes to `cone.triangulation`, the sieve 1 per dominance test to
`cone.sieve` (`errors.BUDGETS`). Each raises `BudgetExceeded`, naming its
counter, on a count that would pass its limit.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd, prod

from .errors import SIEVE, TRIANGULATION, NotPointed, NotStronglyConvex
from .zlinalg import IntMatrix, _dot, _echelon, _int_tuple, kernel_basis, lattice_member, rank


def _primitive(vec):
    g = gcd(*vec)
    if g == 1:
        return tuple(vec)
    return tuple(x // g for x in vec) if g else None


def _grading(cone):
    """The sum of the cone's dual generators, positive on a pointed cone minus 0."""
    duals = cone.dual_generators()
    return tuple(sum(n[i] for n in duals) for i in range(cone.ambient_dim))


def _tight(rows, vectors):
    """For each row, the bit mask of the vectors it pairs to zero with."""
    return [sum(1 << i for i, v in enumerate(vectors) if _dot(a, v) == 0) for a in rows]


def _pulling(face, facet_masks, dim):
    """Yield the simplices, as ray bit masks, of the pulling triangulation of a face.

    A face is the bit mask of its rays and has dimension `dim`. A face with
    as many rays as its dimension is a simplex. Otherwise its lowest ray is
    coned over the facets of the face that miss it, which are the maximal
    proper intersections face & mask.
    """
    if face.bit_count() == dim:
        yield face
        return
    low = face & -face
    subs = {face & m for m in facet_masks} - {face}
    for sub in subs:
        if not sub & low and not any(sub != other and sub & other == sub for other in subs):
            for simplex in _pulling(sub, facet_masks, dim - 1):
                yield low | simplex


def _packing(rows, bound):
    """(keys, shift, guard): each row, of entries in [0, bound], packed into one int.

    Field j of a key holds entry j in w = bound.bit_length() + 1 bits, the
    top one a guard bit, and the bits from `shift` up hold the row's sum,
    its degree, unguarded. Packing is Z-linear, so a combination of keys
    is the key of the same combination of rows, and while each field of
    two keys stays in [0, bound], key - k has no guard bit set exactly when
    every field of key is >= k's: the lowest field that falls short borrows
    and sets its guard bit.
    """
    w = bound.bit_length() + 1
    shift = len(rows[0]) * w
    offsets = range(0, shift, w)
    guard = sum(1 << (j + w - 1) for j in offsets)
    keys = [sum(x << j for j, x in zip(offsets, row)) + (sum(row) << shift) for row in rows]
    return keys, shift, guard


def _keyed(pairs):
    """(items, shift, guard) for `_minimal` from (tuple key, value) pairs.

    Each field is shifted by its minimum over the keys before `_packing`,
    which moves every key sum by one constant and keeps every dominance.
    """
    pairs = list(pairs)
    if not pairs:
        return [], 0, 0
    lows = [min(field) for field in zip(*(k for k, _ in pairs))]
    rows = [[x - low for x, low in zip(k, lows)] for k, _ in pairs]
    keys, shift, guard = _packing(rows, max((x for row in rows for x in row), default=0))
    return [(key, value) for key, (_, value) in zip(keys, pairs)], shift, guard


def _parallelepiped(gens, slacks, heights=None, spent=0):
    """(items, spent) for the lattice points sum(l_i g_i), l in [0, 1)^r, of independent gens.

    With H the Hermite form `_echelon` gives of G^T, so T @ G^T == H for a
    unimodular T that is not needed, the point c·G / N, c in [0, N)^r, is in
    Z^d exactly when H @ c == 0 mod N, where N = prod h_ii counts the points.
    H is upper triangular, so c is solved for from its last coordinate to
    its first, each from one congruence h_ii c_i == b = -sum_{k>i} h_ik c_k
    (mod N), whose solutions in [0, N) are the range from b / h_ii by
    N / h_ii. It always solves: by induction each c_k solved so far is a
    multiple of prod_{j<k} h_jj, so h_ii divides b. With `heights` q only
    the points with sum(c_i q_i) = N, those at height 1, are given: a
    partial sum above N is cut, and so is one below N once no positive
    height is left. Each level adds its partial nodes to `spent`, the
    caller's count, and a level that would take it past the budget raises
    BudgetExceeded before its nodes are built.

    A node carries sum(c_k P_k) over the packed slack keys P_k of `slacks`,
    one multiply-add per node. That sum packs N times the point's slack,
    every field a multiple of N, so an item is (its sum // N, c, (columns
    of G, N)): the key, exact field by field, and what `_point` rebuilds
    the point from, which only kept items need.
    """
    r = len(gens)
    columns = list(zip(*gens))
    h = _echelon(columns, r)[0]
    n = prod(h[i][i] for i in range(r))
    q = heights or (0,) * r
    limit = TRIANGULATION.limit
    partial = [((), 0, 0)]  # (c_i, .., c_{r-1}), sum of their c_k q_k, sum of their c_k P_k
    for i in reversed(range(r)):
        step = n // h[i][i]
        row, qi, pi, room = h[i][i + 1 :], q[i], slacks[i], limit - spent
        last = heights is not None and not any(q[:i])  # the height is final after this level
        grown = []
        for tail, height, key in partial:
            cs = range(-_dot(row, tail) // h[i][i] % step, n, step)
            if qi:
                cs = range(cs.start, min(n, (n - height) // qi + 1), step)
            if last:
                cs = cs[-1:] if qi else cs
                if not cs or height + cs[-1] * qi != n:
                    continue
            size = max(0, (cs.stop - cs.start + step - 1) // step)  # len(cs) may pass a C ssize_t
            if len(grown) + size > room:
                TRIANGULATION.charge(spent + len(grown) + size)
            grown += [((c,) + tail, height + c * qi, key + c * pi) for c in cs]
        spent += len(grown)
        partial = grown
    basis = (columns, n)
    return [(key // n, c, basis) for c, _, key in partial], spent


def _point(c, basis):
    """The lattice point c·G / N of a `_lattice_points` item, its basis being (columns of G, N)."""
    columns, n = basis
    return tuple(_dot(c, col) // n for col in columns)


def _lattice_points(rays, normals, heights=None):
    """(items, shift, guard) of the rays, then each simplex's parallelepiped points.

    The cone on `rays` is pointed and cut out by `normals`, so it spans the
    orthogonal of those tight on every ray. The slack rows S_i =
    (<n_j, r_i>)_j of the rays are computed once: they give the tight masks,
    and `_packing` packs them with bound sum(S), which no parallelepiped
    point passes in any field, since its slack is sum(l_i S_i), l in
    [0, 1)^r. The items are (key, c, basis) as `_parallelepiped` gives them,
    a ray being c = (1,) over itself, and come lazily: a simplex of the
    pulling triangulation is charged 1, and `_parallelepiped` its nodes, to
    `cone.triangulation` only when reached. With `heights`, one per
    ray, only points at height 1 are given.
    """
    slacks = [[_dot(u, r) for u in normals] for r in rays]
    keys, shift, guard = _packing(slacks, sum(map(sum, slacks)))

    def items():
        for i, ray in enumerate(rays):
            if heights is None or heights[i] == 1:
                yield keys[i], (1,), (list(zip(ray)), 1)
        full = (1 << len(rays)) - 1
        masks = [sum(1 << i for i, x in enumerate(column) if not x) for column in zip(*slacks)]
        tight = [u for u, z in zip(normals, masks) if z == full]
        dim = len(rays[0]) - rank(IntMatrix._trusted(tight, len(rays[0])))
        spent = 0
        for simplex in _pulling(full, masks, dim):
            chosen = [i for i in range(len(rays)) if simplex >> i & 1]
            sub_heights = None if heights is None else [heights[i] for i in chosen]
            spent = TRIANGULATION.charge(spent + 1)
            found, spent = _parallelepiped(
                [rays[i] for i in chosen], [keys[i] for i in chosen], sub_heights, spent
            )
            yield from found

    return items(), shift, guard


def _region_cone(normals, coeffs):
    """(rows, rays) of the cone {(m, t) : <m, u> + a t >= 0, t >= 0} over the region.

    Its rays are (r, 0) for each ray r of the region's recession cone, then
    (q·v, q) for each vertex v of the region by q > 0. Pulling the recession
    rays first gave far smaller parallelepipeds on seeded regions (3.9
    million points against 32 million at the worst), and `_parallelepiped`
    solves for the vertex coefficients, last in each simplex, first, so its
    height cut acts early.
    """
    rows = [u + (a,) for u, a in zip(normals, coeffs)] + [(0,) * len(normals[0]) + (1,)]
    return rows, sorted(_double_description(rows, len(rows[0]))[1], key=lambda r: r[-1])


def _region_lattice(normals, coeffs):
    """`_lattice_points` at height 1 of the cone over the region {m : <m, u> + a >= 0}.

    A height-1 point of the region's cone is p + sum(n_i g_i) over a simplex
    of its pulling triangulation, p in the parallelepiped. Either p has
    height 1, or one g_i is (v, 1) for an integral vertex v and the rest lies
    in the recession cone. So these items hold every minimal point (m, 1),
    keyed by the region rows' slacks (<m, u> + a, 1). An empty region gives
    none.
    """
    rows, hom = _region_cone(normals, coeffs)
    heights = [r[-1] for r in hom]
    return _lattice_points(hom, rows, heights) if any(heights) else ((), 0, 0)


def _region_points(normals, coeffs):
    """Lattice points m of the region, in `_region_lattice`'s order, each rebuilt when reached."""
    return (_point(c, basis)[:-1] for _, c, basis in _region_lattice(normals, coeffs)[0])


def _region_generators(normals, coeffs):
    """The minimal lattice points of the region, sorted: `_kept_points` of `_region_lattice`."""
    return [p[:-1] for p in _kept_points(*_region_lattice(normals, coeffs))]


def _minimal(items, shift, guard):
    """The items whose packed key is >= no other item's key, in order of key degree.

    Keys come from `_packing`, or from `_keyed` for tuple keys: the sort is
    stable by the degree `key >> shift`, and key >= k in every field when
    (key - k) & guard is 0. For slack keys it keeps the points no other
    point can be taken from. A key can only be >= keys of smaller degree,
    and testing the kept ones suffices, since a dropped key is >= a kept
    one. A repeated key keeps its first item. Each candidate is charged one
    dominance test per kept key, and BudgetExceeded is raised once the tests
    would pass the `cone.sieve` budget.
    """
    kept, keys, tests = [], [], 0
    for item in sorted(items, key=lambda item: item[0] >> shift):
        key = item[0]
        tests = SIEVE.charge(tests + len(keys))
        for k in keys:
            if not (key - k) & guard:
                break
        else:
            keys.append(key)
            kept.append(item)
    return kept


def _kept_points(items, shift, guard):
    """The points of the nonzero `_lattice_points` items `_minimal` keeps, rebuilt and sorted."""
    kept = _minimal((item for item in items if item[0]), shift, guard)
    return sorted(_point(c, basis) for _, c, basis in kept)


def _minimal_points(points, normals):
    """The points no other can be taken from, sorted, by `_minimal` on `_keyed` keys (<n, p>)."""
    pairs = ((tuple(_dot(n, p) for n in normals), p) for p in points)
    return sorted(value for _, value in _minimal(*_keyed(pairs)))


def _eliminate(a, k, s, v):
    """The primitive vector s v - <a, v> k, s = <a, k> > 0, on the hyperplane <a, x> = 0.

    A primitive v already on it is that vector, so it is returned as it is.
    """
    t = _dot(a, v)
    if not t:
        return v
    return _primitive([s * x - t * y for x, y in zip(v, k)])


def _double_description(rows, d):
    """(lineality basis, primitive extreme rays) of {x : <a, x> >= 0 for every a in rows}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) cuts Z^d
    by one row a at a time. A lineality vector k with <a, k> != 0 becomes a
    ray with <a, k> > 0, and everything else is projected along k onto a^perp.
    Otherwise rays with <a, r> >= 0 stay, and each adjacent pair of opposite
    sign adds its combination on a^perp. Two rays are adjacent when no third
    ray is tight on every row both are tight on; a cheaper test runs first,
    since adjacent rays share at least d - dim(lineality) - 2 tight rows.
    """
    lineality = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = []  # (ray, bit mask of the rows it is tight on)
    for i, a in enumerate(rows):
        bit = 1 << i
        pivot = next(((s, k) for k in lineality if (s := _dot(a, k))), None)
        if pivot is not None:
            s, k = pivot
            lineality.remove(k)
            if s < 0:
                s, k = -s, tuple(-x for x in k)
            lineality = [_eliminate(a, k, s, v) for v in lineality]
            rays = [(_eliminate(a, k, s, r), z | bit) for r, z in rays] + [(k, bit - 1)]
            continue
        sides = [(r, z, _dot(a, r)) for r, z in rays]
        kept = [(r, z | bit if t == 0 else z) for r, z, t in sides if t >= 0]
        need = d - len(lineality) - 2
        pos = [(p, zp, t) for p, zp, t in sides if t > 0]
        neg = [(n, zn) for n, zn, t in sides if t < 0]
        for (p, zp, s), (n, zn) in iproduct(pos, neg):
            common = zp & zn
            if common.bit_count() >= need and sum(z & common == common for _, z in rays) == 2:
                kept.append((_eliminate(a, p, s, n), common | bit))
        rays = kept
    return lineality, [r for r, _ in rays]


class Semigroup:
    """A finitely generated subsemigroup of Z^d, held by its Hilbert basis."""

    __slots__ = ("ambient_dim", "hilbert_generators")

    def __init__(self, ambient_dim, hilbert_generators):
        (self.ambient_dim,) = _int_tuple((ambient_dim,))
        self.hilbert_generators = tuple(_int_tuple(g, self.ambient_dim) for g in hilbert_generators)

    def __eq__(self, other):
        return (
            isinstance(other, Semigroup)
            and self.ambient_dim == other.ambient_dim
            and set(self.hilbert_generators) == set(other.hilbert_generators)
        )

    def __repr__(self):
        return f"Semigroup(dim={self.ambient_dim}, generators={list(self.hilbert_generators)})"

    def to_json(self):
        return {"dim": self.ambient_dim, "hilbert_basis": [list(g) for g in self.hilbert_generators]}


class Cone:
    """Cone(S) = all nonnegative real combinations of the generators."""

    __slots__ = ("ambient_dim", "generators", "_dual_gens", "_rays", "_dim", "_pointed")

    def __init__(self, ambient_dim, generators):
        (self.ambient_dim,) = _int_tuple((ambient_dim,))
        prims = set()
        for g in generators:
            p = _primitive(_int_tuple(g, self.ambient_dim))
            if p is not None:
                prims.add(p)
        self.generators = tuple(sorted(prims))
        self._dual_gens = self._rays = self._dim = self._pointed = None

    @classmethod
    def _trusted(cls, ambient_dim, generators):
        """A cone on generators the library built: sorted distinct primitive int tuples."""
        cone = cls(ambient_dim, ())
        cone.generators = generators
        return cone

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_json(cls, data):
        return cls(data["dim"], data["generators"])

    def to_json(self):
        return {"dim": self.ambient_dim, "generators": [list(g) for g in self.generators]}

    def __repr__(self):
        return f"Cone(dim={self.ambient_dim}, generators={list(self.generators)})"

    # -- core geometry ---------------------------------------------------------

    def dual_generators(self):
        """Generators of the dual cone {m : <m, g> >= 0 for all g}.

        Facet normals are the rays `_double_description` finds over the
        generators. On a lower-dimensional cone a normal is defined only modulo
        the dual's lineality L, so the first kernel column of the facet's
        generators outside L stands for it; L adds +/- each Hermite basis row.
        """
        if self._dual_gens is not None:
            return self._dual_gens
        d = self.ambient_dim
        gens = self.generators
        lineality, normals = _double_description(gens, d)
        self._dim = d - len(lineality)  # the dual's lineality is the orthogonal of the span
        if lineality:
            lin = kernel_basis(IntMatrix(gens, cols=d)).transpose()  # rows in Hermite form
            facets = []
            for n in normals:
                ker = kernel_basis(IntMatrix([g for g in gens if _dot(n, g) == 0], cols=d))
                col = _primitive(next(c for c in ker.columns() if not lattice_member(lin, c)))
                side = next(_dot(col, g) for g in gens if _dot(n, g))
                facets.append(col if side > 0 else tuple(-x for x in col))
            normals = facets + [v for row in lin.entries for v in (row, tuple(-x for x in row))]
        self._dual_gens = tuple(sorted(normals))
        return self._dual_gens

    def dual(self) -> "Cone":
        """The dual cone; on a strongly convex cone its own dual is composed, not enumerated.

        The dual of a pointed cone is full-dimensional, and its facet normals
        are the primitive rays of the cone. The dual of a full-dimensional
        cone is pointed, and its generators, the dual's extreme rays, are its
        rays.
        """
        d = self.ambient_dim
        duals = self.dual_generators()
        if self.dim() == d:
            dual = Cone._trusted(d, duals)
            dual._pointed, dual._rays = True, duals
        else:
            dual = Cone(d, duals)
        if self.is_strongly_convex():
            dual._dual_gens, dual._dim = tuple(sorted(self.rays())), d
        return dual

    def contains(self, vec) -> bool:
        vec = _int_tuple(vec, self.ambient_dim)
        return all(_dot(n, vec) >= 0 for n in self.dual_generators())

    def __eq__(self, other):
        if not isinstance(other, Cone) or self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    __hash__ = None

    def dim(self) -> int:
        """The rank of the generators, cached; duals, products and double description set it."""
        if self._dim is None:
            self._dim = rank(IntMatrix._trusted(self.generators, self.ambient_dim))
        return self._dim

    def is_strongly_convex(self) -> bool:
        """No line lies in the cone: each generator pairs nonzero with some dual generator."""
        if self._pointed is None:
            duals = self.dual_generators()
            self._pointed = all(any(_dot(n, g) for n in duals) for g in self.generators)
        return self._pointed

    def rays(self):
        """Primitive generators of the edges, in lexicographic order.

        A generator spans an edge exactly when no other generator is tight
        on every dual generator it is tight on.
        """
        if self._rays is not None:
            return self._rays
        if not self.is_strongly_convex():
            raise NotStronglyConvex("rays are only unique for strongly convex cones")
        gens = self.generators
        tight = _tight(gens, self.dual_generators())
        self._rays = tuple(g for g, z in zip(gens, tight) if sum(w & z == z for w in tight) == 1)
        return self._rays

    def product(self, other: "Cone") -> "Cone":
        """The cone self x other, `_product` of the two: its dual and rays are theirs, embedded."""
        return _product((self, other))

    def hilbert_basis(self) -> Semigroup:
        """Minimal generating set of cone ∩ Z^d as a semigroup.

        Every irreducible element of a simplicial cone is one of its rays or
        a point of its half-open parallelepiped, so the nonzero points of
        `_lattice_points`, keyed by their slacks over the dual generators,
        go through `_kept_points` (Bruns & Ichim, J. Algebra 2010). Both
        count their work, against `cone.triangulation` and `cone.sieve`,
        and raise BudgetExceeded past either.
        """
        if not self.is_strongly_convex():
            raise NotPointed("Hilbert basis requires a cone with no line")
        rays = self.rays()
        if not rays:
            return Semigroup(self.ambient_dim, [])
        points = _kept_points(*_lattice_points(rays, self.dual_generators()))
        return Semigroup(self.ambient_dim, points)


def _placed(vectors, at, d):
    """Each vector padded with zeros into Z^d, its block starting at coordinate `at`."""
    return [(0,) * at + v + (0,) * (d - at - len(v)) for v in vectors]


def _embedded(dims, blocks):
    """The vectors of every block, placed into its place in Z^sum(dims), sorted."""
    d, at, out = sum(dims), 0, []
    for dim, block in zip(dims, blocks):
        out += _placed(block, at, d)
        at += dim
    return tuple(sorted(out))


def _product(cones):
    """The product of `cones`, composed from the factors in one pass.

    The dual of a product is the product of the duals, and the rays of a
    product of pointed cones are the embedded factor rays, so neither is
    enumerated again. The generators, dual generators and rays are each
    embedded and sorted once, O(k^2) entries over k factors.
    """
    dims = [c.ambient_dim for c in cones]
    cone = Cone._trusted(sum(dims), _embedded(dims, [c.generators for c in cones]))
    cone._dual_gens = _embedded(dims, [c.dual_generators() for c in cones])
    cone._dim = sum(c.dim() for c in cones)
    cone._pointed = all(c.is_strongly_convex() for c in cones)
    if cone._pointed:
        cone._rays = _embedded(dims, [c.rays() for c in cones])
    return cone


# -- functional aliases ----------------------------------------------------


def dual_cone(c: Cone) -> Cone:
    return c.dual()


def rays(c: Cone):
    """Indexed primitive ray generators, in the stored lexicographic order."""
    return list(enumerate(c.rays()))


def is_strongly_convex(c: Cone) -> bool:
    return c.is_strongly_convex()


def product(c1: Cone, c2: Cone) -> Cone:
    return c1.product(c2)


def hilbert_basis(c: Cone) -> Semigroup:
    return c.hilbert_basis()
