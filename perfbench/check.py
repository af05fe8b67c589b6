"""Second routes to the workloads' answers that do not call torica.

Hilbert functions come from ranks of Macaulay matrices over F_p, from
counting standard monomials, and from counting distinct column sums; ideal
membership from a plain reduction. None of this code is shared with the
library, so an answer that passes was computed twice by different means.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, gcd


def monomials(nvars, degree):
    """Exponent tuples of total degree `degree`."""
    return [e for e in product(range(degree + 1), repeat=nvars) if sum(e) == degree]


def grevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def rank_mod_p(rows, p):
    """Rank over F_p of a list of equal-length integer rows."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def hf_macaulay(gens, nvars, p, upto):
    """HF(R/I)(0..upto) for homogeneous generators given as {exps: coeff} dicts."""
    out = []
    for d in range(upto + 1):
        cols = {m: j for j, m in enumerate(monomials(nvars, d))}
        rows = []
        for g in gens:
            e = sum(next(iter(g)))
            if e > d:
                continue
            for m in monomials(nvars, d - e):
                row = [0] * len(cols)
                for exps, c in g.items():
                    row[cols[tuple(a + b for a, b in zip(exps, m))]] = c
                rows.append(row)
        out.append(len(cols) - (rank_mod_p(rows, p) if rows else 0))
    return out


def hf_standard_monomials(leads, nvars, upto):
    """HF of R/(monomial ideal of `leads`)(0..upto), by counting."""
    return [
        sum(1 for m in monomials(nvars, d) if not any(_divides(l, m) for l in leads))
        for d in range(upto + 1)
    ]


def hf_from_numerator(numerator, nvars, upto):
    """HF(0..upto) of the series N(t)/(1-t)^nvars."""
    return [
        sum(c * comb(d - j + nvars - 1, nvars - 1) for j, c in enumerate(numerator) if j <= d)
        for d in range(upto + 1)
    ]


def hf_column_sums(columns, upto):
    """HF of a graded semigroup ring: distinct sums of d columns, d = 0..upto."""
    out = []
    level = {tuple(0 for _ in columns[0])}
    for _ in range(upto + 1):
        out.append(len(level))
        level = {tuple(a + b for a, b in zip(v, c)) for v in level for c in columns}
    return out


def reduces_to_zero(poly, basis, p):
    """Does the remainder of `poly` by `basis` (all {exps: coeff}) under grevlex vanish?"""
    leads = []
    for g in basis:
        lt = max(g, key=grevlex)
        leads.append((lt, pow(g[lt], -1, p), g))
    work = {e: c % p for e, c in poly.items() if c % p}
    while work:
        e = max(work, key=grevlex)
        hit = next(((lt, inv, g) for lt, inv, g in leads if _divides(lt, e)), None)
        if hit is None:
            return False
        lt, inv, g = hit
        f = work[e] * inv % p
        shift = tuple(a - b for a, b in zip(e, lt))
        for ge, gc in g.items():
            te = tuple(a + b for a, b in zip(ge, shift))
            v = (work.get(te, 0) - f * gc) % p
            if v:
                work[te] = v
            else:
                work.pop(te, None)
    return True


def is_reduced_basis(basis, p):
    """Monic under grevlex, and no term of any element divisible by another's lead."""
    leads = [max(g, key=grevlex) for g in basis]
    if any(g[lt] % p != 1 for g, lt in zip(basis, leads)):
        return False
    return not any(
        _divides(leads[j], e) for i, g in enumerate(basis) for e in g for j in range(len(basis)) if j != i
    )


def gcd_maximal_minors(rows, dim):
    """gcd of all dim x dim minors of the row matrix."""
    g = 0
    for subset in combinations(rows, dim):
        g = gcd(g, det_int([list(r) for r in subset]))
    return g


def det_int(m):
    """Integer determinant by cofactor expansion, for the small matrices drawn here."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det_int([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))
