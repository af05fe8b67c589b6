"""Exact linear algebra over the integers.

One Hermite elimination, `_echelon`, brings the leading columns of the rows
it is given to Hermite form (Cohen, GTM 138, section 2.4) and applies the
same row operations to the rest of each row; it tracks no transform. A
caller that needs the transform T with T @ A == H appends the identity
itself and reads T off the extra columns; `solve_rational` appends only its
right-hand side. Hermite forms, rank, kernels, determinants, rational
solves and unimodular inverses are all read off it. `smith_normal_form`
has no elimination of its own: it alternates `_echelon` on the rows and
on the columns. Its U is not canonical, and class coordinates are read
off it, so a change to how the passes run changes the documented
coordinates of classes with free rank >= 2 or with torsion. `_echelon`
therefore keeps one order of row operations: per column, Euclid between
the smallest nonzero entry (ties by row index) and each larger one in
turn, the order a re-sort after every operation gives. Sorting once per
column and starting each operation at the column leave H, the transform
and so U what they were. Everything runs on Python ints, so nothing ever
overflows; back-substitution uses fractions.Fraction. Matrices built
from rows that are already int tuples skip the entry check
(`IntMatrix._trusted`); the public constructors keep it. Apart from the
elimination, `_lll` LLL-reduces a lattice basis in integers alone; the
toric ideals saturate the reduced kernel basis it gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul


def _dot(a, b):
    return sum(map(mul, a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _int_tuple(xs, length=None):
    """`xs` as a tuple of ints; ValueError on a non-integer entry or a length other than `length`."""
    xs = tuple(xs)
    ints = tuple(map(int, xs))
    if ints != xs:
        raise ValueError(f"not an integer vector: {list(xs)}")
    if length is not None and len(ints) != length:
        raise ValueError(f"expected a vector of length {length}, got {list(xs)}")
    return ints


class IntMatrix:
    """Integer matrix, stored row major as a tuple of tuples.

    Treated as immutable: algorithms copy the entries into lists, work
    there, and wrap the result in a fresh IntMatrix.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        data = tuple(_int_tuple(row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match entries")
        else:
            (width,) = _int_tuple((0 if cols is None else cols,))
        self.rows = len(data)
        self.cols = width
        self.entries = data

    @classmethod
    def _trusted(cls, rows, cols):
        """A matrix on rows the library built itself, int tuples of length `cols`, unchecked."""
        mat = cls.__new__(cls)
        mat.rows, mat.cols, mat.entries = len(rows), cols, rows
        return mat

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        cols = list(columns)
        if not cols:
            return cls([], cols=0) if rows is None else cls([[] for _ in range(rows)], cols=0)
        height = len(cols[0])
        if any(len(col) != height for col in cols):
            raise ValueError("ragged columns")
        return cls([[col[i] for col in cols] for i in range(height)])

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            return IntMatrix(
                [
                    [
                        sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                        for j in range(other.cols)
                    ]
                    for i in range(self.rows)
                ],
                cols=other.cols,
            )
        # matrix times vector
        vec = tuple(other)
        if self.cols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(row[k] * vec[k] for k in range(self.cols)) for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols, "entries": [list(r) for r in self.entries]}

    @classmethod
    def from_json(cls, data):
        mat = cls(data["entries"], cols=data.get("cols"))
        if "rows" in data and data["rows"] != mat.rows:
            raise ValueError("row count does not match entries")
        return mat


class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and diagonal D, d_i | d_{i+1}."""

    __slots__ = ("u", "d", "v", "invariant_factors")

    def __init__(self, u, d, v, invariant_factors):
        self.u = u
        self.d = d
        self.v = v
        self.invariant_factors = tuple(invariant_factors)

    def __iter__(self):
        yield self.u
        yield self.d
        yield self.v

    def __repr__(self):
        return f"SmithDecomposition(factors={self.invariant_factors})"


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with tracked transforms, from alternating Hermite forms.

    The rows of [D | U], then the rows of [D^T | V^T], and so on, go
    through `_echelon` until D is diagonal (Kannan & Bachem, SIAM J.
    Comput. 1979); each row operation reaches U or V^T as part of its row.
    Where d_k does not divide d_{k+1}, line k+1 is added to line k, and the
    next pass, across those lines, lowers d_k to their gcd without touching
    the entries above it. Pivots come out positive with the zeros last.
    """
    m, n = a.rows, a.cols
    d = a.entries
    left = [[int(i == j) for j in range(m)] for i in range(m)]
    right = [[int(i == j) for j in range(n)] for i in range(n)]
    flipped = False  # True while d holds D^T, left V^T and right U
    while True:
        h, _, _ = _echelon([list(x) + y for x, y in zip(d, left)], n)
        d, left = [row[:n] for row in h], [row[n:] for row in h]
        if not any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
            factors = [d[i][i] for i in range(min(m, n))]
            k = next((k for k, f in enumerate(factors[:-1]) if f and factors[k + 1] % f), None)
            if k is None:
                break
            d[k] = [x + y for x, y in zip(d[k], d[k + 1])]
            left[k] = [x + y for x, y in zip(left[k], left[k + 1])]
        d = [[row[j] for row in d] for j in range(n)]
        m, n, left, right, flipped = n, m, right, left, not flipped
    if flipped:
        d = [[row[j] for row in d] for j in range(n)]
        m, n, left, right = n, m, right, left
    u = IntMatrix._trusted(tuple(map(tuple, left)), m)
    v = IntMatrix._trusted(tuple(zip(*right)), n)
    return SmithDecomposition(u, IntMatrix._trusted(tuple(map(tuple, d)), n), v, factors)


def _echelon(rows, ncols):
    """Hermite elimination of the first `ncols` columns of the rows.

    Returns (H, rank, sign). H holds the rows after the elimination, each
    as long as it was given: its first `ncols` columns are the row-style
    Hermite form with its zero rows last, and every further column has
    undergone the same row operations, so T @ [A | B] == [H_A | T @ B] for a
    unimodular T. sign is det(T), which each row swap and each negation flips.

    In each column the rows still below the pivots that are nonzero there
    are sorted once by absolute value, ties by row index. The first is the
    survivor, and Euclid runs between it and each further row in that order:
    the row of larger absolute value loses a multiple of the other, and a
    nonzero remainder, now the strictly smallest entry of the column, takes
    over as survivor. That is the row operation a re-sort after every step
    would pick, in the same order, so H, sign and every appended column,
    and with them the U and V of `smith_normal_form`, are those of that
    one-step-at-a-time elimination. Rows at or below the pivot row are zero
    left of `col`, so each operation starts at `col`.
    """
    m = len(rows)
    h = [list(row) for row in rows]
    sign = 1
    r = 0
    for col in range(ncols):
        if r >= m:
            break
        live = [i for i in range(r, m) if h[i][col]]
        if not live:
            continue
        if len(live) > 1:
            live.sort(key=lambda i: abs(h[i][col]))
        s = live[0]
        for t in live[1:]:
            base, other = h[s], h[t]
            while True:
                q = other[col] // base[col]
                other[col:] = [x - q * y for x, y in zip(other[col:], base[col:])]
                if not other[col]:
                    break
                s, t, base, other = t, s, other, base
        if s != r:
            h[r], h[s] = h[s], h[r]
            sign = -sign
        row = h[r]
        if row[col] < 0:
            row[col:] = [-x for x in row[col:]]
            sign = -sign
        pivot = row[col]
        tail = row[col:]
        for i in range(r):
            q = h[i][col] // pivot
            if q:
                h[i][col:] = [x - q * y for x, y in zip(h[i][col:], tail)]
        r += 1
    return h, r, sign


def _with_identity(rows):
    """The rows of [A | I], whose extra columns `_echelon` turns into its transform T."""
    m = len(rows)
    return [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form of the row lattice of `a`.

    Pivots are positive, strictly to the right as you go down, entries
    above a pivot lie in [0, pivot). Zero rows are dropped, so the result
    is the canonical basis of the row lattice.
    """
    h, r, _ = _echelon(a.entries, a.cols)
    return IntMatrix(h[:r], cols=a.cols)


def lattice_member(hnf: IntMatrix, vec) -> bool:
    """Is `vec` in the row lattice presented by a Hermite normal form?"""
    v = _int_tuple(vec, hnf.cols)
    for row in hnf.entries:
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def rank(a: IntMatrix) -> int:
    return _echelon(a.entries, a.cols)[1]


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis for {x : A x = 0}, as the columns of the returned matrix.

    The rows of T that sit on zero rows of the echelon form T @ A^T, read
    off the identity appended to A^T, span the full (saturated) kernel
    lattice, since T is unimodular. They are normalized by Hermite
    reduction, so equal kernels give equal matrices.
    """
    h, r, _ = _echelon(_with_identity(a.transpose().entries), a.rows)
    reduced = hermite_normal_form(IntMatrix([row[a.rows :] for row in h[r:]], cols=a.cols))
    return IntMatrix.from_columns(reduced.entries, rows=a.cols)


def _lll(rows):
    """An LLL-reduced basis, delta = 99/100, of the lattice spanned by independent integer rows.

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): the Gram-Schmidt data are kept
    as integers, d[j] the Gram determinant of the first j rows (d[0] = 1) and
    lam[k][j] = d[j + 1] mu_kj, so no fraction is formed. Each step adds an
    integer multiple of one row to another or swaps two, so the rows span the
    same lattice. Returns the rows as int tuples, [] for no rows.
    """
    b = [list(row) for row in rows]
    n = len(b)
    if not n:
        return []
    d = [1, _dot(b[0], b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = _dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        size_reduce(k, k - 1)
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            c = lam[k][k - 1]
            new = (d[k - 1] * d[k + 1] + c * c) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - c * t) // d[k]
                lam[i][k - 1] = (new * t + c * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return [tuple(row) for row in b]


def cokernel_presentation(a: IntMatrix):
    """(free_rank, torsion factors > 1) of Z^rows / column span of A."""
    snf = smith_normal_form(a)
    nonzero = [f for f in snf.invariant_factors if f != 0]
    free_rank = a.rows - len(nonzero)
    torsion = tuple(f for f in nonzero if f > 1)
    return free_rank, torsion


def det(a: IntMatrix) -> int:
    """Determinant: det(T) times the diagonal of the Hermite form H = T @ A."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    h, _, sign = _echelon(a.entries, a.cols)
    return sign * prod(row[i] for i, row in enumerate(h))  # a zero row when singular


def solve_rational(a: IntMatrix, rhs):
    """Unique rational solution of A x = rhs, or None.

    Returns None when the system is singular (no unique solution) or
    inconsistent. The rows of [A | rhs] go through `_echelon`, which leaves
    [H | T rhs] with T @ A == H. A unique solution needs rank == cols and
    (T rhs)[cols:] == 0; it is then back-substituted on H.
    """
    rhs = [Fraction(b) for b in rhs]
    if len(rhs) != a.rows:
        raise ValueError("right-hand side length does not match the rows")
    n = a.cols
    h, r, _ = _echelon([list(row) + [b] for row, b in zip(a.entries, rhs)], n)
    if r < n:
        return None
    c = [row[n] for row in h]
    if any(c[n:]):
        return None
    sol = [Fraction(0)] * n
    for i in reversed(range(n)):
        sol[i] = (c[i] - sum(h[i][j] * sol[j] for j in range(i + 1, n))) / h[i][i]
    return sol


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix: T, once T @ A is the identity.

    T is read off the identity appended to A.
    """
    n = a.rows
    if a.cols != n:
        raise ValueError("not square")
    h, _, _ = _echelon(_with_identity(a.entries), n)
    if [row[:n] for row in h] != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise ValueError("matrix is not unimodular")
    return IntMatrix([row[n:] for row in h], cols=n)
