"""Exact linear algebra over the integers.

Hermite and Smith normal forms with tracked unimodular transforms, integer
kernels, and cokernel presentations. Everything runs on Python ints, so
nothing ever overflows; rational solves use fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class IntMatrix:
    """Integer matrix, stored row major as a tuple of tuples.

    Treated as immutable: algorithms copy the entries into lists, work
    there, and wrap the result in a fresh IntMatrix.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match entries")
        else:
            width = 0 if cols is None else int(cols)
        self.rows = len(data)
        self.cols = width
        self.entries = data

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


def _xgcd(a, b):
    # returns (g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with tracked transforms.

    Pivots are chosen as the smallest nonzero absolute value in the
    remaining block, which keeps intermediate entries small on the sparse
    matrices this library produces.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def combine_rows(i, j, x, y, s, t):
        # (row_i, row_j) <- (x*row_i + y*row_j, s*row_i + t*row_j), det +-1
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            for k in range(len(ri)):
                ri[k], rj[k] = x * ri[k] + y * rj[k], s * ri[k] + t * rj[k]

    def combine_cols(i, j, x, y, s, t):
        for mat in (d, v):
            for row in mat:
                row[i], row[j] = x * row[i] + y * row[j], s * row[i] + t * row[j]

    def clear_col_entry(pivot, i):
        # zero out d[i][pivot] against d[pivot][pivot] by a unimodular row pair
        p, q = d[pivot][pivot], d[i][pivot]
        if q == 0:
            return
        if p != 0 and q % p == 0:
            f = q // p
            for mat in (d, u):
                rp, ri = mat[pivot], mat[i]
                for k in range(len(ri)):
                    ri[k] -= f * rp[k]
            return
        g, x, y = _xgcd(p, q)
        combine_rows(pivot, i, x, y, -(q // g), p // g)

    def clear_row_entry(pivot, j):
        p, q = d[pivot][pivot], d[pivot][j]
        if q == 0:
            return
        if p != 0 and q % p == 0:
            f = q // p
            for mat in (d, v):
                for row in mat:
                    row[j] -= f * row[pivot]
            return
        g, x, y = _xgcd(p, q)
        combine_cols(pivot, j, x, y, -(q // g), p // g)

    limit = min(m, n)
    for k in range(limit):
        # move the smallest nonzero entry of the remaining block to (k, k)
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        while True:
            for i in range(k + 1, m):
                clear_col_entry(k, i)
            for j in range(k + 1, n):
                clear_row_entry(k, j)
            if all(d[i][k] == 0 for i in range(k + 1, m)) and all(
                d[k][j] == 0 for j in range(k + 1, n)
            ):
                break

    # sign normalization
    for k in range(limit):
        if d[k][k] < 0:
            for mat in (d, u):
                mat[k] = [-x for x in mat[k]]

    # push zero pivots to the end
    diag_len = limit
    nonzero = [k for k in range(diag_len) if d[k][k] != 0]
    for target, src in enumerate(nonzero):
        if src != target:
            swap_rows(target, src)
            swap_cols(target, src)

    # divisibility sweep: make d_k | d_{k+1}
    r = len(nonzero)
    changed = True
    while changed:
        changed = False
        for k in range(r - 1):
            a_k, a_next = d[k][k], d[k + 1][k + 1]
            if a_next % a_k != 0:
                changed = True
                # bring a_next into row k, then re-clear the 2x2 block
                for mat in (d, u):
                    row_k, row_next = mat[k], mat[k + 1]
                    for idx in range(len(row_k)):
                        row_k[idx] += row_next[idx]
                while d[k][k + 1] != 0 or d[k + 1][k] != 0:
                    clear_row_entry(k, k + 1)
                    clear_col_entry(k, k + 1)
                if d[k][k] < 0:
                    for mat in (d, u):
                        mat[k] = [-x for x in mat[k]]
                if d[k + 1][k + 1] < 0:
                    for mat in (d, u):
                        mat[k + 1] = [-x for x in mat[k + 1]]

    factors = tuple(d[k][k] for k in range(limit))
    return SmithDecomposition(IntMatrix(u), IntMatrix(d), IntMatrix(v), factors)


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form of the row lattice of `a`.

    Pivots are positive, strictly to the right as you go down, entries
    above a pivot lie in [0, pivot). Zero rows are dropped, so the result
    is the canonical basis of the row lattice.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        # reduce rows >= pivot_row until at most one has a nonzero in col
        while True:
            live = [i for i in range(pivot_row, m) if h[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(h[i][col]))
            base, other = live[0], live[1]
            q = h[other][col] // h[base][col]
            h[other] = [x - q * y for x, y in zip(h[other], h[base])]
        live = [i for i in range(pivot_row, m) if h[i][col] != 0]
        if not live:
            continue
        i = live[0]
        h[pivot_row], h[i] = h[i], h[pivot_row]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
        pivot = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // pivot
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
        pivot_row += 1
    return IntMatrix([row for row in h[:pivot_row]], cols=n)


def lattice_member(hnf: IntMatrix, vec) -> bool:
    """Is `vec` in the row lattice presented by a Hermite normal form?"""
    v = [int(x) for x in vec]
    if hnf.cols != len(v):
        raise ValueError("dimension mismatch")
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
    return hermite_normal_form(a).rows


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis for {x : A x = 0}, as the columns of the returned matrix.

    The basis spans the full (saturated) kernel lattice and is normalized
    by Hermite reduction, so equal kernels give equal matrices.
    """
    if a.rows == 0:
        basis = IntMatrix.identity(a.cols)
        return basis
    snf = smith_normal_form(a)
    r = sum(1 for f in snf.invariant_factors if f != 0)
    cols = [snf.v.column(j) for j in range(r, a.cols)]
    if not cols:
        return IntMatrix([[] for _ in range(a.cols)], cols=0)
    reduced = hermite_normal_form(IntMatrix(cols))
    return IntMatrix.from_columns([list(row) for row in reduced.entries], rows=a.cols)


def cokernel_presentation(a: IntMatrix):
    """(free_rank, torsion factors > 1) of Z^rows / column span of A."""
    snf = smith_normal_form(a)
    nonzero = [f for f in snf.invariant_factors if f != 0]
    free_rank = a.rows - len(nonzero)
    torsion = tuple(f for f in nonzero if f > 1)
    return free_rank, torsion


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_rational(a: IntMatrix, rhs):
    """Unique rational solution of A x = rhs, or None.

    Returns None when the system is singular (no unique solution) or
    inconsistent. Used for unimodular inversion.
    """
    m, n = a.rows, a.cols
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(a.entries, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if len(pivots) < n:
        return None
    for i in range(row, m):
        if aug[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    n = a.rows
    if a.cols != n:
        raise ValueError("not square")
    cols = []
    for j in range(n):
        rhs = [int(i == j) for i in range(n)]
        sol = solve_rational(a, rhs)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("matrix is not unimodular")
        cols.append([int(x) for x in sol])
    return IntMatrix.from_columns(cols, rows=n)
