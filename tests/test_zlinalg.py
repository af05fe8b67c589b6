"""Integer linear algebra: frozen examples plus randomized structure checks."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from torica import (
    IntMatrix,
    cokernel_presentation,
    det,
    hermite_normal_form,
    invert_unimodular,
    kernel_basis,
    lattice_member,
    rank,
    smith_normal_form,
    solve_rational,
)
from torica.zlinalg import _echelon, _lll

from suites import check_smith, snf_suite

PHI_ROWS = [
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [1, 2, 0, 1, 2, 0],
]


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], cols=3)
    m = IntMatrix([], cols=4)
    assert m.rows == 0 and m.cols == 4


def test_matrix_products_and_columns():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert a @ (5, 7) == (19, 43)
    assert a.column(1) == (2, 4)
    assert IntMatrix.from_columns([(1, 0), (2, 1)]).entries == ((1, 2), (0, 1))


def test_smith_normal_form_frozen_example():
    dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert dec.invariant_factors == (2, 4)
    assert (dec.u @ IntMatrix([[2, 4], [6, 8]]) @ dec.v).entries == ((2, 0), (0, 4))


@pytest.mark.parametrize(
    "entries, cols, factors",
    [
        ([], 0, ()),
        ([], 3, ()),
        ([[], [], []], 0, ()),
        ([[0, 0], [0, 0], [0, 0]], 2, (0, 0)),
        ([[0, 1], [0, 0]], 2, (1, 0)),
        ([[2, 0], [0, 3]], 2, (1, 6)),
        ([[4, 0], [0, 6]], 2, (2, 12)),
        ([[2, 0, 0], [0, 4, 0], [0, 0, 3]], 3, (1, 2, 12)),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3, (1, 30, 30)),
    ],
)
def test_smith_normal_form_degenerate_shapes_and_divisibility_steps(entries, cols, factors):
    a = IntMatrix(entries, cols=cols)
    dec = check_smith(a)
    assert dec.invariant_factors == factors
    assert (dec.u.rows, dec.d.rows, dec.d.cols, dec.v.cols) == (a.rows, a.rows, a.cols, a.cols)


def test_smith_normal_form_of_phi():
    dec = smith_normal_form(IntMatrix(PHI_ROWS))
    assert dec.invariant_factors == (1, 1, 1)


def test_hermite_normal_form_examples():
    h = hermite_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert h.entries == ((2, 0), (0, 4))
    h = hermite_normal_form(IntMatrix([[0, 0], [0, 0]]))
    assert h.rows == 0
    h = hermite_normal_form(IntMatrix([[3, 1], [1, 1]]))
    # pivots positive, entries above reduced into [0, pivot)
    assert h.entries == ((1, 1), (0, 2))


def test_hermite_row_space_membership():
    rows = IntMatrix([[2, 0, 1], [0, 3, 1]])
    h = hermite_normal_form(rows)
    assert lattice_member(h, (2, 3, 2))
    assert lattice_member(h, (4, -3, 1))
    assert not lattice_member(h, (1, 0, 0))


def test_kernel_basis_of_phi_is_relation_lattice():
    kb = kernel_basis(IntMatrix(PHI_ROWS))
    columns = [kb.column(j) for j in range(kb.cols)]
    assert columns == [
        (1, 0, -1, 1, -1, 0),
        (0, 1, -1, 0, -1, 1),
        (0, 0, 0, 2, -1, -1),
    ]
    phi = IntMatrix(PHI_ROWS)
    for c in columns:
        assert phi @ c == (0, 0, 0)


def test_kernel_basis_random_annihilation():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        kb = kernel_basis(a)
        assert rank(kb) == kb.cols == cols - rank(a)
        for j in range(kb.cols):
            assert a @ kb.column(j) == (0,) * rows


def _gram_schmidt(rows):
    """(mu, squared norms b*_i . b*_i) of the rows, in exact fractions."""
    stars, norms = [], []
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        star = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(row, stars[j])) / norms[j]
            star = [x - mu[i][j] * y for x, y in zip(star, stars[j])]
        stars.append(star)
        norms.append(sum(x * x for x in star))
    return mu, norms


def test_lll_reduces_seeded_bases_of_the_same_lattice():
    """200 seeded independent bases: same lattice, size-reduced, Lovasz at 99/100."""
    assert _lll([]) == []
    rng = random.Random(28)
    for _ in range(200):
        n = rng.randint(1, 8)
        cols = rng.randint(n, 8)
        rows = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(n)]
        while rank(IntMatrix(rows)) < n:
            rows = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(n)]
        reduced = _lll(rows)
        assert len(reduced) == n and all(type(x) is int for row in reduced for x in row)
        assert hermite_normal_form(IntMatrix(reduced)) == hermite_normal_form(IntMatrix(rows))
        mu, norms = _gram_schmidt(reduced)
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i)), rows
        for k in range(1, n):
            assert norms[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * norms[k - 1], rows


def test_cokernel_presentation_examples():
    free, torsion = cokernel_presentation(IntMatrix([[2, 0], [0, 3]]))
    assert (free, torsion) == (0, (6,))
    free, torsion = cokernel_presentation(IntMatrix([[1, 0], [0, 1], [0, 0]]))
    assert (free, torsion) == (1, ())
    free, torsion = cokernel_presentation(IntMatrix([[2, 2], [2, 2]]))
    assert (free, torsion) == (1, (2,))


def test_det_bareiss_against_permutation_expansion():
    def brute_det(entries):
        n = len(entries)
        if n == 1:
            return entries[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
            sign = -1 if j % 2 else 1
            total += sign * entries[0][j] * brute_det(minor)
        return total

    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        entries = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(entries)) == brute_det(entries)


def test_solve_rational():
    a = IntMatrix([[2, 0], [0, 4]])
    assert solve_rational(a, (1, 1)) == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_rational(IntMatrix([[1, 1], [2, 2]]), (1, 3)) is None
    assert solve_rational(IntMatrix([[1, 1], [2, 2]]), (1, 2)) is None  # underdetermined
    tall = IntMatrix([[1, 0], [0, 1], [1, 1]])
    assert solve_rational(tall, (2, 3, 5)) == [Fraction(2), Fraction(3)]
    assert solve_rational(tall, (2, 3, 6)) is None


def test_invert_unimodular():
    u = IntMatrix([[2, 1], [1, 1]])
    inv = invert_unimodular(u)
    assert (u @ inv).entries == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        invert_unimodular(IntMatrix([[2, 0], [0, 1]]))


def test_json_round_trip():
    a = IntMatrix([[1, -2, 3], [0, 5, -6]])
    assert IntMatrix.from_json(a.to_json()) == a


def test_snf_property_suite():
    snf_suite(cases=500)


# -- reference routes: the separate eliminations the Hermite core replaced ----


def _bareiss_det(a):
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


def _gauss_jordan_solve(a, rhs):
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
    if len(pivots) < n or any(aug[i][n] != 0 for i in range(row, m)):
        return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol


def _gauss_jordan_inverse(a):
    n = a.rows
    cols = []
    for j in range(n):
        sol = _gauss_jordan_solve(a, [int(i == j) for i in range(n)])
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        cols.append([int(x) for x in sol])
    return IntMatrix.from_columns(cols, rows=n)


def _smith_then_hermite_kernel(a):
    if a.rows == 0:
        return IntMatrix.identity(a.cols)
    snf = smith_normal_form(a)
    r = sum(1 for f in snf.invariant_factors if f != 0)
    cols = [snf.v.column(j) for j in range(r, a.cols)]
    if not cols:
        return IntMatrix([[] for _ in range(a.cols)], cols=0)
    reduced = hermite_normal_form(IntMatrix(cols))
    return IntMatrix.from_columns([list(row) for row in reduced.entries], rows=a.cols)


def _cofactor_det(entries):
    if not entries:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1 :] for row in entries[1:]])
        for j, x in enumerate(entries[0])
        if x
    )


def _differential_panel():
    """Seeded matrices: square, wide, tall, rank-deficient, zero-row and zero-column."""
    rng = random.Random(2024)
    panel = [IntMatrix([], cols=0), IntMatrix([], cols=3), IntMatrix([[], [], []], cols=0)]
    for _ in range(600):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        bound = rng.choice((1, 3, 9))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:  # force a dependent row
            c = rng.randint(-2, 2)
            rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
        panel.append(IntMatrix(rows, cols=n))
    for _ in range(200):  # unimodular: Smith transforms of random maps
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        panel.append(smith_normal_form(a).u)
    return panel, rng


def test_hermite_core_matches_reference_eliminations():
    panel, rng = _differential_panel()
    seen = set()
    for a in panel:
        r = rank(a)
        kinds = {
            "zero-row": a.rows == 0,
            "zero-column": a.cols == 0,
            "tall": a.rows > a.cols,
            "rank-deficient": 0 < r < min(a.rows, a.cols),
        }
        seen.update(kind for kind, hit in kinds.items() if hit)
        assert kernel_basis(a) == _smith_then_hermite_kernel(a)
        assert hermite_normal_form(a).rows == r
        for _ in range(2):
            rhs = [rng.randint(-4, 4) for _ in range(a.rows)]
            if rng.random() < 0.5 and a.cols:  # a consistent right-hand side
                rhs = list(a @ [rng.randint(-3, 3) for _ in range(a.cols)])
            sol = solve_rational(a, rhs)
            assert sol == _gauss_jordan_solve(a, rhs)
            assert sol is None or all(type(x) is Fraction for x in sol)
        if a.rows == a.cols:
            assert det(a) == _bareiss_det(a)
            ref = _gauss_jordan_inverse(a)
            if ref is None:
                with pytest.raises(ValueError):
                    invert_unimodular(a)
            else:
                seen.add("unimodular")
                assert invert_unimodular(a) == ref
    assert {"zero-row", "zero-column", "tall", "rank-deficient", "unimodular"} <= seen


def test_smith_prefix_products_are_gcds_of_minors():
    rng = random.Random(31)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        entries = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            entries[-1] = [2 * x for x in entries[0]]
        factors = smith_normal_form(IntMatrix(entries)).invariant_factors
        product = 1
        for k in range(1, min(m, n) + 1):
            product *= factors[k - 1]
            minors = 0
            for rows in combinations(range(m), k):
                for cols in combinations(range(n), k):
                    minors = gcd(minors, _cofactor_det([[entries[i][j] for j in cols] for i in rows]))
            assert product == minors


def test_non_integral_entries_are_refused():
    for entries in ([[1.5, 1]], [[1, 0], [0, Fraction(1, 2)]], [["2"]]):
        with pytest.raises(ValueError):
            IntMatrix(entries)
    assert IntMatrix([[2.0, Fraction(4, 2)]]).entries == ((2, 2),)
    with pytest.raises(ValueError):
        IntMatrix.from_json({"entries": [[0.5]]})


def test_non_integral_column_count_is_refused():
    with pytest.raises(ValueError):
        IntMatrix([], cols=2.5)
    assert IntMatrix([], cols=2.0).cols == 2


def test_lattice_member_refuses_non_integral_vectors():
    hnf = hermite_normal_form(IntMatrix([[2, 0], [0, 2]]))
    with pytest.raises(ValueError):
        lattice_member(hnf, (2.5, 0))
    assert lattice_member(hnf, (2.0, 4)) and not lattice_member(hnf, (3, 0))


def test_shape_checks():
    a = IntMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        solve_rational(a, (1, 2, 3))
    with pytest.raises(ValueError):
        solve_rational(a, (1,))
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1,), (2, 3)])


def _one_step_echelon(rows, ncols):
    """The elimination `_echelon` replaced: one row operation per step, then a fresh sort.

    In each column the nonzero rows below the pivots are sorted by absolute
    value, ties by row index, and the second loses a multiple of the first,
    until one nonzero row is left.
    """
    m = len(rows)
    h = [list(row) for row in rows]
    sign = 1
    r = 0
    for col in range(ncols):
        if r >= m:
            break
        while True:
            live = [i for i in range(r, m) if h[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(h[i][col]))
            base, other = live[0], live[1]
            q = h[other][col] // h[base][col]
            h[other] = [x - q * y for x, y in zip(h[other], h[base])]
        if not live:
            continue
        i = live[0]
        if i != r:
            h[r], h[i] = h[i], h[r]
            sign = -sign
        if h[r][col] < 0:
            h[r] = [-x for x in h[r]]
            sign = -sign
        pivot = h[r][col]
        for i in range(r):
            q = h[i][col] // pivot
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
    return h, r, sign


def test_echelon_matches_one_step_elimination():
    """(H, rank, sign) and the appended identity's transform equal the one-step loop's.

    Seeded matrices with 1-7 rows, 1-7 eliminated columns, 0-7 further
    columns and entries in [-20, 20]; zeros, repeated absolute values and
    dependent rows are drawn on purpose, since they decide ties.
    """
    rng = random.Random(97)
    for _ in range(3000):
        m, n, extra = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 7)
        bound = rng.choice((1, 3, 20))
        rows = [
            [rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(n + extra)]
            for _ in range(m)
        ]
        if m >= 2 and rng.random() < 0.3:
            rows[-1] = [rng.choice((-2, 1, 3)) * x for x in rows[0]]
        rows = [row + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
        assert _echelon(rows, n) == _one_step_echelon(rows, n), (rows, n)


# Ray-pairing matrices with free rank >= 2 or torsion, and the U, D, V that
# `smith_normal_form` gives them; class coordinates are read off U.
PINNED_SMITH = [
    (
        [[-1, 0, 1], [0, -1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
        [[0, 0, -1, 0, 1], [1, -1, -1, 0, 1], [1, 0, -1, 0, 1], [1, -1, -1, 1, 0],
         [-2, 1, 3, 0, -2]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ),
    (
        [[0, 0, 1], [1, 2, 0], [2, 1, 0]],
        [[0, 1, 0], [1, 0, 0], [3, -2, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 3]],
        [[1, -2, 2], [0, 1, -1], [0, 1, 0]],
    ),
    (
        [[-1, -2, 1], [0, 0, -1], [1, 0, 0]],
        [[0, 0, 1], [-1, -2, -1], [1, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[1, 0, 0], [0, 0, -1], [0, 1, 2]],
    ),
    (
        [[-1, -1, 0, -1], [-1, 0, -1, -1], [1, -1, -1, 0], [1, -1, 0, -1]],
        [[0, -1, 1, -1], [0, -1, 1, -2], [1, -2, 1, -2], [1, -2, 2, -3]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]],
        [[1, 0, 0, -2], [0, 1, 0, -3], [0, 0, 1, -3], [0, 0, 0, 1]],
    ),
]


@pytest.mark.parametrize("pairing, u, d, v", PINNED_SMITH)
def test_smith_transforms_are_pinned(pairing, u, d, v):
    snf = smith_normal_form(IntMatrix(pairing))
    assert (snf.u, snf.d, snf.v) == (IntMatrix(u), IntMatrix(d), IntMatrix(v))
    assert snf.u @ IntMatrix(pairing) @ snf.v == snf.d
