"""Multivariate polynomials over a prime field with a Buchberger engine.

Polynomials are dicts mapping exponent tuples to nonzero coefficients in
F_p. Every monomial order (grevlex, lex, ("elim", k)) is a nonnegative
weight matrix: compare the weights, then the exponents. The Buchberger
engine packs each monomial into one int (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007; see `_Packing`), whose weight fields are put on its exponent
fields by one multiply per span of the order, divides with a heap,
prunes S-pairs by the Gebauer-Moeller criteria (JSC 6, 1988), which read
lcms, divisibility and equality off the packed exponent fields without
unpacking them (Monagan & Pearce, "Sparse polynomial division using a
heap", JSC 46, 2011), and raises BudgetExceeded past its pair and
basis-size budget. It can start from a known reduced basis, whose
elements it pairs only with the new generators. An ideal caches its
reduced basis as the engine returns it: the packing and the monic packed
records (leading monomial, tail terms) sorted by the order. Normal forms
reduce by those records, which become Polynomials only when the basis is
read; callers only see exponent tuples. On top of the basis machinery
this module provides elimination, saturation (whose grevlex basis is the
t-free elimination records, each packed int shifted down by one field,
never unpacked and packed again), quotient vector-space dimensions, and
exact Hilbert-series certificates for regular sequences (on quotient
rings and on monomial modules presented by ideals), each step's basis
grown from the previous step's. Monomial Hilbert numerators recurse on
packed exponent fields too, with one memo per field width, kept across
the steps of one certificate.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import comb

# The six `polyring.*` budgets of `errors.BUDGETS` are charged here (docs/formats.md, "Budgets").
from .errors import BASIS, DEGREE, PAIRS, PARSE, REDUCTION, STANDARD_MONOMIALS, NotHomogeneous
from .zlinalg import _int_tuple

INFINITE = float("inf")

# Miller-Rabin on the primes up to 41 decides primality exactly below this
# bound (Sorenson & Webster, Math. Comp. 86, 2017); a larger field is refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Is n, below `_PRIME_BOUND`, prime? Miller-Rabin on `_PRIME_BASES`."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n < _PRIME_BASES[-1] ** 2:  # a composite this small has a factor among the bases
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _spans(order, nvars):
    """The spans of variables, (lo, hi), on each of which the order is grevlex.

    grevlex has one span of all variables, ("elim", k) the first k
    variables and then the rest, and lex has none.
    """
    if order == "grevlex":
        return ((0, nvars),)
    if order == "lex":
        return ()
    if isinstance(order, tuple) and len(order) == 2 and order[0] == "elim":
        k = order[1]
        if type(k) is not int or not 0 < k < nvars:
            raise ValueError(
                f"elimination block size must be an integer in 1..{nvars - 1}, got {k!r}"
            )
        return ((0, k), (k, nvars))
    raise ValueError(f"unknown monomial order: {order!r}")


def _weight_rows(spans, nvars):
    """Nonnegative weight rows; comparing them, then the exponents, is the order.

    Each span [lo, hi) gives its degree, then the partial sums
    e_lo + .. + e_(hi-2), .., e_lo: grevlex on that span.
    """
    return [
        tuple(int(lo <= i < j) for i in range(nvars))
        for lo, hi in spans
        for j in range(hi, lo, -1)
    ]


def order_key(order, nvars):
    """Key function on exponent tuples; larger key = larger monomial."""
    rows = _weight_rows(_spans(order, nvars), nvars)
    return lambda e: tuple(sum(w * x for w, x in zip(row, e)) for row in rows) + tuple(e)


class PolyRing:
    """F_p[x_1..x_n] for a prime p and named variables."""

    __slots__ = ("char", "variables", "_index")

    def __init__(self, char, variables):
        (char,) = _int_tuple((char,))
        if char >= _PRIME_BOUND:
            raise ValueError(f"characteristic must be below {_PRIME_BOUND}, got {char}")
        if not _is_prime(char):
            raise ValueError(f"characteristic must be prime, got {char}")
        names = tuple(str(v) for v in variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.char = char
        self.variables = names
        self._index = {name: i for i, name in enumerate(names)}

    @classmethod
    def _trusted(cls, char, names):
        """A ring derived from a checked one: its prime and distinct str names, unchecked."""
        ring = cls.__new__(cls)
        ring.char, ring.variables = char, names
        ring._index = {name: i for i, name in enumerate(names)}
        return ring

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.char == other.char
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.char, self.variables))

    def __repr__(self):
        return f"PolyRing(char={self.char}, variables={list(self.variables)})"

    # -- polynomial constructors ----------------------------------------------

    def polynomial(self, terms):
        return Polynomial(self, terms)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name):
        e = [0] * self.nvars
        e[self._index[name]] = 1
        return Polynomial(self, {tuple(e): 1})

    def monomial(self, exponents, coeff=1):
        return Polynomial(self, {_int_tuple(exponents): coeff})

    def binomial_from_vector(self, vec):
        """z^(positive part) - z^(negative part) for an integer vector."""
        pos = tuple(max(x, 0) for x in vec)
        neg = tuple(max(-x, 0) for x in vec)
        return Polynomial(self, {pos: 1}) - Polynomial(self, {neg: 1})

    def ideal(self, generators, order="grevlex"):
        return Ideal(self, generators, order=order)

    # -- parsing ----------------------------------------------------------------

    def parse(self, text):
        """Parse `A^2 - B*C` style syntax into a Polynomial."""
        tokens = _tokenize(text)
        parser = _Parser(self, tokens)
        poly = parser.expression()
        parser.expect_end()
        return poly


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in polynomial")
    return tokens


# Each parenthesis costs the recursive parser four frames, so deeper input
# would end in a RecursionError instead of a refusal.
_MAX_NESTING = 100


class _Parser:
    """Recursive descent; every product it forms, in powers too, counts len(a.terms) * len(b.terms)."""

    def __init__(self, ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.work = 0

    def product(self, a, b):
        self.work = PARSE.charge(self.work + len(a.terms) * len(b.terms))
        return a * b

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self):
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input at token {self.tokens[self.pos]!r}")

    def expression(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        result = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            result = result + t if op == "+" else result - t
        return result

    def term(self):
        result = self.factor()
        while self.peek() == "*":
            self.next()
            result = self.product(result, self.factor())
        return result

    def factor(self):
        base = self.base()
        if self.peek() == "^":
            self.next()
            kind, value = self.next()
            if kind != "num":
                raise ValueError("exponent must be a number")
            return _power(base, value, self.product)
        return base

    def base(self):
        kind, value = self.next()
        if kind == "num":
            return self.ring.constant(value)
        if kind == "name":
            if value not in self.ring._index:
                raise ValueError(f"unknown variable {value!r}")
            return self.ring.variable(value)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {_MAX_NESTING} levels")
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            if self.next()[0] != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        raise ValueError(f"unexpected token {value!r}")


class Polynomial:
    """Element of a PolyRing; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        p = ring.char
        clean = {}
        for exps, coeff in terms.items():
            (c,) = _int_tuple((coeff,))
            c %= p
            if c:
                e = _int_tuple(exps)
                if len(e) != ring.nvars or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent vector {e!r}")
                clean[e] = c
        self.ring = ring
        self.terms = clean

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.char
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return _poly(self.ring, out)

    def __neg__(self):
        p = self.ring.char
        return _poly(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.char
            if c == 0:
                return self.ring.zero()
            return _poly(self.ring, {e: (c * v) % self.ring.char for e, v in self.terms.items()})
        self._check(other)
        p = self.ring.char
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return _poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Polynomial.__mul__)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- structure ----------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_term(self, key):
        e = max(self.terms, key=key)
        return e, self.terms[e]

    # -- display --------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        key = order_key("grevlex", self.ring.nvars)
        p = self.ring.char
        parts = []
        for e in sorted(self.terms, key=key, reverse=True):
            c = self.terms[e]
            lifted = c if c <= p // 2 else c - p
            parts.append((lifted, e))
        pieces = []
        for i, (c, e) in enumerate(parts):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            mono = "*".join(
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(self.ring.variables, e)
                if k
            )
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


def _power(f, n, multiply):
    """f^n by repeated squaring, each product formed by multiply."""
    result = f.ring.one()
    while n:
        if n & 1:
            result = multiply(result, f)
        n >>= 1
        if n:
            f = multiply(f, f)
    return result


def _poly(ring, terms):
    """A Polynomial on a term dict that is already reduced mod p, without checks."""
    out = Polynomial.__new__(Polynomial)
    out.ring = ring
    out.terms = terms
    return out


# -- packed monomials and Buchberger -----------------------------------------------
#
# Inside the engine a monomial is one int. Its fields, most significant first,
# are the order's weight rows applied to the exponents, then the exponents
# themselves, in the field order `_Packing` gives them. Each field is `bits`
# wide and its top bit is a guard that stays clear while every field is at
# most `limit`. Then `<` on the ints is the monomial order, `+` is the
# product, and a divides b exactly when b - a sets no guard bit. A sum of two
# fitting fields cannot carry past its guard, so every product the engine
# forms is checked by one `& guard`, and a set guard raises _Overflow, on
# which the caller repacks with wider fields.
#
# The exponent fields alone, m & low, are the monomial's exponent block.
# Divisibility and equality read the same on blocks, and the lcm of two blocks
# is their fieldwise max, a few integer operations on the guard bits
# (`_Packing.block_max`). The pair criteria and the Hilbert numerators run on
# blocks; the weighted lcm, one multiply per span on its block, is built only
# for a pair pushed onto the pair heap.


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class _Overflow(Exception):
    """A packed product set a guard bit: some field outgrew the packing."""


class _Packing:
    """The packed encoding of one order's monomials in fields of one width.

    `low` masks the exponent fields and `eguard` is their guard bits. Lex
    has no weight rows, so its exponent fields are its order: e_1 sits in
    the top field, and blocks compare as ints in lex order. An order with
    weight rows (grevlex, ("elim", k)) decides every comparison on its
    rows, since they determine the exponents, so e_1 sits in the lowest
    field instead. Then in (block & span mask) * ones, with one bit at the
    bottom of each exponent field, the fields lo .. hi - 1 of a span
    [lo, hi) hold e_lo, e_lo + e_(lo+1), .., its degree: the span's rows,
    most significant on top. One mask, multiply, mask and shift per span
    (`weights`) moves them to the span's row fields, above the exponent
    fields, the first span's rows topmost.
    """

    __slots__ = (
        "bits", "limit", "guard", "low", "eguard", "shifts", "variables", "ones", "top", "spans"
    )

    def __init__(self, spans, nvars, bits):
        fields = 2 * nvars if spans else nvars  # the spans' rows are one per variable
        self.bits = bits
        self.limit = (1 << (bits - 1)) - 1
        self.guard = ((1 << bits * fields) - 1) // ((1 << bits) - 1) << (bits - 1)
        self.low = (1 << (bits * nvars)) - 1
        self.eguard = self.guard & self.low
        order = range(nvars) if spans else range(nvars - 1, -1, -1)
        self.shifts = tuple(bits * f for f in order)
        self.ones = self.eguard >> (bits - 1)
        self.top = bits * max(nvars - 1, 0)
        # (span mask, shift of its rows to their fields): the field f of the span lands
        # in field f + 2n - hi - lo, so the last span's rows sit just above the exponents
        self.spans = tuple(
            (((1 << bits * (hi - lo)) - 1) << bits * lo, bits * (2 * nvars - hi - lo))
            for lo, hi in spans
        )
        self.variables = tuple(self.weights(1 << s) + (1 << s) for s in self.shifts)

    def weights(self, block):
        """The weight fields of an exponent block whose rows need no more than `bits` bits each."""
        ones = self.ones
        return sum(((block & mask) * ones & mask) << shift for mask, shift in self.spans)

    def pack(self, e):
        """The packed monomial of an exponent tuple whose fields fit."""
        return sum(x * v for x, v in zip(e, self.variables))

    def unpack(self, m):
        return tuple((m >> s) & self.limit for s in self.shifts)

    def pack_terms(self, terms):
        return {self.pack(e): c for e, c in terms.items()}

    def block_max(self, a, b):
        """The fieldwise max of two exponent blocks: the block of their lcm.

        In (a | eguard) - b each field keeps its guard bit exactly where a's
        field is at least b's, and no borrow crosses a field, since every
        field of a fitting block has its guard bit clear. Such a guard bit
        less itself shifted down to the field's lowest bit masks the field.
        """
        d = ((a | self.eguard) - b) & self.eguard
        d -= d >> (self.bits - 1)
        return a & d | b & ~d

    def weighted(self, block):
        """The packed monomial of the lcm block of two fitting monomials; _Overflow if it does not fit.

        Each weight of the lcm is at most the sum of the two monomials'
        weights, so it needs no more than `bits` bits, and a weight that
        does not fit sets its guard bit instead of carrying.
        """
        m = block + self.weights(block)
        if m & self.guard:
            raise _Overflow
        return m

    def degree(self, block):
        """The degree of an exponent block whose degree fits one field.

        In block * ones the field n - 1 collects e_1 + .. + e_n in either
        field order, and no field carries, since each one's sum is at most
        the degree.
        """
        return (block * self.ones >> self.top) & self.limit


def _field_max(spans, exponents):
    """The largest field, weight or exponent, of any of the exponent tuples.

    Every weight row is a 0/1 partial sum inside one span, and the span's
    first row, its degree, bounds its other rows and its exponents. Every
    variable lies in a span unless the order is lex, which has no rows.
    """
    if not spans:
        return max((max(e, default=0) for e in exponents), default=0)
    return max((sum(e[lo:hi]) for e in exponents for lo, hi in spans), default=0)


def _field_bits(top):
    """Field width, guard included, for fields up to `top`: 4x headroom, at least 8 bits."""
    return max(8, top.bit_length() + 3)


def _widening(order, nvars, term_dicts, run, bits=0):
    """run(packing) on fields fitted to the terms, doubled in width on each _Overflow.

    The fields are at least `bits` wide. run starts again from scratch on
    the wider packing, so an answer is never computed from a carried field.
    """
    spans = _spans(order, nvars)
    bits = max(bits, _field_bits(max((_field_max(spans, terms) for terms in term_dicts), default=0)))
    while True:
        try:
            return run(_Packing(spans, nvars, bits))
        except _Overflow:
            bits *= 2


def _reduce(work, records, p, guard, spent=0):
    """(remainder, spent): the full remainder of packed terms modulo monic records, in order.

    `work` is consumed. Its monomials leave a heap largest first. A cancelled
    term keeps a zero entry until it is popped, and every new term is smaller
    than the one being reduced, so each monomial enters the heap once. Each
    reduced monomial adds a step to `spent`, which may not pass `polyring.reduction`.
    """
    limit = REDUCTION.limit
    heap = [-m for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        for lt, tail in records:
            if not (m - lt) & guard:
                break
        else:
            remainder[m] = c
            continue
        spent += 1
        if spent > limit:
            REDUCTION.charge(spent)
        shift = m - lt
        for ge, gc in tail:
            te = ge + shift
            s = work.get(te)
            if s is None:
                if te & guard:
                    raise _Overflow
                work[te] = -c * gc % p
                heappush(heap, -te)
            else:
                work[te] = (s - c * gc) % p
    return remainder, spent


def _monic(terms, p):
    """The monic record (leading monomial, tail terms) of packed terms with nonzero coefficients."""
    lt = max(terms)
    inv = pow(terms[lt], -1, p)
    return lt, tuple((m, c * inv % p) for m, c in terms.items() if m != lt)


def _s_terms(a, b, lcm, p, guard):
    """Packed terms of the S-polynomial of two monic records whose leaders divide lcm."""
    (lt_a, tail_a), (lt_b, tail_b) = a, b
    shift = lcm - lt_a
    out = {ge + shift: gc for ge, gc in tail_a}
    shift = lcm - lt_b
    for ge, gc in tail_b:
        te = ge + shift
        out[te] = (out.get(te, 0) - gc) % p
    if any(te & guard for te in out):
        raise _Overflow
    return out


def _repacked(records, old, new):
    """Records packed by `old`, packed by `new`, whose fields are at least as wide."""
    return tuple(
        (new.pack(old.unpack(lt)), tuple((new.pack(old.unpack(m)), c) for m, c in tail))
        for lt, tail in records
    )


def _groebner(ring, generators, order, known=None):
    """The reduced Groebner basis of known + generators: (packing, sorted monic records).

    `known` is the `Ideal._gb` pair of a reduced Groebner basis in the
    same order. Its elements join the basis first, in fields at least as
    wide as its own packing: its records are reused as they stand, or
    repacked if the new generators need wider fields.
    Their S-pairs all reduce to zero among themselves, so none is formed.
    Then each generator joins through the Gebauer-Moeller update, which
    pairs it with every element found before it, known ones included: a
    new element h drops each old pair whose lcm LT(h) divides unless h
    shares that lcm with one of its members (criterion B); of h's own pairs
    it keeps one per least lcm (criteria M and F), and then drops those
    with coprime leaders. The criteria read the exponent blocks of the
    leaders: an lcm is a block max, taken for h with each active element
    and, in criterion B, only for the pairs whose lcm LT(h) divides. The
    weighted lcm, the heap key and the shift of the S-polynomial, is
    built only for a pair pushed onto the heap.
    Pairs are taken least lcm first. The result keeps the records whose
    leaders no other kept leader divides, each reduced by the others.
    More S-pairs, elements (known ones included) or reduction steps (the
    final interreduction's included) than `polyring.pairs`, `polyring.basis`
    or `polyring.reduction` allows raise BudgetExceeded.
    """
    p = ring.char

    def run(packing):
        guard, low, eguard = packing.guard, packing.low, packing.eguard
        block_max = packing.block_max
        records = []  # every element found, in order
        blocks = []  # the exponent blocks of their leaders
        active = []  # indices of the elements whose leaders stay minimal
        reducers = []  # their records
        pairs = []  # heap of (lcm, i, j)

        def insert(record, paired=True):
            h, lt_h = len(records), record[0]
            BASIS.charge(h + 1)
            b_h = lt_h & low
            if paired:
                pairs[:] = [
                    (m, i, j) for m, i, j in pairs
                    if (m - lt_h) & guard
                    or m & low == block_max(blocks[i], b_h)
                    or m & low == block_max(blocks[j], b_h)
                ]
                new = sorted((block_max(blocks[g], b_h), g) for g in active)
                kept = []
                for n, (m, g) in enumerate(new):
                    coprime = m == b_h + blocks[g]
                    if (
                        coprime
                        or not (n + 1 < len(new) and new[n + 1][0] == m)
                        and all((m - k) & eguard for k, _, _ in kept)
                    ):
                        kept.append((m, g, coprime))
                pairs.extend((packing.weighted(m), g, h) for m, g, coprime in kept if not coprime)
                heapify(pairs)
                active[:] = [g for g in active if (blocks[g] - b_h) & eguard]
            active.append(h)
            records.append(record)
            blocks.append(b_h)
            reducers[:] = [records[g] for g in active]

        if known:
            known_packing, known_records = known
            if known_packing.bits != packing.bits:
                known_records = _repacked(known_records, known_packing, packing)
            for record in known_records:
                insert(record, paired=False)
        for record in sorted(_monic(packing.pack_terms(g.terms), p) for g in generators if g.terms):
            insert(record)
        reduced = steps = 0
        while pairs:
            reduced = PAIRS.charge(reduced + 1, left=len(pairs))
            m, i, j = heappop(pairs)
            s_terms = _s_terms(records[i], records[j], m, p, guard)
            r, steps = _reduce(s_terms, reducers, p, guard, steps)
            if r:
                insert(_monic(r, p))
        minimal = []
        for lt, tail in sorted(reducers, key=lambda r: r[0]):
            if all((lt - m) & guard for m, _ in minimal):
                minimal.append((lt, tail))
        basis = []
        for i, (lt, tail) in enumerate(minimal):
            r, steps = _reduce(dict(tail), minimal[:i] + minimal[i + 1 :], p, guard, steps)
            basis.append((lt, tuple(r.items())))
        return packing, tuple(basis)

    bits = known[0].bits if known else 0
    return _widening(order, ring.nvars, [g.terms for g in generators], run, bits)


def _polynomials(ring, packing, records):
    """The monic polynomials of packed records."""
    return [
        _poly(ring, {packing.unpack(m): c for m, c in ((lt, 1),) + tail}) for lt, tail in records
    ]


def _element(ring, f):
    """f as a Polynomial of `ring`: a string is parsed in it.

    A polynomial of another ring, or a value that is neither, is a ValueError.
    """
    if isinstance(f, str):
        return ring.parse(f)
    if not isinstance(f, Polynomial):
        raise ValueError(f"a ring element must be a string or a Polynomial, got {type(f).__name__}")
    if f.ring != ring:
        raise ValueError("polynomial from a different ring")
    return f


class Ideal:
    """Ideal presented by generators, with a monomial order and GB cache.

    The cache `_gb` holds the reduced Groebner basis once computed, as
    (packing, records): the packed encoding it was computed in and its
    monic records (packed leading monomial, packed tail terms) sorted by
    the order. Callers only ever see exponent tuples and Polynomials, which
    are unpacked when they are read.
    """

    __slots__ = ("ring", "generators", "order", "_gb")

    def __init__(self, ring, generators, order="grevlex"):
        gens = (_element(ring, g) for g in generators)
        self.ring = ring
        self.generators = tuple(g for g in gens if not g.is_zero())
        _spans(order, ring.nvars)  # validate
        self.order = order
        self._gb = None

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"

    def key(self):
        return order_key(self.order, self.ring.nvars)

    def _basis(self):
        if self._gb is None:
            self._gb = _groebner(self.ring, self.generators, self.order)
        return self._gb

    def groebner(self):
        """The reduced Groebner basis, as a list of monic polynomials."""
        return _polynomials(self.ring, *self._basis())

    def normal_form(self, f):
        """The full remainder of f modulo the basis; wider fields than the cache's take repacked records."""
        f = _element(self.ring, f)
        packing, records = self._basis()

        def run(wide):
            reducers = records if wide.bits == packing.bits else _repacked(records, packing, wide)
            rem = _reduce(wide.pack_terms(f.terms), reducers, self.ring.char, wide.guard)[0]
            return _poly(self.ring, {wide.unpack(m): c for m, c in rem.items()})

        return _widening(self.order, self.ring.nvars, [f.terms], run, packing.bits)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def leading_exponents(self):
        packing, records = self._basis()
        return [packing.unpack(lt) for lt, _ in records]

    def with_order(self, order):
        return Ideal(self.ring, self.generators, order=order)


def _extended(i: Ideal, generators) -> Ideal:
    """i + (generators), its basis grown from the cached basis of i."""
    out = Ideal(i.ring, i.generators + tuple(generators), order=i.order)
    out._gb = _groebner(i.ring, generators, i.order, i._basis())
    return out


def groebner_basis(i: Ideal) -> Ideal:
    """A new Ideal generated by the reduced Groebner basis of `i`."""
    out = Ideal(i.ring, i.groebner(), order=i.order)
    out._gb = i._basis()
    return out


def normal_form(f, i: Ideal):
    return i.normal_form(f)


def ideal_equal(i: Ideal, j: Ideal) -> bool:
    if i.ring != j.ring:
        raise ValueError("ideals in different rings")
    if i.order == j.order:
        return i.groebner() == j.groebner()
    return i.groebner() == j.with_order(i.order).groebner()


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    if i.ring != j.ring:
        raise ValueError("ideals in different rings")
    return Ideal(i.ring, list(i.generators) + list(j.generators), order=i.order)


def saturate(i: Ideal, f) -> Ideal:
    """(i : f^infinity), computed with one extra elimination variable t.

    The t-free elements of the reduced basis in the ("elim", 1) order are
    the reduced basis of the saturation in the order that order induces on
    the remaining variables, which is grevlex. They are the records whose
    leader has no t, since t's weight row is the most significant. Their t
    field is the lowest exponent field and their t row is zero, so one
    shift down by a field leaves the grevlex packed monomial in fields of
    the same width, and the records stay sorted. So a grevlex result keeps
    them as its cached basis, and no second Buchberger runs on them; they
    are unpacked once, for the generators.
    """
    ring = i.ring
    f = _element(ring, f)
    aux = "t_"
    while aux in ring.variables:
        aux += "_"
    ext = PolyRing._trusted(ring.char, (aux,) + ring.variables)

    def lift(poly):
        return _poly(ext, {(0,) + e: c for e, c in poly.terms.items()})

    t = ext.variable(aux)
    gens = [lift(g) for g in i.generators]
    gens.append(t * lift(f) - ext.one())
    elim, records = Ideal(ext, gens, order=("elim", 1))._basis()
    bits, t_field = elim.bits, elim.limit
    kept = tuple(
        (lt >> bits, tuple((m >> bits, c) for m, c in tail))
        for lt, tail in records
        if not lt & t_field
    )
    packing = _Packing(_spans("grevlex", ring.nvars), ring.nvars, bits)
    out = Ideal(ring, _polynomials(ring, packing, kept), order=i.order)
    if i.order == "grevlex":
        out._gb = packing, kept
    return out


def quotient_dimension(i: Ideal):
    """dim_F of ring/i as a vector space, or INFINITE, with nothing listed.

    ring/i has the standard monomials as a basis, finitely many exactly
    when a pure power of every variable is a leading exponent. Then the
    Hilbert series N(t)/(1-t)^n of the leading-term ideal is a polynomial
    Q(t), and the dimension is Q(1) = (-1)^n sum_k N_k C(k, n), from the
    n-th derivative of N = (1-t)^n Q at t = 1.
    """
    n = i.ring.nvars
    lead = i.leading_exponents()
    if not all(any(sum(e) == e[v] for e in lead) for v in range(n)):
        return INFINITE
    numerator = _numerator(n, lead, {})
    return (-1) ** n * sum(c * comb(k, n) for k, c in enumerate(numerator))


def standard_monomials(i: Ideal):
    """Monomials not in the leading-term ideal, or None if infinitely many.

    They are grown from 1 one variable at a time: a standard monomial in
    the first v + 1 variables is a standard one in the first v times a
    power of the next, and raising that power stops at the first multiple
    of a leading exponent, since the standard monomials are closed under
    division. Past `polyring.standard_monomials`, their count, taken first by
    quotient_dimension, raises BudgetExceeded before any is listed.
    """
    count = quotient_dimension(i)
    if count == INFINITE:
        return None
    STANDARD_MONOMIALS.charge(count)
    n = i.ring.nvars
    lead = i.leading_exponents()
    out = [(0,) * n]
    for v in range(n):
        grown = []
        for exps in out:
            while not any(_divides(le, exps) for le in lead):
                grown.append(exps)
                exps = exps[:v] + (exps[v] + 1,) + exps[v + 1 :]
        out = grown
    key = order_key("grevlex", n)
    out.sort(key=key)
    return out


# -- Hilbert series ------------------------------------------------------------


def _minus(a, b, k=0):
    """The coefficient list of a - t^k * b, trailing zeros trimmed."""
    out = list(a) + [0] * (k + len(b) - len(a))
    for i, c in enumerate(b, k):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _numerator(nvars, exponents, memos):
    """Hilbert numerator of the monomial ideal of exponent tuples in `nvars` variables.

    The generators are packed as exponent blocks of a lex packing whose
    fields hold the largest degree, and `_monomial_numerator` recurses on
    sorted tuples of blocks with the memo `memos` keeps for that field
    width. The steps of one certificate pass one dict, since they share
    their colon ideals. A generator of degree over the `polyring.degree`
    budget raises BudgetExceeded before any coefficient list is built.
    """
    top = DEGREE.charge(max(map(sum, exponents), default=0))
    packing = _Packing((), nvars, _field_bits(top))
    gens = tuple(sorted(map(packing.pack, exponents)))
    return _monomial_numerator(gens, memos.setdefault(packing.bits, {}), packing)


def _monomial_numerator(gens, memo, packing):
    """Numerator of the Hilbert series of R/(gens) over (1-t)^n, gens sorted exponent blocks.

    With the generators sorted as g_1 .. g_r, N(g_1 .. g_j) is
    N(g_1 .. g_(j-1)) - t^deg(g_j) N((g_1 .. g_(j-1)) : g_j). The chain of
    prefixes is walked in a loop from the longest one already in the memo,
    so only the colon ideals, which are smaller, are recursed into. The
    colon of g by m is max(g, m) - m, fieldwise on the blocks; its minimal
    generators are sieved in degree order by the guard-bit divisibility
    test, and each degree is one multiply and shift (`_Packing.degree`).
    """
    if gens and not gens[0]:
        return []  # the unit ideal
    start = len(gens)
    while start and gens[:start] not in memo:
        start -= 1
    result = memo[gens[:start]] if start else [1]
    eguard, block_max, degree = packing.eguard, packing.block_max, packing.degree
    for j in range(start, len(gens)):
        m = gens[j]
        minimal = []
        for c in sorted((block_max(g, m) - m for g in gens[:j]), key=degree):
            for k in minimal:
                if not (c - k) & eguard:
                    break
            else:
                minimal.append(c)
        minimal.sort()
        result = _minus(result, _monomial_numerator(tuple(minimal), memo, packing), degree(m))
        memo[gens[: j + 1]] = result
    return result


def hilbert_numerator(i: Ideal):
    """Coefficients of N(t) with HS(ring/i) = N(t)/(1-t)^nvars.

    Computed from the leading-term ideal (Macaulay), exactly over the
    integers; the passage to leading terms preserves the Hilbert series
    only for homogeneous input, so that is enforced. The zero ideal gives
    [1]; the unit ideal gives [].
    """
    _check_homogeneous(i.generators)
    return _numerator(i.ring.nvars, i.leading_exponents(), {})


def hilbert_function(numerator, nvars, upto):
    """Values HF(0..upto) of a series N(t)/(1-t)^nvars; a negative `nvars` is a ValueError."""
    if nvars < 0:
        raise ValueError(f"nvars must be nonnegative, got {nvars}")
    vals = [numerator[d] if d < len(numerator) else 0 for d in range(upto + 1)]
    for _ in range(nvars):
        for d in range(1, upto + 1):
            vals[d] += vals[d - 1]
    return vals


def _check_homogeneous(polys):
    for f in polys:
        if not f.is_homogeneous():
            raise NotHomogeneous(f"{f} is not homogeneous")


def is_regular_sequence(elements, i: Ideal) -> bool:
    """Regular-sequence test on ring/i: module_regular_sequence on (1 + i)/i."""
    return module_regular_sequence(i, [i.ring.one()], elements)


def module_regular_sequence(i: Ideal, module_gens, elements) -> bool:
    """Regular-sequence test for elements acting on the module M = (J+i)/i.

    J is the ideal generated by `module_gens`. Successive quotients
    M/(f_1..f_j)M = (J+i)/(i + f_1 J + .. + f_j J) have Hilbert series
    HS(R/(i + sum f_a J)) - HS(R/(i+J)). A homogeneous f of degree e is a
    nonzerodivisor on a graded quotient Q iff N(Q/fQ) = N(Q)*(1 - t^e), and
    both numerators are exact integer polynomials, so each step compares
    them whole. As in Bruns & Herzog, Def. 1.1.1, a sequence is regular
    only on a nonzero module. Every step's numerator reads one memo per
    field width, kept across the steps, since each step's leading-term
    ideal contains the previous one's.
    """
    ring = i.ring
    module_gens = [_element(ring, g) for g in module_gens]
    elements = [_element(ring, f) for f in elements]
    _check_homogeneous(list(i.generators) + module_gens + elements)
    memos = {}

    def numerator(ideal):
        return _numerator(ring.nvars, ideal.leading_exponents(), memos)

    n_top = numerator(_extended(i, module_gens))
    n_prev = _minus(numerator(i), n_top)
    if not n_prev:
        return False  # the zero module
    cut = i
    for f in elements:
        if f.is_zero():
            return False
        cut = _extended(cut, [f * g for g in module_gens])
        n_mod = _minus(numerator(cut), n_top)
        if n_mod != _minus(n_prev, n_prev, f.degree()):
            return False
        n_prev = n_mod
    return True
