"""Exact sparse linear algebra over Q and F_p.

Every degreewise computation in the package reduces to rank, kernel and
span-membership questions over an exact field.  Vectors are sparse dicts
``{index: scalar}`` with no stored zeros; a matrix is a list of column
vectors.  Pivoting is deterministic (leftmost nonzero), so every downstream
report is reproducible byte for byte.  Each field owns its accumulate loop
(``axpy``), ``scale`` and ``canonical``, on plain ints mod p for F_p, so
the inner loops make no per-scalar method calls.  Elimination is
fraction-free on both fields, in one loop: echelon rows are integer
vectors, and a residue is cleared by integer cross-multiplication (one-step
fraction-free elimination; E. H. Bareiss, Math. Comp. 22 (1968) gives the
multistep form), so no ``Fraction`` is built inside the loop.  A field
supplies two hooks: ``integral``, an integer multiple of a vector as a new
dict the caller owns, and ``normalized``, the canonical form of a new row.

A column is an integer vector R with its multiplier m > 0, standing for
R / m.  A ``Scaled`` dict carries an m > 1; any other dict has m = 1, and
its values are the field's own (over Q ints or ``Fraction``s, over F_p
residues), so over F_p every column is a plain dict.  The product tables
and the component columns over Q are such integer vectors, ``integral``
hands a ``Scaled`` column over with its own m, and values leave as
``Fraction``s only through ``field_values``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError


class Scaled(dict):
    """An integer vector R with its multiplier m > 1, standing for R / m.

    ``with_multiplier`` builds it with gcd(m, R) = 1, so m is the least
    k > 0 for which k * (R / m) is integral, the m that
    ``Rationals.integral`` gives for R / m.  Equal only to a Scaled vector
    with the same entries and m.
    """

    __slots__ = ("m",)

    def __eq__(self, other):
        return isinstance(other, dict) and dict.__eq__(self, other) and self.m == multiplier(other)

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        return f"Scaled({dict.__repr__(self)}, m={self.m})"


def multiplier(vec):
    """The multiplier m of a column: Scaled.m, else 1."""
    return getattr(vec, "m", 1)


def with_multiplier(vec, m):
    """The column vec / m for an integer vector vec and an integer m > 0,
    divided by g = gcd(m, vec): vec itself when m is 1, a new dict (Scaled
    when m / g > 1) otherwise."""
    if m == 1:
        return vec
    g = gcd(m, *vec.values())
    if g != 1:
        m //= g
        vec = {k: v // g for k, v in vec.items()}
    if m == 1:
        return vec
    out = Scaled(vec)
    out.m = m
    return out


def field_values(field, vec):
    """The column vec as field values: vec itself when its multiplier is 1,
    else a new dict of v / m."""
    m = multiplier(vec)
    if m == 1:
        return vec
    of_fraction = field.of_fraction
    return {k: of_fraction(v, m) for k, v in vec.items()}


class Rationals:
    """Arbitrary precision rational field."""

    name = "Q"

    def one(self):
        return Fraction(1)

    def of_fraction(self, num, den):
        return Fraction(num, den)

    def integral(self, terms):
        """(m, {k: m * v}) for the least integer m > 0 making every value
        integral; a Scaled column gives its own m and a copy of its entries."""
        m = multiplier(terms)
        if m != 1:
            return m, dict(terms)
        m = lcm(*(v.denominator for v in terms.values()))
        return m, {k: v.numerator * (m // v.denominator) for k, v in terms.items()}

    def normalized(self, vec, pivot):
        """The integer vector vec divided by its content, signed so that its
        pivot entry, of value pivot, turns positive: a primitive row."""
        g = gcd(*vec.values())
        if pivot < 0:
            g = -g
        return {k: v // g for k, v in vec.items()}

    def canonical(self, n):
        """The integral value n in canonical form: n itself over Q."""
        return n

    def neg(self, a):
        return -a

    def inv(self, a):
        return Fraction(1) / a

    def axpy(self, target, coeff, source):
        """target += coeff * source for sparse vectors, in place, dropping zeros."""
        get = target.get
        for c, v in source.items():
            nv = coeff * v
            cur = get(c)
            if cur is not None:
                nv += cur
            if nv:
                target[c] = nv
            else:
                target.pop(c, None)

    def scale(self, a, vec):
        """a * vec as a new sparse vector."""
        if not a:
            return {}
        return {c: a * v for c, v in vec.items()}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# _MR_BOUND (Sorenson and Webster, 2015); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    if p >= _MR_BOUND:
        raise InputError(f"modulus {p} too large: primality is decided only below {_MR_BOUND}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 == d * 2^s with d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in _MR_BASES)


class PrimeField:
    """Integers mod a prime p, elements normalized to range(p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def one(self):
        return 1

    def of_fraction(self, num, den):
        return num * pow(den, -1, self.p) % self.p

    def integral(self, terms):
        """(1, a new dict of terms): residues already are integers."""
        return 1, dict(terms)

    def normalized(self, vec, pivot):
        """vec divided by its pivot entry, of value pivot: a row with pivot 1."""
        return self.scale(self.inv(pivot), vec)

    def canonical(self, n):
        """The integral value n in canonical form: its residue in range(p)."""
        return n % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def axpy(self, target, coeff, source):
        """target += coeff * source for sparse vectors, in place, dropping zeros."""
        p = self.p
        get = target.get
        for c, v in source.items():
            nv = (get(c, 0) + coeff * v) % p
            if nv:
                target[c] = nv
            else:
                target.pop(c, None)

    def scale(self, a, vec):
        """a * vec as a new sparse vector."""
        if not a:
            return {}
        p = self.p
        return {c: a * v % p for c, v in vec.items()}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def parse_field(spec):
    """Parse a field spec string: ``Q``, ``F32003``, ``Fp 32003``, ``Fp:32003``."""
    s = spec.strip().replace(":", " ")
    if s in ("Q", "QQ"):
        return QQ
    digits = s[2:] if s.startswith("Fp") else s[1:]
    if s.startswith("F") and digits.strip().isdecimal():
        return PrimeField(int(digits))
    raise InputError(f"unknown field spec {spec!r}")


class SpanSolver:
    """Incremental row-space elimination, kept in echelon form.

    No two stored rows share a pivot, their leftmost nonzero column.  Every
    row is an integer vector in the field's normalized form: over F_p it has
    a 1 at its pivot, over Q it is primitive (its entries have gcd 1) with a
    positive pivot.  Rows are never reduced against later pivots, since
    residues and ranks do not depend on that.
    """

    def __init__(self, field):
        self.field = field
        self.pivot_rows = {}  # pivot col -> row dict, as field.normalized gives it

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, vec):
        """The residue of vec against the stored rows, as a new dict of ints.

        Elimination runs on field.integral(vec), a new dict: the integer
        vector of a column, whatever its multiplier, since a residue is
        only known up to a nonzero integer factor anyway, and the least
        integer multiple of a vector of field values.  A hit on the
        pivot column c of a row with pivot a, where the residue holds b, is
        cleared by residue <- (a/g)*residue - (b/g)*row with g = gcd(a, b).
        So the residue is a nonzero integer multiple of the residue over the
        field.  Over F_p every pivot is 1, the multiple is 1, and the step is
        the F_p axpy with coefficient -b.
        """
        return self._clear(self.field.integral(vec)[1])

    def _clear(self, residue):
        """reduce's elimination on residue, an integer vector that the
        caller owns and hands over; returns the residue."""
        field, pivot_rows = self.field, self.pivot_rows
        while True:
            hits = residue.keys() & pivot_rows.keys()
            if not hits:
                return residue
            c = min(hits)
            row = pivot_rows[c]
            a, b = row[c], residue[c]
            if a != 1:
                g = gcd(a, b)
                if g != a:
                    residue = field.scale(a // g, residue)
                b //= g
            field.axpy(residue, -b, row)

    def add(self, vec):
        """Insert vec into the span; returns True iff the rank increased.

        An empty vec returns False at once, without a reduction.
        """
        if not vec:
            return False
        return self._insert(self.reduce(vec))

    def _insert(self, residue):
        """Store a residue of reduce as a new row; the dict is kept when its
        pivot is 1, and any other is replaced by field.normalized."""
        if not residue:
            return False
        lead = min(residue)
        c = residue[lead]
        if c != 1:
            residue = self.field.normalized(residue, c)
        self.pivot_rows[lead] = residue
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def rank(field, columns, modulo=()):
    """rank [modulo | columns] - rank modulo: the rank of the columns modulo
    the span of the modulo columns.

    Where every column has at most one entry the ranks are counts of
    distinct row indices: vectors store no zeros, so such columns are
    nonzero multiples of unit vectors and span exactly the unit vectors of
    their indices.  Otherwise one SpanSolver eliminates the modulo columns,
    then the columns.
    """
    if max(map(len, modulo), default=0) <= 1 and max(map(len, columns), default=0) <= 1:
        return len(set().union(*modulo, *columns)) - len(set().union(*modulo))
    solver = SpanSolver(field)
    for col in modulo:
        solver.add(col)
    base = solver.rank
    for col in columns:
        solver.add(col)
    return solver.rank - base


def kernel_basis(field, columns):
    """Deterministic basis of the kernel of the map with the given columns.

    One vector per column j that depends on the columns before it, in
    ascending j: a 1 in position j and minus the dependency coefficients on
    the independent columns, so the count is len(columns) - rank.  Column j
    is R / m, with (m, R) from field.integral: the column's own multiplier
    for a Scaled column, the least one for field values.  It is eliminated
    as R with m at n + j, n one past the largest row index, which is m
    times (col, e_j), so its residue records the combination it came from:
    a residue with no entry below n is a multiple of the kernel vector
    shifted by n, and any other residue is stored.  A kernel vector is
    divided once by its entry at n + j, a nonzero integer over Q; over F_p
    m = 1 and that entry stays 1, since no row stored before column j has
    an entry at n + j.  An empty column is not eliminated: its residue
    would be {n + j: 1}, so its vector is {j: 1}.
    """
    n = 1 + max((max(col) for col in columns if col), default=-1)
    solver = SpanSolver(field)
    one, of_fraction = field.one(), field.of_fraction
    out = []
    for j, col in enumerate(columns):
        if not col:
            out.append({j: one})
            continue
        m, residue = field.integral(col)
        residue[n + j] = m
        residue = solver._clear(residue)
        if min(residue) < n:
            solver._insert(residue)
        else:
            u = residue[n + j]
            out.append({t - n: of_fraction(v, u) for t, v in residue.items()})
    return out
