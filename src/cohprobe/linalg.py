"""Exact sparse linear algebra over Q and F_p.

Every degreewise computation in the package reduces to rank, kernel and
span-membership questions over an exact field.  Vectors are sparse dicts
``{index: scalar}`` with no stored zeros; a matrix is a list of column
vectors.  Pivoting is deterministic (leftmost nonzero), so every downstream
report is reproducible byte for byte.  Each field owns its accumulate loop
(``axpy``), ``scale`` and ``canonical``, on plain ints mod p for F_p, so
the inner loops make no per-scalar method calls.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError


class Rationals:
    """Arbitrary precision rational field."""

    name = "Q"

    def one(self):
        return Fraction(1)

    def of_fraction(self, num, den):
        return Fraction(num, den)

    def integral(self, terms):
        """(m, {k: m * v}) for the least integer m > 0 making every value integral."""
        m = lcm(*(v.denominator for v in terms.values()))
        return m, {k: v.numerator * (m // v.denominator) for k, v in terms.items()}

    def canonical(self, n):
        """The integral value n in canonical form: n itself over Q."""
        return n

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

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


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
        """(1, terms): residues already are integers; the dict is not copied."""
        return 1, terms

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

    Every stored row has a 1 at its pivot, its leftmost nonzero column, and
    no two rows share a pivot; rows are never reduced against later pivots,
    since residues, certificates and ranks do not depend on that.  With
    ``track=True`` every stored row carries a certificate expressing it as a
    combination of the tagged vectors fed to :meth:`add`; untagged vectors
    (tag None) are treated as zero objects in certificates, which is exactly
    what reduction modulo a known subspace needs.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self.pivot_rows = {}  # pivot col -> row dict (row[pivot] == 1)
        self.exprs = {}       # pivot col -> {tag: coeff}

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, vec):
        """Reduce vec against the stored rows; returns (residue, expr).

        residue + sum(expr[tag] * original_vec[tag]) == vec, where untagged
        contributions are dropped from expr.
        """
        f = self.field
        residue = dict(vec)
        expr = {} if self.track else None
        while True:
            hits = residue.keys() & self.pivot_rows.keys()
            if not hits:
                break
            c = min(hits)
            coeff = residue[c]
            f.axpy(residue, f.neg(coeff), self.pivot_rows[c])
            if self.track:
                f.axpy(expr, coeff, self.exprs[c])
        return residue, expr

    def add(self, vec, tag=None):
        """Insert vec into the span; returns True iff the rank increased."""
        residue, expr = self.reduce(vec)
        return self._insert(residue, expr, tag)

    def _insert(self, residue, expr, tag):
        """Store the reduced residue of the vector tagged tag as a new row."""
        if not residue:
            return False
        f = self.field
        lead = min(residue)
        inv = f.inv(residue[lead])
        self.pivot_rows[lead] = f.scale(inv, residue)
        if self.track:
            row_expr = f.scale(f.neg(inv), expr)
            if tag is not None:
                f.axpy(row_expr, inv, {tag: f.one()})
            self.exprs[lead] = row_expr
        return True

    def contains(self, vec):
        residue, _ = self.reduce(vec)
        return not residue


def kernel_basis(field, columns):
    """Deterministic basis of the kernel of the map with the given columns.

    One vector per column j that depends on the columns before it, in
    ascending j: a 1 in position j and minus the dependency coefficients,
    so the count is len(columns) - rank.
    """
    solver = SpanSolver(field, track=True)
    out = []
    one = field.one()
    for j, col in enumerate(columns):
        residue, expr = solver.reduce(col)
        if solver._insert(residue, expr, j):
            continue
        vec = {j: one}
        field.axpy(vec, field.neg(one), expr)
        out.append(vec)
    return out
