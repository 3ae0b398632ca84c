"""Words, admissible monomial orders and homogeneous noncommutative polynomials.

Words are tuples of generator indices over a weighted alphabet.  The single
order family is weighted degree-lexicographic: compare total weight first,
then letter by letter using the generator precedence.  At equal degree no
word is a proper prefix of another (weights are >= 1), so the letterwise
comparison is total, and the order is admissible: u < v implies aub < avb.
"""

from __future__ import annotations

from .errors import InhomogeneousSum, InputError, ParseError, ZeroDegreeGenerator


class GeneratorTable:
    """Named weighted generators with a total precedence.

    precedence, when given, lists generator names from largest to smallest;
    the default is declaration order (first declared is largest).
    """

    def __init__(self, names, weights=None, precedence=None):
        names = list(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate generator names")
        self.names = names
        self.weights = list(weights) if weights is not None else [1] * len(names)
        if len(self.weights) != len(names):
            raise InputError("one weight per generator required")
        for name, w in zip(names, self.weights):
            if w < 1:
                raise ZeroDegreeGenerator(f"generator {name} has weight {w}")
        if precedence is None:
            order = names
        else:
            order = list(precedence)
            if sorted(order) != sorted(names):
                raise InputError("precedence must list every generator exactly once")
        # larger value = greater letter in the order
        self.prec_value = [0] * len(names)
        for pos, name in enumerate(order):
            self.prec_value[names.index(name)] = len(names) - 1 - pos
        self.precedence = order
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name):
        return self._index[name]

    def word_degree(self, word):
        return sum(self.weights[i] for i in word)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorTable)
            and self.names == other.names
            and self.weights == other.weights
            and self.precedence == other.precedence
        )

    def __repr__(self):
        parts = " > ".join(self.precedence)
        return f"GeneratorTable({self.names}, weights={self.weights}, {parts})"


def word_key(gt, word):
    """Sort key realizing the weighted deglex order (ascending)."""
    return (gt.word_degree(word), tuple(gt.prec_value[i] for i in word))


def enumerate_words(gt, d):
    """All words of degree exactly d, ascending by word_key: the walk is
    depth first by prec_value, as TruncatedGroebnerBasis.normal_words."""
    if d < 0:
        raise InputError("degree must be >= 0")
    letters = sorted(enumerate(gt.weights), key=lambda iw: gt.prec_value[iw[0]], reverse=True)
    out = []
    stack = [((), d)]
    while stack:
        prefix, rem = stack.pop()
        if rem == 0:
            out.append(prefix)
            continue
        for i, w in letters:
            if w <= rem:
                stack.append((prefix + (i,), rem - w))
    return out


def word_str(gt, word):
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        name = gt.names[word[i]]
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "*".join(parts)


class NcPoly:
    """Homogeneous noncommutative polynomial: finite map word -> nonzero scalar.

    degree is None exactly for the zero polynomial.  Instances are treated
    as immutable after construction.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms, degree):
        self.terms = terms
        self.degree = degree if terms else None

    @classmethod
    def build(cls, gt, field, items):
        """Collect (word, scalar) items, checking homogeneity and dropping zeros."""
        terms = {}
        degree = None
        one = field.one()
        for word, coeff in items:
            word = tuple(word)
            d = gt.word_degree(word)
            if degree is None:
                degree = d
            elif d != degree:
                raise InhomogeneousSum(f"mixed degrees {degree} and {d}")
            field.axpy(terms, one, {word: coeff})
        return cls(terms, degree if terms else None)

    @classmethod
    def monomial(cls, gt, field, word):
        word = tuple(word)
        return cls({word: field.one()}, gt.word_degree(word))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"NcPoly({self.terms!r})"


def poly_scale(field, coeff, p):
    return NcPoly(field.scale(coeff, p.terms), p.degree)


def leading_word(gt, p):
    if p.is_zero():
        return None
    return max(p.terms, key=lambda w: word_key(gt, w))


def make_monic(gt, field, p):
    if p.is_zero():
        return p
    lead = leading_word(gt, p)
    lc = p.terms[lead]
    if lc == field.one():
        return p
    return poly_scale(field, field.inv(lc), p)


def poly_str(gt, field, p):
    """Render with terms sorted descending; matches the parser's surface syntax."""
    if p.is_zero():
        return "0"
    words = sorted(p.terms, key=lambda w: word_key(gt, w), reverse=True)
    out = []
    for w in words:
        c = p.terms[w]
        mono = word_str(gt, w)
        neg = False
        cs = str(c)
        if cs.startswith("-"):
            neg = True
            cs = cs[1:]
        if cs == "1" and w:
            body = mono
        elif w:
            body = f"{cs}*{mono}"
        else:
            body = cs
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# --- polynomial surface syntax ------------------------------------------
#
# terms joined by + / -, products with *, powers with ^, optional integer
# (or integer/integer) coefficients: "x*z - z*x", "x*y^3*x", "2*x - 1/2*y".

# the largest power parse_poly accepts: a power is written out letter by
# letter, so a larger one is refused before its word is built
MAX_EXPONENT = 10**6


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", col=i)
    return tokens


def parse_poly(gt, field, text):
    """Parse the polynomial surface syntax into an NcPoly."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    items = []
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    while pos < len(tokens):
        sign = 1
        kind, val, col = peek()
        while kind in ("+", "-"):
            if kind == "-":
                sign = -sign
            pos += 1
            kind, val, col = peek()
        if kind is None:
            raise ParseError("dangling sign", col=col)
        coeff_num, coeff_den = 1, 1
        word = []
        expect_factor = True
        while True:
            kind, val, col = peek()
            if kind == "int":
                coeff_num *= int(val)
                pos += 1
                nk, _, ncol = peek()
                if nk == "/":
                    pos += 1
                    dk, dv, dcol = peek()
                    if dk != "int":
                        raise ParseError("expected integer denominator", col=dcol)
                    coeff_den *= int(dv)
                    pos += 1
            elif kind == "name":
                if val not in gt._index:
                    raise ParseError(f"unknown generator {val!r}", col=col)
                idx = gt.index(val)
                pos += 1
                exp = 1
                nk, _, _ = peek()
                if nk == "^":
                    pos += 1
                    ek, ev, ecol = peek()
                    if ek != "int":
                        raise ParseError("expected integer exponent after '^'", col=ecol)
                    exp = int(ev)
                    if exp > MAX_EXPONENT:
                        raise ParseError(f"exponent {exp} > {MAX_EXPONENT}", col=ecol)
                    pos += 1
                word.extend([idx] * exp)
            else:
                raise ParseError(f"expected factor, found {val!r}", col=col)
            nk, _, _ = peek()
            if nk == "*":
                pos += 1
                continue
            break
        if coeff_den == 0:
            raise ParseError("zero denominator", col=col)
        try:
            coeff = field.of_fraction(sign * coeff_num, coeff_den)
        except ValueError:
            raise ParseError(f"denominator {coeff_den} is not invertible in {field.name}",
                             col=col) from None
        items.append((tuple(word), coeff))
        kind, val, col = peek()
        if kind not in (None, "+", "-"):
            raise ParseError(f"expected '+' or '-', found {val!r}", col=col)
    return NcPoly.build(gt, field, items)
