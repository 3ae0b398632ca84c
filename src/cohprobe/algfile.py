"""Line-oriented algebra file format.

    # comment
    label example1
    field Q              (or: field Fp 32003)
    order deglex x > y > z
    gen x 1
    gen y 1
    gen z 1
    rel x*y - y*x
    relfam x*y^{2*n+1}*x  n >= 0

gen lines declare name and weight; the order line is optional (default
precedence is declaration order) and may appear before or after the gens.
relfam templates are monomials whose exponents are linear in one parameter
n; they expand up to the session degree bound.
"""

from __future__ import annotations

import re

from .errors import InhomogeneousSum, NonHomogeneousRelation, ParseError
from .freealg import GeneratorTable, parse_poly
from .gbasis import AlgebraPresentation, RelationFamily, validate_presentation
from .linalg import QQ, parse_field


_EXP_RE = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?n\s*(?:([+-])\s*(\d+))?\s*$")


def _parse_linear_exponent(text, line_no):
    """a*n+b forms: 'n', '2*n', '2*n+1', 'n-1'; plain integers handled upstream."""
    m = _EXP_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse exponent {text!r}", line=line_no)
    a = int(m.group(1)) if m.group(1) else 1
    b = int(m.group(3) or 0)
    if m.group(2) == "-":
        b = -b
    return (a, b)


def _split_factors(template):
    """Split on '*' at brace depth 0 only (exponents may contain '*')."""
    out = []
    depth = 0
    cur = []
    for ch in template:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "*" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _parse_relfam(body, gt, line_no):
    """Monomial template with ^{linear in n} powers plus an 'n >= n0' clause."""
    m = re.search(r"\bn\s*>=\s*(-?\d+)\s*$", body)
    if not m:
        raise ParseError("relfam needs a trailing 'n >= <int>' clause", line=line_no)
    n_min = int(m.group(1))
    template = body[: m.start()].strip()
    if not template:
        raise ParseError("empty relfam template", line=line_no)
    factors = []
    for piece in _split_factors(template):
        piece = piece.strip()
        if not piece:
            raise ParseError("empty factor in relfam", line=line_no)
        if "^" in piece:
            name, exp = piece.split("^", 1)
            name = name.strip()
            exp = exp.strip()
            if exp.startswith("{") and exp.endswith("}"):
                lin = _parse_linear_exponent(exp[1:-1], line_no)
            elif exp.isdigit():
                lin = (0, int(exp))
            else:
                raise ParseError(f"bad exponent {exp!r} in relfam", line=line_no)
        else:
            name, lin = piece, (0, 1)
        if name not in gt._index:
            raise ParseError(f"unknown generator {name!r} in relfam", line=line_no)
        factors.append((gt.index(name), lin))
    return RelationFamily(factors, n_min, raw=body.strip())


def parse_algebra_file(text, field=None, order=None):
    """Parse the algebra file format into a validated AlgebraPresentation.

    field/order arguments override the corresponding file lines
    (command line wins over file content).
    """
    file_field = None
    file_label = None
    file_order = None
    gen_names = []
    gen_weights = []
    rel_lines = []
    fam_lines = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, body = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "label":
            file_label = body.strip()
        elif head == "field":
            try:
                file_field = parse_field(body)
            except ValueError as exc:
                raise ParseError(str(exc), line=line_no)
        elif head == "order":
            toks = body.replace(">", " ").split()
            if not toks or toks[0] != "deglex":
                raise ParseError("only 'order deglex a > b > ...' is supported", line=line_no)
            file_order = toks[1:]
        elif head == "gen":
            toks = body.split()
            if len(toks) != 2 or not toks[1].lstrip("-").isdigit():
                raise ParseError("gen line needs '<name> <weight>'", line=line_no)
            gen_names.append(toks[0])
            gen_weights.append(int(toks[1]))
        elif head == "rel":
            rel_lines.append((line_no, body))
        elif head == "relfam":
            fam_lines.append((line_no, body))
        else:
            raise ParseError(f"unknown directive {head!r}", line=line_no)

    if not gen_names:
        raise ParseError("no generators declared")
    fld = field or file_field or QQ
    prec = order or file_order
    if prec is not None and sorted(prec) != sorted(gen_names):
        raise ParseError("order line must mention every generator exactly once")
    gt = GeneratorTable(gen_names, gen_weights, precedence=prec)

    relations = []
    for line_no, body in rel_lines:
        try:
            relations.append(parse_poly(gt, fld, body))
        except ParseError as exc:
            raise ParseError(f"bad relation: {exc}", line=line_no)
        except InhomogeneousSum as exc:
            raise NonHomogeneousRelation(f"line {line_no}: {exc}")
    fams = [_parse_relfam(body, gt, line_no) for line_no, body in fam_lines]

    pres = AlgebraPresentation(
        fld, gt, relations, fams, label=file_label or "algebra"
    )
    validate_presentation(pres)
    return pres


def render_algebra_file(pres):
    """Inverse of parse_algebra_file, used for content hashing."""
    lines = [f"label {pres.label}"]
    lines.append(f"field {pres.field.name}")
    lines.append("order deglex " + " > ".join(pres.gens.precedence))
    for name, w in zip(pres.gens.names, pres.gens.weights):
        lines.append(f"gen {name} {w}")
    for rel in pres.relation_strings():
        lines.append(f"rel {rel}")
    for fam in pres.relfams:
        lines.append(f"relfam {fam.raw}")
    return "\n".join(lines) + "\n"
