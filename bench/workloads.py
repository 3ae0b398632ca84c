"""Workload definitions: seeded inputs, requests and their independent references.

A workload is a fixed list of CLI requests.  Each request is an argv for
``cohprobe.cli.main`` that names `.alg` files (the program only ever receives
`.alg` text) and a check that compares the JSON report with an
answer taken from the literature or from elementary counting, never from the
code under test.

Sklyanin parameters.  The seed draws (a, b, c) for the algebra with relations
``a*yz + b*zy + c*x^2``, ``a*zx + b*xz + c*y^2``, ``a*xy + b*yx + c*z^2``.
The rule: a, b, c are pairwise distinct integers from {-2, -1, 1, 2}, which
gives 24 triples.  Over Q with abc != 0, the degenerate points of Artin, Tate
and Van den Bergh (a^3 = b^3 = c^3) are exactly a = b = c, so every drawn
algebra is regular of dimension 3: dim A_d = C(d+2, 2) and Tor(k, k) has
dimensions 1, 3, 3, 1 in degrees 0..3.  Requiring all three pairwise distinct
also drops the symmetric cases a = b, b = c and a = c.  Their Groebner bases
close in low degree and cost 3 to 200 times less, so a draw that mixed them in
would make a run's cost swing with the seed instead of with the code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).resolve().parent / "digests.json"

SKLYANIN_PARAMS = [
    t for t in itertools.product((-2, -1, 1, 2), repeat=3) if len(set(t)) == 3
]
SKLYANIN_PER_RUN = 8
TOR_PER_RUN = 3
HILBERT_D = 9
TOR_D = 7
TOR_LENGTH = 3
HOM_RANGE = 5

COMMUTATIVE_ALG = """label commutative_model
field Q
gen x 1
gen y 1
rel x*y - y*x
"""

# infinitely related monomial algebra: x^2 y, y x^2, y x y, x y^(2n+1) x
REMARK_ALG = """label remark
field Q
gen x 1
gen y 1
rel x^2*y
rel y*x^2
rel y*x*y
relfam x*y^{2*n+1}*x  n >= 0
"""

WORKLOADS = ("corpus-fp", "sklyanin-q", "modules-q")

# Expected interactions, written down before measuring a change:
# - corpus-fp: the self times of grmod.free_basis, grmod.component_columns and
#   linalg.SpanSolver.add move wall_s and slowest_request_s (one request, so
#   they are the same time).  grmod.free_basis.distinct_ratio sizes the waste
#   a free_basis memo removes.  Expect no change on sklyanin-q.
# - sklyanin-q: the self time of gbasis.complete_to_degree moves wall_s; the
#   rewriting (_reduce_terms) is private and lands in it.  normal_form_word is
#   not called by `hilbert`, so it cannot move this workload.  Expect no change
#   on corpus-fp, where completion is under 1% of the time.
# - modules-q: the self times of zalg.hom_dim_window, grmod.minimal_resolution
#   and linalg.SpanSolver.add (with SpanSolver.reduce, which it calls) move
#   wall_s; lazy back-substitution in SpanSolver shows here as a cost, since
#   the reducer reads fully reduced pivot rows.
# - any workload: caches and tables trade time for memory and show in
#   peak_rss_mb; work moved to import time shows in setup_s.
# EXERCISES lists the spans each workload exercises; the traced run reports
# every listed span that did not fire.
EXERCISES = {
    "corpus-fp": (
        "cli.request",
        "gbasis.complete_to_degree",
        "gbasis.normal_form_word",
        "gbasis.normal_form",
        "gbasis.normal_words",
        "gbasis.hilbert_dims",
        "gbasis.component_dim_bruteforce",
        "grmod.free_basis",
        "grmod.component_columns",
        "grmod.kernel_min_generators",
        "linalg.SpanSolver.add",
        "linalg.SpanSolver.reduce",
        "coherence.probe_algebra",
        "coherence.probe_ideal",
    ),
    "sklyanin-q": (
        "cli.request",
        "algfile.parse_algebra_file",
        "gbasis.complete_to_degree",
        "gbasis.normal_words",
        "gbasis.hilbert_dims",
    ),
    "modules-q": (
        "cli.request",
        "algfile.parse_algebra_file",
        "gbasis.complete_to_degree",
        "gbasis.normal_form_word",
        "gbasis.normal_form",
        "gbasis.normal_words",
        "grmod.free_basis",
        "grmod.component_columns",
        "grmod.kernel_min_generators",
        "grmod.minimal_resolution",
        "grmod.audit_resolution",
        "linalg.SpanSolver.add",
        "linalg.SpanSolver.reduce",
        "coherence.probe_algebra",
        "coherence.probe_ideal",
        "veronese.veronese_presentation",
        "veronese.pm_module_presentations",
        "veronese.veronese_cross_check",
        "zalg.hom_dim_window",
        "zalg.cohproj_hom",
        "zalg.ZAlgebraWindow.audit",
        "zalg.ZAlgebraWindow.mult",
        "zalg.transport_module",
    ),
}


@dataclass(frozen=True)
class Request:
    """One CLI request; ``check(report)`` returns a list of problems."""

    argv: tuple
    check: Callable[[dict], list]

    @property
    def key(self):
        """Stable identifier, also the key of the pinned report digest."""
        return " ".join(self.argv)


def sklyanin_params(seed):
    """The seed's Sklyanin parameter triples, in request order."""
    return random.Random(seed).sample(SKLYANIN_PARAMS, SKLYANIN_PER_RUN)


def sklyanin_name(abc):
    return "sklyanin_{}_{}_{}.alg".format(*abc)


def sklyanin_alg(abc):
    a, b, c = abc
    return (
        f"label sklyanin({a},{b},{c})\n"
        "field Q\n"
        "order deglex x > y > z\n"
        "gen x 1\ngen y 1\ngen z 1\n"
        f"rel {a}*y*z + {b}*z*y + {c}*x^2\n"
        f"rel {a}*z*x + {b}*x*z + {c}*y^2\n"
        f"rel {a}*x*y + {b}*y*x + {c}*z^2\n"
    )


def alg_texts(params):
    """Every .alg file a workload may read, by file name."""
    texts = {"commutative.alg": COMMUTATIVE_ALG, "remark.alg": REMARK_ALG}
    texts.update((sklyanin_name(abc), sklyanin_alg(abc)) for abc in params)
    return texts


# --- independent references ------------------------------------------------


def check_corpus(report):
    return [] if report.get("all_ok") is True else ["corpus reports a mismatch"]


def check_polynomial_hilbert(report):
    want = [comb(d + 2, 2) for d in range(HILBERT_D + 1)]
    got = report["hilbert"]["dims"]
    return [] if got == want else [f"dims {got} != C(d+2,2) {want}"]


def check_koszul_tor(report):
    tor = report["tor"]
    problems = []
    for i, total in enumerate((1, 3, 3, 1)):
        want = [total if d == i else 0 for d in range(TOR_D + 1)]
        got = tor["rows"].get(f"tor{i}")
        if got != want:
            problems.append(f"tor{i} {got} != {want}")
    for prop in ("exact", "minimal"):
        if tor["audit"][prop] is not True:
            problems.append(f"audit not {prop}")
    return problems


def check_desk_hom(report):
    problems = []
    for a in range(HOM_RANGE + 1):
        for b in range(a, HOM_RANGE + 1):
            entry = report["homtables"].get(f"P{a}->P{b}", {})
            if not entry.get("stabilized") or entry.get("value") != b - a + 1:
                problems.append(f"Hom(P{a},P{b}) {entry} does not stabilise to {b - a + 1}")
    return problems


def check_remark_veronese(report):
    v = report["veronese"]
    cc = v["cross_check"]
    problems = []
    if v["all_relations_monomial"] is not True:
        problems.append("Veronese relations not all monomial")
    if cc["ambient"]["kind"] != "GROWING":
        problems.append(f"ambient {cc['ambient']['kind']} != GROWING")
    if cc["veronese"]["kind"] != "STABLE":
        problems.append(f"Veronese {cc['veronese']['kind']} != STABLE")
    return problems


def check_commutative_veronese(report):
    # k[x,y]^(2)_i = k[x,y]_(2i) has dimension 2i+1; both sides are Noetherian.
    v = report["veronese"]
    cc = v["cross_check"]
    problems = []
    want = [2 * i + 1 for i in range(len(v["hilbert_internal"]))]
    if v["hilbert_internal"] != want:
        problems.append(f"Veronese dims {v['hilbert_internal']} != {want}")
    for side in ("ambient", "veronese"):
        if cc[side]["kind"] != "STABLE":
            problems.append(f"{side} {cc[side]['kind']} != STABLE")
    return problems


# --- workloads -------------------------------------------------------------


def hilbert_request(abc):
    name = sklyanin_name(abc)
    return Request(("hilbert", name, "-D", str(HILBERT_D), "--json"), check_polynomial_hilbert)


def tor_request(abc):
    name = sklyanin_name(abc)
    argv = ("tor", name, "--length", str(TOR_LENGTH), "-D", str(TOR_D), "--json")
    return Request(argv, check_koszul_tor)


# Sizes are set so that one pass of a workload takes 3 to 4 s on a quiet host:
# a run then holds five or more passes, and their median is far steadier on a
# shared host than that of the two passes the larger sizes allowed (corpus at
# the default D=10 takes 8 s).  Every reference still holds at these sizes.
CORPUS_REQUEST = Request(("corpus", "-D", "9", "--field", "F32003", "--json"), check_corpus)
ZALG_REQUEST = Request(
    ("zalg", "commutative.alg", "--window=-2..9", "--hom-range", str(HOM_RANGE), "--json"),
    check_desk_hom)
VERONESE_REQUESTS = tuple(
    Request(("veronese", name, "--n", "2", "--cross-check", "--pm-modules", "-D", "12",
             "--json"), check)
    for name, check in (("remark.alg", check_remark_veronese),
                        ("commutative.alg", check_commutative_veronese))
)


def build(workload, seed):
    """(requests, params) for a workload and seed; same seed, same inputs."""
    params = sklyanin_params(seed)
    if workload == "corpus-fp":
        return [CORPUS_REQUEST], []
    if workload == "sklyanin-q":
        return [hilbert_request(abc) for abc in params], params
    if workload == "modules-q":
        tor_params = params[:TOR_PER_RUN]
        requests = [tor_request(abc) for abc in tor_params]
        return requests + [ZALG_REQUEST, *VERONESE_REQUESTS], tor_params
    raise ValueError(f"unknown workload {workload!r}")


def every_request():
    """Every request any seed can produce, for pinning report digests."""
    return ([CORPUS_REQUEST]
            + [hilbert_request(abc) for abc in SKLYANIN_PARAMS]
            + [tor_request(abc) for abc in SKLYANIN_PARAMS]
            + [ZALG_REQUEST, *VERONESE_REQUESTS])


def check_report(request, rc, text, pinned):
    """Problems with one request's outcome: exit code, reference, digest."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = request.check(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    digest = report_digest(text)
    want = pinned.get(request.key)
    if want is not None and digest != want:
        problems.append(f"report digest {digest[:16]} != pinned {want[:16]}")
    return problems


def load_digests():
    """Request key -> sha256 of its JSON report at the pinning commit."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def report_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
