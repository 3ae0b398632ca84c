"""Byte-identity guard: the sha256 of the ``--json`` report of a few fast
requests, pinned so that refactors of the linear-algebra core cannot change
any report.  Together the requests cover every subcommand and every
kernel / minimal-generator routine (probe kernels, resolution levels,
Veronese relations and P^m syzygies, cohproj Hom tables, the span oracles),
P^0 of a module presentation that is not minimal, and Groebner completions
with dense coefficients over Q and over F_p.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cohprobe.cli import main

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"

REQUESTS = [
    (["hilbert", "example1.alg", "-D", "7", "--oracle-check"],
     "14eac0511c08532d8b58c869dc56ebd42d24dbb9cfda2dcecb6843c8c0a8198b"),
    (["gb", "remark.alg", "-D", "8"],
     "4fc135a306354ef63da76034815cc72e79f16f1edeadde34a0c3cab8c5c0836e"),
    (["tor", "example1.alg", "-D", "8", "--length", "3"],
     "91ce3b7224147be2b0f2c5cc0dc678e78fa47c8afa7e9df03fdf235cfe70f3ff"),
    (["probe", "example2.alg", "--side", "both", "--field", "F32003", "-D", "9",
      "--max-ideals", "8"],
     "56ac8541f1e8ecf9a01d0ecbb115cda8971b5e2bfc66ebb06ad166e402eea551"),
    (["probe", "example1.alg", "--side", "both", "--ideal", "x;y*y", "-D", "10"],
     "9badf0ef6ee68bdfb44882d86efd150d68e3eb5bac0bd49ff0d7365bd50d8aef"),
    (["veronese", "example1.alg", "--n", "2", "--cross-check", "--pm-modules", "-D", "10",
      "--max-ideals", "6"],
     "5b3d881f95febe2ef16475a1afaede014f2c853293a6bb3cc11cc7295ceb7857"),
    (["zalg", "commutative.alg", "--window=-2..8", "--hom-range", "2"],
     "59decb14cde25e2838a79fc226595fc1123b512c2099fbbce4d45182e46e8cf7"),
    (["corpus", "-D", "7", "--field", "F32003", "--max-ideals", "4"],
     "5c79317234fdcc0c2c072d679c5cb9efdb5d59b3541979bff7afda5b6e0fc802"),
    # a GROWING profile whose witness is reached through --ideal
    (["probe", "example2.alg", "--side", "left", "--ideal", "z", "-D", "10",
      "--field", "F32003"],
     "15adeac6800b5c7d61ec2b33114bef8d1e389dde670159f8419afa6b6138f3bc"),
    # the Veronese probe at an affordable depth below D
    (["veronese", "free2.alg", "--n", "2", "-D", "10", "--cross-check", "--field", "F32003"],
     "d011b1fd6d52ef5012a86399abe3f946a00e4ff25c0665934643d34ed729371b"),
    # P^m syzygies over the 3-Veronese grading
    (["veronese", "commutative.alg", "--n", "3", "--pm-modules", "-D", "12"],
     "7910cf358eac61cc842120a8b5cac04f035d9e8f6f0f74460352c5d480613a6f"),
]


# a non-minimal presentation over example2: the scalar entry 2 makes e1
# redundant, so P^0 keeps e0 and e2 only
MODULE = {"shifts0": [0, 1, 1], "shifts1": [1, 2, 2],
          "matrix": [["x", "y*y", "0"], ["2", "z", "x"], ["0", "0", "y"]]}
MODULE_DIGEST = "8240f48a444c8d9cb9d8bf0febc1bc642240f2b243be9da1b3a1422e522a865f"


def _sklyanin_alg(a, b, c):
    """The Sklyanin algebra a*yz + b*zy + c*x^2 (and cyclic)."""
    return (
        f"label sklyanin({a},{b},{c})\nfield Q\norder deglex x > y > z\n"
        "gen x 1\ngen y 1\ngen z 1\n"
        f"rel {a}*y*z + {b}*z*y + {c}*x^2\n"
        f"rel {a}*z*x + {b}*x*z + {c}*y^2\n"
        f"rel {a}*x*y + {b}*y*x + {c}*z^2\n"
    )


# a weight-2 letter and non-unit integral leads: completion rescales its
# integer reducers and adds 10 elements
WEIGHTED_FRAC = (
    "label weighted_frac\ngen x 1\ngen y 1\ngen z 2\n"
    "rel 2*x*z - 3*z*x\nrel y*x*y - 1/2*x*y*x\n"
)


# completion skips an overlap with a lead word strictly inside it; on these
# three, at D=8, reducing 1 or 2 of the skipped overlaps gives a nonzero
# polynomial, and another overlap must land the same lead at the same point
# of the `added` log.  The digests were taken with every overlap reduced
FLAG_Q = (
    "label flag_q\nfield Q\ngen x 1\ngen y 1\n"
    "rel x*y*x*y - 2*y^2*x^2 - y^2*x*y\nrel -2*x^2*y*x - x*y*x^2\n"
)
FLAG_WEIGHTED = (
    "label flag_weighted\nfield Q\ngen x 1\ngen y 1\ngen z 2\n"
    "rel 3*x^2*y^2\nrel x^3 - x*z + 2*y*x*y\nrel -2*x*y^3\n"
)
FLAG_FP = (
    "label flag_fp\nfield F32003\ngen x 1\ngen y 1\ngen z 2\n"
    "rel -y*x*y + y^2*x - 2*z*y\nrel -x*y^2*x + 3*y*x*y^2\n"
)


# algebra text, the extra arguments of `gb ... -D 8`, and the digest
GB_REQUESTS = [
    (_sklyanin_alg(-2, 2, -1), [],
     "226744af14b3e6c2ba2b039d0544a8485ae49c0ddb6cd870289d1e37c8da9955"),
    (_sklyanin_alg(1, -2, 2), ["--field", "F32003"],
     "63b223c0f7b03d3df65a2775ebe1cd7aab6611bbfb83bc96f43b98445f3eb7c1"),
    (WEIGHTED_FRAC, [],
     "8c40c2cd83d66bd103fb590d8c37a9263a444fd21e54e3ef491b0f7dbea1717a"),
    (WEIGHTED_FRAC, ["--field", "F32003"],
     "734b985d9cd960059b98a41327f41982051982208032777253c8836d01787333"),
    (FLAG_Q, [],
     "1f610d8ada6714a1e27ca49eb66eca21a14f353d43b4e907c05c2b3ad2aed281"),
    (FLAG_Q, ["--field", "F32003"],
     "0b9597a911bce19555e0508d1bb394eef0d57d4a2c76c31f2c64767177da7615"),
    (FLAG_WEIGHTED, [],
     "4d7bf6307332d492631ec285ed60df58021ebaf50240c04a9d7331f7c3f1b648"),
    (FLAG_FP, [],
     "3e4e6e1cb8d3db7fa12f7264ca9500065e6b7f5789b9fedf93120eca323563ed"),
]


# the arguments after `<command> <WEIGHTED_FRAC file>`, and the digest: the
# weight-2 letter z makes a minimal generator meet products of two weights
WEIGHTED_REQUESTS = [
    (["tor", "-D", "8", "--length", "3"],
     "33d9b01fbfdd42c665da1df5e2616883193a379ae6d2006f75fa00816fc48c2e"),
    # its witnesses take 2 kernel_min_generators runs
    (["probe", "--side", "both", "-D", "8", "--field", "F32003"],
     "4cbd96c1f3f883d3586ef03615c4ff14de4801a1ac3aa7e1d9106c55cc957d12"),
    # the only Z-algebra pins with a weight-2 letter: the audit checks
    # associativity on its triples, and z acts in every Hom table
    (["zalg", "--window=-2..6", "--hom-range", "3"],
     "c2d1c7b16f1d0ca60ef2485e63002497974621c691f7eef85607ec96e9c6b415"),
    (["zalg", "--window=-2..6", "--hom-range", "3", "--field", "F32003"],
     "22a8ee750a33e9604f65d6ea2aeb211b7f29888865fe4641c00257827173c25f"),
]


# the relation z - x*y solves for the weight-2 letter z, and the Hilbert
# identity puts both sides on the rank route; the digests were taken when a
# letter term forced the kernel route, so the two routes give the same bytes
LETTER_ONEREL = "label letter_onerel\ngen x 1\ngen y 1\ngen z 2\nrel z - x*y\nrel z*x - x*z\n"

# the extra arguments of `probe <LETTER_ONEREL file> --side both -D 8`, and the digest
LETTER_REQUESTS = [
    ([], "6416fa01eeb1fb4782d23678df36b6069e4e127532c8140c8b7f363fb4eddff3"),
    (["--field", "F32003"], "287bda8865d3969c7df96fda923ec5bb644f6e31a130bcf3c2609a25a86d10a8"),
]

# the extra arguments of `tor <LETTER_ONEREL file> --order z>x>y -D 8 --length 3`, and
# the digest: under that order the weight-2 letter z is not normal, so the
# relation map of k holds its normal form
LETTER_TOR_REQUESTS = [
    ([], "ee63575fe2841b1d7573902e5a308803201c9fcedc07c8080650ac80727efb44"),
    (["--field", "F32003"], "3adcde74c471ca8392a07019566b561e64699bdd40577c0c1ad833747e374cf2"),
]


def _argv(args):
    return [str(ALGEBRAS / a) if a.endswith(".alg") else a for a in args] + ["--json"]


def _digest(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _request_ids():
    """Command and file, with the next two arguments when that pair repeats."""
    ids = []
    for args, _ in REQUESTS:
        name = " ".join(args[:2])
        ids.append(name if name not in ids else " ".join(args[:4]))
    return ids


@pytest.mark.parametrize("args,digest", REQUESTS, ids=_request_ids())
def test_report_digest(args, digest):
    assert _digest(_argv(args)) == digest


def test_module_tor_report_digest(tmp_path, monkeypatch):
    # the report names the module file, so it is read from a fixed relative path
    (tmp_path / "mod.json").write_text(json.dumps(MODULE), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["tor", "example2.alg", "--module", "mod.json", "-D", "7", "--length", "3"]
    assert _digest(_argv(argv)) == MODULE_DIGEST


@pytest.mark.parametrize("text,extra,digest", GB_REQUESTS,
                         ids=["Q", "F32003", "weighted_frac-Q", "weighted_frac-F32003",
                              "flag_q-Q", "flag_q-F32003", "flag_weighted", "flag_fp"])
def test_gb_report_digest(tmp_path, text, extra, digest):
    path = tmp_path / "algebra.alg"
    path.write_text(text, encoding="utf-8")
    assert _digest(["gb", str(path), "-D", "8", *extra, "--json"]) == digest


@pytest.mark.parametrize("args,digest", WEIGHTED_REQUESTS,
                         ids=["tor", "probe", "zalg-Q", "zalg-F32003"])
def test_weighted_report_digest(tmp_path, args, digest):
    path = tmp_path / "algebra.alg"
    path.write_text(WEIGHTED_FRAC, encoding="utf-8")
    assert _digest([args[0], str(path), *args[1:], "--json"]) == digest


@pytest.mark.parametrize("extra,digest", LETTER_REQUESTS, ids=["Q", "F32003"])
def test_letter_term_report_digest(tmp_path, extra, digest):
    path = tmp_path / "algebra.alg"
    path.write_text(LETTER_ONEREL, encoding="utf-8")
    assert _digest(["probe", str(path), "--side", "both", "-D", "8", *extra, "--json"]) == digest


@pytest.mark.parametrize("extra,digest", LETTER_TOR_REQUESTS, ids=["Q", "F32003"])
def test_letter_term_tor_digest(tmp_path, extra, digest):
    path = tmp_path / "algebra.alg"
    path.write_text(LETTER_ONEREL, encoding="utf-8")
    argv = ["tor", str(path), "--order", "z>x>y", "-D", "8", "--length", "3", *extra, "--json"]
    assert _digest(argv) == digest
