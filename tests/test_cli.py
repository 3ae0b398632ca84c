import io
import json
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cohprobe.cli
from cohprobe.cli import main

from test_report_digests import WEIGHTED_FRAC

ROOT = Path(__file__).resolve().parent.parent
ALGEBRAS = ROOT / "algebras"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_hilbert_free2_json():
    code, out = run_cli(["hilbert", str(ALGEBRAS / "free2.alg"), "-D", "10", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["hilbert"]["dims"] == [2 ** d for d in range(11)]
    assert rep["algebra"] == "free2"
    assert rep["content_hash"]


def test_hilbert_oracle_flag():
    code, out = run_cli(
        ["hilbert", str(ALGEBRAS / "example1.alg"), "-D", "6", "--oracle-check", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["hilbert"]["oracle_agrees"] is True


def test_json_byte_identical():
    argv = ["probe", str(ALGEBRAS / "example2.alg"), "--side", "both",
            "--field", "F32003", "--json", "-D", "8", "--max-ideals", "6"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_probe_ideal_subcommand():
    code, out = run_cli(
        ["probe", str(ALGEBRAS / "example1.alg"), "--ideal", "x",
         "--field", "F32003", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    block = rep["probe"]["right"]["ideal"]
    assert block["profile"] == [0, 0] + [1] * 9
    assert block["verdict"]["kind"] == "GROWING"


def test_probe_both_sides_example2():
    code, out = run_cli(
        ["probe", str(ALGEBRAS / "example2.alg"), "--side", "both",
         "--field", "F32003", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["probe"]["right"]["aggregate"]["kind"] == "STABLE"
    assert rep["probe"]["left"]["aggregate"]["kind"] == "GROWING"
    assert rep["probe"]["left"]["witness_ideal"] == ["z"]


def test_tor_module_json(tmp_path):
    spec = {"shifts0": [0], "shifts1": [1], "matrix": [["x"]]}
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(spec), encoding="utf-8")
    code, out = run_cli(
        ["tor", str(ALGEBRAS / "xy_zero.alg"), "--module", str(mod), "-D", "6", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    # coker(A(-1) -x-> A) over xy=0: one generator, one relation, one syzygy chain
    assert rep["tor"]["rows"]["tor0"] == [1, 0, 0, 0, 0, 0, 0]
    assert rep["tor"]["rows"]["tor1"] == [0, 1, 0, 0, 0, 0, 0]
    assert rep["tor"]["audit"]["minimal"] is True


def test_veronese_subcommand():
    code, out = run_cli(
        ["veronese", str(ALGEBRAS / "remark.alg"), "--n", "2", "--field", "F32003", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    v = rep["veronese"]
    assert v["all_relations_monomial"] is True
    assert v["relations_per_internal_degree"]["2"] == 11
    assert v["trailing_silent_degrees"] >= 3


def test_zalg_subcommand():
    code, out = run_cli(
        ["zalg", str(ALGEBRAS / "commutative.alg"), "--window=-2..8",
         "--hom-range", "2", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["zalgebra"]["audit"]["ok"] is True
    assert rep["homtables"]["P0->P2"]["value"] == 3


def test_zalg_source_zero_on_window_is_an_error():
    # P_0 is zero at every index of 1..12 (dim (P_0)_i = dim A_{-i}), so its
    # Hom tables would read 0 whatever the true Hom is
    code, out = run_cli(
        ["zalg", str(ALGEBRAS / "commutative.alg"), "--window=1..12",
         "--hom-range", "2", "--json"]
    )
    assert code == 0
    tables = json.loads(out)["homtables"]
    assert tables["P1->P2"]["stabilized"] and tables["P1->P2"]["value"] == 2
    for key in ("P0->P0", "P0->P1", "P0->P2"):
        assert "error" in tables[key], key


def test_missing_file_exit_code():
    code, _ = run_cli(["hilbert", "no/such/file.alg"])
    assert code == 1


def test_degree_floor():
    code, _ = run_cli(["hilbert", str(ALGEBRAS / "free2.alg"), "-D", "1"])
    assert code == 1


def test_exit_codes_on_corrupted_inputs(tmp_path):
    base = (ALGEBRAS / "example1.alg").read_text(encoding="utf-8")
    rng = random.Random(41)
    corruptions = 0
    for trial in range(20):
        lines = base.splitlines()
        k = rng.randrange(len(lines))
        mode = rng.randrange(3)
        if mode == 0:
            lines[k] = lines[k] + " ^"
        elif mode == 1:
            lines[k] = "bogus " + lines[k]
        else:
            lines[k] = lines[k].replace("1", "0") or "gen"
        bad = tmp_path / f"bad{trial}.alg"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code, _ = run_cli(["hilbert", str(bad), "-D", "4"])
        assert code in (0, 1)
        if code == 1:
            corruptions += 1
    assert corruptions >= 10  # most random corruptions must be rejected


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _tor_module(tmp_path, text):
    return ["tor", str(ALGEBRAS / "free2.alg"), "-D", "4",
            "--module", _write(tmp_path, "mod.json", text)]


BAD_INPUTS = {
    "veronese step 1": lambda tmp: ["veronese", str(ALGEBRAS / "commutative.alg"), "--n", "1"],
    "ideal generator zero in A": lambda tmp: [
        "probe", str(ALGEBRAS / "example1.alg"), "--ideal", "x*y"],
    "empty zalg window": lambda tmp: ["zalg", str(ALGEBRAS / "commutative.alg"), "--window=5..2"],
    "relfam negative exponent": lambda tmp: ["hilbert", _write(
        tmp, "fam.alg", "gen x 1\ngen y 1\nrelfam x*y^{n-1}*x n >= 0\n"), "-D", "4"],
    "module entry of wrong degree": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": [0], "shifts1": [1], "matrix": [["x*y"]]})),
    "negative shifts0": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": [-1], "shifts1": [], "matrix": []})),
    "malformed module json": lambda tmp: _tor_module(tmp, "{not json"),
    "module json not an object": lambda tmp: _tor_module(tmp, "[1, 2]"),
    "module cell not a string": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": [0], "shifts1": [1], "matrix": [[5]]})),
    "module shifts not a list": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": "ab", "shifts1": [], "matrix": []})),
    "module matrix not a list": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": [0], "shifts1": [1], "matrix": "x"})),
    "module matrix rows beyond shifts0": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": [0], "shifts1": [1], "matrix": [["x"], ["y"]]})),
    "module matrix row beyond shifts1": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": [0], "shifts1": [1], "matrix": [["x", "y"]]})),
    "composite field": lambda tmp: ["hilbert", str(ALGEBRAS / "free2.alg"), "--field", "F4"],
    "field beyond the primality bound": lambda tmp: [
        "hilbert", str(ALGEBRAS / "free2.alg"), "--field", "F3317044064679887385961983"],
    "unknown field": lambda tmp: ["hilbert", str(ALGEBRAS / "free2.alg"), "--field", "R"],
    "probe over zero ideals (max ideals)": lambda tmp: [
        "probe", str(ALGEBRAS / "free2.alg"), "-D", "4", "--max-ideals", "0"],
    "probe over zero ideals (gen degree bound)": lambda tmp: [
        "probe", str(ALGEBRAS / "free2.alg"), "-D", "4", "--gen-degree-bound", "0"],
    "negative max ideals": lambda tmp: [
        "probe", str(ALGEBRAS / "free2.alg"), "-D", "4", "--max-ideals", "-1"],
    "negative max ideals (corpus)": lambda tmp: ["corpus", "-D", "4", "--max-ideals", "-1"],
    "negative max ideals (veronese cross-check)": lambda tmp: [
        "veronese", str(ALGEBRAS / "commutative.alg"), "--n", "2", "-D", "4",
        "--cross-check", "--max-ideals", "-1"],
    "negative tor length": lambda tmp: ["tor", str(ALGEBRAS / "xy_zero.alg"), "--length", "-2"],
    # P^i starts in degree i, so every level above D is zero in the window
    "tor length above the bound": lambda tmp: [
        "tor", str(ALGEBRAS / "free2.alg"), "-D", "4", "--length", "5"],
    "negative hom range": lambda tmp: [
        "zalg", str(ALGEBRAS / "commutative.alg"), "--window=-2..8", "--hom-range", "-1"],
    "zalg window top below 0": lambda tmp: [
        "zalg", str(ALGEBRAS / "commutative.alg"), "--window=-8..-2"],
    "algebra file not UTF-8": lambda tmp: ["hilbert", _write_bytes(
        tmp, "bad.alg", b"label bad\ngen x 1\nrel x*x \xff\n"), "-D", "3"],
    "module file not UTF-8": lambda tmp: ["tor", str(ALGEBRAS / "free2.alg"), "-D", "4",
        "--module", _write_bytes(tmp, "mod.json", b'{"shifts0": [0], "matrix": [["\xff"]]}')],
    # 3 has no inverse mod 3, wherever a coefficient is parsed
    "relation denominator zero in F3": lambda tmp: ["hilbert", _write(
        tmp, "f3.alg", "gen x 1\ngen y 1\nrel 1/3*x*y - y*x\n"), "-D", "4", "--field", "F3"],
    "module cell denominator zero in F3": lambda tmp: _tor_module(
        tmp, json.dumps({"shifts0": [0], "shifts1": [1], "matrix": [["1/3*x"]]})) + ["--field", "F3"],
    "ideal denominator zero in F3": lambda tmp: [
        "probe", str(ALGEBRAS / "free2.alg"), "-D", "4", "--ideal", "1/3*x", "--field", "F3"],
    # the n=0 member is the empty word: the relation 1 = 0
    "relfam member of degree 0": lambda tmp: ["hilbert", _write(
        tmp, "fam.alg", "gen x 1\ngen y 1\nrelfam x^{n}  n >= 0\n"), "-D", "4"],
    # a power is written out letter by letter, so one above MAX_EXPONENT is refused
    "relation exponent beyond any index": lambda tmp: ["hilbert", _write(
        tmp, "huge.alg", "gen x 1\ngen y 1\nrel x^10000000000000000000\n"), "-D", "4"],
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exit_code(case, tmp_path):
    # a bad input gives "error: ..." and exit 1; an exception escaping main fails the test
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(BAD_INPUTS[case](tmp_path))
    assert code == 1
    assert err.getvalue().startswith("error:")
    assert out == ""


def test_huge_relfam_exponent_is_sized_by_degree(tmp_path):
    # the n=1 member has degree 10^19 + 1 > D: no word is built, and the
    # algebra is free through D
    alg = _write(tmp_path, "fam.alg", "gen x 1\ngen y 1\nrelfam x^{10000000000000000000*n}*y  n >= 1\n")
    code, out = run_cli(["hilbert", alg, "-D", "4", "--json"])
    assert code == 0
    assert json.loads(out)["hilbert"]["dims"] == [1, 2, 4, 8, 16]


@pytest.mark.parametrize("shifts0,shifts1", [([-1], []), ([0], [-2])], ids=["shifts0", "shifts1"])
def test_negative_module_shift_is_named(shifts0, shifts1, tmp_path):
    # a negative relation shift is refused up front, not as a degree beyond the bound
    err = io.StringIO()
    module = json.dumps({"shifts0": shifts0, "shifts1": shifts1, "matrix": []})
    with redirect_stderr(err):
        code, out = run_cli(_tor_module(tmp_path, module))
    assert (code, out) == (1, "")
    assert err.getvalue() == "error: minimal_resolution expects nonnegative shifts\n"


def test_veronese_names_missing_degree_one_generation(tmp_path):
    # z of weight 2 is not a product of letters of weight 1, so the words of
    # A_2 do not generate A^(2) and the discovered Hilbert series falls short
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["veronese", _write(tmp_path, "wf.alg", WEIGHTED_FRAC), "--n", "2"])
    assert code == 1 and out == ""
    assert err.getvalue().startswith("error: weighted_frac is not generated in degree 1: ")


def test_text_mode_runs():
    code, out = run_cli(["hilbert", str(ALGEBRAS / "free2.alg"), "-D", "6"])
    assert code == 0
    assert "dim A_d" in out


def test_corpus_exit_codes(monkeypatch):
    import cohprobe.cli as cli
    from cohprobe.coherence import builtin_corpus

    entries = [e for e in builtin_corpus(cli.parse_field("F32003")) if e.label == "free1"]
    monkeypatch.setattr(cli, "builtin_corpus", lambda field: entries)
    code, out = run_cli(["corpus", "-D", "8", "--json"])
    assert code == 0
    assert json.loads(out)["all_ok"] is True

    entries[0].expected_right = "GROWING"  # tamper: must be detected
    code2, out2 = run_cli(["corpus", "-D", "8", "--json"])
    assert code2 == 2
    assert json.loads(out2)["all_ok"] is False


def _documented_commands():
    """Every `cohprobe ...` line of the cli docstring and of the README
    subcommand block, as an argument list without the program name."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Subcommands (", 1)[1].split("```")[1]
    out = []
    for source, text in (("cli", cohprobe.cli.__doc__), ("README", block)):
        for line in text.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["cohprobe"]:
                out.append(pytest.param(words[1:], id=f"{source}: {shlex.join(words)}"))
    return out


# the README comment on its --module line gives this module
DOC_MODULE = {"shifts0": [0], "shifts1": [1], "matrix": [["x"]]}


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_command_runs(argv, tmp_path, monkeypatch):
    (tmp_path / "mod.json").write_text(json.dumps(DOC_MODULE), encoding="utf-8")
    monkeypatch.chdir(ROOT)  # the documented paths are relative to the repository
    swap = {"file.alg": str(ALGEBRAS / "commutative.alg"), "mod.json": str(tmp_path / "mod.json")}
    argv = [swap.get(a, a) for a in argv] + ["-D", "4"]
    try:
        code, _ = run_cli(argv)
    except SystemExit as exc:  # argparse errors exit 2
        code = exc.code
    assert code in ((0, 2) if argv[0] == "corpus" else (0,))
