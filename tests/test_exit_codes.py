"""Seeded fuzz of the exit-code contract of `cohprobe` (README, "Exit codes").

Every input goes through `cli.main` at D <= 6:
- mutated texts of `algebras/*.alg` under every subcommand that reads an
  algebra file, with random options;
- random `tor --module` JSON;
- random `probe --ideal` strings;
- `corpus` with random options.

Every run must return 0, 1 or 2 (2 only from `corpus`), return 1 exactly
when stderr starts with `error: `, and let no exception escape.

Resources are not part of this contract.  A relation such as x^1000000
builds its million-letter word before any degree check; that is a question
for a resource guard, so the mutations here keep exponents and generator
counts small.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cohprobe.cli import main

ALGEBRAS = sorted((Path(__file__).resolve().parent.parent / "algebras").glob("*.alg"))
SEED = 2026
CASES = 400

TOKENS = ["x", "y", "z", "w", "*", "^", "+", "-", "/", "2", "0", "1/0", "(", ")", " ",
          "\n", "#", "{", "}", "n", ">=", ">", ",", "gen ", "rel ", "relfam ", "field ",
          "order ", "label ", "F3", "Q", "Fp ", "deglex "]
# (good, bad) choices of an option value; a bad value is drawn one time in ten
FIELDS = ([None, None, "Q", "F3", "F32003"], ["F4", "F1", "R"])
ORDERS = ([None], ["x>y", "y>x>z", "x>x", "q", "x > y > z"])
CELLS = ["x", "y", "x*y", "y*y", "2", "0", "", "x+", "z*z", "1/2*x", "w", 5, None, []]
IDEAL_TERMS = ["x", "y", "z", "x*y", "y*x - x*y", "2*x", "0", "1", "x+", "", "x^2", "w",
               "y*y*y", "1/2*y"]


def mutate(text, rng):
    """text with 1 to 3 random edits: a character span deleted, a token
    inserted, a line deleted, duplicated or swapped, or a digit replaced."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        op = rng.randrange(6)
        if op == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif op == 1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        elif op == 2:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 3:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        elif op == 4:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        else:
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            if digits:
                i = rng.choice(digits)
                text = text[:i] + rng.choice("0123456789") + text[i + 1:]
    return text


def random_module(rng):
    """A `tor --module` file text: mostly well-formed JSON of random shape."""
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice(["{not json", "[1, 2]", "null", '"x"', "", '{"shifts0": "ab"}'])
    shifts0 = [rng.randint(-1, 2) for _ in range(rng.randint(0, 3))]
    shifts1 = [rng.randint(-1, 3) for _ in range(rng.randint(0, 3))]
    matrix = [[rng.choice(CELLS) for _ in range(rng.randint(0, len(shifts1) + 1))]
              for _ in range(rng.randint(0, len(shifts0) + 1))]
    spec = {"shifts0": shifts0, "shifts1": shifts1, "matrix": matrix}
    if kind == 1:
        del spec[rng.choice(list(spec))]
    return json.dumps(spec)


def pick(rng, choices):
    good, bad = choices
    return rng.choice(bad if rng.random() < 0.1 else good)


def number(rng, lo, hi, bad):
    """An integer option in lo..hi, or one of the bad values one time in ten."""
    return str(rng.choice(bad) if rng.random() < 0.1 else rng.randint(lo, hi))


def random_ideal(rng):
    return ";".join(rng.choice(IDEAL_TERMS) for _ in range(rng.randint(1, 3)))


def common_options(rng, max_degree):
    argv = ["-D", str(rng.randint(2, max_degree))]
    for flag, choices in (("--field", FIELDS), ("--order", ORDERS)):
        value = pick(rng, choices)
        if value is not None:
            argv += [flag, value]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def random_argv(rng, tmp_path, k):
    """The k-th fuzz case: a subcommand, its input files and its options."""
    command = rng.choice(["hilbert", "gb", "tor", "tor", "probe", "probe", "veronese",
                          "zalg", "corpus"])
    if command == "corpus":
        argv = ["corpus", "-D", str(rng.randint(2, 4)),
                "--max-ideals", number(rng, 1, 3, (-1, 0))]
        field = pick(rng, FIELDS)
        return argv + (["--field", field] if field else [])
    alg = tmp_path / f"case{k}.alg"
    alg.write_text(mutate(rng.choice(ALGEBRAS).read_text(encoding="utf-8"), rng),
                   encoding="utf-8")
    argv = [command, str(alg)]
    if command == "hilbert":
        argv += common_options(rng, 6)
        if rng.random() < 0.5:
            argv.append("--oracle-check")
    elif command == "gb":
        argv += common_options(rng, 6)
    elif command == "tor":
        argv += common_options(rng, 5) + ["--length", number(rng, 0, 3, (-1, 7))]
        if rng.random() < 0.6:
            module = tmp_path / f"case{k}.json"
            module.write_text(random_module(rng), encoding="utf-8")
            argv += ["--module", str(module)]
    elif command == "probe":
        argv += common_options(rng, 5) + [
            "--side", rng.choice(["right", "left", "both"]),
            "--max-ideals", number(rng, 1, 3, (-1, 0)),
            "--gen-degree-bound", number(rng, 1, 2, (0, -1)),
        ]
        if rng.random() < 0.6:
            argv += ["--ideal", random_ideal(rng)]
    elif command == "veronese":
        # n = 3 on three free letters puts 27 letters on the Veronese side
        argv += common_options(rng, 4) + ["--n", number(rng, 2, 2, (1, 0)), "--max-ideals", "2"]
        argv += [flag for flag in ("--cross-check", "--pm-modules") if rng.random() < 0.5]
    else:
        lo = rng.randint(-3, 1)
        argv += common_options(rng, 4) + [f"--window={lo}..{lo + rng.randint(-1, 4)}",
                                          "--hom-range", number(rng, 0, 2, (-1,))]
    return argv


def test_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    codes = {0: 0, 1: 0, 2: 0}
    for k in range(CASES):
        argv = random_argv(rng, tmp_path, k)
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the contract forbids any escape
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in codes, (argv, code)
        assert code != 2 or argv[0] == "corpus", argv  # 2 is a corpus mismatch
        assert (code == 1) == err.getvalue().startswith("error: "), (argv, code, err.getvalue())
        codes[code] += 1
    # the fuzz reaches both the error path and the success path
    assert codes[0] > CASES // 10 and codes[1] > CASES // 10, codes
