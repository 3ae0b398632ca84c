"""Command-line front end.

    cohprobe hilbert algebras/example1.alg -D 10
    cohprobe gb file.alg --json
    cohprobe tor file.alg --module mod.json
    cohprobe probe file.alg --side both --gen-degree-bound 2
    cohprobe veronese file.alg --n 2
    cohprobe zalg file.alg --window=-2..8
    cohprobe corpus

Reports are deterministic: identical configuration yields byte-identical
output (JSON keys sorted, no timestamps, content hash of the presentation
embedded).  Exit codes: 0 success, 1 computation or input error, 2 corpus
expectation mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .algfile import parse_algebra_file, render_algebra_file
from .coherence import (
    RightIdealSpec,
    builtin_corpus,
    ideal_map,
    noetherian_chain_profile,
    probe_algebra,
    probe_ideal,
)
from .errors import CohprobeError, InputError
from .freealg import NcPoly, parse_poly
from .gbasis import complete_to_degree, component_dim_bruteforce, hilbert_dims, opposite
from .grmod import FreeModule, ModuleMap, audit_resolution, minimal_resolution
from .linalg import parse_field
from .veronese import pm_module_presentations, veronese_cross_check, veronese_presentation
from .zalg import ZAlgebraWindow, cohproj_hom, transport_module


def _presentation_hash(pres):
    return hashlib.sha256(render_algebra_file(pres).encode("utf-8")).hexdigest()[:16]


def _base_report(pres, args):
    return {
        "tool": "cohprobe",
        "version": __version__,
        "algebra": pres.label,
        "content_hash": _presentation_hash(pres),
        "field": pres.field.name,
        "order": list(pres.gens.precedence),
        "D": args.max_degree,
    }


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")


def _load_presentation(args):
    text = _read_text(args.file)
    field = parse_field(args.field) if args.field else None
    order = args.order.replace(">", " ").split() if args.order else None
    return parse_algebra_file(text, field=field, order=order)


def _emit(report, args, text_renderer):
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        text_renderer(report)
    return 0


def _table(rows, header=None):
    if header:
        rows = [list(header)] + list(rows)
    rows = [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


# --- subcommands -----------------------------------------------------------


def cmd_hilbert(args):
    pres = _load_presentation(args)
    D = args.max_degree
    tgb = complete_to_degree(pres, D)
    dims = hilbert_dims(tgb, D)
    report = _base_report(pres, args)
    report["hilbert"] = {"dims": dims}
    if args.oracle_check:
        bound = min(D, 8)
        oracle = [component_dim_bruteforce(pres, d) for d in range(bound + 1)]
        report["hilbert"]["oracle"] = oracle
        report["hilbert"]["oracle_agrees"] = oracle == dims[: bound + 1]

    def render(rep):
        print(f"# {rep['algebra']}  (field {rep['field']}, D={rep['D']}, hash {rep['content_hash']})")
        _table([["dim A_d"] + [str(v) for v in dims]], header=["d"] + list(range(D + 1)))
        if args.oracle_check:
            print("oracle agrees:", rep["hilbert"]["oracle_agrees"])

    return _emit(report, args, render)


def cmd_gb(args):
    pres = _load_presentation(args)
    tgb = complete_to_degree(pres, args.max_degree)
    report = _base_report(pres, args)
    report["gb"] = {
        "elements": tgb.element_strings(),
        "log": tgb.log.to_dict(),
    }

    def render(rep):
        print(f"# {rep['algebra']}  truncated Groebner basis at D={rep['D']}")
        for el in rep["gb"]["elements"]:
            print("  ", el)
        log = rep["gb"]["log"]
        print(f"inputs: {log['input_relations']}  family members: {log['family_members']}"
              f"  added: {len(log['added'])}  skipped overlaps: {log['skipped_overlaps']}")

    return _emit(report, args, render)


def _module_from_json(tgb, spec):
    if not isinstance(spec, dict):
        raise InputError("module JSON must be an object")
    shifts0 = spec.get("shifts0", [0])
    shifts1 = spec.get("shifts1", [])
    for shifts in (shifts0, shifts1):
        if not isinstance(shifts, list) or not all(type(s) is int for s in shifts):
            raise InputError("module JSON: shifts0 and shifts1 must be lists of integers")
    matrix = spec.get("matrix", [])
    if not isinstance(matrix, list) or len(matrix) > len(shifts0) or not all(
        isinstance(row, list) and len(row) <= len(shifts1) for row in matrix
    ):
        raise InputError(
            f"module JSON: matrix must be a list of at most {len(shifts0)} rows, "
            f"each a list of at most {len(shifts1)} cells"
        )
    entries = {}
    for k, row in enumerate(matrix):
        for l, cell in enumerate(row):
            if not cell:
                continue
            if not isinstance(cell, str):
                raise InputError(f"module JSON: matrix cell ({k},{l}) must be a string")
            if cell.strip() not in ("0", ""):
                entries[(k, l)] = parse_poly(tgb.gt, tgb.field, cell)
    return ModuleMap(tgb, FreeModule(tuple(shifts1)), FreeModule(tuple(shifts0)), entries)


def cmd_tor(args):
    pres = _load_presentation(args)
    D = args.max_degree
    tgb = complete_to_degree(pres, D)
    if args.module:
        text = _read_text(args.module)
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed module JSON in {args.module}: {exc}")
        relations = _module_from_json(tgb, spec)
        name = args.module
    else:
        # k = A / A_+: its relations are the ideal map of the letters
        letters = [NcPoly.monomial(tgb.gt, tgb.field, (i,)) for i in range(len(tgb.gt.names))]
        relations = ideal_map(tgb, RightIdealSpec(letters))
        name = "k (trivial module)"
    res = minimal_resolution(relations, length=args.length)
    audit = audit_resolution(res)
    report = _base_report(pres, args)
    report["tor"] = {
        "module": name,
        "rows": {f"tor{i}": row for i, row in enumerate(res.tor)},
        "audit": audit,
    }

    def render(rep):
        print(f"# Tor profile of {name} over {rep['algebra']}, D={rep['D']}")
        _table(
            [[f"tor{i}"] + row for i, row in enumerate(res.tor)],
            header=["i\\d"] + list(range(D + 1)),
        )
        print("audit:", "ok" if audit["minimal"] and audit["exact"] and audit["surjective"]
              else audit["detail"])

    return _emit(report, args, render)


def cmd_probe(args):
    pres = _load_presentation(args)
    D = args.max_degree
    report = _base_report(pres, args)
    sides = ["right", "left"] if args.side == "both" else [args.side]
    blocks = {}
    if args.ideal:
        texts = [t.strip() for t in args.ideal.split(";") if t.strip()]
        for side in sides:
            probed = pres if side == "right" else opposite(pres)
            tgb = complete_to_degree(probed, D)
            ideal = RightIdealSpec.from_strings(tgb, texts)
            blocks[side] = {"ideal": probe_ideal(tgb, ideal).to_dict()}
    else:
        tgb = complete_to_degree(pres, D)
        for side in sides:
            agg = probe_algebra(tgb, args.gen_degree_bound, args.max_ideals, side=side)
            blocks[side] = agg.to_dict()
    report["probe"] = blocks

    def render(rep):
        for side, block in blocks.items():
            print(f"# {rep['algebra']} {side} probe, D={D}")
            if "ideal" in block:
                b = block["ideal"]
                _table([["new gens"] + b["profile"]], header=["deg"] + list(range(D + 1)))
                print("verdict:", b["verdict"]["kind"], " witness:", b["witness"][:4])
            else:
                kind = block["aggregate"]["kind"]
                suffix = f", witness {block['witness_ideal']}" if kind != "STABLE" else ""
                print(f"aggregate: {kind}  (ideals probed: {len(block['ideals'])}{suffix})")
                for rep_i in block["ideals"]:
                    if rep_i["verdict"]["kind"] != "STABLE":
                        print("   ", rep_i["gens"], rep_i["verdict"]["kind"], rep_i["profile"])

    return _emit(report, args, render)


def cmd_veronese(args):
    pres = _load_presentation(args)
    tgb = complete_to_degree(pres, args.max_degree)
    vp = veronese_presentation(tgb, args.n)
    report = _base_report(pres, args)
    report["veronese"] = vp.to_dict()
    if args.cross_check:
        cc = veronese_cross_check(vp, args.gen_degree_bound, args.max_ideals)
        report["veronese"]["cross_check"] = cc.to_dict()
    if args.pm_modules:
        reports = pm_module_presentations(tgb, args.n)
        report["veronese"]["pm_modules"] = [r.to_dict() for r in reports]

    def render(rep):
        v = rep["veronese"]
        print(f"# Veronese A^({args.n}) of {rep['algebra']}, window i <= {v['window_internal']}")
        print("generators:", v["generators"])
        _table(
            [
                ["new relations"] + [v["relations_per_internal_degree"].get(str(i), 0)
                                     for i in range(1, v["window_internal"] + 1)],
                ["dim A^(n)_i"] + v["hilbert_internal"][1:],
                ["dim A_(i n)"] + v["hilbert_ambient"][1:],
            ],
            header=["internal i"] + list(range(1, v["window_internal"] + 1)),
        )
        print("all monomial:", v["all_relations_monomial"],
              " trailing silent degrees:", v["trailing_silent_degrees"])
        if "cross_check" in v:
            c = v["cross_check"]
            print(f"cross-check: ambient {c['ambient']['kind']} vs veronese {c['veronese']['kind']}"
                  f" (agree: {c['agree']})")

    return _emit(report, args, render)


def cmd_zalg(args):
    pres = _load_presentation(args)
    D = args.max_degree
    lo, hi = _parse_window(args.window)
    if args.hom_range < 0:
        raise InputError(f"hom range {args.hom_range} < 0")
    if hi < 0:
        raise InputError(f"window top {hi} < 0 leaves no P_a with a >= 0 to tabulate")
    tgb = complete_to_degree(pres, max(D, hi - lo))
    zw = ZAlgebraWindow(tgb, lo, hi)
    audit = zw.audit()
    report = _base_report(pres, args)
    hom_top = min(hi, args.hom_range)
    projectives = [transport_module(zw, a) for a in range(0, hom_top + 1)]
    homtables = {}
    for a in range(0, hom_top + 1):
        for b in range(a, hom_top + 1):
            try:
                r = cohproj_hom(projectives[a], projectives[b])
                homtables[f"P{a}->P{b}"] = r.to_dict()
            except CohprobeError as exc:
                homtables[f"P{a}->P{b}"] = {"error": str(exc)}
    report["zalgebra"] = {
        "window": [lo, hi],
        "audit": audit,
        "component_dims": {
            f"A_{i}_{j}": zw.dim(i, j) for i in range(lo, hi + 1) for j in range(i, hi + 1)
        },
    }
    report["homtables"] = homtables

    def render(rep):
        print(f"# Z-algebra window [{lo}, {hi}] of {rep['algebra']}")
        print("audit:", "ok" if audit["ok"] else audit["problems"])
        for key, val in homtables.items():
            if "error" in val:
                print(f"{key}: {val['error']}")
            elif val["stabilized"]:
                print(f"{key}: stabilizes at {val['value']} (level {val['level']})")
            else:
                print(f"{key}: NOT_STABILIZED, table {val['table']}")

    return _emit(report, args, render)


def _parse_window(text):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad window spec {text!r}, want lo..hi")


def cmd_corpus(args):
    field = parse_field(args.field) if args.field else parse_field("F32003")
    D = args.max_degree
    rows = []
    ok_all = True

    def check(label, what, got, want):
        nonlocal ok_all
        good = got == want
        ok_all = ok_all and good
        rows.append([label, what, str(want), str(got), "ok" if good else "FAIL"])

    for entry in builtin_corpus(field):
        pres = entry.presentation
        tgb = complete_to_degree(pres, D)
        bound = min(6, D)
        dims = hilbert_dims(tgb, bound)
        oracle = [component_dim_bruteforce(pres, d) for d in range(bound + 1)]
        check(entry.label, "hilbert==oracle(d<=6)", dims == oracle, True)
        # left first, keeping only its verdict: the opposite basis, product
        # tables included, is freed before the right probe fills the tables
        # of tgb (a report's witness would hold on to its basis)
        left = probe_algebra(tgb, 2, args.max_ideals, side="left").aggregate.kind
        right = probe_algebra(tgb, 2, args.max_ideals, side="right").aggregate.kind
        check(entry.label, "right aggregate", right, entry.expected_right)
        check(entry.label, "left aggregate", left, entry.expected_left)
        if entry.label == "noetherian_base":
            chain = noetherian_chain_profile(tgb)
            check(entry.label, "chain grows each stage", all(chain) and len(chain) >= 3, True)

    report = {
        "tool": "cohprobe",
        "version": __version__,
        "field": field.name,
        "D": D,
        "corpus": [
            {"algebra": r[0], "check": r[1], "expected": r[2], "got": r[3], "ok": r[4] == "ok"}
            for r in rows
        ],
        "all_ok": ok_all,
    }

    def render(rep):
        _table(rows, header=["algebra", "check", "expected", "got", "status"])
        print("corpus:", "all ok" if ok_all else "MISMATCH")

    _emit(report, args, render)
    return 0 if ok_all else 2


# --- entry point -----------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cohprobe",
        description="Coherence probes and truncated Groebner computations for graded algebras.",
    )
    ap.add_argument("--version", action="version", version=f"cohprobe {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="algebra file")
        p.add_argument("-D", "--max-degree", type=int, default=10)
        p.add_argument("--field", help="Q or F<p> (overrides the file)")
        p.add_argument("--order", help="generator precedence, e.g. 'x>y>z'")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("hilbert", help="component dimensions dim A_d")
    common(p)
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check against the span oracle (d <= 8)")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("gb", help="truncated Groebner basis")
    common(p)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("tor", help="Tor profile of a module (default: trivial module k)")
    common(p)
    p.add_argument("--module", help="JSON file: shifts0, shifts1, matrix of polynomials")
    p.add_argument("--length", type=int, default=2, help="resolution length cap")
    p.set_defaults(func=cmd_tor)

    p = sub.add_parser("probe", help="coherence probe")
    common(p)
    p.add_argument("--side", choices=["right", "left", "both"], default="right")
    p.add_argument("--ideal", help="semicolon-separated ideal generators "
                   "(left probes read them in the opposite presentation)")
    p.add_argument("--gen-degree-bound", type=int, default=2)
    p.add_argument("--max-ideals", type=int, default=64)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("veronese", help="Veronese subalgebra presentation")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--pm-modules", action="store_true")
    p.add_argument("--gen-degree-bound", type=int, default=2)
    p.add_argument("--max-ideals", type=int, default=64)
    p.set_defaults(func=cmd_veronese)

    p = sub.add_parser("zalg", help="Z-algebra window and cohproj hom tables")
    common(p)
    p.add_argument("--window", required=True, help="lo..hi")
    p.add_argument("--hom-range", type=int, default=3,
                   help="tabulate cohproj_hom(P_a, P_b) for 0 <= a <= b <= this")
    p.set_defaults(func=cmd_zalg)

    p = sub.add_parser("corpus", help="run the built-in corpus expectations")
    p.add_argument("-D", "--max-degree", type=int, default=10)
    p.add_argument("--field", help="default F32003 for the corpus fast path")
    p.add_argument("--max-ideals", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.max_degree < 2:
            raise CohprobeError("max degree must be >= 2")
        return args.func(args)
    except (CohprobeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
