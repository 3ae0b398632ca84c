"""Per-layer spans for the benchmark's traced run.

The tracer wraps the public functions listed in ``SPANS`` from outside the
program: a module-level function is replaced in every ``cohprobe`` module
namespace that bound it (``complete_to_degree`` is imported by name into
``coherence``, ``veronese``, ``zalg`` and ``cli``), a method on its class.
A span's self time is its duration minus the time of the traced spans it
called; private helpers are not traced, so their time lands in the self time
of their public caller.  Spans are aggregated in memory and only read out
after the traced run ends.

Counters are derived from arguments and results only, never from timings,
so two traced runs of one commit give identical counts.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref

PACKAGE = "cohprobe"
REQUEST_SPAN = "cli.request"
MARK = "__bench_span__"

# span name -> (module, attribute path inside that module)
SPANS = {
    "algfile.parse_algebra_file": ("algfile", "parse_algebra_file"),
    "gbasis.complete_to_degree": ("gbasis", "complete_to_degree"),
    "gbasis.normal_form_word": ("gbasis", "TruncatedGroebnerBasis.normal_form_word"),
    "gbasis.normal_form": ("gbasis", "TruncatedGroebnerBasis.normal_form"),
    "gbasis.normal_words": ("gbasis", "TruncatedGroebnerBasis.normal_words"),
    "gbasis.hilbert_dims": ("gbasis", "hilbert_dims"),
    "gbasis.component_dim_bruteforce": ("gbasis", "component_dim_bruteforce"),
    "grmod.free_basis": ("grmod", "free_basis"),
    "grmod.component_columns": ("grmod", "ModuleMap.component_columns"),
    "grmod.kernel_min_generators": ("grmod", "kernel_min_generators"),
    "grmod.minimal_resolution": ("grmod", "minimal_resolution"),
    "grmod.audit_resolution": ("grmod", "audit_resolution"),
    "linalg.SpanSolver.add": ("linalg", "SpanSolver.add"),
    "linalg.SpanSolver.reduce": ("linalg", "SpanSolver.reduce"),
    "coherence.probe_algebra": ("coherence", "probe_algebra"),
    "coherence.probe_ideal": ("coherence", "probe_ideal"),
    "veronese.veronese_presentation": ("veronese", "veronese_presentation"),
    "veronese.pm_module_presentations": ("veronese", "pm_module_presentations"),
    "veronese.veronese_cross_check": ("veronese", "veronese_cross_check"),
    "zalg.hom_dim_window": ("zalg", "hom_dim_window"),
    "zalg.cohproj_hom": ("zalg", "cohproj_hom"),
    "zalg.ZAlgebraWindow.audit": ("zalg", "ZAlgebraWindow.audit"),
    "zalg.ZAlgebraWindow.mult": ("zalg", "ZAlgebraWindow.mult"),
    "zalg.transport_module": ("zalg", "transport_module"),
}
SPAN_NAMES = (REQUEST_SPAN, *SPANS)


class _Repeats:
    """Counts calls whose key was already seen on the same object.

    Objects are told apart by identity while alive; the finalizer drops the
    seen set when the object dies, so a later object reusing its id starts
    fresh and the count stays deterministic.
    """

    def __init__(self):
        self._seen = {}

    def seen_before(self, obj, key):
        seen = self._seen.get(id(obj))
        if seen is None:
            seen = self._seen[id(obj)] = set()
            weakref.finalize(obj, self._seen.pop, id(obj), None)
        if key in seen:
            return True
        seen.add(key)
        return False


def _observers():
    """span name -> observe(counts, args, result) adding that span's counters."""
    nf_words, fb_keys, mult_keys = _Repeats(), _Repeats(), _Repeats()

    def add(counts, key, n):
        counts[key] = counts.get(key, 0) + n

    def completion(counts, args, tgb):
        add(counts, "elements", len(tgb.elements))
        add(counts, "added", len(tgb.log.added))
        add(counts, "skipped_overlaps", tgb.log.skipped_overlaps)

    def normal_form_word(counts, args, result):
        add(counts, "repeats", nf_words.seen_before(args[0], args[1]))

    def free_basis(counts, args, result):
        tgb, fm, d = args
        add(counts, "repeats", fb_keys.seen_before(tgb, (fm.shifts, d)))

    def component_columns(counts, args, cols):
        add(counts, "columns", len(cols))
        add(counts, "nnz", sum(len(c) for c in cols))

    def kernel_min_generators(counts, args, gens):
        add(counts, "generators", len(gens))

    def span_add(counts, args, grew):
        add(counts, "accepted", bool(grew))
        add(counts, "nnz_in", len(args[1]))

    def mult(counts, args, result):
        add(counts, "repeats", mult_keys.seen_before(args[0], tuple(args[1:])))

    return {
        "gbasis.complete_to_degree": completion,
        "gbasis.normal_form_word": normal_form_word,
        "grmod.free_basis": free_basis,
        "grmod.component_columns": component_columns,
        "grmod.kernel_min_generators": kernel_min_generators,
        "linalg.SpanSolver.add": span_add,
        "zalg.ZAlgebraWindow.mult": mult,
    }


def _ratio(num, den):
    return num / den if den else 0.0


# metric suffix -> (unit, better, value from (calls, counts))
DERIVED = {
    "gbasis.complete_to_degree": {
        "elements": ("count", "lower", lambda n, c: c.get("elements", 0)),
        "added": ("count", "lower", lambda n, c: c.get("added", 0)),
        "skipped_overlaps": ("count", "lower", lambda n, c: c.get("skipped_overlaps", 0)),
        "kept_ratio": ("ratio", "higher",
                       lambda n, c: _ratio(c.get("elements", 0), c.get("added", 0))),
    },
    "gbasis.normal_form_word": {
        "repeat_ratio": ("ratio", "lower", lambda n, c: _ratio(c.get("repeats", 0), n)),
    },
    "grmod.free_basis": {
        "distinct_ratio": ("ratio", "higher", lambda n, c: _ratio(n - c.get("repeats", 0), n)),
    },
    "grmod.component_columns": {
        "columns": ("count", "lower", lambda n, c: c.get("columns", 0)),
        "nnz": ("count", "lower", lambda n, c: c.get("nnz", 0)),
    },
    "grmod.kernel_min_generators": {
        "generators": ("count", "lower", lambda n, c: c.get("generators", 0)),
    },
    "linalg.SpanSolver.add": {
        "accept_ratio": ("ratio", "higher", lambda n, c: _ratio(c.get("accepted", 0), n)),
        "nnz_in": ("count", "lower", lambda n, c: c.get("nnz_in", 0)),
    },
    "zalg.cohproj_hom": {
        "errors": ("count", "lower", lambda n, c: c.get("errors", 0)),
    },
    "zalg.ZAlgebraWindow.mult": {
        "repeat_ratio": ("ratio", "lower", lambda n, c: _ratio(c.get("repeats", 0), n)),
    },
}


def per_layer_metric_specs():
    """[(name, unit, better)] of every per-layer metric, in output order."""
    specs = []
    for span in SPAN_NAMES:
        specs.append((f"{span}.calls", "count", "lower"))
        specs.append((f"{span}.self_s", "s", "lower"))
        for suffix, (unit, better, _) in DERIVED.get(span, {}).items():
            specs.append((f"{span}.{suffix}", unit, better))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def installed_wrappers():
    """Every ``module.name`` or ``Class.name`` binding that is a span wrapper now."""
    found = []
    for module in _package_modules():
        for name, value in vars(module).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, None) is not None:
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Wraps the listed spans while installed and aggregates calls and self time."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = {name: {} for name in SPAN_NAMES}
        self.missing = []
        self._stack = []
        self._patches = []

    # --- installation --------------------------------------------------

    def install(self):
        """Wrap every span that still exists; record the ones that do not."""
        observers = _observers()
        modules = _package_modules()
        for name, (modname, path) in SPANS.items():
            try:
                owner = importlib.import_module(f"{PACKAGE}.{modname}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, observers.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, original, wrapper)

    def uninstall(self):
        """Put every original back; raises if a binding is not restored."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, observe):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, counts = self.calls, self.self_s, self.counts[name]

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["errors"] = counts.get("errors", 0) + 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(traced, MARK, name)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- request spans -------------------------------------------------

    def request(self, fn, *args):
        """Call fn(*args) as one request span."""
        return self._wrap(REQUEST_SPAN, fn, None)(*args)

    # --- read-out ------------------------------------------------------

    def snapshot(self):
        """Calls and self time per span, for per-request differences."""
        return {name: (self.calls[name], self.self_s[name]) for name in SPAN_NAMES}

    def counters(self):
        """Deterministic per-layer values: calls and derived counts and ratios."""
        out = {}
        for span in SPAN_NAMES:
            n = self.calls[span]
            out[f"{span}.calls"] = n
            for suffix, (_, _, value) in DERIVED.get(span, {}).items():
                out[f"{span}.{suffix}"] = value(n, self.counts[span])
        return out

    def timings(self):
        return {f"{span}.self_s": self.self_s[span] for span in SPAN_NAMES}
