"""Per-layer tracing of one in-process plumbline CLI invocation.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python perfbench/layer_trace.py SUMMARY.json SPANS.json -- <plumbline argv>

The script times ``import plumbline.cli``, wraps the public entry points of
each plumbline module from outside the package, calls
``plumbline.cli.main(argv)``, removes the wrappers again and writes two
files: a per-layer summary (calls, self time, counters) and the raw spans
``(id, name, start, end, parent)`` of the run.  The CLI report still goes to
stdout unchanged, so a traced run is checked like an untraced one.

Layers are the package's modules.  Every layer except ``gaussian`` records
one span per wrapped call.  ``GaussianRational`` methods run 10^5-10^6
times per workload, so that layer keeps call counts and a sampled total of
the time spent in its outermost calls, not spans.  A layer's self time is
the time inside its spans that no child span (or gaussian call) covers.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import time
import uuid
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

LAYERS = (
    "cli",
    "sampling",
    "alkanes",
    "elliptic",
    "curve_periods",
    "relations",
    "surfaces",
    "jets",
    "gaussian",
)

# Entry points per layer: the calls other layers (or the user, for cli) make
# into it.  Helpers a layer only calls on itself are left unwrapped: their
# time is that layer's self time either way, and wrapping them only adds
# overhead.  "Class.method" names are patched on the class; plain names are
# patched in every plumbline module that holds a reference to the function,
# because ``from .x import f`` copies the binding into the caller's module.
# A name a later version of the package no longer has is skipped with a
# warning on stderr.
SPAN_POINTS: Dict[str, Tuple[str, ...]] = {
    "cli": (
        "main",
        "build_parser",
        "cmd_alkanes_enum",
        "cmd_alkanes_count",
        "cmd_periods_pair",
        "cmd_periods_star",
        "cmd_periods_tree",
        "cmd_relations_verify",
        "cmd_surfaces_dims",
        "cmd_surfaces_egamma",
        "cmd_selftest",
    ),
    "sampling": (
        "substream",
        "random_star_config",
        "random_tree_config",
        "random_grass_frame_minors",
        "random_surface_model",
    ),
    "alkanes": (
        "enumerate_alkanes",
        "count_alkanes",
        "canonical_code",
        "alkane_from_code",
        "is_chain",
        "valency_profile",
        "hydrogen_count",
        "brute_force_alkane_count",
        "Alkane.__post_init__",
    ),
    "elliptic": (
        "normalized_form_value",
        "two_torsion_representatives",
        "reduce_to_fundamental_domain",
        "are_isomorphic",
        "TauPoint.__post_init__",
        "Mark.__post_init__",
        "MarkedEllipticCurve.__post_init__",
        "MarkedEllipticCurve.mark_value",
        "TwoTorsionLabel.representative",
    ),
    "curve_periods": (
        "pair_period_first_order",
        "star_period_leading",
        "tree_period_first_order",
        "offdiag_support",
        "is_banded",
        "banded_locus_dimension",
        "derivative_rank_one_check",
        "StarConfig.__post_init__",
        "TreeConfig.__post_init__",
        "PeriodMatrixJet.var_coefficient_matrix",
    ),
    "relations": (
        "all_octic_indices",
        "octic_eval",
        "plucker_coordinates",
        "plucker_quadric",
        "plucker_to_cone",
        "perturbed_star_entries",
        "verify_asymptotic_vanishing",
    ),
    "surfaces": (
        "dim_period_domain",
        "dim_K",
        "dim_V_Gamma",
        "dim_W",
        "build_Pi",
        "assemble_surface_period",
        "matrix_rank_exact",
        "dense_rank_exact",
        "span_dimension_E_Gamma",
        "all_two_by_two_minors_vanish",
        "skew_block_rank_one_vanishing",
        "SurfaceGraphModel.__post_init__",
    ),
    "jets": (
        "Jet.__mul__",
        "Jet.__rmul__",
        "Jet.__add__",
        "Jet.__radd__",
        "Jet.__sub__",
        "Jet.__rsub__",
        "Jet.__neg__",
        "Jet.__pow__",
        "Jet.__truediv__",
        "Jet.coefficient",
        "Jet.vanishes_through_degree",
        "Jet.min_nonzero_degree",
        "JetRing.constant",
        "JetRing.variable",
        "JetRing.jet",
        "JetRing.linear_form",
    ),
}

# GaussianRational methods: counted on every call.  Timing every call would
# cost about 1 us each, more than the work of a zero test, so each method
# times its first and then every SAMPLE_EVERY-th outermost call.  At the end
# each method's outermost calls are charged its mean sampled time: to the
# gaussian layer, and off the self time of the layer that made the call.
SAMPLE_EVERY = 13
COUNT_POINTS: Dict[str, str] = {
    "GaussianRational.__init__": "new",
    "GaussianRational.__mul__": "mul",
    "GaussianRational.__rmul__": "mul",
    "GaussianRational.__add__": "add",
    "GaussianRational.__radd__": "add",
    "GaussianRational.__sub__": "add",
    "GaussianRational.__rsub__": "add",
    "GaussianRational.__neg__": "neg",
    "GaussianRational.__truediv__": "div",
    "GaussianRational.__rtruediv__": "div",
    "GaussianRational.__pow__": "pow",
    "GaussianRational.__bool__": "bool",
    "GaussianRational.__eq__": "eq",
}

# Entry points whose calls and outermost inclusive time are also reported
# under a group name of their own.
GROUPS = {
    "jets.Jet.__mul__": "jets.mul",
    "jets.Jet.__rmul__": "jets.mul",
    "jets.Jet.__add__": "jets.add",
    "jets.Jet.__radd__": "jets.add",
    "relations.octic_eval": "relations.octic_eval",
    "surfaces.build_Pi": "surfaces.build_pi",
    "surfaces.matrix_rank_exact": "surfaces.rank",
    "alkanes.enumerate_alkanes": "alkanes.enumerate",
    "alkanes.count_alkanes": "alkanes.enumerate",
    "curve_periods.pair_period_first_order": "curve_periods.assemble",
    "curve_periods.star_period_leading": "curve_periods.assemble",
    "curve_periods.tree_period_first_order": "curve_periods.assemble",
}


def _nonzero(x) -> bool:
    """Zero test that does not go through the counted GaussianRational.__bool__."""
    re = getattr(x, "re", None)
    return bool(x) if re is None else bool(re or x.im)


def _bits(x) -> int:
    """Largest numerator or denominator bit length of an exact value, else 0."""
    re = getattr(x, "re", None)
    best = 0
    for p in (x,) if re is None else (re, x.im):
        if hasattr(p, "denominator"):
            best = max(best, p.numerator.bit_length(), p.denominator.bit_length())
    return best


class Tracer:
    """In-memory spans, per-layer self time and counters of one run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.trace_id = uuid.uuid4().hex
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.group_calls: Counter = Counter()
        self.group_s: Dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self.maxima: Dict[str, int] = {"jets.terms_peak": 0, "gaussian.max_bits": 0}
        # per wrapped method: [calls, outermost calls, timed calls, timed seconds]
        self._gauss_stats: Dict[str, list] = {}
        self.hook_s = 0.0
        self.skipped: List[str] = []
        # outermost gaussian calls per calling layer, per wrapped method
        self._gauss_from: Dict[str, Counter] = {layer: Counter() for layer in LAYERS}
        # one frame per open span: [time covered by children, span id, the
        # gaussian call counter of its layer]
        self._stack: List[list] = [[0.0, None, self._gauss_from["cli"]]]
        self._ids = itertools.count()
        self._group_depth: Counter = Counter()
        self._in_gauss = [False]
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def record(self, layer: str, name: str, start: float, end: float) -> None:
        """Add a span that was timed by the caller (no children)."""
        self.spans.append((next(self._ids), name, start, end, self._stack[-1][1]))
        self.self_s[layer] += end - start
        self.calls[layer] += 1
        self._stack[-1][0] += end - start

    def span_wrapper(self, layer: str, name: str, fn, hook=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, self.clock
        self_s, calls = self.self_s, self.calls
        group = GROUPS.get(name)
        depth = self._group_depth
        gauss_from = self._gauss_from[layer]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids), gauss_from]
            stack.append(frame)
            if group:
                depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                self_s[layer] += d - frame[0]
                calls[layer] += 1
                parent[0] += d
                spans.append((frame[1], name, t0, t1, parent[1]))
                if group:
                    depth[group] -= 1
                    self.group_calls[group] += 1
                    if not depth[group]:
                        self.group_s[group] += d
            if hook is not None:
                hook(args, result)
                h = clock() - t1
                self.hook_s += h
                parent[0] += h
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, point: str, fn):
        stats = self._gauss_stats.setdefault(point, [0, 0, 0, 0.0])
        inside, stack, clock = self._in_gauss, self._stack, self.clock

        def wrapper(*args, **kwargs):
            stats[0] += 1
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] = True
            stats[1] += 1
            stack[-1][2][point] += 1
            if stats[1] % SAMPLE_EVERY != 1:
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside[0] = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[3] += clock() - t0
                stats[2] += 1
                inside[0] = False

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters fed from results ------------------------------------

    def _jet_mul_hook(self, args, result):
        jet_type = type(args[0])
        if not isinstance(result, jet_type):
            return
        a = args[0].terms
        other = args[1]
        if isinstance(other, jet_type):
            b = other.terms
        else:
            b = {(0,): other} if _nonzero(other) else {}
        order = args[0].ring.order
        ha = Counter(sum(e) for e in a)
        hb = Counter(sum(e) for e in b)
        self.counters["jets.mul_pairs"] += len(a) * len(b)
        self.counters["jets.mul_pairs_kept"] += sum(
            na * nb for da, na in ha.items() for db, nb in hb.items() if da + db <= order
        )
        peak = max(len(a), len(b), len(result.terms))
        if peak > self.maxima["jets.terms_peak"]:
            self.maxima["jets.terms_peak"] = peak

    def _octic_hook(self, args, result):
        values = result.terms.values() if hasattr(result, "terms") else (result,)
        best = max((_bits(v) for v in values), default=0)
        if best > self.maxima["gaussian.max_bits"]:
            self.maxima["gaussian.max_bits"] = best

    def _build_pi_hook(self, args, result):
        self.counters["surfaces.cells_scanned"] += len(result) * (len(result[0]) if result else 0)
        nonzero, zero = 0, None
        for row in result:
            for x in row:
                if x is zero:  # build_Pi fills with one shared zero object
                    continue
                if _nonzero(x):
                    nonzero += 1
                else:
                    zero = x
        self.counters["surfaces.cells_nonzero"] += nonzero

    def _trees_hook(self, args, result):
        self.counters["alkanes.trees"] += result if isinstance(result, int) else len(result)

    # -- install / remove ---------------------------------------------

    def install(self) -> None:
        hooks = {
            "jets.Jet.__mul__": self._jet_mul_hook,
            "jets.Jet.__rmul__": self._jet_mul_hook,
            "relations.octic_eval": self._octic_hook,
            "surfaces.build_Pi": self._build_pi_hook,
            "alkanes.enumerate_alkanes": self._trees_hook,
            "alkanes.count_alkanes": self._trees_hook,
        }
        modules = {
            name: importlib.import_module(f"plumbline.{name}") for name in LAYERS
        }
        for layer, points in SPAN_POINTS.items():
            for point in points:
                name = f"{layer}.{point}"
                self._patch(modules, layer, point, lambda fn, n=name, lay=layer: self.span_wrapper(
                    lay, n, fn, hooks.get(n)
                ))
        for point in COUNT_POINTS:
            self._patch(modules, "gaussian", point, lambda fn, p=point: self.count_wrapper(p, fn))

    def _patch(self, modules, layer: str, point: str, make) -> None:
        module = modules[layer]
        if "." in point:
            cls_name, attr = point.split(".", 1)
            cls = getattr(module, cls_name, None)
            if cls is None or attr not in vars(cls):
                self.skipped.append(f"{layer}.{point}")
                return
            original = vars(cls)[attr]
            setattr(cls, attr, make(original))
            self._patches.append((cls, attr, original))
            return
        original = getattr(module, point, None)
        if not callable(original):
            self.skipped.append(f"{layer}.{point}")
            return
        wrapper = make(original)
        for mod in sys.modules.values():
            if mod is None or not getattr(mod, "__name__", "").startswith("plumbline"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- report -------------------------------------------------------

    def summary(self, traced_s: float, import_s: float) -> dict:
        mean = {p: st[3] / st[2] for p, st in self._gauss_stats.items() if st[2]}
        self_s = dict(self.self_s)
        for layer, calls in self._gauss_from.items():
            charged = sum(n * mean[p] for p, n in calls.items())
            self_s[layer] -= charged
            self_s["gaussian"] += charged
        counts: Counter = Counter()
        for p, st in self._gauss_stats.items():
            counts[COUNT_POINTS[p]] += st[0]
        calls = dict(self.calls, gaussian=sum(counts.values()))
        pairs = self.counters["jets.mul_pairs"]
        cells = self.counters["surfaces.cells_scanned"]
        layers = {
            layer: {
                "calls": calls[layer],
                "self_s": self_s[layer],
                "share": self_s[layer] / traced_s if traced_s > 0 else 0.0,
            }
            for layer in LAYERS
        }
        return {
            "trace_id": self.trace_id,
            "traced_s": traced_s,
            "hook_s": self.hook_s,
            "spans": len(self.spans),
            "skipped_points": self.skipped,
            "layers": layers,
            "metrics": {
                "cli.import_s": import_s,
                "jets.mul_calls": self.group_calls["jets.mul"],
                "jets.mul_s": self.group_s["jets.mul"],
                "jets.add_calls": self.group_calls["jets.add"],
                "jets.mul_pairs": pairs,
                "jets.mul_pairs_kept_ratio": (
                    self.counters["jets.mul_pairs_kept"] / pairs if pairs else 0.0
                ),
                "jets.terms_peak": self.maxima["jets.terms_peak"],
                "gaussian.new_calls": counts["new"],
                "gaussian.mul_calls": counts["mul"],
                "gaussian.add_calls": counts["add"],
                "gaussian.bool_calls": counts["bool"],
                "gaussian.max_bits": self.maxima["gaussian.max_bits"],
                "relations.octic_eval_calls": self.group_calls["relations.octic_eval"],
                "relations.octic_eval_s": self.group_s["relations.octic_eval"],
                "surfaces.build_pi_calls": self.group_calls["surfaces.build_pi"],
                "surfaces.build_pi_s": self.group_s["surfaces.build_pi"],
                "surfaces.rank_s": self.group_s["surfaces.rank"],
                "surfaces.cells_scanned": cells,
                "surfaces.nonzero_ratio": (
                    self.counters["surfaces.cells_nonzero"] / cells if cells else 0.0
                ),
                "alkanes.enumerate_s": self.group_s["alkanes.enumerate"],
                "alkanes.trees": self.counters["alkanes.trees"],
                "curve_periods.assemble_calls": self.group_calls["curve_periods.assemble"],
                "curve_periods.assemble_s": self.group_s["curve_periods.assemble"],
            },
        }


def traced_main(argv: List[str], summary_path: str, spans_path: str) -> int:
    """Import the CLI, run it once under the tracer and write both files."""
    tracer = Tracer()
    t0 = tracer.clock()
    cli = importlib.import_module("plumbline.cli")
    t1 = tracer.clock()
    tracer.record("cli", "cli.import", t0, t1)
    with tracer.installed():
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
    sys.stdout.flush()
    t2 = tracer.clock()
    for name in tracer.skipped:
        print(f"layer_trace: entry point {name} not found, not traced", file=sys.stderr)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, **tracer.summary(t2 - t0, t1 - t0)}, fh, indent=1)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "trace_id": tracer.trace_id,
                "fields": ["id", "name", "start", "end", "parent"],
                "spans": tracer.spans,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(traced_main(sys.argv[4:], sys.argv[1], sys.argv[2]))
