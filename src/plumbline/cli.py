"""Command-line front end.

JSON goes to stdout (or --out); human-oriented status lines go to stderr.
Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error, 3 internal error (a bug in plumbline; the traceback
goes to stderr).  All randomness is derived from --seed through labelled
substreams, so reports are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from fractions import Fraction
from typing import Callable, List, Optional, TypeVar

from . import __version__
from .alkanes import Alkane, canonical_code, count_alkanes, enumerate_alkanes
from .checks import CHECKS
from .curve_periods import (
    CurveBlock,
    PairPlumbing,
    StarConfig,
    TreeConfig,
    TreeEdgeData,
    pair_period_first_order,
    star_period_leading,
    tree_period_first_order,
)
from .elliptic import Mark, MarkedEllipticCurve, TauPoint, TwoTorsionLabel
from .errors import FormulaViolationError, PlumblineError
from .gaussian import GaussianRational
from .jets import DEFAULT_TOLERANCE, EXACT_FIELD, CoefficientField, FieldKind, JetRing
from .relations import verify_asymptotic_vanishing
from .sampling import random_star_config, random_surface_model, substream
from .surfaces import dim_K, dim_V_Gamma, dim_W, dim_period_domain, span_dimension_E_Gamma

T = TypeVar("T")


class ConfigError(Exception):
    pass


def _float_field() -> CoefficientField:
    text = os.environ.get("PLUMBLINE_TOL")
    if not text:
        return CoefficientField(FieldKind.COMPLEX_FLOAT, DEFAULT_TOLERANCE)
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ConfigError(f"PLUMBLINE_TOL must be a finite number > 0, got {text!r}")
    return CoefficientField(FieldKind.COMPLEX_FLOAT, tol)


def _field(exact: bool) -> CoefficientField:
    return EXACT_FIELD if exact else _float_field()


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# config parsing


def _parse_value(v, exact: bool):
    try:
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ConfigError(f"complex value needs [re, im], got {v}")
            if exact:
                return GaussianRational(Fraction(str(v[0])), Fraction(str(v[1])))
            return complex(float(Fraction(str(v[0]))), float(Fraction(str(v[1]))))
        if exact:
            if isinstance(v, str):
                return GaussianRational(Fraction(v))
            if isinstance(v, int):
                return GaussianRational(v)
            raise ConfigError(f"exact mode needs 'p/q' strings or ints, got {v!r}")
        return complex(float(Fraction(str(v))) if isinstance(v, str) else float(v))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad numeric value {v!r}: {e}") from e


def _parse_label(name: str) -> TwoTorsionLabel:
    try:
        return TwoTorsionLabel(name)
    except ValueError:
        raise ConfigError(f"unknown 2-torsion label {name!r}") from None


def _parse_mark(d: dict, exact: bool) -> Mark:
    point = d["point"]
    point = _parse_label(point) if isinstance(point, str) else _parse_value(point, exact)
    return Mark(point, _parse_value(d["c"], exact))


def _parse_curve(d: dict, exact: bool) -> MarkedEllipticCurve:
    tau = TauPoint(_parse_value(d["tau"], exact))
    marks = tuple(_parse_mark(m, exact) for m in d.get("marks", []))
    return MarkedEllipticCurve(tau, marks)


def _parse_pair_side(d: dict, exact: bool, mark: int):
    if "block" in d:
        block = tuple(tuple(_parse_value(v, exact) for v in row) for row in d["block"])
        omega = tuple(_parse_value(v, exact) for v in d["omega"])
        return CurveBlock(block, omega)
    curve = _parse_curve(d, exact)
    if type(mark) is not int or not 0 <= mark < len(curve.marks):
        raise ConfigError(f"mark index {mark!r} on a curve with {len(curve.marks)} marks")
    return curve


def _parse_pair(cfg: dict, exact: bool) -> PairPlumbing:
    mark_a, mark_b = cfg.get("mark_a", 0), cfg.get("mark_b", 0)
    side_a = _parse_pair_side(cfg["curve_a"], exact, mark_a)
    side_b = _parse_pair_side(cfg["curve_b"], exact, mark_b)
    return PairPlumbing(side_a, side_b, cfg.get("t", "t"), mark_a, mark_b)


def _parse_star(cfg: dict, exact: bool) -> StarConfig:
    curves = tuple(_parse_curve(c, exact) for c in cfg["curves"])
    points = tuple(_parse_value(b, exact) for b in cfg["b"])
    return StarConfig(curves, points, tuple(cfg["vars"]))


def _parse_tree(cfg: dict, exact: bool) -> TreeConfig:
    alkane = Alkane(cfg["genus"], [tuple(e) for e in cfg["edges"]])
    taus = tuple(TauPoint(_parse_value(t, exact)) for t in cfg["taus"])
    edge_data = {}
    for item in cfg["edge_data"]:
        i, j = sorted(item["edge"])
        if (i, j) in edge_data:
            raise ConfigError(f"edge {[i, j]} is listed twice in edge_data")
        low, high = item["low"], item["high"]
        edge_data[(i, j)] = TreeEdgeData(
            var=item["var"],
            label_low=_parse_label(low["label"]),
            coeff_low=_parse_value(low["c"], exact),
            label_high=_parse_label(high["label"]),
            coeff_high=_parse_value(high["c"], exact),
        )
    return TreeConfig(alkane, taus, edge_data)


def _read_config(path: str, parse: Callable[[dict, bool], T], exact: bool) -> T:
    """Load the JSON object at ``path`` and build its configuration.

    A missing key or a value of the wrong shape is a config error: the
    parse touches only the user's JSON, so nothing it raises is a bug.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, not {type(cfg).__name__}")
    try:
        return parse(cfg, exact)
    except PlumblineError:
        raise
    except KeyError as e:
        raise ConfigError(f"missing key {e} in {path}") from e
    except (AttributeError, IndexError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed config {path}: {e}") from e


# ---------------------------------------------------------------------------
# output plumbing


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write report to {out}: {e}") from e
    else:
        sys.stdout.write(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_alkanes_enum(args) -> int:
    alkanes = enumerate_alkanes(args.genus)
    report = {
        "command": "alkanes enum",
        "version": __version__,
        "genus": args.genus,
        "count": len(alkanes),
        "alkanes": [a.to_json_dict() for a in alkanes],
    }
    _emit(report, args.out)
    return 0


def cmd_alkanes_count(args) -> int:
    counts = [count_alkanes(g) for g in range(1, args.max + 1)]
    report = {
        "command": "alkanes count",
        "version": __version__,
        "max": args.max,
        "counts": counts,
    }
    _emit(report, args.out)
    return 0


def cmd_periods_pair(args) -> int:
    exact = args.mode_exact
    p = _read_config(args.config, _parse_pair, exact)
    ring = JetRing((p.t,), args.order, _field(exact))
    m = pair_period_first_order(p, ring)
    _emit({"command": "periods pair", "version": __version__, **m.to_json_dict()}, args.out)
    return 0


def cmd_periods_star(args) -> int:
    exact = args.mode_exact
    s = _read_config(args.config, _parse_star, exact)
    ring = JetRing(s.variables, max(args.order, 2), _field(exact))
    m = star_period_leading(s, ring)
    _emit({"command": "periods star", "version": __version__, **m.to_json_dict()}, args.out)
    return 0


def cmd_periods_tree(args) -> int:
    exact = args.mode_exact
    tc = _read_config(args.config, _parse_tree, exact)
    variables = tuple(d.var for d in tc.edge_data.values())
    ring = JetRing(variables, args.order, _field(exact))
    m = tree_period_first_order(tc, ring)
    _emit({"command": "periods tree", "version": __version__, **m.to_json_dict()}, args.out)
    return 0


def cmd_relations_verify(args) -> int:
    g = args.genus
    trials = []
    all_pass = True
    for trial in range(args.trials):
        s = random_star_config(g, substream(args.seed, f"relations:config:{trial}"))
        rep = verify_asymptotic_vanishing(
            s,
            seed=f"{args.seed}:relations:perturb:{trial}",
            order=args.order,
            field=_field(args.mode_exact),
        )
        all_pass = all_pass and rep.passed
        trials.append(rep.to_json_dict())
    report = {
        "command": "relations verify",
        "version": __version__,
        "genus": g,
        "seed": args.seed,
        "trials": trials,
        "pass": all_pass,
    }
    _emit(report, args.out)
    _say(f"relations verify: {'PASS' if all_pass else 'FAIL'} ({len(trials)} trials)")
    return 0 if all_pass else 1


def cmd_surfaces_dims(args) -> int:
    h = args.genus
    alkanes = enumerate_alkanes(h)
    per_alkane = []
    for a in alkanes:
        per_alkane.append(
            {
                "alkane": a.to_json_dict(),
                "h": h,
                "dims": {
                    "V_h": dim_period_domain(h),
                    "V_Gamma": dim_V_Gamma(a),
                    "W_1h": dim_W([1] * h),
                },
            }
        )
    report = {
        "command": "surfaces dims",
        "version": __version__,
        "h": h,
        "K": [dim_K(j) for j in range(5)],
        "alkanes": per_alkane,
    }
    _emit(report, args.out)
    return 0


def cmd_surfaces_egamma(args) -> int:
    h = args.genus
    results = []
    all_pass = True
    for a in enumerate_alkanes(h):
        code = canonical_code(a)
        spans = []
        for trial in range(args.trials):
            rng = substream(args.seed, f"egamma:{code}:{trial}")
            model = random_surface_model(a, rng)
            spans.append(span_dimension_E_Gamma(model))
        ok = all(s == h - 1 for s in spans)
        all_pass = all_pass and ok
        results.append(
            {
                "alkane_code": code,
                "h": h,
                "span_dims": spans,
                "expected": h - 1,
                "pass": ok,
                "shapes": [[shape.rows, shape.cols] for shape in model.shapes],
            }
        )
    report = {
        "command": "surfaces egamma",
        "version": __version__,
        "h": h,
        "seed": args.seed,
        "trials": args.trials,
        "results": results,
        "pass": all_pass,
    }
    _emit(report, args.out)
    _say(f"surfaces egamma: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    variant = "printed" if args.inject_corrupted_octic else "corrected"
    results = []
    for name, check in CHECKS:
        ok, detail = check(args.seed, variant)
        results.append({"name": name, "pass": ok, "detail": detail})
    failed = sum(1 for r in results if not r["pass"])
    report = {
        "command": "selftest",
        "version": __version__,
        "seed": args.seed,
        "octic_variant": variant,
        "checks": results,
        "summary": {"total": len(results), "passed": len(results) - failed, "failed": failed},
    }
    _emit(report, args.out)
    for r in results:
        _say(f"  {'PASS' if r['pass'] else 'FAIL'}  {r['name']}")
    _say(f"selftest: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="mode_exact", action="store_true", default=True)
    group.add_argument("--numeric", dest="mode_exact", action="store_false")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbline",
        description="Verify first-order period matrices of plumbed families, "
        "alkane branch patterns and the octic asymptotic relations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    alk = sub.add_parser("alkanes", help="enumerate or count alkanes")
    alk_sub = alk.add_subparsers(dest="subcommand", required=True)
    enum_p = alk_sub.add_parser("enum")
    enum_p.add_argument("--genus", type=int, required=True)
    enum_p.add_argument("--out")
    enum_p.set_defaults(func=cmd_alkanes_enum)
    count_p = alk_sub.add_parser("count")
    count_p.add_argument("--max", type=_positive_int, required=True)
    count_p.add_argument("--out")
    count_p.set_defaults(func=cmd_alkanes_count)

    per = sub.add_parser("periods", help="assemble first-order period matrices")
    per_sub = per.add_subparsers(dest="subcommand", required=True)
    for name, func, default_order in (
        ("pair", cmd_periods_pair, 1),
        ("star", cmd_periods_star, 2),
        ("tree", cmd_periods_tree, 1),
    ):
        p = per_sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--order", type=int, default=default_order)
        p.add_argument("--out")
        _add_mode_flags(p)
        p.set_defaults(func=func)

    rel = sub.add_parser("relations", help="verify the octic asymptotic relations")
    rel_sub = rel.add_subparsers(dest="subcommand", required=True)
    ver = rel_sub.add_parser("verify")
    ver.add_argument("--genus", type=int, required=True)
    ver.add_argument("--trials", type=_positive_int, default=5)
    ver.add_argument("--order", type=int, default=17)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out")
    _add_mode_flags(ver)
    ver.set_defaults(func=cmd_relations_verify)

    sur = sub.add_parser("surfaces", help="surface-side dimensions and spans")
    sur_sub = sur.add_subparsers(dest="subcommand", required=True)
    dims = sur_sub.add_parser("dims")
    dims.add_argument("--genus", type=int, required=True)
    dims.add_argument("--out")
    dims.set_defaults(func=cmd_surfaces_dims)
    eg = sur_sub.add_parser("egamma")
    eg.add_argument("--genus", type=int, required=True)
    eg.add_argument("--seed", type=int, default=0)
    eg.add_argument("--trials", type=_positive_int, default=10)
    eg.add_argument("--out")
    eg.set_defaults(func=cmd_surfaces_egamma)

    st = sub.add_parser("selftest", help="run the full verification suite at default sizes")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out")
    st.add_argument(
        "--inject-corrupted-octic",
        action="store_true",
        help="negative control: use the defective octic variant (must fail)",
    )
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        _say(f"config error: {e}")
        return 2
    except FormulaViolationError:
        return _internal_error()
    except PlumblineError as e:
        _say(f"invalid input: {e}")
        return 2
    except Exception:
        return _internal_error()


def _internal_error() -> int:
    _say("internal error: this is a bug in plumbline, not bad input")
    traceback.print_exc()
    return 3


if __name__ == "__main__":
    sys.exit(main())
