"""Command-line front end.

JSON goes to stdout (or --out); human-oriented status lines go to stderr.
Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error, 3 internal error (a bug in plumbline; the traceback
goes to stderr).  Argparse bounds every size, so only a config's data can
make the library refuse its input: a ``PlumblineError`` raised anywhere
else is a bug.  All randomness is derived from --seed through labelled
substreams, so reports are byte-for-byte reproducible.

Config numbers are read exactly in either mode: ints, "p/q" strings, or
finite JSON numbers taken as the decimal they print as.  --exact and
--numeric pick only the jet ring's coefficient field; the float field
rounds each value once, when an assembly coerces it into the ring.
Each subcommand returns its report body and whether every check passed;
``main`` adds the command and version, writes the report and maps the
outcome to the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, TypeVar

from . import __version__
from .alkanes import GENUS_CAP, Alkane, alkane_codes, count_alkanes, enumerate_alkanes
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
from .errors import PlumblineError
from .gaussian import GaussianRational
from .jets import EXACT_FIELD, FLOAT_FIELD, CoefficientField, JetRing
from .relations import OCTIC_MIN_GENUS, verify_asymptotic_vanishing
from .sampling import STAR_POINTS, random_star_config, random_surface_sides, substream
from .surfaces import dim_K, dim_V_Gamma, dim_W, dim_period_domain, span_dimension_E_Gamma

T = TypeVar("T")


class ConfigError(Exception):
    pass


class InvalidInput(Exception):
    """A library check refused a config's data: exit 2, not a bug."""


def _field(exact: bool) -> CoefficientField:
    return EXACT_FIELD if exact else FLOAT_FIELD


def _int_range(low: int, high: float = math.inf) -> Callable[[str], int]:
    """An argparse type: an int in ``low..high``, anything else a usage error."""
    wanted = "a positive integer" if low == 1 else f"an integer from {low}"
    if high < math.inf:
        wanted += f" up to {high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


# ---------------------------------------------------------------------------
# config parsing: every number is read exactly, the ring's field rounds it


def _parse_part(x) -> Fraction:
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(str(x))  # the decimal the JSON number prints as
    if isinstance(x, str) and "_" in x:
        raise ValueError("no underscores in a number")  # Fraction takes them from 3.11 on
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError("expected an int, a 'p/q' string or a finite number")


def _parse_value(v, path: str) -> GaussianRational:
    """The exact value of the config field at JSON path ``path``."""
    try:
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ValueError("a complex value needs [re, im]")
            return GaussianRational(_parse_part(v[0]), _parse_part(v[1]))
        return GaussianRational(_parse_part(v))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"{path}: bad numeric value {v!r}: {e}") from e


def _parse_label(name, path: str) -> TwoTorsionLabel:
    try:
        return TwoTorsionLabel(name)
    except ValueError:
        raise ConfigError(f"{path}: unknown 2-torsion label {name!r}") from None


def _parse_list(v, path: str, what: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{path} must be a list of {what}, got {v!r}")
    return v


def _parse_object(v, path: str, keys: Tuple[str, ...]) -> dict:
    """``v`` as an object holding every required key; ``path`` is "" at the top."""
    if not isinstance(v, dict):
        what = " and ".join(filter(None, (", ".join(keys[:-1]), keys[-1])))
        raise ConfigError(f"{path} must be an object with {what}, got {v!r}")
    for key in keys:
        if key not in v:
            raise ConfigError(f"missing key {path + '.' if path else ''}{key}")
    return v


def _parse_name(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path} must be a variable name, got {v!r}")
    return v


def _parse_edge(e, path: str) -> Tuple[int, int]:
    if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
        raise ConfigError(f"{path} must be a pair of vertex numbers, got {e!r}")
    return tuple(e)


def _parse_mark(d, path: str) -> Mark:
    d = _parse_object(d, path, ("point", "c"))
    point = d["point"]
    if isinstance(point, str):
        point = _parse_label(point, f"{path}.point")
    else:
        point = _parse_value(point, f"{path}.point")
    return Mark(point, _parse_value(d["c"], f"{path}.c"))


def _parse_curve(d, path: str) -> MarkedEllipticCurve:
    d = _parse_object(d, path, ("tau",))
    tau = TauPoint(_parse_value(d["tau"], f"{path}.tau"))
    marks = _parse_list(d.get("marks", []), f"{path}.marks", "marks")
    marks = tuple(_parse_mark(m, f"{path}.marks[{k}]") for k, m in enumerate(marks))
    return MarkedEllipticCurve(tau, marks)


def _parse_pair_side(d, path: str, mark, mark_key: str):
    if isinstance(d, dict) and ("block" in d or "omega" in d):
        d = _parse_object(d, path, ("block", "omega"))
        if type(mark) is not int or mark != 0:
            raise ConfigError(f"{mark_key}: mark index {mark!r} on a block, which has no marks")
        rows = _parse_list(d["block"], f"{path}.block", "rows")
        block = tuple(
            tuple(
                _parse_value(v, f"{path}.block[{r}][{c}]")
                for c, v in enumerate(_parse_list(row, f"{path}.block[{r}]", "numbers"))
            )
            for r, row in enumerate(rows)
        )
        omega = _parse_list(d["omega"], f"{path}.omega", "numbers")
        omega = tuple(_parse_value(v, f"{path}.omega[{k}]") for k, v in enumerate(omega))
        return CurveBlock(block, omega)
    curve = _parse_curve(d, path)
    if type(mark) is not int or not 0 <= mark < len(curve.marks):
        raise ConfigError(
            f"{mark_key}: mark index {mark!r} outside {path}.marks, which has {len(curve.marks)}"
        )
    return curve


def _parse_pair(cfg: dict) -> PairPlumbing:
    _parse_object(cfg, "", ("curve_a", "curve_b"))
    mark_a, mark_b = cfg.get("mark_a", 0), cfg.get("mark_b", 0)
    side_a = _parse_pair_side(cfg["curve_a"], "curve_a", mark_a, "mark_a")
    side_b = _parse_pair_side(cfg["curve_b"], "curve_b", mark_b, "mark_b")
    return PairPlumbing(side_a, side_b, _parse_name(cfg.get("t", "t"), "t"), mark_a, mark_b)


def _parse_star(cfg: dict) -> StarConfig:
    _parse_object(cfg, "", ("curves", "b", "vars"))
    curves = _parse_list(cfg["curves"], "curves", "curves")
    curves = tuple(_parse_curve(c, f"curves[{k}]") for k, c in enumerate(curves))
    points = _parse_list(cfg["b"], "b", "numbers")
    points = tuple(_parse_value(b, f"b[{k}]") for k, b in enumerate(points))
    names = _parse_list(cfg["vars"], "vars", "variable names")
    names = tuple(_parse_name(v, f"vars[{k}]") for k, v in enumerate(names))
    return StarConfig(curves, points, names)


def _parse_tree(cfg: dict) -> TreeConfig:
    _parse_object(cfg, "", ("genus", "edges", "taus", "edge_data"))
    edges = _parse_list(cfg["edges"], "edges", "vertex pairs")
    edges = [_parse_edge(e, f"edges[{k}]") for k, e in enumerate(edges)]
    genus = cfg["genus"]
    if type(genus) is not int:
        raise ConfigError(f"genus must be a whole number, got {genus!r}")
    alkane = Alkane(genus, edges)
    taus = _parse_list(cfg["taus"], "taus", "numbers")
    taus = tuple(TauPoint(_parse_value(t, f"taus[{k}]")) for k, t in enumerate(taus))
    edge_data = {}
    for k, item in enumerate(_parse_list(cfg["edge_data"], "edge_data", "edge objects")):
        path = f"edge_data[{k}]"
        item = _parse_object(item, path, ("edge", "var", "low", "high"))
        i, j = sorted(_parse_edge(item["edge"], f"{path}.edge"))
        if (i, j) in edge_data:
            raise ConfigError(f"{path}.edge: edge {[i, j]} is listed twice in edge_data")
        low = _parse_object(item["low"], f"{path}.low", ("label", "c"))
        high = _parse_object(item["high"], f"{path}.high", ("label", "c"))
        edge_data[(i, j)] = TreeEdgeData(
            var=_parse_name(item["var"], f"{path}.var"),
            label_low=_parse_label(low["label"], f"{path}.low.label"),
            coeff_low=_parse_value(low["c"], f"{path}.low.c"),
            label_high=_parse_label(high["label"], f"{path}.high.label"),
            coeff_high=_parse_value(high["c"], f"{path}.high.c"),
        )
    return TreeConfig(alkane, taus, edge_data)


def _read_config(path: str, parse: Callable[[dict], T]) -> T:
    """Load the JSON object at ``path`` and build its configuration.

    The parse raises each config error where it finds it, with its JSON
    path; anything else it raises is a bug and is not caught here.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, too deep, too long an int
        raise ConfigError(f"cannot decode config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, not {type(cfg).__name__}")
    return parse(cfg)


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
# subcommands: each returns the report body and whether every check passed


def cmd_alkanes_enum(args):
    alkanes = enumerate_alkanes(args.genus)
    body = {
        "genus": args.genus,
        "count": len(alkanes),
        "alkanes": [a.to_json_dict() for a in alkanes],
    }
    return body, True


def cmd_alkanes_count(args):
    return {"max": args.max, "counts": [count_alkanes(g) for g in range(1, args.max + 1)]}, True


# periods subcommand -> (config parser, the ring's variables, truncation order,
# assembly); pair and tree matrices are first order, star entries bidegree (1,1)
_PERIODS = {
    "pair": (_parse_pair, lambda p: (p.t,), 1, pair_period_first_order),
    "star": (_parse_star, lambda s: s.variables, 2, star_period_leading),
    "tree": (_parse_tree, lambda c: c.variables, 1, tree_period_first_order),
}


def cmd_periods(args):
    parse, variables, order, assemble = _PERIODS[args.subcommand]
    try:
        config = _read_config(args.config, parse)
        matrix = assemble(config, JetRing(variables(config), order, _field(args.mode_exact)))
    except PlumblineError as e:  # the library refused the config's data
        raise InvalidInput(e) from e
    return matrix.to_json_dict(), True


def cmd_relations_verify(args):
    field = _field(args.mode_exact)
    trials = []
    for trial in range(args.trials):
        s = random_star_config(args.genus, substream(args.seed, f"relations:config:{trial}"))
        seed = f"{args.seed}:relations:perturb:{trial}"
        trials.append(verify_asymptotic_vanishing(s, seed=seed, field=field))
    all_pass = all(rep.passed for rep in trials)
    _say(f"relations verify: {'PASS' if all_pass else 'FAIL'} ({len(trials)} trials)")
    body = {
        "genus": args.genus,
        "seed": args.seed,
        "trials": [rep.to_json_dict() for rep in trials],
        "pass": all_pass,
    }
    return body, all_pass


def cmd_surfaces_dims(args):
    h = args.genus
    alkanes = enumerate_alkanes(h)
    dims = {"V_h": dim_period_domain(h), "W_1h": dim_W([1] * h)}
    per_alkane = [
        {"alkane": a.to_json_dict(), "h": h, "dims": {**dims, "V_Gamma": dim_V_Gamma(a)}}
        for a in alkanes
    ]
    return {"h": h, "K": [dim_K(j) for j in range(5)], "alkanes": per_alkane}, True


def cmd_surfaces_egamma(args):
    h = args.genus
    results = []
    for code, a in zip(alkane_codes(h), enumerate_alkanes(h)):
        rngs = (substream(args.seed, f"egamma:{code}:{trial}") for trial in range(args.trials))
        spans = [span_dimension_E_Gamma(random_surface_sides(a, rng)) for rng in rngs]
        results.append(
            {"alkane_code": code, "span_dims": spans, "pass": all(s == h - 1 for s in spans)}
        )
    all_pass = all(r["pass"] for r in results)
    _say(f"surfaces egamma: {'PASS' if all_pass else 'FAIL'}")
    body = {"h": h, "seed": args.seed, "trials": args.trials, "results": results, "pass": all_pass}
    return body, all_pass


def cmd_selftest(args):
    from .checks import CHECKS  # only selftest runs them; other commands skip the import

    variant = "printed" if args.inject_corrupted_octic else "corrected"
    results = []
    for name, check in CHECKS:
        ok, detail = check(args.seed, variant)
        results.append({"name": name, "pass": ok, "detail": detail})
    failed = sum(1 for r in results if not r["pass"])
    for r in results:
        _say(f"  {'PASS' if r['pass'] else 'FAIL'}  {r['name']}")
    _say(f"selftest: {len(results) - failed}/{len(results)} checks passed")
    body = {
        "seed": args.seed,
        "octic_variant": variant,
        "checks": results,
        "summary": {"total": len(results), "passed": len(results) - failed, "failed": failed},
    }
    return body, failed == 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbline",
        description="Verify first-order period matrices of plumbed families, "
        "alkane branch patterns and the octic asymptotic relations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    positive = _int_range(1)
    genus = _int_range(1, GENUS_CAP)  # the enumerated alkanes
    star_genus = _int_range(OCTIC_MIN_GENUS, STAR_POINTS)  # an octic, distinct star points
    # options shared by several subcommands, declared once as parent parsers
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    mode = argparse.ArgumentParser(add_help=False)
    group = mode.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="mode_exact", action="store_true", default=True)
    group.add_argument("--numeric", dest="mode_exact", action="store_false")
    sub = parser.add_subparsers(dest="command", required=True)

    alk = sub.add_parser("alkanes", help="enumerate or count alkanes")
    alk_sub = alk.add_subparsers(dest="subcommand", required=True)
    enum_p = alk_sub.add_parser("enum", parents=[out])
    enum_p.add_argument("--genus", type=genus, required=True)
    enum_p.set_defaults(func=cmd_alkanes_enum)
    count_p = alk_sub.add_parser("count", parents=[out])
    count_p.add_argument("--max", type=genus, required=True)
    count_p.set_defaults(func=cmd_alkanes_count)

    per = sub.add_parser("periods", help="assemble first-order period matrices")
    per_sub = per.add_subparsers(dest="subcommand", required=True)
    for name in _PERIODS:
        p = per_sub.add_parser(name, parents=[out, mode])
        p.add_argument("--config", required=True)
        p.set_defaults(func=cmd_periods)

    rel = sub.add_parser("relations", help="verify the octic asymptotic relations")
    rel_sub = rel.add_subparsers(dest="subcommand", required=True)
    ver = rel_sub.add_parser("verify", parents=[out, seed, mode])
    ver.add_argument("--genus", type=star_genus, required=True)
    ver.add_argument("--trials", type=positive, default=5)
    ver.set_defaults(func=cmd_relations_verify)

    sur = sub.add_parser("surfaces", help="surface-side dimensions and spans")
    sur_sub = sur.add_subparsers(dest="subcommand", required=True)
    dims = sur_sub.add_parser("dims", parents=[out])
    dims.add_argument("--genus", type=genus, required=True)
    dims.set_defaults(func=cmd_surfaces_dims)
    eg = sur_sub.add_parser("egamma", parents=[out, seed])
    eg.add_argument("--genus", type=genus, required=True)
    eg.add_argument("--trials", type=positive, default=10)
    eg.set_defaults(func=cmd_surfaces_egamma)

    st = sub.add_parser(
        "selftest", parents=[out, seed], help="run the full verification suite at default sizes"
    )
    st.add_argument(
        "--inject-corrupted-octic",
        action="store_true",
        help="negative control: use the defective octic variant (must fail)",
    )
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    try:
        body, passed = args.func(args)
        _emit({"command": command, "version": __version__, **body}, args.out)
    except ConfigError as e:
        _say(f"config error: {e}")
        return 2
    except InvalidInput as e:
        _say(f"invalid input: {e}")
        return 2
    except Exception:
        return _internal_error()
    return 0 if passed else 1


def _internal_error() -> int:
    import traceback  # only the internal-error path prints one

    _say("internal error: this is a bug in plumbline, not bad input")
    traceback.print_exc()
    return 3


if __name__ == "__main__":
    sys.exit(main())
