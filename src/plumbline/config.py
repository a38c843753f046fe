"""The ``periods`` config reader: JSON config files to assembly inputs.

Config numbers are read exactly in either mode: ints, "p/q" strings, or
finite JSON numbers taken as the decimal they print as.  The ring's
coefficient field rounds each value once, when an assembly coerces it.
Each malformed field raises a ``ConfigError`` that names its JSON path.
Only ``plumbline periods`` imports this module, and with it the
assemblies of ``curve_periods``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Tuple, TypeVar

from .alkanes import Alkane
from .curve_periods import (
    CurveBlock,
    PairPlumbing,
    TreeConfig,
    TreeEdgeData,
    pair_period_first_order,
    star_period_leading,
    tree_period_first_order,
)
from .elliptic import Mark, MarkedEllipticCurve, TauPoint, TwoTorsionLabel
from .errors import ConfigError
from .gaussian import GaussianRational
from .relations import StarConfig

T = TypeVar("T")


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


def read_config(path: str, parse: Callable[[dict], T]) -> T:
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


# periods subcommand -> (config parser, the ring's variables, truncation order,
# assembly); pair and tree matrices are first order, star entries bidegree (1,1)
PERIODS = {
    "pair": (_parse_pair, lambda p: (p.t,), 1, pair_period_first_order),
    "star": (_parse_star, lambda s: s.variables, 2, star_period_leading),
    "tree": (_parse_tree, lambda c: c.variables, 1, tree_period_first_order),
}
