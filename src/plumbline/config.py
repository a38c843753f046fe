"""The ``periods`` config reader: JSON config files to assembly inputs.

Config numbers are read exactly in either mode: ints, "p/q" strings, or
finite JSON numbers taken as the decimal they print as.  The coefficient
field rounds each value once, when an assembly coerces it.
Each malformed field raises a ``ConfigError`` that names its JSON path.
Only ``plumbline periods`` imports this module, and with it the
assemblies of ``curve_periods``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Tuple, TypeVar

from .alkanes import Alkane
from .curve_periods import (
    PairPlumbing,
    TreeConfig,
    TreeEdgeData,
    pair_period_first_order,
    star_period_leading,
    tree_period_first_order,
)
from .elliptic import CurveBlock, Mark, MarkedEllipticCurve, TauPoint, TwoTorsionLabel, curve_block
from .errors import ConfigError
from .gaussian import GaussianRational
from .relations import StarConfig

T = TypeVar("T")

# a string's decimal exponent, which Fraction expands into an int of that many digits
_EXPONENT = re.compile(r"e([-+]?\d+)\s*\Z", re.IGNORECASE)


def _parse_part(x) -> Fraction:
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(str(x))  # the decimal the JSON number prints as
    if isinstance(x, str):
        if "_" in x:
            raise ValueError("no underscores in a number")  # Fraction takes them from 3.11 on
        exponent = _EXPONENT.search(x)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none, before 3.10.7
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"a decimal exponent beyond the {limit}-digit limit")
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


def _parse_list(v, path: str, what: str, parse: Callable[[object, str], T]) -> Tuple[T, ...]:
    """Each item of the list ``v`` read by ``parse``, with its path ``path[k]``."""
    if not isinstance(v, list):
        raise ConfigError(f"{path} must be a list of {what}, got {v!r}")
    return tuple(parse(item, f"{path}[{k}]") for k, item in enumerate(v))


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
    marks = _parse_list(d.get("marks", []), f"{path}.marks", "marks", _parse_mark)
    return MarkedEllipticCurve(tau, marks)


def _parse_numbers(v, path: str) -> Tuple[GaussianRational, ...]:
    return _parse_list(v, path, "numbers", _parse_value)


def _parse_pair_side(d, path: str, mark, mark_key: str) -> CurveBlock:
    """A pair side as its block: a curve side is the 1x1 block of its mark ``mark``."""
    if isinstance(d, dict) and ("block" in d or "omega" in d):
        d = _parse_object(d, path, ("block", "omega"))
        if type(mark) is not int or mark != 0:
            raise ConfigError(f"{mark_key}: mark index {mark!r} on a block, which has no marks")
        block = _parse_list(d["block"], f"{path}.block", "rows", _parse_numbers)
        return CurveBlock(block, _parse_numbers(d["omega"], f"{path}.omega"))
    curve = _parse_curve(d, path)
    if type(mark) is not int or not 0 <= mark < len(curve.marks):
        raise ConfigError(
            f"{mark_key}: mark index {mark!r} outside {path}.marks, which has {len(curve.marks)}"
        )
    return curve_block(curve, mark)


def _parse_pair(cfg: dict) -> PairPlumbing:
    _parse_object(cfg, "", ("curve_a", "curve_b"))
    mark_a, mark_b = cfg.get("mark_a", 0), cfg.get("mark_b", 0)
    side_a = _parse_pair_side(cfg["curve_a"], "curve_a", mark_a, "mark_a")
    side_b = _parse_pair_side(cfg["curve_b"], "curve_b", mark_b, "mark_b")
    return PairPlumbing(side_a, side_b, _parse_name(cfg.get("t", "t"), "t"))


def _parse_tail(d, path: str) -> CurveBlock:
    """A star tail: the 1x1 block of its curve at its first mark."""
    curve = _parse_curve(d, path)
    if not curve.marks:
        raise ConfigError(f"{path}.marks: a star tail attaches at its first mark, and it has none")
    return curve_block(curve, 0)


def _parse_star(cfg: dict) -> StarConfig:
    _parse_object(cfg, "", ("curves", "b", "vars"))
    tails = _parse_list(cfg["curves"], "curves", "curves", _parse_tail)
    points = _parse_numbers(cfg["b"], "b")
    names = _parse_list(cfg["vars"], "vars", "variable names", _parse_name)
    return StarConfig(tails, points, names)


def _parse_tree(cfg: dict) -> TreeConfig:
    _parse_object(cfg, "", ("genus", "edges", "taus", "edge_data"))
    edges = _parse_list(cfg["edges"], "edges", "vertex pairs", _parse_edge)
    genus = cfg["genus"]
    if type(genus) is not int:
        raise ConfigError(f"genus must be a whole number, got {genus!r}")
    alkane = Alkane(genus, edges)
    taus = _parse_list(cfg["taus"], "taus", "numbers", lambda t, p: TauPoint(_parse_value(t, p)))
    seen = set()

    def parse_edge_data(item, path: str):
        item = _parse_object(item, path, ("edge", "var", "low", "high"))
        i, j = sorted(_parse_edge(item["edge"], f"{path}.edge"))
        if (i, j) in seen:
            raise ConfigError(f"{path}.edge: edge {[i, j]} is listed twice in edge_data")
        seen.add((i, j))
        low = _parse_object(item["low"], f"{path}.low", ("label", "c"))
        high = _parse_object(item["high"], f"{path}.high", ("label", "c"))
        return (i, j), TreeEdgeData(
            var=_parse_name(item["var"], f"{path}.var"),
            label_low=_parse_label(low["label"], f"{path}.low.label"),
            coeff_low=_parse_value(low["c"], f"{path}.low.c"),
            label_high=_parse_label(high["label"], f"{path}.high.label"),
            coeff_high=_parse_value(high["c"], f"{path}.high.c"),
        )

    edge_data = _parse_list(cfg["edge_data"], "edge_data", "edge objects", parse_edge_data)
    return TreeConfig(alkane, taus, dict(edge_data))


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


# periods subcommand -> (config parser, assembly); each assembly builds its
# own ring at the truncation order its statement fixes
PERIODS = {
    "pair": (_parse_pair, pair_period_first_order),
    "star": (_parse_star, star_period_leading),
    "tree": (_parse_tree, tree_period_first_order),
}
