"""Command-line front end.

JSON goes to stdout (or --out); human-oriented status lines go to stderr.
Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error, 3 internal error (a bug in plumbline; the traceback
goes to stderr).  Argparse bounds every size, so only a config's data can
make the library refuse its input: a ``PlumblineError`` raised anywhere
else is a bug.  All randomness is derived from --seed through labelled
substreams, so reports are byte-for-byte reproducible.

``plumbline.config`` reads config numbers exactly in either mode; --exact
and --numeric parse straight to the coefficient field, and each statement
builds its own jet ring at the truncation order it fixes.  Each
subcommand returns its report body and whether every check passed;
``main`` adds the command and version, writes the report and maps the
outcome to the exit code.

Start-up loads what the parser's bounds read (``GENUS_CAP``,
``OCTIC_MIN_GENUS``, ``STAR_POINTS``) and the modules those import, the
same for every command.  ``periods`` imports its config reader and the
assemblies, and ``selftest`` its checks, only when they run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, List, Optional

from . import __version__
from .alkanes import GENUS_CAP, alkane_codes, count_alkanes, enumerate_alkanes
from .errors import ConfigError, PlumblineError
from .jets import EXACT_FIELD, FLOAT_FIELD
from .relations import OCTIC_MIN_GENUS, verify_asymptotic_vanishing
from .sampling import STAR_POINTS, random_star_config, random_surface_sides, substream
from .surfaces import dim_K, dim_V_Gamma, dim_W, dim_period_domain, span_dimension_E_Gamma


class InvalidInput(Exception):
    """A library check refused a config's data: exit 2, not a bug."""


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


def cmd_periods(args):
    # only periods reads a config or assembles a matrix; other commands skip the import
    from .config import PERIODS, read_config

    parse, assemble = PERIODS[args.subcommand]
    try:
        report = assemble(read_config(args.config, parse), args.field).to_json_dict()
    except PlumblineError as e:  # the library refused the config's data
        raise InvalidInput(e) from e
    return report, True


def cmd_relations_verify(args):
    trials = []
    for trial in range(args.trials):
        s = random_star_config(args.genus, substream(args.seed, f"relations:config:{trial}"))
        seed = f"{args.seed}:relations:perturb:{trial}"
        trials.append(verify_asymptotic_vanishing(s, seed=seed, field=args.field))
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
    group.add_argument("--exact", dest="field", action="store_const", const=EXACT_FIELD)
    group.add_argument("--numeric", dest="field", action="store_const", const=FLOAT_FIELD)
    mode.set_defaults(field=EXACT_FIELD)
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
    for name in ("pair", "star", "tree"):
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
