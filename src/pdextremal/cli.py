"""Command-line surface: constants, verification suites, radial tables,
trinomial runs and density searches, with machine-readable JSON output.

Exit codes: 0 success/pass, 1 usage, input or output error, 2 verification
failure, 3 solver or quadrature failure.  Every JSON object carries
artifact_version, seed and the tolerances in force, and identical argv + seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .density import PeriodicSet, auud_periodic, integer_shadow, max_density_search
from .extremal import (
    ConditionViolated,
    NotAStrictTiling,
    delsarte,
    turan,
    two_set_constant,
)
from .fuzz import SUITES
from .groups import Group, SymSet
from .lp import QuadratureError, SolverFailure

TOLERANCES = {
    "value": 1e-8,
    "posdef": 1e-9,
    "lp_pivot": 1e-9,
    "quadrature": 1e-9,
}

MAX_TABLE_POINTS = 10**6
# radial hankel on its default grid exits 3 (refinement disagreement) at
# d = 10, 15, 18, 23, 25-50, 56 and 62 of these
MAX_DIMENSION = 64

_INTERVAL = re.compile(r"^\[(-?\d+)\s*,\s*(-?\d+)\]$")


class UsageError(ValueError):
    pass


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON for {what} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _parse_group(text: str) -> Group:
    data = _parse_json(text, "--group")
    try:
        return Group.from_json(data)
    except ValueError as exc:
        raise UsageError(f"--group: {exc}") from exc


def _parse_set(group: Group, text: str, flag: str) -> SymSet:
    if text in ("empty", "all"):
        return SymSet.empty(group) if text == "empty" else SymSet.full(group)
    orders = group.orders
    m = _INTERVAL.match(text.strip())
    # a negative lower endpoint marks the interval shorthand ("[-1,1]" is
    # {-1,0,1}); a pair of plain residues like "[0,3]" stays a list
    if m and len(orders) == 1 and int(m.group(1)) < 0:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise UsageError(f"{flag}: interval {text!r} has endpoints out of order")
        # an interval of N or more integers holds every residue
        return SymSet.from_elements(group, range(lo, min(hi, lo + orders[0] - 1) + 1))
    data = _parse_json(text, flag)
    if data in ("empty", "all"):
        return _parse_set(group, data, flag)
    if not isinstance(data, list):
        raise UsageError(f"{flag} must be a list, 'empty', 'all' or an interval, got {text!r}")
    residues = []
    for e in data:
        if len(orders) == 1 and _is_int(e):
            residues.append(e % orders[0])
        elif isinstance(e, list) and len(e) == len(orders) and all(map(_is_int, e)):
            residues.append([c % n for c, n in zip(e, orders)])
        else:
            kinds = ("an integer or a list of 1 integer" if len(orders) == 1
                     else f"a list of {len(orders)} integers")
            raise UsageError(f"{flag}: element {json.dumps(e)} is not {kinds}")
    return SymSet.from_elements(group, residues)


def _to_json(obj):
    """The json.dumps hook for the values json cannot encode itself."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator,
                "value": float(obj)}
    if hasattr(obj, "to_json"):  # PeriodicSet, Trinomial
        return obj.to_json()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(command: str, result, seed=None, warnings=None) -> None:
    payload = {
        "artifact_version": __version__,
        "command": command,
        "seed": seed,
        "tolerances": TOLERANCES,
        "result": result,
        "warnings": warnings or [],
    }
    print(json.dumps(payload, sort_keys=True, indent=2, default=_to_json))


def _emit_csv(columns, rows) -> None:
    print(",".join(columns))
    for row in rows:
        print(",".join(repr(float(v)) for v in row))


def _emit_table(command: str, columns, xs, ys, csv: bool, report=None) -> None:
    """The (x, y) table as CSV, or as JSON beside report() when that is given.

    The report is computed only for JSON output.
    """
    if csv:
        _emit_csv(columns, zip(xs, ys))
        return
    result = {"table": list(zip(xs, ys))}
    if report is not None:
        result["report"] = report()
    _emit(command, result)


def _cmd_constant(args) -> int:
    if args.kind != "two-set" and args.omega_minus is not None:
        raise UsageError("--omega-minus applies only to --kind two-set")
    group = _parse_group(args.group)
    omega_plus = _parse_set(group, args.omega_plus, "--omega-plus")
    warnings = []
    if omega_plus.symmetrized:
        warnings.append("omega-plus was symmetrized by intersection with its negation")
    if args.kind == "turan":
        res = turan(group, omega_plus)
    elif args.kind == "delsarte":
        res = delsarte(group, omega_plus)
    else:
        omega_minus = _parse_set(group, "all" if args.omega_minus is None else args.omega_minus,
                                 "--omega-minus")
        if omega_minus.symmetrized:
            warnings.append("omega-minus was symmetrized by intersection with its negation")
        res = two_set_constant(group, omega_plus, omega_minus)
    result = {
        "kind": args.kind,
        "group": group.to_json(),
        "omega_plus": omega_plus.elements(),
        "value": res.value,
        "status": res.status,
        "optimizer": res.optimizer.values if res.optimizer is not None else None,
        "spectrum": res.spectrum,
    }
    _emit("constant", result, warnings=warnings)
    return 0


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    report = suite(args.fuzz, args.seed) if args.max_n is None else \
        suite(args.fuzz, args.seed, args.max_n)
    _emit(f"verify {args.suite}", report, seed=args.seed)
    return 0 if report["pass"] else 2


def _grid(start: float, stop: float, step: float, flag: str) -> np.ndarray:
    """Table points start, start + step, ... up to the value of flag."""
    if not start <= stop < math.inf:
        raise UsageError(f"{flag} must be finite and at least {start!r}, got {stop}")
    if (stop - start) / step + 1 > MAX_TABLE_POINTS:
        raise UsageError(f"{flag} = {stop} with --step = {step} gives more than "
                         f"{MAX_TABLE_POINTS} table points")
    return np.arange(start, stop + step / 2, step)


def _cmd_radial(args) -> int:
    from .radial import (
        ball_char_transform,
        bessel_first_zero,
        gorbachev_H_grid,
        gorbachev_H_report,
        yudin_Y,
        yudin_hat_grid,
        yudin_sign_check,
    )

    if not 0 < args.step < math.inf:
        raise UsageError(f"--step must be positive and finite, got {args.step}")
    if args.d < 1:
        raise UsageError(f"--d: dimension must be a positive integer, got {args.d}")
    if args.d > MAX_DIMENSION:
        raise UsageError(f"--d: dimension must be at most {MAX_DIMENSION}, got {args.d}")
    if args.table == "yudin":
        ts = _grid(0.0, args.t_max, args.step, "--t-max")
        ys = np.atleast_1d(yudin_Y(args.d, ts))
        _emit_table("radial yudin", ["t", "Y"], ts, ys, args.csv,
                    lambda: yudin_sign_check(args.d, ts, ys))
    elif args.table == "hankel":
        ss = _grid(0.0, args.s_max, args.step, "--s-max")
        _emit_table("radial hankel", ["s", "yhat"], ss,
                    yudin_hat_grid(args.d, ss), args.csv)
    elif args.table == "gorbachev-h":
        q = bessel_first_zero(args.d / 2.0)
        if not args.t_max >= q:
            raise UsageError(f"--t-max must be at least the first zero q_{{d/2}} = {q!r}, "
                             f"where the H table starts; got {args.t_max}")
        ts = _grid(q, args.t_max, args.step, "--t-max")
        vals, info = gorbachev_H_grid(args.d, ts)
        _emit_table("radial gorbachev-h", ["t", "H"], ts, vals, args.csv,
                    lambda: gorbachev_H_report(args.d, ts, grid=(vals, info)))
    else:
        xs = _grid(0.0, args.t_max, args.step, "--t-max")
        _emit_table("radial ball-transform", ["x", "ball_hat"], xs,
                    np.atleast_1d(ball_char_transform(args.d, xs)), args.csv)
    return 0


def _cmd_trinomial(args) -> int:
    from .trinomial import example51_comparison, example51_lower_bound, optimize_trinomial

    if args.action == "optimize":
        opt = optimize_trinomial()
        _emit("trinomial optimize", {
            "z": opt["z_star"], "value": opt["value"], "coeffs": opt["coeffs"],
            "nonneg_check": opt["nonneg_check"],
        })
        return 0
    bound = example51_lower_bound()
    if args.csv:
        _emit_csv(["x", "phi"], zip(bound["grid"], bound["profile"]))
        return 0
    comparison = example51_comparison(bound)
    result = {
        "bound": bound["bound"],
        "coeffs": bound["coeffs"],
        "z_star": bound["z_star"],
        "checks": bound["checks"],
        "comparison": comparison,
    }
    _emit("trinomial example51", result)
    return 0 if comparison["pass"] else 2


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _int_list(text: str, flag: str) -> list:
    data = _parse_json(text, flag)
    if not (isinstance(data, list) and all(map(_is_int, data))):
        raise UsageError(f"{flag} must be a JSON list of integers, got {text!r}")
    return data


def _cmd_density(args) -> int:
    if args.action == "search":
        forbidden = _int_list(args.forbidden, "--forbidden")
        report = max_density_search(forbidden, args.max_period)
        _emit("density search", report)
        return 0
    if args.action == "auud":
        residues = _int_list(args.residues, "--residues")
        ps = PeriodicSet(args.period, frozenset(residues))
        _emit("density auud", {"periodic_set": ps, "density": auud_periodic(ps)})
        return 0
    intervals = _parse_json(args.intervals, "--intervals")
    if not (isinstance(intervals, list)
            and all(isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite_number, pair))
                    for pair in intervals)):
        raise UsageError("--intervals must be a JSON list of [lo, hi] pairs of finite numbers, "
                         f"got {args.intervals!r}")
    try:
        shadow = integer_shadow(intervals, closed=args.closed)
    except ValueError as exc:
        raise UsageError(f"--intervals: {exc}") from exc
    _emit("density shadow", {"intervals": intervals, "closed": args.closed,
                             "forbidden": shadow})
    return 0


@functools.cache  # built at the first main call, then reused: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a flag is spelled in full, so which argv
    # parse does not depend on the other flags a parser happens to declare
    parser = argparse.ArgumentParser(
        prog="pdextremal", allow_abbrev=False,
        description="Extremal constants for positive definite functions on finite "
                    "abelian groups, with radial and trinomial constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", allow_abbrev=False,
                       help="two-set / Turan / Delsarte constant via LP")
    p.add_argument("--group", required=True, help='group JSON, e.g. \'{"orders":[6],"normalization":"probability"}\'')
    p.add_argument("--omega-plus", required=True, help="set JSON, 'empty', 'all' or interval '[-1,1]'")
    p.add_argument("--omega-minus", help="set for kind two-set (default: all)")
    p.add_argument("--kind", choices=["two-set", "turan", "delsarte"], default="two-set")
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("verify", allow_abbrev=False, help="randomized verification suites")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--fuzz", type=int, default=50, help="number of random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=None, help="largest group size")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("radial", allow_abbrev=False, help="emit radial function tables")
    p.set_defaults(func=_cmd_radial)
    tables = p.add_subparsers(dest="table", required=True)
    # each table's grid-end flag and default; no flag sets the quadrature (radial.py)
    for table, (end, default) in {"yudin": ("--t-max", 30.0),
                                  "hankel": ("--s-max", 3.0),
                                  "gorbachev-h": ("--t-max", 30.0),
                                  "ball-transform": ("--t-max", 30.0)}.items():
        t = tables.add_parser(table, allow_abbrev=False)
        t.add_argument("--d", type=int, default=1)
        t.add_argument(end, type=float, default=default)
        t.add_argument("--step", type=float, default=0.05)
        t.add_argument("--csv", action="store_true")

    p = sub.add_parser("trinomial", allow_abbrev=False,
                       help="extremal trinomial and the real-line bound")
    p.set_defaults(func=_cmd_trinomial)
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("optimize", allow_abbrev=False)
    actions.add_parser("example51", allow_abbrev=False).add_argument(
        "--csv", action="store_true", help="emit the profile grid as CSV")

    p = sub.add_parser("density", allow_abbrev=False, help="periodic density search and helpers")
    p.set_defaults(func=_cmd_density)
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("search", allow_abbrev=False)
    a.add_argument("--forbidden", default="[]", help="JSON list of forbidden differences")
    a.add_argument("--max-period", type=int, default=24)
    a = actions.add_parser("auud", allow_abbrev=False)
    a.add_argument("--period", type=int, default=1)
    a.add_argument("--residues", default="[0]", help="JSON list of residues")
    a = actions.add_parser("shadow", allow_abbrev=False)
    a.add_argument("--intervals", default="[]", help="JSON list of [lo, hi] pairs")
    a.add_argument("--closed", action="store_true", help="treat intervals as closed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so
        # the interpreter's final flush neither fails nor prints a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NotAStrictTiling, ConditionViolated) as exc:
        print(f"verification precondition failed: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
