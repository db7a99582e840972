"""Command-line front end.

Subcommands: layers, pin, pt, meandist, verify, markov. Probabilities print in
canonical rational form so scripted golden tests can compare strings directly.
Exit codes: 0 success, 1 usage or parse error, 2 resource cap exceeded,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .errors import AlphabetTooSmall, InvalidRange, LayerscopeError, TooLarge
from .graphs import Family, GraphParams, alphabet_size, build_explicit, split_symbols, validate_vertex
from .layers import layer_poly_eval
from .oracle import _DEFAULT_GRID, simulate_walk_hops, verify_grid
from .probabilities import (
    build_chain,
    hitting_times,
    mean_distance,
    p_in,
    p_in_value,
    p_t,
    p_t_value,
)
from .vertex_classes import canonical_pattern

# markov --monte-carlo refuses walks longer than this in expected total hops
# (15-35 s at 0.14-0.33 microseconds per hop, K(4,5) to B(4,6), p from 1/10 to 9/10)
WALK_HOP_BUDGET = 10**8


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the tool reserves 2 for caps."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1/2 is a value, not an option, so it reaches the range check of -p
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _int_arg(rule: str, ok):
    """argparse type: an integer satisfying ok, else a usage error quoting rule."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected an integer {rule}, got {text!r}")
        return value

    return parse


_degree = _int_arg(">= 2", lambda v: v >= 2)
_diameter = _int_arg(">= 1", lambda v: v >= 1)
_packets = _int_arg("0 (off) or >= 2", lambda v: v == 0 or v >= 2)
_seed = _int_arg(">= 0", lambda v: v >= 0)  # random.Random(-s) seeds as Random(s)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction a/b, got {text!r}") from None


def _check_word(family: Family, D: int, word: List[int], d: Optional[int]) -> tuple:
    """Validate a vertex word at degree d, by default the least degree whose alphabet holds its symbols."""
    if d is None:
        d = max(word, default=0) + (family is Family.DEBRUIJN)
    return validate_vertex(GraphParams(family, max(d, 2), D), word)


def _emit_table(headers: List[str], rows: List[List[str]], notes: List[str]) -> None:
    widths = [max(len(h), *(len(r[k]) for r in rows)) if rows else len(h) for k, h in enumerate(headers)]
    print("  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)))
    print("  ".join("-" * widths[k] for k in range(len(headers))))
    for r in rows:
        print("  ".join(r[k].ljust(widths[k]) for k in range(len(headers))))
    for note in notes:
        print(note)


def _emit(fmt: str, headers: List[str], rows: List[List[str]], payload: dict, notes: List[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        import csv  # only --format csv pays for it
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(headers)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        _emit_table(headers, rows, notes)


def _record(d: Optional[int], f, **fields) -> dict:
    """One printed row: fields, plus "value", f at d, when a degree is given."""
    return fields if d is None else {**fields, "value": str(f.evaluate(d))}


def _emit_records(args, columns, records: List[dict], payload: dict, notes=(), value_csv=None) -> None:
    """Print records, one per row. JSON prints payload, which holds them; table and CSV cells read
    them by key under columns of (key, table header, CSV header), with -d a last "value" column
    headed "value at d=N" (value_csv in CSV, if given)."""
    if args.d is not None:
        columns = [*columns, ("value", f"value at d={args.d}", value_csv or f"value at d={args.d}")]
    cells = [[str(record[key]) for key, _, _ in columns] for record in records]
    _emit(args.format, [c[2 if args.format == "csv" else 1] for c in columns], cells, payload, notes)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_layers(args) -> int:
    family = Family.parse(args.family)
    D = args.D
    if (args.vertex is None) == (args.cls is None):
        raise _UsageError("layers needs exactly one of --vertex or --class")
    label = args.vertex if args.cls is None else args.cls
    word = split_symbols(label)
    if args.cls is not None:
        if canonical_pattern(word) != tuple(word):
            raise _UsageError(f"class {label} is not in restricted-growth form (e.g. 0102)")
        needed = len(set(word))
        if args.d is not None and needed > alphabet_size(family, args.d):
            raise AlphabetTooSmall(
                f"class {label} needs {needed} symbols, alphabet has {alphabet_size(family, args.d)} at d={args.d}"
            )
    v = _check_word(family, D, word, args.d)
    records = []
    for i in [args.i] if args.i is not None else range(D + 1):
        poly = layer_poly_eval(family, D, v, i)
        records.append(_record(args.d, poly, i=i, formula=str(poly), coeffs=poly.to_json()))
    payload = {"family": str(family), "D": D, "vertex": label, "rows": records}
    if args.d is not None:
        payload["d"] = args.d
    _emit_records(args, [("i", "i", "i"), ("formula", "|S_i*|", "|S_i*|")], records, payload)
    return 0


def cmd_pin(args) -> int:
    family = Family.parse(args.family)
    D = args.D
    records = []
    for i in [args.i] if args.i is not None else range(1, D + 1):
        rf = p_in(family, D, i)
        records.append(_record(args.d, rf, i=i, formula=rf.format(), rf=rf.to_json()))
    payload = {"family": str(family), "D": D, "kind": "input", "rows": records}
    _emit_records(args, [("i", "i", "i"), ("formula", "P_in(i)", "formula")], records, payload, value_csv="value_at_d")
    return 0


def cmd_pt(args) -> int:
    family = Family.parse(args.family)
    D = args.D
    for name, index in (("i", args.i), ("j", args.j)):
        if index is not None and not 1 <= index <= D:
            raise InvalidRange(f"need 1 <= {name} <= D, got {name}={index}, D={D}")
    pairs = [
        (i, j)
        for i in ([args.i] if args.i is not None else range(1, D + 1))
        for j in ([args.j] if args.j is not None else range(i, D + 1))
        if i <= j
    ]
    if not pairs:
        raise _UsageError("empty (i, j) selection")
    symbolic = args.d is None
    records = []
    for i, j in pairs:
        if args.d == 2:  # the symbolic form holds for d >= 3 only
            value = str(p_t_value(family, 2, D, i, j))
            records.append({"i": i, "j": j, "formula": value, "value": value})
        else:  # at d >= 3 the value is the printed formula at d, whose denominator has no root there
            rf = p_t(family, D, i, j)
            fields = {"rf": rf.to_json()} if symbolic else {}
            records.append(_record(args.d, rf, i=i, j=j, formula=rf.format(), **fields))
    payload = {
        "family": str(family),
        "D": D,
        "kind": "transition",
        "regime": "d>=3" if symbolic else f"d={args.d}",
        "rows": records,
    }
    notes = ["symbolic formulas valid for d >= 3"] if symbolic else []
    columns = [("i", "i", "i"), ("j", "j", "j"), ("formula", "P_t(i,j)", "formula")]
    _emit_records(args, columns, records, payload, notes, value_csv="value_at_d")
    return 0


def cmd_meandist(args) -> int:
    family = Family.parse(args.family)
    rf = mean_distance(family, args.D)
    record = _record(args.d, rf, formula=rf.format(), rf=rf.to_json())
    payload = {"family": str(family), "D": args.D, **record}
    _emit_records(args, [("formula", "mean distance", "mean distance")], [record], payload)
    return 0


def cmd_verify(args) -> int:
    # a value repeated on the command line (-f B -f b included) is one graph, run once in first-seen order;
    # an axis not given takes verify_grid's default
    families, d_values, D_values = _DEFAULT_GRID
    families = list(dict.fromkeys(map(Family.parse, args.family) if args.family else families))
    d_values = list(dict.fromkeys(args.d or d_values))
    D_values = list(dict.fromkeys(args.D or D_values))
    summary = verify_grid(families, d_values, D_values)
    for m in summary.mismatches:
        print(json.dumps(m.to_json(), sort_keys=True))
    grid = ", ".join(
        f"{f}({d},{D})" for f in families for d in d_values for D in D_values
    )
    print(f"verified {summary.checks} checks over {grid}")
    if summary.ok:
        print("all formula quantities match the oracle exactly")
        return 0
    print(f"{len(summary.mismatches)} mismatches")
    return 3


def cmd_markov(args) -> int:
    family = Family.parse(args.family)
    if args.d is None:
        raise _UsageError("markov requires a concrete degree -d")
    p = args.p
    if p == 1:
        print("diverges: deflection probability 1 makes the diameter state absorbing")
        return 0
    start = {i: p_in_value(family, args.d, args.D, i) for i in range(1, args.D + 1)}  # P_in's cap before P_t's work
    g = args.monte_carlo and build_explicit(GraphParams(family, args.d, args.D))  # and the walk's n^2 cap
    chain = build_chain(family, args.d, args.D, p)
    hops = hitting_times(chain)
    overall = sum(w * hops[i] for i, w in start.items())  # expected_hops would solve the chain again

    headers = ["state"] + [str(j) for j in range(args.D + 1)]
    rows = [
        [str(i)] + [str(x) for x in row]
        for i, row in enumerate(chain.rows)
    ]
    notes = [""]
    notes.append("expected hops to arrival:")
    for i in range(1, args.D + 1):
        notes.append(f"  from distance {i}: {hops[i]} ~ {float(hops[i]):.6f}")
    notes.append(f"  from the input-probability start: {overall} ~ {float(overall):.6f}")
    payload = {
        "family": str(family),
        "d": args.d,
        "D": args.D,
        "deflect_prob": str(p),
        "rows": [[str(x) for x in row] for row in chain.rows],
        "expected_hops": {str(i): str(hops[i]) for i in range(1, args.D + 1)},
        "expected_hops_from_input": str(overall),
    }

    mc_ok = True
    if args.monte_carlo:
        if args.monte_carlo * overall > WALK_HOP_BUDGET:
            raise TooLarge(
                f"{args.monte_carlo} packets x {float(overall):.6g} expected hops = "
                f"{float(args.monte_carlo * overall):.3g} hops, above the walk budget of {WALK_HOP_BUDGET:,}"
            )
        stats = simulate_walk_hops(g, float(p), args.monte_carlo, seed=args.seed)
        diff = abs(stats.mean - float(overall))
        bound = 3 * stats.stderr
        mc_ok = diff <= bound
        notes.append(
            f"monte carlo ({stats.packets} packets, seed {args.seed}): "
            f"mean {stats.mean:.6f}, stderr {stats.stderr:.6f}"
        )
        notes.append(
            f"  |exact - simulated| = {diff:.6f} {'<=' if mc_ok else '>'} 3*stderr = {bound:.6f}"
        )
        payload["monte_carlo"] = {
            "packets": stats.packets,
            "seed": args.seed,
            "mean": stats.mean,
            "stderr": stats.stderr,
            "within_3_stderr": mc_ok,
        }
    _emit(args.format, headers, rows, payload, notes)
    return 0 if mc_ok else 3


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("-f", "--family", required=True, help="graph family: B or K")
    sub.add_argument("-D", type=_diameter, required=True, help="diameter D")
    sub.add_argument("-d", type=_degree, default=None, help="concrete degree d")
    sub.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="layerscope", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("layers", help="distance-layer cardinality polynomials of one vertex")
    _add_common(sp)
    sp.add_argument("--vertex", help="vertex word, e.g. 0102")
    sp.add_argument("--class", dest="cls", help="class pattern in restricted-growth form")
    sp.add_argument("-i", type=int, default=None, help="single layer index")
    sp.set_defaults(func=cmd_layers)

    sp = subs.add_parser("pin", help="input probabilities P_in(i)")
    _add_common(sp)
    sp.add_argument("-i", type=int, default=None)
    sp.set_defaults(func=cmd_pin)

    sp = subs.add_parser("pt", help="transition probabilities P_t(i,j)")
    _add_common(sp)
    sp.add_argument("-i", type=int, default=None)
    sp.add_argument("-j", type=int, default=None)
    sp.set_defaults(func=cmd_pt)

    sp = subs.add_parser("meandist", help="exact mean distance")
    _add_common(sp)
    sp.set_defaults(func=cmd_meandist)

    sp = subs.add_parser("verify", help="cross-check all formulas against the brute-force oracle")
    sp.add_argument("-f", "--family", action="append", help="restrict to one family (repeatable)")
    sp.add_argument("-d", "--d", type=_degree, action="append", help="degree values (repeatable)")
    sp.add_argument("-D", "--D", type=_diameter, action="append", help="diameter values (repeatable)")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("markov", help="absorbing distance chain and expected hops")
    _add_common(sp)
    sp.add_argument("-p", type=_fraction, required=True, help="deflection probability as a/b")
    sp.add_argument(
        "--monte-carlo", type=_packets, default=0, metavar="N", help="cross-check with N packets (0: off)"
    )
    sp.add_argument("--seed", type=_seed, default=0, help="random seed for the packet walk")
    sp.set_defaults(func=cmd_markov)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact values outgrow the 4,300-digit default
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, LayerscopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
