"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 bad data, 3 size-guard refusal.
Data goes to stdout (or ``-o``) as JSON; diagnostics go to stderr.  Output is
byte-identical across runs for identical argv and files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .covers import CoverClass, compute_lifting, iter_minimal_cover_classes
from .ef import OrbisackSpec, class_ef, orbisack_ef
from .errors import SparseknapError, TooLarge
from .indep import IndepSearch
from .knapsack import load_instance, load_point, promote_point
from .linmodel import write_lp
from .networks import apply as net_apply
from .networks import insertion_network, is_sorting_network, network_from_1based, oddeven_network
from .oracle import (
    is_independent_exact,
    maximal_indep_bruteforce,
    minimal_covers_bruteforce,
    cut_valid,
    separate_bruteforce,
)
from .separation import DEFAULT_TOLERANCE, SeparateOptions, class_pairs, separate

USAGE_EXIT, DATA_EXIT, GUARD_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jsonify(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _exact_number(text: str) -> Fraction:
    """Parse a decimal or ratio literal exactly: ``1e-3`` is 1/1000."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _cmd_covers(args) -> int:
    k, _ = load_instance(args.instance)
    wc = k.classes()
    lines = []
    reverse = {"auto": None, "on": True, "off": False}[args.reverse]
    for cover in iter_minimal_cover_classes(wc, k.capacity, reverse):
        if args.pretty:
            lines.append(
                f"tuple=({','.join(map(str, cover.counts))})"
                f" weight={cover.weight(wc)} rhs={cover.rhs}"
            )
        else:
            lines.append(
                _jsonify(
                    {
                        "tuple": list(cover.counts),
                        "weight": cover.weight(wc),
                        "rhs": cover.rhs,
                    }
                )
            )
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def _cmd_cuts(args) -> int:
    k, _ = load_instance(args.instance)
    lines = []
    for cover, _lift, tuples, exact in class_pairs(k.classes(), k.capacity):
        for indep in tuples:
            if args.pretty:
                lines.append(
                    f"cover=({','.join(map(str, cover.counts))})"
                    f" indep=({','.join(map(str, indep))})"
                    f" exact={'yes' if exact else 'no'}"
                )
            else:
                lines.append(
                    _jsonify({"cover": list(cover.counts), "indep": list(indep), "exact": exact})
                )
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def _cmd_separate(args) -> int:
    k, gubs = load_instance(args.instance)
    xhat = load_point(args.point, k.n)
    opts = SeparateOptions(
        tolerance=args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE,
        max_cuts=args.max_cuts,
        deadline_s=args.deadline_ms / 1000.0 if args.deadline_ms is not None else None,
    )
    result = separate(k, xhat, gubs=None if args.no_gub else gubs, opts=opts)
    records = [
        {
            "coeffs": list(cut.coeffs),
            "rhs": cut.rhs,
            "violation": float(cut.violation),
            "cover": list(cut.cover),
            "indep": list(cut.indep),
            "gub": cut.gub_strengthened,
            "exact": cut.exact_lifting,
        }
        for cut in result.cuts
    ]
    print(
        f"scanned {result.classes_scanned} class pairs in {result.elapsed_s:.3f}s"
        + (" (truncated)" if result.truncated else ""),
        file=sys.stderr,
    )
    if args.pretty:
        lines = [
            f"violation={rec['violation']:.9f} rhs={rec['rhs']}"
            f" coeffs=({','.join(map(str, rec['coeffs']))})"
            f" gub={'yes' if rec['gub'] else 'no'} exact={'yes' if rec['exact'] else 'no'}"
            for rec in records
        ]
        _emit("".join(line + "\n" for line in lines), args.output)
    else:
        _emit(_jsonify(records) + "\n", args.output)
    return 0


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SparseknapError(f"bad count list {text!r}") from exc


def _cmd_ef(args) -> int:
    k, _ = load_instance(args.instance)
    cover = CoverClass(_parse_counts(args.cover))
    indep = _parse_counts(args.indep)
    model = class_ef(k, cover, indep, network=args.network)
    _emit(write_lp(model), args.output)
    return 0


def _cmd_orbisack_ef(args) -> int:
    model = orbisack_ef(OrbisackSpec(n=args.n, max_rows=args.max_rows))
    _emit(write_lp(model), args.output)
    return 0


def _verify_checks(k, gubs):
    """Cross-check battery over one instance; yields (name, ok, detail)."""
    wc = k.classes()

    fig_net = network_from_1based(4, [(1, 2), (3, 4), (1, 3), (2, 4), (2, 3)])
    out, phi = net_apply(fig_net, [4, 2, 1, 3])
    yield (
        "network-replay",
        out == [1, 2, 3, 4] and [p + 1 for p in phi[1]] == [2, 1, 1, 3, 3, 2],
        "documented 4-wire run",
    )
    ok = all(
        is_sorting_network(insertion_network(m)) and is_sorting_network(oddeven_network(m))
        for m in range(1, 9)
    )
    yield ("network-zero-one", ok, "both constructions, up to 8 wires")

    enumerated = {c.counts for c in iter_minimal_cover_classes(wc, k.capacity)}
    oracle_classes = minimal_covers_bruteforce(k.weights, k.capacity, wc)
    yield (
        "covers-match-oracle",
        enumerated == oracle_classes,
        f"{len(enumerated)} classes",
    )

    sound = True
    for cover_counts in sorted(enumerated):
        cover = CoverClass(cover_counts)
        lift = compute_lifting(cover, wc, k.capacity)
        for leaf in IndepSearch(cover, lift, wc):
            if not is_independent_exact(leaf.counts, lift, wc):
                sound = False
    yield ("indep-sound", sound, "every leaf passes the subset criterion")

    complete = True
    checked = 0
    for cover, lift, tuples, _exact in class_pairs(wc, k.capacity):
        if set(tuples) != maximal_indep_bruteforce(cover.counts, lift, wc):
            complete = False
        checked += 1
    yield ("indep-complete", complete, f"maximal classes match oracle on {checked} covers")

    rng = random.Random(2024)
    sep_ok = True
    valid_ok = True
    for _ in range(5):
        xhat = promote_point([rng.random() for _ in range(k.n)])
        mine = separate(k, xhat, opts=SeparateOptions(tolerance=Fraction(0)))
        best = mine.cuts[0].violation if mine.cuts else Fraction(0)
        truth, _cut = separate_bruteforce(k.weights, k.capacity, xhat)
        if best != truth or (best > 0) != (truth > 0):
            sep_ok = False
        for cut in mine.cuts:
            if not cut_valid(cut.coeffs, cut.rhs, k.weights, k.capacity):
                valid_ok = False
        if gubs is not None:
            strengthened = separate(k, xhat, gubs=gubs, opts=SeparateOptions(tolerance=Fraction(0)))
            for cut in strengthened.cuts:
                if not cut_valid(cut.coeffs, cut.rhs, k.weights, k.capacity, gubs):
                    valid_ok = False
    yield ("separation-matches-oracle", sep_ok, "5 random points")
    yield ("cuts-valid", valid_ok, "all reported cuts")


def _cmd_verify(args) -> int:
    k, gubs = load_instance(args.instance)
    if k.n > 12:
        raise TooLarge(f"verification battery is desk-scale; {k.n} items exceed 12")
    checks = []
    all_ok = True
    for name, ok, detail in _verify_checks(k, gubs):
        checks.append({"name": name, "ok": ok, "detail": detail})
        all_ok = all_ok and ok
    if args.pretty:
        lines = [
            f"{'PASS' if c['ok'] else 'FAIL'} {c['name']} ({c['detail']})"
            for c in checks
        ]
        lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
        _emit("".join(line + "\n" for line in lines), args.output)
    else:
        _emit(_jsonify({"checks": checks, "ok": all_ok}) + "\n", args.output)
    return 0 if all_ok else DATA_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparseknap", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        p.add_argument("--pretty", action="store_true", help="human-readable output")

    p = sub.add_parser("covers", help="list minimal-cover classes")
    p.add_argument("instance")
    p.add_argument("--reverse", choices=("auto", "on", "off"), default="auto")
    common(p)
    p.set_defaults(func=_cmd_covers)

    p = sub.add_parser("cuts", help="list the class pairs that separate scores")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=_cmd_cuts)

    p = sub.add_parser("separate", help="separate a fractional point")
    p.add_argument("instance")
    p.add_argument("point")
    p.add_argument("--no-gub", action="store_true", help="ignore bound groups")
    p.add_argument("--tolerance", type=_exact_number, default=None)
    p.add_argument("--max-cuts", type=int, default=None)
    p.add_argument("--deadline-ms", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("ef", help="emit the class model in LP format")
    p.add_argument("instance")
    p.add_argument("--cover", required=True, help="comma-separated class counts")
    p.add_argument("--indep", required=True, help="comma-separated class counts")
    p.add_argument("--network", choices=tuple(sorted(("oddeven", "insertion"))), default="oddeven")
    common(p)
    p.set_defaults(func=_cmd_ef)

    p = sub.add_parser("orbisack-ef", help="emit the two-column order model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-rows", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_orbisack_ef)

    p = sub.add_parser("verify", help="run the cross-check battery on an instance")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "orbisack-ef" and args.max_rows is None:
        args.max_rows = args.n
    if getattr(args, "tolerance", None) is not None and args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    if getattr(args, "deadline_ms", None) is not None and args.deadline_ms < 0:
        parser.error("--deadline-ms must be non-negative")
    if getattr(args, "max_cuts", None) is not None and args.max_cuts < 0:
        parser.error("--max-cuts must be non-negative")
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return GUARD_EXIT
    except (SparseknapError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
