"""Command-line front end.

Exit codes: 0 success, 2 parse/validation error, 3 work-budget or census
guard exhausted, 4 verification failure (a theorem check or a --check
divergence).  All counts are printed as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from contextlib import nullcontext

from .census import CensusSizeError
from .counting import (
    BudgetExceededError,
    cactus_path_count,
    count_paths,
    work_budget,
)
from .extremal import (
    INVARIANTS,
    SWEEP_COLUMNS,
    extremal_sweep,
    sweep_rows,
    verify_theorems,
)
from .families import FAMILY_NAMES, FamilySpec, build_family
from .formulas import RECONCILIATION_COLUMNS, reconciliation_rows
from .graphs import (
    Graph,
    GraphError,
    NotCactusError,
    parse_edge_list,
    to_edge_list_text,
    validate_cactus,
)
from .indices import invariant_triple
from .transforms import RULES, TransformError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _family_spec(args, name: str) -> FamilySpec:
    return FamilySpec(
        family=name,
        n=getattr(args, "n", None),
        k=getattr(args, "k", None),
        lengths=tuple(args.lengths) if getattr(args, "lengths", None) else (),
        tree_n=getattr(args, "tree_n", None),
        tree_edges=tuple(args.tree_edges) if getattr(args, "tree_edges", None) else (),
        attach=tuple(args.attach) if getattr(args, "attach", None) else (),
    )


def _load_graph(args) -> Graph:
    if getattr(args, "family", None):
        return build_family(_family_spec(args, args.family))
    if getattr(args, "infile", None) is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    raise ValueError("provide --in FILE or --family NAME")


def _lengths(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad length list {text!r}") from None


def _edge_pairs(text: str) -> list[tuple[int, int]]:
    try:
        pairs = []
        for part in text.split(","):
            if not part:
                continue
            u, v = part.split("-")
            pairs.append((int(u), int(v)))
        return pairs
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad edge list {text!r}, want u-v,u-v") from None


def _family_flags(sub) -> None:
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--lengths", type=_lengths, help="cycle lengths, e.g. 4,3,3")
    sub.add_argument("--tree-n", type=int, help="tree size for the end_triangle family")
    sub.add_argument("--tree-edges", type=_edge_pairs, help="tree edges, e.g. 0-1,1-2")
    sub.add_argument("--attach", type=_lengths, help="triangle attachment vertices, e.g. 0,0,3")


def _graph_flags(sub) -> None:
    sub.add_argument("--in", dest="infile", help="edge-list file ('n m' header)")
    sub.add_argument("--family", choices=FAMILY_NAMES, help="named family instead of a file")
    _family_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cactuspaths",
        description="Exact subpath counts, extremal cactus families, and verification sweeps.",
    )
    parser.add_argument("--budget", type=int, help="work budget for exhaustive counters")
    parser.add_argument("--guard", type=int, help="census class-count guard")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pn", help="subpath number of a graph")
    _graph_flags(p)
    p.add_argument("--oracle", action="store_true", help="force brute-force enumeration")
    p.add_argument("--check", action="store_true", help="print fast and oracle counts")
    p.add_argument("--format", dest="fmt", choices=("plain", "json"), default="plain")

    p = sub.add_parser("family", help="print a named family as an edge list")
    p.add_argument("name", choices=FAMILY_NAMES)
    _family_flags(p)

    p = sub.add_parser("reconcile", help="PTC oracle / summation / printed-form table")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("transform", help="apply one rewrite rule")
    p.add_argument("--rule", choices=sorted(RULES), required=True)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("sweep", help="evaluate an invariant over a whole census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--invariant", choices=INVARIANTS, default="pn")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("verify", help="check the extremal theorems on one census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--invariant",
        choices=INVARIANTS,
        action="append",
        help="restrict to these invariants (repeatable; default all)",
    )

    p = sub.add_parser("indices", help="pn / wiener / subtree triple of a graph")
    p.add_argument("infile", help="edge-list file")

    p = sub.add_parser("profile", help="cactus decomposition of a graph, as JSON")
    _graph_flags(p)

    return parser


def _write_csv(columns, rows: list[dict[str, str]], out: str | None) -> None:
    """Write rows, computed in full, as CSV straight to the file out and
    then say so on stdout, or, with no out, to stdout."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    if out:
        sys.stdout.write(f"wrote {len(rows)} rows to {out}\n")


def _cmd_pn(args) -> int:
    g = _load_graph(args)
    profile = None
    if not args.oracle or args.check:
        try:
            profile = validate_cactus(g)
        except GraphError:
            profile = None
    if args.check:
        if profile is None:
            raise NotCactusError("--check needs a cactus input (fast counter required)")
        fast = cactus_path_count(profile)
        oracle = count_paths(g, budget=args.budget)
        if args.fmt == "json":
            print(json.dumps({"fast": str(fast), "oracle": str(oracle)}, sort_keys=True))
        else:
            print(f"fast {fast}")
            print(f"oracle {oracle}")
        if fast != oracle:
            print("counter divergence: fast != oracle", file=sys.stderr)
            return EXIT_VERIFY
        return EXIT_OK
    if profile is not None:
        value = cactus_path_count(profile)
    else:
        value = count_paths(g, budget=args.budget)
    if args.fmt == "json":
        print(json.dumps({"pn": str(value)}, sort_keys=True))
    else:
        print(value)
    return EXIT_OK


def _cmd_family(args) -> int:
    sys.stdout.write(to_edge_list_text(build_family(_family_spec(args, args.name))))
    return EXIT_OK


def _cmd_reconcile(args) -> int:
    rows = reconciliation_rows(
        range(args.n_min, args.n_max + 1),
        range(args.k_min, args.k_max + 1),
        budget=args.budget,
    )
    _write_csv(RECONCILIATION_COLUMNS, rows, args.out)
    return EXIT_OK


def _cmd_transform(args) -> int:
    g = _load_graph(args)
    result = RULES[args.rule](g)
    print(json.dumps(result.to_json(), sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = extremal_sweep(args.n, args.k, args.invariant, guard=args.guard)
    rows = sweep_rows(report)
    _write_csv(SWEEP_COLUMNS, rows, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    invariants = tuple(args.invariant) if args.invariant else INVARIANTS
    report = verify_theorems(args.n, args.k, invariants=invariants, guard=args.guard)
    print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def _cmd_indices(args) -> int:
    triple = invariant_triple(_load_graph(args), budget=args.budget)
    print(json.dumps(triple.to_json(), sort_keys=True))
    return EXIT_OK


def _cmd_profile(args) -> int:
    profile = validate_cactus(_load_graph(args))  # raises before any output
    profile.write_json(sys.stdout.write)
    return EXIT_OK


_COMMANDS = {
    "pn": _cmd_pn,
    "family": _cmd_family,
    "reconcile": _cmd_reconcile,
    "transform": _cmd_transform,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "indices": _cmd_indices,
    "profile": _cmd_profile,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Python 3.10.7+ caps int/str conversion at 4,300 digits; lifted while
    # main runs, so long counts print, and restored for in-process callers
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    # the package builds no reference cycles: the collector only rescans (18% of a large `profile`)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if args.guard is not None and args.guard <= 0:
            raise ValueError("census guard must be positive")
        work_budget(args.budget)  # validates --budget and any env-var override
        return _COMMANDS[args.command](args)
    except (BudgetExceededError, CensusSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:  # a census too large for memory, before its guard binds
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, TransformError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
