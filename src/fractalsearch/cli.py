"""Command-line entry point.

Subcommands: expand | contract | search | bounds | oracle | solve | tree.
Exit codes: 0 success, 1 domain error (bad input, never-appears under
--expect-found), 2 resource-cap error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as bounds_mod
from .ancestry import (
    ancestor_tree,
    first_appearance,
    tree_to_dot,
    tree_to_json,
    witness_coordinates,
)
from .core import Grid, expand as expand_grid, contract as contract_grid
from .errors import FractalSearchError, ResourceLimitError, UnresolvedSearchError
from .files import grid_argument, load_rules
from .patterns import Direction, parse_pattern, to_json, trim
from .puzzle import (
    load_puzzle,
    report_to_text,
    solve as solve_puzzle,
)

USAGE_EXIT = 64
BOUNDS_LEN_CAP = 10 ** 5     # lengths in one bounds table, built before printing


def _int_at_least(minimum: int):
    """argparse ``type=`` for integers >= minimum; violations exit 64."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names it in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _add_common(sp, *, l1=False, grid=False, fmt=("text", "json")):
    sp.add_argument("--rules", required=True, help="rules file")
    if l1:
        sp.add_argument("--l1", required=True,
                        help="level-1 grid, inline (A or AB/CB) or @FILE")
    if grid:
        sp.add_argument("--grid", required=True,
                        help="grid, inline rows or @FILE")
    sp.add_argument("--format", choices=fmt, default=fmt[0])


def build_parser() -> _Parser:
    parser = _Parser(prog="fractalsearch",
                     description="Fractal word search engine")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("expand", help="apply replacement steps to a grid")
    _add_common(sp, grid=True)
    sp.add_argument("--steps", type=_int_at_least(0), default=1)

    sp = sub.add_parser("contract", help="invert replacement steps")
    _add_common(sp, grid=True)
    sp.add_argument("--steps", type=_int_at_least(0), default=1,
                    help="an untagged input grid is on level steps + 1")

    sp = sub.add_parser("search", help="earliest level of a word or pattern")
    _add_common(sp, l1=True)
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--word")
    target.add_argument("--pattern",
                        help="letter/wildcard pattern like C**/*A*/**T")
    sp.add_argument("--direction", choices=[d.name for d in Direction])
    sp.add_argument("--depth-cap", type=_int_at_least(0), default=None)
    sp.add_argument("--expect-found", action="store_true",
                    help="exit 1 when the word can never appear")

    sp = sub.add_parser("bounds", help="first-appearance bound table")
    sp.add_argument("--b", type=_int_at_least(2), required=True)
    sp.add_argument("--n", type=_int_at_least(1), required=True)
    sp.add_argument("--len", type=_int_at_least(1), default=1, dest="length",
                    help="word length, or the low end with --len-max")
    sp.add_argument("--len-max", type=int, default=None)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = sub.add_parser("oracle", help="brute-force experiments")
    osub = sp.add_subparsers(dest="oracle_command", required=True,
                             parser_class=_Parser)
    ssp = osub.add_parser("sweep", help="exhaustive rule-set sweep")
    ssp.add_argument("--n", type=_int_at_least(1), required=True)
    ssp.add_argument("--b", type=_int_at_least(2), default=2)
    ssp.add_argument("--dim", type=int, default=1, choices=(1, 2))
    ssp.add_argument("--len-cap", type=_int_at_least(1), default=2)
    ssp.add_argument("--jobs", type=_int_at_least(1), default=1)
    ssp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    asp = osub.add_parser("agree", help="randomized backward/forward audit")
    asp.add_argument("--instances", type=_int_at_least(1), default=1000)
    asp.add_argument("--seed", type=int, default=2013)
    asp.add_argument("--max-level", type=_int_at_least(1), default=10)
    asp.add_argument("--b", type=_int_at_least(2), default=2,
                     help="block side of the random rules")
    asp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("solve", help="solve a puzzle file end to end")
    sp.add_argument("puzzle", help="puzzle file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--cross-all", action="store_true",
                    help="cross out every grounding at each word's earliest level")
    sp.add_argument("--tree-dir", default=None,
                    help="write per-word ancestor trees (json + dot) here")

    sp = sub.add_parser("tree", help="export a word's ancestor tree")
    _add_common(sp, fmt=("text", "json", "dot"))
    sp.add_argument("--word", required=True)
    sp.add_argument("--direction", default="E",
                    choices=[d.name for d in Direction])
    sp.add_argument("--l1", default=None,
                    help="optional level-1 grid (inline or @FILE) for "
                         "grounded leaves")

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _print_grid(grid: Grid, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"rows": grid.rows, "cols": grid.cols,
                          "level": grid.level, "lines": list(grid.lines())}))
    else:
        for line in grid.lines():
            print(line)


def _cmd_expand(args) -> int:
    rules = load_rules(args.rules)
    grid = grid_argument(args.grid)
    _print_grid(expand_grid(grid, rules, args.steps), args.format)
    return 0


def _cmd_contract(args) -> int:
    rules = load_rules(args.rules)
    grid = grid_argument(args.grid, args.steps + 1)
    for _ in range(args.steps):
        grid = contract_grid(grid, rules)
    _print_grid(grid, args.format)
    return 0


def _cmd_search(args) -> int:
    if args.pattern is not None and args.direction is not None:
        print("search: --direction applies only to --word", file=sys.stderr)
        return USAGE_EXIT
    rules = load_rules(args.rules)
    l1 = grid_argument(args.l1)
    if args.pattern is not None:
        word, direction = trim(parse_pattern(args.pattern)).text(), None
    else:
        word, direction = args.word, Direction[args.direction or "E"]
    result = first_appearance(word, direction, l1, rules, args.depth_cap)
    if args.format == "json":
        payload = {
            "word": result.word,
            "direction": result.direction,
            "found": result.found,
            "level": result.level,
            "nodes_expanded": result.nodes_expanded,
            "patterns_seen": result.patterns_seen,
        }
        if result.found:
            payload["ancestor"] = result.ancestor
            payload["anchor"] = result.anchor
            payload["addresses"] = witness_coordinates(result, l1, rules)
        else:
            payload["fixpoint_depth"] = result.max_depth
        print(json.dumps(to_json(payload)))
    elif result.found:
        print(f"level {result.level}")
    else:
        print(f"never appears (fixpoint at depth {result.max_depth})")
    return 1 if (args.expect_found and not result.found) else 0


def _cmd_bounds(args) -> int:
    last = args.length if args.len_max is None else args.len_max
    if last < args.length:
        print("bounds: --len-max must be >= --len", file=sys.stderr)
        return USAGE_EXIT
    if last - args.length + 1 > BOUNDS_LEN_CAP:
        raise ResourceLimitError(
            f"lengths {args.length}..{last} exceed the cap of {BOUNDS_LEN_CAP} rows")
    rows = [
        {"len": ln, "w1": bounds_mod.w1(args.b, args.n, ln),
         "w2": bounds_mod.w2(args.b, args.n, ln),
         "max_parent_len": bounds_mod.max_parent_len(ln, args.b)}
        for ln in range(args.length, last + 1)
    ]
    if args.format == "json":
        print(json.dumps({"b": args.b, "n": args.n, "rows": rows}))
    elif args.format == "csv":
        print("len,w1,w2,max_parent_len")
        for row in rows:
            print(f"{row['len']},{row['w1']},{row['w2']},{row['max_parent_len']}")
    elif len(rows) == 1:
        print(f"w1={rows[0]['w1']}, w2={rows[0]['w2']}")
    else:
        print(f"{'len':>5} {'w1':>8} {'w2':>10} {'max_parent':>10}")
        for row in rows:
            print(f"{row['len']:>5} {row['w1']:>8} {row['w2']:>10} "
                  f"{row['max_parent_len']:>10}")
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import ISSUE_FIELDS, run_agreement, sweep_max_latest

    if args.oracle_command == "sweep":
        report = sweep_max_latest(args.n, args.b, args.dim, args.len_cap,
                                  jobs=args.jobs)
        if args.format == "json":
            print(json.dumps(report.to_json_dict()))
        elif args.format == "csv":
            print("ruleset_index,max_level")
            for idx, level in enumerate(report.per_ruleset_max):
                print(f"{idx},{level}")
        else:
            print(f"rule sets: {report.ruleset_count}")
            print(f"global max latest first appearance: {report.global_max}")
            for length, level in report.per_length_max.items():
                print(f"  word length {length}: {level}")
            print(f"witness: word {report.witness_word} with start grid "
                  f"{report.witness_l1} under {report.witness_rules}")
        return 0
    report = run_agreement(args.instances, args.seed, max_level=args.max_level,
                           b=args.b)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"instances: {report.instances}  found: {report.found_both}  "
              f"never: {report.never_both}  beyond horizon: {report.beyond_horizon}")
        for name in ISSUE_FIELDS.values():
            items = getattr(report, name)
            print(f"{name}: {len(items)}")
            for item in items[:5]:
                print(f"  {item}")
    return 0 if report.clean else 1


def _cmd_solve(args) -> int:
    spec = load_puzzle(args.puzzle)
    report = solve_puzzle(spec, cross_all=args.cross_all)
    if args.format == "json":
        print(json.dumps(to_json(report)))
    else:
        print(report_to_text(report))
    if args.tree_dir:
        os.makedirs(args.tree_dir, exist_ok=True)
        for placement in report.placements:
            tree = ancestor_tree(placement.word, placement.direction,
                                 spec.rules, spec.l1)
            base = os.path.join(args.tree_dir, placement.word)
            with open(base + ".json", "w", encoding="utf-8") as fh:
                fh.write(tree_to_json(tree))
            with open(base + ".dot", "w", encoding="utf-8") as fh:
                fh.write(tree_to_dot(tree))
    return 0


def _render_tree_text(node, indent: int = 0) -> list[str]:
    suffix = "" if node.status == "interior" else f"  [{node.status}]"
    lines = ["  " * indent + node.pattern.text() + suffix]
    for child in node.children:
        lines.extend(_render_tree_text(child, indent + 1))
    return lines


def _cmd_tree(args) -> int:
    rules = load_rules(args.rules)
    l1 = grid_argument(args.l1) if args.l1 is not None else None
    tree = ancestor_tree(args.word, Direction[args.direction], rules, l1)
    if args.format == "json":
        print(tree_to_json(tree))
    elif args.format == "dot":
        print(tree_to_dot(tree))
    else:
        print("\n".join(_render_tree_text(tree)))
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "contract": _cmd_contract,
    "search": _cmd_search,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "solve": _cmd_solve,
    "tree": _cmd_tree,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ResourceLimitError, UnresolvedSearchError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (FractalSearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
