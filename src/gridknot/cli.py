"""Command-line interface.

Exit codes: 0 on success (including NO/UNKNOWN answers to queries),
1 on a domain error (bad grid, illegal move), 2 on usage errors.
Output is plain text, one fact per line; identical arguments and seed
produce identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from gridknot import braid, convert, equiv, grid, moves, suites
from gridknot.errors import GridKnotError


def _read_grid(path: str) -> grid.GridDiagram:
    return grid.parse(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    g = _read_grid(args.file)
    c = grid.census(g)
    print(f"n={g.n} components={c.components} crossings={len(c.crossings)} writhe={c.writhe}")
    return 0


def _cmd_render(args) -> int:
    print(grid.render_ascii(_read_grid(args.file)))
    return 0


def _cmd_apply(args) -> int:
    g = _read_grid(args.file)
    script = moves.parse_script(Path(args.script).read_text(encoding="utf-8"))
    _emit(grid.serialize(script.replay(g)), args.output)
    return 0


def _cmd_convert(args) -> int:
    g = _read_grid(args.file)
    if args.to == "braid":
        sys.stdout.write(braid.format_word(convert.grid_to_braid(g)))
    elif args.to == "front":
        f = convert.grid_to_front(g)
        print(
            f"right_cusps={f.right_cusps} left_cusps={f.left_cusps} "
            f"up_cusps={f.up_cusps} down_cusps={f.down_cusps} writhe={f.writhe}"
        )
    else:
        ci = convert.classical_invariants(g)
        print(f"tb={ci.tb} r={ci.r} sl={ci.sl}")
    return 0


def _cmd_braid_to_grid(args) -> int:
    w = braid.parse_word(args.word)
    _emit(grid.serialize(convert.braid_to_grid(w)), args.output)
    return 0


def _cmd_symmetry(args) -> int:
    g = _read_grid(args.file)
    _emit(grid.serialize(moves.symmetry(g, args.op.upper())), args.output)
    return 0


def _cmd_equiv(args) -> int:
    g1 = _read_grid(args.file_a)
    g2 = _read_grid(args.file_b)
    budget = equiv.SearchBudget(
        max_grid_number=args.max_grid,
        max_states=args.max_states,
        # states alone end the search unless a time budget is asked for,
        # so the verdict does not depend on the machine's speed
        max_seconds=math.inf if args.max_seconds is None else args.max_seconds,
    )
    res = equiv.equivalent(g1, g2, args.move_class, budget)
    if res.verdict == equiv.YES:
        print("YES")
        sys.stdout.write(moves.serialize_script(res.script))
    elif res.verdict == equiv.NO:
        print(f"NO ({res.reason})")
    else:
        print("UNKNOWN")
    return 0


def _cmd_verify(args) -> int:
    if args.suite not in suites.SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from {', '.join(suites.SUITES)}", file=sys.stderr)
        return 2
    rep = suites.SUITES[args.suite](args.trials, args.seed)
    sys.stdout.write(rep.render())
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridknot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a grid file and print its census")
    q.add_argument("file")
    q.set_defaults(func=_cmd_validate)

    q = sub.add_parser("render", help="print a grid as an ASCII board")
    q.add_argument("file")
    q.set_defaults(func=_cmd_render)

    q = sub.add_parser("apply", help="replay a move script on a grid")
    q.add_argument("file")
    q.add_argument("script")
    q.add_argument("-o", "--output")
    q.set_defaults(func=_cmd_apply)

    q = sub.add_parser("convert", help="convert a grid to another representation")
    q.add_argument("--to", required=True, choices=("braid", "front", "invariants"))
    q.add_argument("file")
    q.set_defaults(func=_cmd_convert)

    q = sub.add_parser("braid-to-grid", help="build a grid presenting a braid word")
    q.add_argument("word", help="e.g. 'n=3; 1 -2 1'")
    q.add_argument("-o", "--output")
    q.set_defaults(func=_cmd_braid_to_grid)

    q = sub.add_parser("symmetry", help="apply one of the grid symmetries")
    q.add_argument("file")
    q.add_argument("--op", required=True, choices=("s1", "s2", "s3", "s4"))
    q.add_argument("-o", "--output")
    q.set_defaults(func=_cmd_symmetry)

    q = sub.add_parser("equiv", help="decide equivalence under a move class")
    q.add_argument("file_a")
    q.add_argument("file_b")
    q.add_argument("--class", dest="move_class", required=True, choices=("K", "L", "T", "B", "TC"))
    q.add_argument("--max-grid", type=int, default=0, help="grid-number cap (default: input max + 2)")
    q.add_argument("--max-states", type=int, default=200000)
    q.add_argument("--max-seconds", type=float, default=None, help="time budget (default: none)")
    q.set_defaults(func=_cmd_equiv)

    q = sub.add_parser("verify", help="run a randomized verification suite")
    q.add_argument("--suite", required=True)
    q.add_argument("--trials", type=int, default=50)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridKnotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
