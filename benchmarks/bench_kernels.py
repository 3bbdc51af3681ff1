#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Times the two hot kernels (braid-word handle reduction and grid
translation-class expansion) plus one end-to-end consumer of each
(word-problem queries and orbit closures).  Both implementations are
imported directly, so the result does not depend on which backend the
package selected at import.

Then times the search loop of ``equiv.equivalent``, which calls no
kernel: ``legal_moves`` and ``convert.determinant`` per call at n=10,
and the states per second of a K-class search run to a fixed state
budget.  That search pairs the figure-eight knot with 5_1: both have
determinant 5, so no invariant of ``equivalent`` ends it early.
"""

from __future__ import annotations

import argparse
import random
import time

from gridknot import braid, convert, equiv, moves
from gridknot._kernels import pure
from gridknot.suites import random_braid_word, random_grid

try:
    from gridknot._kernels import _fast as fast
except ImportError:
    fast = None


def timed(fn, payloads, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for args in payloads:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_reduce(repeat: int):
    rnd = random.Random(1)
    payloads = []
    for _ in range(300):
        w = random_braid_word(rnd.randint(2, 6), rnd.randint(10, 40), rnd)
        payloads.append((w.letters,))
    return "handle reduction (300 words, len 10-40)", payloads, pure.reduce_handles, (
        fast.reduce_handles if fast else None
    )


def bench_word_problem(repeat: int):
    rnd = random.Random(2)
    payloads = []
    for _ in range(150):
        w = random_braid_word(4, rnd.randint(5, 15), rnd)
        u = random_braid_word(4, rnd.randint(1, 4), rnd)
        conj = u.letters + w.letters + tuple(-k for k in reversed(u.letters))
        trivial = conj + tuple(-k for k in reversed(w.letters))
        payloads.append((trivial,))
    return "word-problem queries (150 conjugate pairs)", payloads, pure.reduce_handles, (
        fast.reduce_handles if fast else None
    )


def bench_neighbors(repeat: int):
    rnd = random.Random(3)
    payloads = []
    for _ in range(200):
        g = random_grid(rnd.randint(5, 7), rnd)
        key = pure.grid_canon_key(g.n, g.x, g.o)
        payloads.append((g.n, key))
    return "class-key neighbors (200 grids, n 5-7)", payloads, pure.grid_class_neighbors, (
        fast.grid_class_neighbors if fast else None
    )


def bench_closure(repeat: int):
    rnd = random.Random(4)
    grids = [random_grid(6, rnd) for _ in range(10)]

    def closure(neighbors_fn, g):
        start = pure.grid_canon_key(g.n, g.x, g.o)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for k in frontier:
                for nb in neighbors_fn(g.n, k):
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        return len(seen)

    payloads = [(g,) for g in grids]
    return (
        "orbit closures (10 grids, n=6)",
        payloads,
        lambda g: closure(pure.grid_class_neighbors, g),
        (lambda g: closure(fast.grid_class_neighbors, g)) if fast else None,
    )


SEARCH_STATES = 20000


def bench_search_loop(repeat: int) -> list[tuple[str, str]]:
    """(name, figure) rows for the search loop of ``equivalent``."""
    rnd = random.Random(5)
    grids = [random_grid(10, rnd) for _ in range(50)]
    payloads = [(g,) for g in grids]
    per_call = timed(moves.legal_moves, payloads, repeat) / len(grids)
    det_per_call = timed(convert.determinant, payloads, repeat) / len(grids)

    figure8 = convert.braid_to_grid(braid.word([1, -2, 1, -2]))
    knot51 = convert.braid_to_grid(braid.word([1, 1, 1, 1, 1]))
    budget = equiv.SearchBudget(max_states=SEARCH_STATES, max_seconds=3600.0)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = equiv.equivalent(figure8, knot51, "K", budget)
        best = min(best, time.perf_counter() - t0)
    if res.reason != "state budget exhausted":
        raise SystemExit(f"search loop: expected the state budget to end the search, got {res.reason!r}")
    return [
        ("legal_moves per call (50 grids, n=10)", f"{per_call * 1e6:8.1f}us"),
        ("determinant per call (50 grids, n=10)", f"{det_per_call * 1e6:8.1f}us"),
        (f"equivalent K figure-8 vs 5_1 ({SEARCH_STATES} states)", f"{SEARCH_STATES / best:8.0f} states/s"),
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3, help="take the best of N runs")
    args = ap.parse_args()

    benches = [bench_reduce, bench_word_problem, bench_neighbors, bench_closure]
    width = 46
    print(f"{'benchmark':<{width}} {'pure':>9} {'compiled':>9} {'speedup':>8}")
    for bench in benches:
        name, payloads, pure_fn, fast_fn = bench(args.repeat)
        t_pure = timed(pure_fn, payloads, args.repeat)
        if fast_fn is None:
            print(f"{name:<{width}} {t_pure * 1000:8.1f}ms {'n/a':>9} {'n/a':>8}")
            continue
        t_fast = timed(fast_fn, payloads, args.repeat)
        print(
            f"{name:<{width}} {t_pure * 1000:8.1f}ms {t_fast * 1000:7.1f}ms "
            f"{t_pure / t_fast:7.1f}x"
        )
    print(f"\n{'search loop (no kernel runs)':<{width}} {'best of ' + str(args.repeat):>9}")
    for name, figure in bench_search_loop(args.repeat):
        print(f"{name:<{width}} {figure}")
    if fast is None:
        print("\ncompiled kernels unavailable; build them with `python setup.py build_ext --inplace` to compare")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
