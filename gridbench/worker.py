"""Timed phase of one benchmark run, in a fresh interpreter.

    python3 gridbench/worker.py CORPUS.json --setup-only
    python3 gridbench/worker.py CORPUS.json --seconds S [--trace 0|1] [--spans FILE]

Set-up is everything up to the first query: ``import gridknot`` (which
selects the kernel backend) and loading the corpus through the public
parsers ``grid.parse`` and ``braid.parse_word``.  With ``--setup-only``
the process stops there, so its lifetime is the set-up time.

The timed phase is a closed loop in one thread: each query starts when
the previous one returns.  It runs whole rounds of the corpus until
``--seconds`` have passed, then reads the peak resident memory, and only
then checks every answer of every round.  The last line of output is a
JSON object with the measurements.

With ``--trace 1`` the first half of the time runs untraced and the
second half traced, so the difference of the two is the cost of tracing.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

GRID_OPS = ("equivalent", "tc_orbit_equal", "orbit_size", "o_stab_script")


def load(path: str):
    """Import gridknot from this checkout and parse the corpus."""
    import gridknot
    from gridknot import braid, grid

    if not os.path.abspath(gridknot.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gridknot imported from {gridknot.__file__}, not from {SRC}")
    with open(path) as f:
        queries = json.load(f)
    for q in queries:
        if q["op"] in GRID_OPS:
            q["g1"] = grid.parse(q["a"])
            if "b" in q:
                q["g2"] = grid.parse(q["b"])
        else:
            q["w1"] = braid.parse_word(q["a"])
            q["w2"] = braid.parse_word(q["b"])
        if q["op"] == "equivalent":
            q["search_budget"] = gridknot.SearchBudget(**q["budget"])
    return gridknot, queries


def run_query(gk, q):
    """One query through the public API; returns (verdict, value)."""
    op = q["op"]
    if op == "equivalent":
        r = gk.equiv.equivalent(q["g1"], q["g2"], q["cls"], q["search_budget"])
        return r.verdict, r
    if op == "tc_orbit_equal":
        return ("yes" if gk.equiv.tc_orbit_equal(q["g1"], q["g2"]) else "no"), None
    if op == "orbit_size":
        return "exact", gk.equiv.orbit_size(q["g1"])
    if op == "o_stab_script":
        return "exact", gk.moves.o_stab_script(q["g1"], q["corner"], q["col"])
    if op == "conjugacy_oracle":
        r = gk.braid.conjugacy_oracle(q["w1"], q["w2"], **q["budget"])
        return r.verdict, r
    if op == "markov_oracle":
        r = gk.braid.markov_oracle(q["w1"], q["w2"], **q["budget"])
        return r.verdict, r
    raise ValueError(f"unknown op {op!r}")


class Rounds:
    """What whole rounds of the corpus gave, in memory that does not grow with the rounds.

    Every round asks the same queries, so each query keeps its fastest
    time and a count of each distinct answer; an answer equal to an
    earlier one is dropped once counted.
    """

    def __init__(self, n_queries: int):
        self.count = 0
        self.best = [float("inf")] * n_queries
        self.round_s: list[float] = []
        self.answers: list[dict] = [{} for _ in range(n_queries)]  # (verdict, value) -> times seen
        self.first: list[str] = []  # each query's verdict in the first round

    def summary(self) -> dict:
        """Each query's time is its fastest round; wall_s sums them over the corpus."""
        return {
            "wall_s": sum(self.best),
            "query_ms.p50": statistics.median(self.best) * 1000.0,
            "samples": len(self.best),
            "round_s.median": statistics.median(self.round_s),
        }


def timed_rounds(gk, queries, seconds: float, tracer=None, spans: list | None = None) -> Rounds:
    """Whole rounds of the corpus until ``seconds`` have passed (at least one)."""
    clock = time.perf_counter
    res = Rounds(len(queries))
    t_end = clock() + seconds
    while not res.count or clock() < t_end:
        total = 0.0
        for i, q in enumerate(queries):
            t0 = clock()
            try:
                verdict, value = run_query(gk, q)
            except Exception as exc:  # the query fails; the run goes on and reports it
                verdict, value = "error", f"{type(exc).__name__}: {exc}"
            t1 = clock()
            dt = t1 - t0
            total += dt
            if dt < res.best[i]:
                res.best[i] = dt
            seen = res.answers[i]
            seen[verdict, value] = seen.get((verdict, value), 0) + 1
            if not res.count:
                res.first.append(verdict)
            if spans is not None:
                spans.append((q["family"], t0, t1, verdict))
        res.round_s.append(total)
        res.count += 1
        if tracer is not None:
            tracer.end_round()
    return res


def check_all(queries, results) -> tuple[int, list[str]]:
    """Failed executions over every round, and the first few reasons."""
    import checks

    failed = 0
    reasons = []
    for res in results:
        for i, q in enumerate(queries):
            for (verdict, value), times in res.answers[i].items():
                if verdict == "error":
                    why = f"raised {value}"
                elif verdict != res.first[i]:
                    why = f"verdict {verdict}, {res.first[i]} in the first round"
                else:
                    why = checks.check(q, verdict, value)
                if why:
                    failed += times
                    reasons.append(f"query {i} ({q['family']}) x{times}: {why}")
    return failed, reasons


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("corpus")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the per-query spans of a traced run")
    args = ap.parse_args(argv)

    gk, queries = load(args.corpus)
    if args.setup_only:
        return 0

    out = {"backend": gk.KERNEL_BACKEND, "queries": len(queries)}
    if args.trace:
        from tracing import Tracer

        plain = timed_rounds(gk, queries, args.seconds / 2)
        tracer = Tracer()
        spans: list = []
        tracer.install()
        try:
            traced = timed_rounds(gk, queries, args.seconds / 2, tracer, spans)
        finally:
            tracer.remove()
        layer = tracer.metrics()
        layer["trace.overhead_s"] = (traced.summary()["wall_s"] - plain.summary()["wall_s"], "s")
        out["per_layer"] = layer
        out["traced_rounds"] = traced.count
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump([{"name": n, "start": a, "end": b, "verdict": v} for n, a, b, v in spans], f)
        results = [plain, traced]
    else:
        plain = timed_rounds(gk, queries, args.seconds)
        out.update(plain.summary())
        results = [plain]
    out["peak_rss_mb"] = peak_rss_mb()  # before the checks allocate anything
    out["rounds"] = sum(r.count for r in results)
    out["decided"] = sum(v in ("yes", "no", "exact") for v in plain.first)
    failed, reasons = check_all(queries, results)
    out["attempted"] = out["rounds"] * len(queries)
    out["failed"] = failed
    out["failures"] = reasons[:10]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
