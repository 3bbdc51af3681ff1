#!/usr/bin/env python3
"""gridknot's benchmark: three seeded workloads through the public API.

    python3 gridbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run:

1. builds the package in place (``setup.py build_ext --inplace``), so the
   kernel backend is whatever that build gives;
2. draws the workload's corpus from ``--seed`` and writes it under
   ``.bench_out/``;
3. measures set-up time: fresh interpreters that import gridknot and
   parse the corpus, median of several;
4. runs the timed phase in a fresh worker process (``worker.py``) for
   ``--seconds``, then checks every answer;
5. prints the run's context, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and the metrics: the end-to-end metrics
   with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Workloads: ``equiv-search``, ``tc-orbits``, ``braid-oracles``; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes

WORKLOADS = ("equiv-search", "tc-orbits", "braid-oracles")


def fail(message: str, code: int = 2):
    print(f"gridbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def build() -> None:
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=900,
        )
    if proc.returncode:
        fail(f"in-place build failed; see {log_path}", 3)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    return env


def measure_setup(corpus_path: str) -> list[float]:
    """Lifetimes of fresh interpreters that stop once the corpus is loaded."""
    cmd = [sys.executable, WORKER, corpus_path, "--setup-only"]
    env = worker_env()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode:
            fail(f"set-up failed: {proc.stderr.decode(errors='replace').strip()}")
        if i:  # the first one also writes the bytecode caches
            samples.append(dt)
    return samples


def run_worker(corpus_path: str, seconds: float, trace: int, spans_path: str, timeout: float) -> dict:
    cmd = [sys.executable, WORKER, corpus_path, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"timed phase failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def machine() -> str:
    model = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()}, {model}, {os.cpu_count()} cpus, {platform.system()} {platform.release()}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "gridknot", "__init__.py")) or not os.path.isfile(
        os.path.join(ROOT, "setup.py")
    ):
        fail(f"no gridknot sources under {ROOT}; run from the root of a gridknot checkout")
    os.makedirs(OUT, exist_ok=True)
    build()

    sys.path[:0] = [SRC, HERE]
    import corpus

    queries = corpus.WORKLOADS[args.workload](args.seed)
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    with open(stem + ".json", "w") as f:
        json.dump(queries, f)

    setup = measure_setup(stem + ".json")
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    res = run_worker(stem + ".json", args.seconds, args.trace, stem + "-spans.json", remaining)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"kernel backend {res['backend']}  python {platform.python_version()}  commit {commit()}")
    print(f"machine {machine()}")
    print(f"queries per round {res['queries']}  rounds {res['rounds']}  setup samples {len(setup)}")
    print(f"attempted {res['attempted']}  failed {res['failed']}")
    for line in res["failures"]:
        print(f"FAILED {line}")

    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["per_layer"].items()}
        print(f"traced rounds {res['traced_rounds']}  spans {stem}-spans.json")
    else:
        print(
            f"query_ms.p50 over {res['samples']} queries (each at its fastest of {res['rounds']} rounds); "
            f"median round {res['round_s.median']:.3f} s"
        )
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "query_ms.p50": {"value": res["query_ms.p50"], "unit": "ms"},
            "decided": {"value": res["decided"], "unit": "count"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
