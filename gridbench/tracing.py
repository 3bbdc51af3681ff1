"""Per-layer tracing from outside the program.

``Tracer`` wraps gridknot's public functions where the consuming module
imported them (``gridknot.equiv.apply``, ``gridknot.braid.reduce_handles``,
...), so every call the program makes through that name is counted.
Per function it keeps a call count, the calls that raised, and self time:
the time inside the function minus the time of traced calls it made.
Spans per call would number in the millions, so only the aggregates are
kept, one set per round of the corpus; the worker records one span per
query.  Every round does the same work, so counts are per round and a
time is its smallest value over the rounds, as for ``wall_s``.
"""

from __future__ import annotations

import time

import gridknot.braid
import gridknot.convert
import gridknot.equiv
import gridknot.moves

# metric prefix -> (function name, the modules whose attribute is patched)
TRACED = {
    "kernels.grid_canon_key": ("grid_canon_key", (gridknot.equiv, gridknot.moves)),
    "kernels.grid_class_neighbors": ("grid_class_neighbors", (gridknot.equiv, gridknot.moves)),
    "kernels.reduce_handles": ("reduce_handles", (gridknot.braid,)),
    "moves.apply": ("apply", (gridknot.equiv, gridknot.moves)),
    "moves.legal_moves": ("legal_moves", (gridknot.equiv,)),
    "moves.o_stab_script": ("o_stab_script", (gridknot.moves,)),
    "grid.validate": ("validate", (gridknot.moves, gridknot.convert)),
    "grid.census": ("census", (gridknot.equiv, gridknot.convert)),
    "convert.classical_invariants": ("classical_invariants", (gridknot.convert,)),
    "convert.grid_to_braid": ("grid_to_braid", (gridknot.convert,)),
    "equiv.equivalent": ("equivalent", (gridknot.equiv,)),
    "equiv.tc_orbit_equal": ("tc_orbit_equal", (gridknot.equiv,)),
    "equiv.orbit_size": ("orbit_size", (gridknot.equiv,)),
    "braid.conjugacy_oracle": ("conjugacy_oracle", (gridknot.braid,)),
    "braid.markov_oracle": ("markov_oracle", (gridknot.braid,)),
    "braid.verify_steps": ("verify_steps", (gridknot.braid,)),
    "braid.words_equal": ("words_equal", (gridknot.braid,)),
}


class _Stat:
    __slots__ = ("calls", "raised", "self_s", "total_s")

    def __init__(self):
        self.calls = self.raised = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    """Patch the traced names on ``install`` and put the originals back on ``remove``."""

    def __init__(self):
        self.stats = {name: _Stat() for name in TRACED}
        self.applied_in_equivalent = 0  # apply calls that returned inside equivalent
        self._stack: list[float] = []  # time of traced children, per open call
        self._in_equivalent = 0
        self._saved: list[tuple] = []
        self._rounds: list[dict] = []  # per round: name -> (calls, raised, self_s, total_s)
        self._mark: dict = self._snapshot()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        is_apply = name == "moves.apply"
        is_equivalent = name == "equiv.equivalent"

        def traced(*args, **kwargs):
            stack.append(0.0)
            if is_equivalent:
                self._in_equivalent += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if is_equivalent:
                    self._in_equivalent -= 1
            if is_apply and self._in_equivalent:
                self.applied_in_equivalent += 1
            return result

        return traced

    def install(self) -> None:
        for name, (attr, modules) in TRACED.items():
            # one wrapper per function, shared by every module that imported it
            wrapper = self._wrap(name, getattr(modules[0], attr))
            for mod in modules:
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _snapshot(self) -> dict:
        snap = {name: (st.calls, st.raised, st.self_s, st.total_s) for name, st in self.stats.items()}
        snap["applied_in_equivalent"] = self.applied_in_equivalent
        return snap

    def end_round(self) -> None:
        now = self._snapshot()
        delta = {}
        for name in self.stats:
            delta[name] = tuple(a - b for a, b in zip(now[name], self._mark[name]))
        delta["applied_in_equivalent"] = now["applied_in_equivalent"] - self._mark["applied_in_equivalent"]
        self._rounds.append(delta)
        self._mark = now

    def metrics(self) -> dict:
        """The per-layer metrics of ``PER_LAYER`` over the rounds ended so far."""
        rounds = self._rounds
        first = rounds[0]
        out = {}
        for name in self.stats:
            out[f"{name}.calls"] = (first[name][0], "count")
            out[f"{name}.self_s"] = (min(r[name][2] for r in rounds), "s")
        calls, raised = first["moves.apply"][:2]
        out["moves.apply.raised"] = (raised, "count")
        out["moves.apply.useful_ratio"] = ((calls - raised) / calls if calls else 0.0, "ratio")
        eq_s = min(r["equiv.equivalent"][3] for r in rounds)
        out["equiv.equivalent.edges_per_s"] = (first["applied_in_equivalent"] / eq_s if eq_s else 0.0, "1/s")
        return {name: out[name] for name in PER_LAYER if name in out}


# The per-layer metrics a traced run reports; trace.overhead_s is added by the worker.
PER_LAYER = (
    "kernels.grid_canon_key.calls",
    "kernels.grid_canon_key.self_s",
    "kernels.grid_class_neighbors.calls",
    "kernels.grid_class_neighbors.self_s",
    "kernels.reduce_handles.calls",
    "kernels.reduce_handles.self_s",
    "moves.apply.calls",
    "moves.apply.raised",
    "moves.apply.self_s",
    "moves.apply.useful_ratio",
    "moves.legal_moves.calls",
    "moves.legal_moves.self_s",
    "moves.o_stab_script.calls",
    "moves.o_stab_script.self_s",
    "grid.validate.calls",
    "grid.validate.self_s",
    "grid.census.calls",
    "grid.census.self_s",
    "convert.classical_invariants.calls",
    "convert.classical_invariants.self_s",
    "convert.grid_to_braid.calls",
    "convert.grid_to_braid.self_s",
    "equiv.equivalent.self_s",
    "equiv.equivalent.edges_per_s",
    "equiv.tc_orbit_equal.self_s",
    "equiv.orbit_size.self_s",
    "braid.conjugacy_oracle.self_s",
    "braid.markov_oracle.self_s",
    "braid.verify_steps.self_s",
    "braid.words_equal.calls",
    "trace.overhead_s",
)
