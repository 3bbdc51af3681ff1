"""Check every answer against its ground truth or a property the method must have.

``check(query, verdict, value)`` returns ``None`` when the answer is
acceptable and a one-line reason when the query failed.  A query fails
on a wrong verdict, a witness that does not verify, or a tripped time
budget.  UNKNOWN at a state or depth budget is an honest answer and
passes; it only counts against ``decided``.
"""

from __future__ import annotations

from gridknot import braid, moves
from gridknot.errors import GridKnotError

import truth
from corpus import CLASS_CORNERS, OPPOSITE

NO, UNKNOWN = "no", "unknown"

_TC_MOVES = (moves.Translate, moves.CommuteRows, moves.CommuteCols)


def _class_allows(corners, m) -> bool:
    if isinstance(m, _TC_MOVES):
        return True
    return isinstance(m, (moves.Stabilize, moves.Destabilize)) and m.kind == "X" and m.corner in corners


def _raw(g):
    return g.x, g.o


def check(q: dict, verdict: str, value) -> str | None:
    op = q["op"]
    if op == "orbit_size":
        return None if value == q["truth"] else f"orbit size {value}, expected {q['truth']}"
    if op == "o_stab_script":
        return _check_o_stab(q, value)
    if verdict == UNKNOWN:
        if "time" in getattr(value, "reason", ""):
            return "time budget tripped"
        return None
    if verdict != q["truth"]:
        return f"verdict {verdict}, expected {q['truth']}"
    if verdict == NO or op == "tc_orbit_equal":
        return None
    if op == "equivalent":
        return _check_script(q, value.script)
    if op == "conjugacy_oracle":
        return _check_conjugator(q, value.witness)
    if op == "markov_oracle":
        return _check_steps(q, value.witness)
    raise ValueError(f"unknown op {op!r}")


def _check_script(q: dict, script) -> str | None:
    corners = CLASS_CORNERS[q["cls"]]
    bad = [m for m in script.moves if not _class_allows(corners, m)]
    if bad:
        return f"script uses {bad[0]} outside class {q['cls']}"
    try:
        end = script.replay(q["g1"])
    except GridKnotError as exc:  # a move that is illegal where it lands
        return f"script does not replay: {type(exc).__name__}: {exc}"
    return None if end == q["g2"] else "script does not end at the target"


def _check_conjugator(q: dict, u) -> str | None:
    w1, w2 = q["w1"], q["w2"]
    if w1.strands != 3 or u is None or u.strands != 3:
        return "conjugator missing or not on 3 strands"
    if not truth.burau3_conjugates(u.letters, w1.letters, w2.letters):
        return "conjugator fails the Burau check"
    return None


def _check_steps(q: dict, steps) -> str | None:
    w1, w2 = q["w1"], q["w2"]
    if not steps:
        return "empty step script"
    if not braid.verify_steps(w1, steps):
        return "step script fails verify_steps"
    last = steps[-1].word
    if last.strands != w2.strands or not braid.words_equal(last, w2):
        return "step script does not end at the target"
    return None


def _check_o_stab(q: dict, script) -> str | None:
    corner = q["corner"]
    stabs = [m for m in script.moves if not isinstance(m, _TC_MOVES)]
    if len(stabs) != 1 or not isinstance(stabs[0], moves.Stabilize):
        return f"expected exactly one stabilization, got {stabs}"
    if stabs[0].kind != "X" or stabs[0].corner != OPPOSITE[corner]:
        return f"stabilization {stabs[0]} is not X:{OPPOSITE[corner]}"
    h = q["g1"]
    try:
        end = script.replay(h)
    except GridKnotError as exc:  # a move that is illegal where it lands
        return f"script does not replay: {type(exc).__name__}: {exc}"
    target = moves.apply(h, moves.Stabilize("O", corner, q["col"]))
    if end.n != target.n or not truth.tc_connected(end.n, _raw(end), _raw(target)):
        return "script does not reach the O stabilization's TC orbit"
    return None

