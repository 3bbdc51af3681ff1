"""Bounded decision of grid equivalence under the move set of a class.

Move classes quotient grids by translation and commutation plus a
subset of the X (de)stabilization types:

* ``K``  all four types (topological knots),
* ``L``  NE and SW (Legendrian knots),
* ``T``  NE, SW, and SE (transverse knots),
* ``B``  NE and SE (braids modulo conjugation and exchange),
* ``TC`` none (translation+commutation orbits, decidable exactly).

``equivalent`` answers Yes with a replayable script, No with a class
invariant that differs, or Unknown when the bidirectional search budget
runs out.  Orbit equality at fixed grid number is exact: translations
and commutations preserve the grid number, so the orbit is finite and
is enumerated through translation-canonical class keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from gridknot import convert
from gridknot._kernels import grid_canon_key, grid_class_neighbors
from gridknot.braid import conjugacy_no_reason
from gridknot.errors import GridKnotError, UnsupportedClass
from gridknot.grid import GridDiagram, census, from_key
from gridknot.moves import (
    CommuteCols,
    CommuteRows,
    Destabilize,
    Move,
    MoveScript,
    Stabilize,
    Translate,
    apply,
    inverse_move,
    legal_moves,
    move_markers,
    tc_class_closure,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

MOVE_CLASSES = ("K", "L", "T", "B", "TC")
_CLASS_CORNERS = {
    "K": ("NW", "NE", "SW", "SE"),
    "L": ("NE", "SW"),
    "T": ("NE", "SW", "SE"),
    "B": ("NE", "SE"),
    "TC": (),
}


@dataclass(frozen=True)
class SearchBudget:
    max_grid_number: int = 0  # 0: two more than the larger input
    max_states: int = 200000
    max_seconds: float = 30.0


@dataclass(frozen=True)
class EquivResult:
    verdict: str  # YES / NO / UNKNOWN
    script: MoveScript | None = None
    reason: str = ""


def _canon(g: GridDiagram) -> bytes:
    return grid_canon_key(g.n, g.x, g.o)


def tc_orbit_equal(g1: GridDiagram, g2: GridDiagram) -> bool:
    """Exact translation+commutation orbit equality.

    Bidirectional closure over translation-class keys; a meet proves
    equality, and exhausting either orbit without one proves inequality.
    """
    if g1.n != g2.n:
        return False
    k1, k2 = _canon(g1), _canon(g2)
    if k1 == k2:
        return True
    n = g1.n
    seen = ({k1}, {k2})
    frontiers: list[list[bytes]] = [[k1], [k2]]
    while True:
        side = 0 if len(seen[0]) <= len(seen[1]) else 1
        if not frontiers[side]:
            side = 1 - side
        nxt = []
        for key in frontiers[side]:
            for nb in grid_class_neighbors(n, key):
                if nb in seen[1 - side]:
                    return True
                if nb not in seen[side]:
                    seen[side].add(nb)
                    nxt.append(nb)
        frontiers[side] = nxt
        if not nxt:
            # this orbit is fully enumerated and never met the other
            return False


def _stabilizer_order(n: int, key: bytes) -> int:
    """Number of torus translations that fix the grid with class key ``key``.

    A column shift dc can fix x only with the row shift that carries
    x[dc] back to x[0], so each dc is tested once.
    """
    order = 0
    for dc in range(n):
        dr = key[0] - key[dc]
        rotated = key[dc:n] + key[:dc] + key[n + dc :] + key[n : n + dc]
        order += bytes((v + dr) % n for v in rotated) == key
    return order


def orbit_size(g: GridDiagram, move_class: str = "TC") -> int:
    """Exact number of grids in the translation+commutation orbit.

    Each translation class of n x n grids holds n^2 / |stabilizer| grids
    (orbit-stabilizer), summed over the classes of the TC orbit.
    """
    if move_class != "TC":
        raise UnsupportedClass("orbit_size is defined for the TC class only")
    n = g.n
    return sum(n * n // _stabilizer_order(n, key) for key in tc_class_closure(g))


def _no_reason(g1: GridDiagram, g2: GridDiagram, move_class: str) -> str | None:
    """A class invariant separating g1 from g2, if one is found.

    The checks run cheapest first, and the first that differs is cited:
    the component count (every class); then the grid number (TC); tb,
    then r (L); sl (T); the braid strand count, then the exponent sum and
    cycle type of ``conjugacy_no_reason`` (B); last the link determinant
    (K, L, T and B).  TC skips the determinant, since its search is exact.
    """
    c1, c2 = census(g1).components, census(g2).components
    if c1 != c2:
        return f"components: {c1} vs {c2}"
    if move_class == "TC":
        return f"grid number: {g1.n} vs {g2.n}" if g1.n != g2.n else None
    if move_class == "L":
        i1, i2 = convert.classical_invariants(g1), convert.classical_invariants(g2)
        if i1.tb != i2.tb:
            return f"tb: {i1.tb} vs {i2.tb}"
        if i1.r != i2.r:
            return f"r: {i1.r} vs {i2.r}"
    if move_class == "T":
        s1, s2 = convert.classical_invariants(g1).sl, convert.classical_invariants(g2).sl
        if s1 != s2:
            return f"sl: {s1} vs {s2}"
    if move_class == "B":
        w1, w2 = convert.grid_to_braid(g1), convert.grid_to_braid(g2)
        if w1.strands != w2.strands:
            return f"braid strands: {w1.strands} vs {w2.strands}"
        reason = conjugacy_no_reason(w1, w2)
        if reason is not None:
            return reason
    d1, d2 = convert.determinant(g1), convert.determinant(g2)
    if d1 != d2:
        return f"determinant: {d1} vs {d2}"
    return None


_TC_MOVE_TYPES = (Translate, CommuteRows, CommuteCols)


def _class_moves(g: GridDiagram, corners: tuple[str, ...], max_n: int) -> list[Move]:
    """The class's subset of ``legal_moves(g)``.

    Its X destabilizations come first, since they shrink the state
    space; then translations and commutations; then its X
    stabilizations, while g is below the grid-number cap.
    """
    legal = legal_moves(g)
    out = [m for m in legal if type(m) is Destabilize and m.kind == "X" and m.corner in corners]
    out += [m for m in legal if type(m) in _TC_MOVE_TYPES]
    if g.n < max_n:
        out += [m for m in legal if type(m) is Stabilize and m.kind == "X" and m.corner in corners]
    return out


def equivalent(
    g1: GridDiagram,
    g2: GridDiagram,
    move_class: str,
    budget: SearchBudget | None = None,
) -> EquivResult:
    """Decide equivalence under the chosen move class, within a budget.

    Yes scripts replay from g1 to exactly g2.  No answers cite an
    invariant value pair recomputable by the caller, as ``name: a vs b``.
    The invariants are checked before any search, cheapest first, and
    the first that differs is cited: ``components`` (every class);
    ``grid number`` (TC); ``tb``, then ``r`` (L); ``sl`` (T); ``braid
    strands``, then ``exponent_sum`` and ``cycle_type`` (B); last
    ``determinant`` (K, L, T and B).  A TC No may also come from an
    orbit closure exhausted without a meet.  The search is
    breadth-first from both endpoints with destabilize-first move
    ordering and serialized-state deduplication: a state is its key,
    ``GridDiagram.key()``.  Successors are keyed straight from the marker
    arrays of ``move_markers``, and a grid is rebuilt and validated with
    ``from_key`` only for the states the search expands.
    """
    if move_class not in MOVE_CLASSES:
        raise UnsupportedClass(f"unknown move class {move_class!r}")
    budget = budget or SearchBudget()
    reason = _no_reason(g1, g2, move_class)
    if reason is not None:
        return EquivResult(NO, reason=reason)
    if g1 == g2:
        return EquivResult(YES, script=MoveScript(()))

    corners = _CLASS_CORNERS[move_class]
    max_n = budget.max_grid_number or max(g1.n, g2.n) + 2
    deadline = time.monotonic() + budget.max_seconds

    paths: tuple[dict, dict] = ({g1.key(): ()}, {g2.key(): ()})
    frontiers: list[list[bytes]] = [[g1.key()], [g2.key()]]

    while frontiers[0] or frontiers[1]:
        if not frontiers[0]:
            side = 1
        elif not frontiers[1]:
            side = 0
        else:
            side = 0 if len(paths[0]) <= len(paths[1]) else 1
        nxt: list[bytes] = []
        for key in frontiers[side]:
            g = from_key(key)
            path = paths[side][key]
            for m in _class_moves(g, corners, max_n):
                _, x, o = move_markers(g, m)
                hkey = bytes(x) + bytes(o)
                if hkey in paths[side]:
                    continue
                paths[side][hkey] = path + (m,)
                if hkey in paths[1 - side]:
                    return _assemble(g1, g2, paths, hkey)
                if len(paths[0]) + len(paths[1]) >= budget.max_states:
                    return EquivResult(UNKNOWN, reason="state budget exhausted")
                if time.monotonic() > deadline:
                    return EquivResult(UNKNOWN, reason="time budget exhausted")
                nxt.append(hkey)
        frontiers[side] = nxt
    if move_class == "TC":
        return EquivResult(NO, reason="orbit closure exhausted without a meet")
    return EquivResult(UNKNOWN, reason="move graph exhausted at the grid-number cap")


def _assemble(g1, g2, paths, meet_key) -> EquivResult:
    fwd = paths[0][meet_key]
    bwd = paths[1][meet_key]
    moves = list(fwd)
    # invert the backward path, walking the states it passed through
    states = [g2]
    for m in bwd:
        states.append(apply(states[-1], m))
    for i in range(len(bwd) - 1, -1, -1):
        moves.append(inverse_move(states[i], bwd[i]))
    script = MoveScript(tuple(moves))
    if script.replay(g1) != g2:  # pragma: no cover - soundness guard
        raise GridKnotError("assembled script failed to replay")
    return EquivResult(YES, script=script)
