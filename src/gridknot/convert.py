"""Conversions between grids, braids, and front invariants.

Reading a braid off a grid: rows whose X lies left of their O wrap
around the back of the diagram and become the braid strands; every
other row is an interior segment.  Sweeping the columns left to right,
each vertical segment moves the strand at height x[c] to height o[c],
passing over everything in between.  A strand dropping past others
emits positive generators, one rising emits negatives ("top strand over,
left to right" sign convention, strands numbered top to bottom).

The reverse map expands each braid letter into a one-crossing
rectilinear template on fresh rows, with silent detours parking every
strand off its entry row at the start and restoring it at the end, so
reading the resulting grid reproduces the input word letter for letter.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from gridknot.braid import BraidWord
from gridknot.errors import MalformedDiagram
from gridknot.grid import GridDiagram, census, validate
from gridknot.moves import symmetry


@dataclass(frozen=True)
class RectilinearBraidDiagram:
    """Horizontal/vertical tangle with rightward strands, verticals in front."""

    strand_count: int
    entry_heights: tuple[int, ...]
    events: tuple[tuple[int, int], ...]  # (from-height, to-height), left to right


@dataclass(frozen=True)
class FrontData:
    """Cusp and crossing census of the front obtained by a 45-degree turn."""

    right_cusps: int
    left_cusps: int
    up_cusps: int
    down_cusps: int
    writhe: int


@dataclass(frozen=True)
class ClassicalInvariants:
    tb: int
    r: int
    sl: int


def grid_to_rectilinear(g: GridDiagram) -> RectilinearBraidDiagram:
    """Reroute leftward rows into wrap strands; verticals become events."""
    x_inv, o_inv = g.x_inverse(), g.o_inverse()
    wrap = tuple(r for r in range(g.n) if x_inv[r] < o_inv[r])
    if not wrap:
        # impossible for a valid grid: the signed column offsets sum to zero
        raise MalformedDiagram("grid has no leftward row")
    events = tuple((g.x[c], g.o[c]) for c in range(g.n))
    return RectilinearBraidDiagram(len(wrap), wrap, events)


def rectilinear_to_word(r: RectilinearBraidDiagram) -> BraidWord:
    """Sweep events left to right, emitting generators per strand jump."""
    if r.strand_count < 1:
        raise MalformedDiagram("strand count must be positive")
    active = sorted(r.entry_heights)
    if len(active) != r.strand_count or len(set(active)) != r.strand_count:
        raise MalformedDiagram("entry heights must be distinct and match the strand count")
    letters: list[int] = []
    for h_from, h_to in r.events:
        if h_from not in active:
            raise MalformedDiagram(f"no strand at height {h_from}")
        if h_to in active:
            raise MalformedDiagram(f"height {h_to} already occupied")
        p = len(active) - active.index(h_from)  # braid position, top = 1
        active.remove(h_from)
        insort(active, h_to)
        q = len(active) - active.index(h_to)
        if q > p:
            letters.extend(range(p, q))
        else:
            letters.extend(range(-(p - 1), -q + 1))
    return BraidWord(r.strand_count, tuple(letters))


def grid_to_braid(g: GridDiagram) -> BraidWord:
    return rectilinear_to_word(grid_to_rectilinear(g))


def braid_to_grid(w: BraidWord) -> GridDiagram:
    """Rectilinear template construction; satisfies grid_to_braid(result) == w.

    Levels are identified by ids in a bottom-to-top order list; fresh
    levels inserted adjacent to an existing one are never strictly
    separated from it by an active strand, so detour events emit no
    letters and each input letter yields exactly one generator.
    """
    n = w.strands
    levels: list = [("entry", j) for j in range(n, 0, -1)]  # bottom to top
    cur = [("entry", j) for j in range(1, n + 1)]  # strand levels, top to bottom
    events: list[tuple] = []  # (from-level, to-level) per column
    fresh = 0

    def insert_below(ref) -> tuple:
        nonlocal fresh
        lid = ("seg", fresh)
        fresh += 1
        levels.insert(levels.index(ref), lid)
        return lid

    def insert_above(ref) -> tuple:
        nonlocal fresh
        lid = ("seg", fresh)
        fresh += 1
        levels.insert(levels.index(ref) + 1, lid)
        return lid

    # Park every strand in a zone strictly below the bottom entry row,
    # bottom strand first; each hop passes no active strand, and later
    # letter levels stay inside the zone, so the returns are silent too.
    park_top = None
    for idx in range(n - 1, -1, -1):
        tgt = insert_below(("entry", n)) if park_top is None else insert_above(park_top)
        events.append((cur[idx], tgt))
        cur[idx] = tgt
        park_top = tgt

    for k in w.letters:
        i = abs(k)
        a, b = cur[i - 1], cur[i]
        if k > 0:
            tgt = insert_below(b)  # upper strand dives just under its neighbor
            events.append((a, tgt))
            cur[i - 1], cur[i] = b, tgt
        else:
            tgt = insert_above(a)  # lower strand climbs just over its neighbor
            events.append((b, tgt))
            cur[i - 1], cur[i] = tgt, a

    for j in range(1, n + 1):  # top strand first: silent returns to entry rows
        events.append((cur[j - 1], ("entry", j)))
        cur[j - 1] = ("entry", j)

    row_of = {lid: i for i, lid in enumerate(levels)}
    x = [0] * len(events)
    o = [0] * len(events)
    for c, (l_from, l_to) in enumerate(events):
        x[c] = row_of[l_from]
        o[c] = row_of[l_to]
    return validate(len(events), x, o)


_DIRECTION_ALIASES = {
    "right": "right", "->": "right", "→": "right",
    "up": "up", "^": "up", "↑": "up",
    "left": "left", "<-": "left", "←": "left",
    "down": "down", "v": "down", "↓": "down",
}


def directional_braid(g: GridDiagram, direction: str) -> BraidWord:
    """Read the braid rightward, or in another direction via a symmetry."""
    d = _DIRECTION_ALIASES.get(direction)
    if d is None:
        raise MalformedDiagram(f"unknown direction {direction!r}")
    if d == "right":
        return grid_to_braid(g)
    if d == "left":
        return grid_to_braid(symmetry(g, "S1"))
    if d == "up":
        return grid_to_braid(symmetry(g, "S2"))
    return grid_to_braid(symmetry(symmetry(g, "S2"), "S1"))


def mirror_word(w: BraidWord) -> BraidWord:
    """Replace every letter by its inverse."""
    return BraidWord(w.strands, tuple(-k for k in w.letters))


def reverse_word(w: BraidWord) -> BraidWord:
    """The word read backwards."""
    return BraidWord(w.strands, tuple(reversed(w.letters)))


def grid_to_front(g: GridDiagram) -> FrontData:
    """Classify marker corners after the 45-degree counterclockwise turn.

    A corner whose two incident segments leave to the north and west
    becomes a right cusp, south-and-east a left cusp; the other two
    shapes smooth out.  Orientation at the corner (rows run O to X,
    columns X to O) decides whether a cusp is traversed upward or
    downward.  Crossings and their signs survive the rotation unchanged.
    """
    x_inv, o_inv = g.x_inverse(), g.o_inverse()
    right = left = up = down = 0
    for c in range(g.n):
        r = g.x[c]
        rays = {
            "E" if o_inv[r] > c else "W",  # along the row, toward this row's O
            "N" if g.o[c] > r else "S",    # along the column, toward this column's O
        }
        if rays == {"N", "W"}:
            right += 1
            up += 1  # enters eastward along the row, exits north
        elif rays == {"S", "E"}:
            left += 1
            down += 1  # enters westward, exits south

        r = g.o[c]
        rays = {
            "E" if x_inv[r] > c else "W",
            "N" if g.x[c] > r else "S",
        }
        if rays == {"N", "W"}:
            right += 1
            down += 1  # enters southward along the column, exits west
        elif rays == {"S", "E"}:
            left += 1
            up += 1  # enters northward, exits east
    return FrontData(right, left, up, down, census(g).writhe)


def classical_invariants(g: GridDiagram) -> ClassicalInvariants:
    """(tb, r, sl) of the front; reported for the whole diagram on links.

    tb counts writhe minus right cusps; the rotation number is half the
    signed cusp count, oriented so that an X:NW stabilization raises it
    by one; sl is their difference.
    """
    f = grid_to_front(g)
    tb = f.writhe - f.right_cusps
    rot = (f.down_cusps - f.up_cusps) // 2
    return ClassicalInvariants(tb, rot, tb - rot)


def determinant(g: GridDiagram) -> int:
    """The link determinant |Δ(−1)|, from the grid's winding-number matrix.

    Manolescu–Ozsváth–Sarkar: the n x n matrix M(i, j) = t^(−w(i, j)),
    where w(i, j) is the winding number of the link around the lattice
    point on column line i and row line j, has det M = ±t^a (1−t)^(n−1)
    Δ(t).  At t = −1 an entry is the parity of w, read off the vertical
    segments left of the point, so |Δ(−1)| = |det M| / 2^(n−1).  It is 0
    on split links, and 1 on the unknot.
    """
    n = g.n
    spans = [sorted((g.x[c], g.o[c])) for c in range(n)]
    m = []
    for j in range(n):
        row, sign = [], 1
        for lo, hi in spans:
            row.append(sign)
            if lo < j <= hi:  # the vertical segment of this column crosses row line j
                sign = -sign
        m.append(row)
    return _abs_det(m) >> (n - 1)


def _abs_det(m: list[list[int]]) -> int:
    """|det m| of a square integer matrix by fraction-free (Bareiss) elimination; m is overwritten."""
    n = len(m)
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * pivot_row[j]) // prev
        prev = pivot
    return abs(m[-1][-1])


def sl_from_braid(w: BraidWord) -> int:
    """Self-linking of the braid closure: exponent sum minus strand count."""
    return sum(1 if k > 0 else -1 for k in w.letters) - w.strands
