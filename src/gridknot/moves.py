"""Cromwell moves: translations, commutations, (de)stabilizations, symmetries.

Stabilization splits a marker into a 2x2 block: the split marker at
(r, c) is removed, a new row is inserted above r and a new column to the
right of c, two markers of the split kind go on the block diagonal
avoiding the named corner, and one marker of the opposite kind goes on
the corner diagonally opposite the empty one.  The displaced row and
column partners move to whichever of the two new rows/columns does not
already hold an opposite-kind marker -- the unique relocation that keeps
one X and one O per line.  Destabilization is the exact inverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Sequence, Union

from gridknot._kernels import grid_canon_key, grid_class_neighbors
from gridknot._kernels.pure import intervals_commute
from gridknot.errors import (
    GridKnotError,
    GridSyntaxError,
    IllegalCommutation,
    IndexOutOfRange,
    NoSuchBlock,
    NotPermutation,
)
from gridknot.grid import GridDiagram, validate

CORNERS = ("NW", "NE", "SW", "SE")
OPPOSITE_CORNER = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
# An O stabilization of each type matches one X type: the opposite corner.
PAIRED_X_CORNER = OPPOSITE_CORNER
DIRECTIONS = ("U", "D", "L", "R")
SYMMETRIES = ("S1", "S2", "S3", "S4")


@dataclass(frozen=True)
class Translate:
    direction: str  # U, D, L, R


@dataclass(frozen=True)
class CommuteRows:
    row: int  # swaps rows (row, row+1)


@dataclass(frozen=True)
class CommuteCols:
    col: int  # swaps columns (col, col+1)


@dataclass(frozen=True)
class Stabilize:
    kind: str    # X or O: which marker is split
    corner: str  # corner of the 2x2 block left empty
    col: int     # column of the marker being split


@dataclass(frozen=True)
class Destabilize:
    kind: str
    corner: str
    row: int  # lower-left cell of the 2x2 block
    col: int


Move = Union[Translate, CommuteRows, CommuteCols, Stabilize, Destabilize]


# A move's result as raw marker arrays (n, x, o); ``apply`` validates it.
Markers = tuple[int, Sequence[int], Sequence[int]]


def _translate(g: GridDiagram, direction: str) -> Markers:
    n, x, o = g.n, g.x, g.o
    if direction == "U":
        return n, [(r + 1) % n for r in x], [(r + 1) % n for r in o]
    if direction == "D":
        return n, [(r - 1) % n for r in x], [(r - 1) % n for r in o]
    if direction == "L":
        return n, x[1:] + x[:1], o[1:] + o[:1]
    if direction == "R":
        return n, x[-1:] + x[:-1], o[-1:] + o[:-1]
    raise GridKnotError(f"unknown translation direction {direction!r}")


def _commute_rows(g: GridDiagram, r: int) -> Markers:
    if not 0 <= r <= g.n - 2:
        raise IndexOutOfRange(f"row pair ({r}, {r + 1}) out of range for n={g.n}")
    x_inv, o_inv = g.x_inverse(), g.o_inverse()
    if not intervals_commute(x_inv[r], o_inv[r], x_inv[r + 1], o_inv[r + 1]):
        raise IllegalCommutation(f"rows {r}, {r + 1} interleave")
    # swap the row values r and r+1
    return g.n, [v + (v == r) - (v == r + 1) for v in g.x], [v + (v == r) - (v == r + 1) for v in g.o]


def _commute_cols(g: GridDiagram, c: int) -> Markers:
    if not 0 <= c <= g.n - 2:
        raise IndexOutOfRange(f"column pair ({c}, {c + 1}) out of range for n={g.n}")
    if not intervals_commute(g.x[c], g.o[c], g.x[c + 1], g.o[c + 1]):
        raise IllegalCommutation(f"columns {c}, {c + 1} interleave")
    x = list(g.x)
    o = list(g.o)
    x[c], x[c + 1] = x[c + 1], x[c]
    o[c], o[c + 1] = o[c + 1], o[c]
    return g.n, x, o


def _block_cells(r: int, c: int) -> dict[str, tuple[int, int]]:
    return {"NW": (r + 1, c), "NE": (r + 1, c + 1), "SW": (r, c), "SE": (r, c + 1)}


def _column_of(markers: Sequence[int], row: int) -> int:
    """The column of the marker of ``markers`` in ``row``."""
    try:
        return markers.index(row)
    except ValueError:
        raise NotPermutation(f"no marker in row {row} of {list(markers)}") from None


def _stabilize(g: GridDiagram, kind: str, corner: str, col: int) -> Markers:
    if corner not in CORNERS:
        raise GridKnotError(f"unknown corner {corner!r}")
    if not 0 <= col < g.n:
        raise IndexOutOfRange(f"column {col} out of range for n={g.n}")
    c = col
    chosen_old, other_old = (g.x, g.o) if kind == "X" else (g.o, g.x)
    r = chosen_old[c]
    row_partner_col = _column_of(other_old, r)
    # open row r+1 and column c+1: the rows above r move up by one
    chosen = [v + (v > r) for v in chosen_old]
    other = [v + (v > r) for v in other_old]
    col_partner_row = other[c]
    chosen.insert(c + 1, r)
    other.insert(c + 1, r)

    north, west = corner[0] == "N", corner[1] == "W"
    # the split kind goes on the block diagonal that avoids the empty corner
    chosen[c], chosen[c + 1] = (r, r + 1) if north == west else (r + 1, r)
    anti_r, anti_c = (r if north else r + 1), (c + 1 if west else c)
    other[anti_c] = anti_r
    # the partners of the split marker take the free block column and row
    other[2 * c + 1 - anti_c] = col_partner_row
    other[row_partner_col + (row_partner_col > c)] = 2 * r + 1 - anti_r
    return (g.n + 1, chosen, other) if kind == "X" else (g.n + 1, other, chosen)


def _cell_content(g: GridDiagram, rr: int, cc: int) -> str | None:
    if g.x[cc] == rr:
        return "X"
    if g.o[cc] == rr:
        return "O"
    return None


def _destabilize(g: GridDiagram, kind: str, corner: str, row: int, col: int) -> Markers:
    if corner not in CORNERS:
        raise GridKnotError(f"unknown corner {corner!r}")
    n = g.n
    r, c = row, col
    if not (0 <= r <= n - 2 and 0 <= c <= n - 2):
        raise IndexOutOfRange(f"block at ({r}, {c}) out of range for n={n}")
    other_kind = "O" if kind == "X" else "X"
    cells = _block_cells(r, c)
    anti = OPPOSITE_CORNER[corner]
    for t in CORNERS:
        want = None if t == corner else other_kind if t == anti else kind
        if _cell_content(g, *cells[t]) != want:
            raise NoSuchBlock(f"no {kind}:{corner} block with lower-left cell ({r}, {c})")

    chosen_old, other_old = (g.x, g.o) if kind == "X" else (g.o, g.x)
    anti_r, anti_c = cells[anti]
    row_partner_col = _column_of(other_old, 2 * r + 1 - anti_r)
    # close row r+1 and column c+1: outside the block no marker sits in
    # rows r or r+1 but the row partner, which moves to row r
    chosen = [v - (v > r) for v in chosen_old]
    other = [v - (v > r) for v in other_old]
    chosen[c] = r
    other[row_partner_col] = r
    other[c] = other[2 * c + 1 - anti_c]  # the column partner
    del chosen[c + 1], other[c + 1]
    return (n - 1, chosen, other) if kind == "X" else (n - 1, other, chosen)


def move_markers(g: GridDiagram, move: Move) -> Markers:
    """The raw marker arrays (n, x, o) that ``move`` gives on g, unvalidated.

    Raises if the move is not legal on g, or if ``type(move)`` is not
    one of the five move types.  ``apply`` validates the result;
    ``equiv.equivalent`` keys its search states straight from it.
    """
    markers = _MOVE_MARKERS.get(type(move))
    if markers is None:
        raise GridKnotError(f"unknown move {move!r}")
    return markers(g, move)


# One lookup on the exact move type: the search calls ``move_markers`` for
# every edge, and most edges are stabilizations.
_MOVE_MARKERS = {
    Stabilize: lambda g, m: _stabilize(g, m.kind, m.corner, m.col),
    Destabilize: lambda g, m: _destabilize(g, m.kind, m.corner, m.row, m.col),
    Translate: lambda g, m: _translate(g, m.direction),
    CommuteRows: lambda g, m: _commute_rows(g, m.row),
    CommuteCols: lambda g, m: _commute_cols(g, m.col),
}


def apply(g: GridDiagram, move: Move) -> GridDiagram:
    """Apply a single move, raising if it is not legal on g.

    Every result is validated, so ``apply`` never returns a grid that
    breaks the grid invariants, even from a g built without ``validate``.
    """
    return validate(*move_markers(g, move))


def inverse_move(g_before: GridDiagram, move: Move) -> Move:
    """The move undoing ``move``, given the grid it was applied to."""
    if isinstance(move, Translate):
        flip = {"U": "D", "D": "U", "L": "R", "R": "L"}
        return Translate(flip[move.direction])
    if isinstance(move, (CommuteRows, CommuteCols)):
        return move
    if isinstance(move, Stabilize):
        r = g_before.x[move.col] if move.kind == "X" else g_before.o[move.col]
        return Destabilize(move.kind, move.corner, r, move.col)
    if isinstance(move, Destabilize):
        return Stabilize(move.kind, move.corner, move.col)
    raise GridKnotError(f"unknown move {move!r}")


def _tc_moves(g: GridDiagram) -> list[Move]:
    """Translations U, D, L, R, then the legal row and the legal column commutations."""
    out: list[Move] = [Translate(d) for d in DIRECTIONS]
    x_inv, o_inv = g.x_inverse(), g.o_inverse()
    for r in range(g.n - 1):
        if intervals_commute(x_inv[r], o_inv[r], x_inv[r + 1], o_inv[r + 1]):
            out.append(CommuteRows(r))
    for c in range(g.n - 1):
        if intervals_commute(g.x[c], g.o[c], g.x[c + 1], g.o[c + 1]):
            out.append(CommuteCols(c))
    return out


def _destabilizations(g: GridDiagram, kind: str) -> list[Destabilize]:
    """Every legal ``kind`` destabilization of g, by corner, then row.

    Each row holds one ``kind`` marker, so at most one 2x2 block has its
    lower edge on row r: the one whose diagonal holds the ``kind``
    markers of rows r and r+1, when their columns are adjacent.  The
    block is a site for the off-diagonal corner that is empty while the
    corner opposite it holds a marker of the other kind.
    """
    other_kind = "O" if kind == "X" else "X"
    inv = g.x_inverse() if kind == "X" else g.o_inverse()
    out: list[Destabilize] = []
    for r in range(g.n - 1):
        if abs(inv[r] - inv[r + 1]) != 1:
            continue
        c = min(inv[r], inv[r + 1])
        cells = _block_cells(r, c)
        for corner in CORNERS:
            anti = cells[OPPOSITE_CORNER[corner]]
            if _cell_content(g, *cells[corner]) is None and _cell_content(g, *anti) == other_kind:
                out.append(Destabilize(kind, corner, r, c))
    return sorted(out, key=lambda m: CORNERS.index(m.corner))


def legal_moves(g: GridDiagram) -> list[Move]:
    """All moves applicable to g, in a fixed deterministic order.

    The order is: translations U, D, L, R; the legal row commutations,
    by row; the legal column commutations, by column; all 8n
    stabilizations, by kind (X, O), corner (NW, NE, SW, SE) and column;
    the legal destabilizations, by kind, corner, row and column.
    ``equiv.equivalent`` expands its search states with subsets of this
    list taken in this order, so its YES scripts depend on the order.
    """
    return [*_tc_moves(g), *_stabilizations(g.n), *_destabilizations(g, "X"), *_destabilizations(g, "O")]


@cache
def _stabilizations(n: int) -> tuple[Stabilize, ...]:
    """The 8n stabilizations of an n x n grid, by kind, corner and column; all are legal."""
    return tuple(Stabilize(kind, corner, c) for kind in ("X", "O") for corner in CORNERS for c in range(n))


def symmetry(g: GridDiagram, s: str) -> GridDiagram:
    """Apply one of the four grid symmetries (each an involution).

    S1 rotates 180 degrees; S2 reflects about the main (NE-SW) diagonal
    and swaps X with O; S3 reflects across the horizontal axis; S4
    rotates 180 degrees and swaps X with O.
    """
    n = g.n
    s = s.upper()
    if s == "S1":
        return GridDiagram(
            n,
            tuple(n - 1 - g.x[n - 1 - c] for c in range(n)),
            tuple(n - 1 - g.o[n - 1 - c] for c in range(n)),
        )
    if s == "S2":
        return GridDiagram(n, g.o_inverse(), g.x_inverse())
    if s == "S3":
        return GridDiagram(n, tuple(n - 1 - r for r in g.x), tuple(n - 1 - r for r in g.o))
    if s == "S4":
        return GridDiagram(
            n,
            tuple(n - 1 - g.o[n - 1 - c] for c in range(n)),
            tuple(n - 1 - g.x[n - 1 - c] for c in range(n)),
        )
    raise GridKnotError(f"unknown symmetry {s!r}")


_STAB_IMAGE = {
    "S1": {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"},
    "S2": {"NW": "NW", "SE": "SE", "NE": "SW", "SW": "NE"},
    "S3": {"NW": "SW", "SW": "NW", "NE": "SE", "SE": "NE"},
    "S4": {"NW": "NW", "NE": "NE", "SW": "SW", "SE": "SE"},
}


def stab_type_image(s: str, corner: str) -> str:
    """How a symmetry permutes the four X-stabilization types."""
    return _STAB_IMAGE[s.upper()][corner]


def symmetry_marker_image(g: GridDiagram, s: str, kind: str, col: int) -> tuple[str, int]:
    """Where the marker of ``kind`` in ``col`` lands under a symmetry.

    Returns (kind, column) of the image marker; S2 and S4 swap kinds.
    """
    n = g.n
    r = g.x[col] if kind == "X" else g.o[col]
    s = s.upper()
    other = "O" if kind == "X" else "X"
    if s == "S1":
        return kind, n - 1 - col
    if s == "S2":
        return other, r
    if s == "S3":
        return kind, col
    if s == "S4":
        return other, n - 1 - col
    raise GridKnotError(f"unknown symmetry {s!r}")


@dataclass(frozen=True)
class MoveScript:
    """Replayable sequence of moves; each must be legal where it lands."""

    moves: tuple[Move, ...]

    def replay(self, g: GridDiagram) -> GridDiagram:
        for m in self.moves:
            g = apply(g, m)
        return g

    def states(self, g: GridDiagram) -> Iterator[GridDiagram]:
        yield g
        for m in self.moves:
            g = apply(g, m)
            yield g


def serialize_script(script: MoveScript) -> str:
    lines = []
    for m in script.moves:
        if isinstance(m, Translate):
            lines.append("T" + m.direction)
        elif isinstance(m, CommuteRows):
            lines.append(f"CR {m.row}")
        elif isinstance(m, CommuteCols):
            lines.append(f"CC {m.col}")
        elif isinstance(m, Stabilize):
            lines.append(f"S{m.kind} {m.corner} {m.col}")
        elif isinstance(m, Destabilize):
            lines.append(f"D{m.kind} {m.corner} {m.row} {m.col}")
        else:
            raise GridKnotError(f"unknown move {m!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_script(text: str) -> MoveScript:
    moves: list[Move] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pos = raw.find("#")
        line = (raw if pos < 0 else raw[:pos]).strip()
        if not line:
            continue
        tok = line.split()
        try:
            moves.append(_parse_move(tok))
        except (ValueError, KeyError, IndexError):
            raise GridSyntaxError(f"bad move {line!r}", line=lineno, column=1) from None
    return MoveScript(tuple(moves))


def _parse_move(tok: list[str]) -> Move:
    head = tok[0].upper()
    if head in ("TU", "TD", "TL", "TR"):
        if len(tok) != 1:
            raise ValueError("trailing tokens")
        return Translate(head[1])
    if head == "CR":
        return CommuteRows(int(tok[1]))
    if head == "CC":
        return CommuteCols(int(tok[1]))
    if head in ("SX", "SO"):
        corner = tok[1].upper()
        if corner not in CORNERS:
            raise ValueError(corner)
        return Stabilize(head[1], corner, int(tok[2]))
    if head in ("DX", "DO"):
        corner = tok[1].upper()
        if corner not in CORNERS:
            raise ValueError(corner)
        return Destabilize(head[1], corner, int(tok[2]), int(tok[3]))
    raise ValueError(head)


def tc_class_closure(g: GridDiagram) -> set[bytes]:
    """All translation-class keys in the translation+commutation orbit of g."""
    start = grid_canon_key(g.n, g.x, g.o)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for k in frontier:
            for nb in grid_class_neighbors(g.n, k):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return seen


def o_stab_script(g: GridDiagram, corner: str, col: int) -> MoveScript:
    """Express an O stabilization as translations, commutations, and one X move.

    The returned script, replayed on g, lands in the same
    translation-commutation orbit as the direct O stabilization, and its
    single stabilization is the paired X type (the opposite corner).
    Found by breadth-first search over the orbit of g, trying the paired
    X stabilization from each translation class.
    """
    if not 0 <= col < g.n:
        raise IndexOutOfRange(f"column {col} out of range for n={g.n}")
    target = apply(g, Stabilize("O", corner, col))
    target_classes = tc_class_closure(target)
    paired = PAIRED_X_CORNER[corner]

    start_key = g.key()
    paths: dict[bytes, tuple[Move, ...]] = {start_key: ()}
    queue = deque([g])
    checked: set[bytes] = set()
    while queue:
        h = queue.popleft()
        hkey = h.key()
        ck = grid_canon_key(h.n, h.x, h.o)
        if ck not in checked:
            checked.add(ck)
            for p in range(h.n):
                if grid_canon_key(*_stabilize(h, "X", paired, p)) in target_classes:
                    return MoveScript(paths[hkey] + (Stabilize("X", paired, p),))
        for m in _tc_moves(h):
            h2 = apply(h, m)
            k2 = h2.key()
            if k2 not in paths:
                paths[k2] = paths[hkey] + (m,)
                queue.append(h2)
    raise GridKnotError("no paired X stabilization found; orbit search exhausted")
