"""Grid diagram data model, validation, census, and text formats.

A grid diagram of size n places one X and one O in each row and column
of an n x n board, no two in the same square.  Rows are indexed 0..n-1
from the bottom, columns 0..n-1 from the left, so "N" means a larger
row index and "E" a larger column index.  The encoded link runs from O
to X in each row and from X to O in each column, with vertical segments
crossing over horizontal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from gridknot.errors import BadLength, GridSyntaxError, NotPermutation, SharedSquare


@dataclass(frozen=True)
class GridDiagram:
    """Immutable marker placement: ``x[c]``/``o[c]`` is the row of the X/O in column c."""

    n: int
    x: tuple[int, ...]
    o: tuple[int, ...]

    def x_inverse(self) -> tuple[int, ...]:
        """Column of the X in each row."""
        inv = [0] * self.n
        for c, r in enumerate(self.x):
            inv[r] = c
        return tuple(inv)

    def o_inverse(self) -> tuple[int, ...]:
        """Column of the O in each row."""
        inv = [0] * self.n
        for c, r in enumerate(self.o):
            inv[r] = c
        return tuple(inv)

    def key(self) -> bytes:
        """Compact serialization used for search-state deduplication; ``from_key`` inverts it."""
        return bytes(self.x) + bytes(self.o)


class Crossing(NamedTuple):
    col: int
    row: int
    sign: int


@dataclass(frozen=True)
class GridCensus:
    """Component count, signed crossing list, and segment orientations."""

    components: int
    crossings: tuple[Crossing, ...]
    row_rightward: tuple[bool, ...]  # row's O lies left of its X
    col_upward: tuple[bool, ...]     # column's X lies below its O

    @property
    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)


def validate(n: int, x: Sequence[int], o: Sequence[int]) -> GridDiagram:
    """Check the grid invariants and return an immutable diagram.

    Raises BadLength, NotPermutation, or SharedSquare.
    """
    if n < 1:
        raise BadLength(f"grid number must be positive, got {n}")
    x = tuple(int(v) for v in x)
    o = tuple(int(v) for v in o)
    if len(x) != n or len(o) != n:
        raise BadLength(f"expected {n} entries, got {len(x)} X rows and {len(o)} O rows")
    for name, seq in (("X", x), ("O", o)):
        if sorted(seq) != list(range(n)):
            raise NotPermutation(f"{name} rows {list(seq)} are not a permutation of 0..{n - 1}")
    for c in range(n):
        if x[c] == o[c]:
            raise SharedSquare(f"column {c} has X and O in the same row {x[c]}")
    return GridDiagram(n, x, o)


def from_key(key: bytes) -> GridDiagram:
    """The validated grid whose ``key()`` is ``key``.

    Raises BadLength, NotPermutation, or SharedSquare, as ``validate``
    does, when ``key`` is not the key of a grid.
    """
    n = len(key) // 2
    return validate(n, key[:n], key[n:])


def census(g: GridDiagram) -> GridCensus:
    """Count link components and list signed crossings.

    Components are the cycles of the column map c -> x^-1(o(c)), i.e.
    following the link from one vertical segment to the next.  A crossing
    occurs where a vertical segment strictly spans a row whose horizontal
    segment strictly spans that column; the vertical strand is the
    over-strand, and the sign is +1 when (over-tangent, under-tangent) is
    a positively oriented frame.
    """
    n = g.n
    x_inv = g.x_inverse()
    o_inv = g.o_inverse()

    seen = [False] * n
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        c = start
        while not seen[c]:
            seen[c] = True
            c = x_inv[g.o[c]]

    row_rightward = tuple(o_inv[r] < x_inv[r] for r in range(n))
    col_upward = tuple(g.x[c] < g.o[c] for c in range(n))

    crossings = []
    for c in range(n):
        rlo, rhi = min(g.x[c], g.o[c]), max(g.x[c], g.o[c])
        for r in range(rlo + 1, rhi):
            clo, chi = min(x_inv[r], o_inv[r]), max(x_inv[r], o_inv[r])
            if clo < c < chi:
                # over-tangent: (0, +-1); under-tangent: (+-1, 0)
                over = 1 if col_upward[c] else -1
                under = 1 if row_rightward[r] else -1
                crossings.append(Crossing(c, r, -over * under))
    return GridCensus(components, tuple(crossings), row_rightward, col_upward)


def serialize(g: GridDiagram) -> str:
    """Canonical text form: grid number, then the X and O row lists."""
    return (
        f"{g.n}\n"
        f"X: {' '.join(str(r) for r in g.x)}\n"
        f"O: {' '.join(str(r) for r in g.o)}\n"
    )


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse(text: str) -> GridDiagram:
    """Parse either the header format of serialize() or a character matrix.

    The matrix alternative is n lines over {., X, O} with the top row
    first; spaces between cells are ignored.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if stripped.strip():
            lines.append((lineno, stripped))
    if not lines:
        raise GridSyntaxError("empty input", line=1, column=1)

    first = lines[0][1].strip()
    if first.isdigit():
        return _parse_header(lines)
    return _parse_matrix(lines)


def _parse_header(lines: list[tuple[int, str]]) -> GridDiagram:
    lineno, header = lines[0]
    n = int(header.strip())
    rows = {}
    for want in ("X", "O"):
        idx = 1 if want == "X" else 2
        if idx >= len(lines):
            raise GridSyntaxError(f"missing {want} line", line=lineno + idx, column=1)
        lineno, body = lines[idx]
        label, _, rest = body.partition(":")
        if label.strip() != want:
            raise GridSyntaxError(f"expected '{want}:' line", line=lineno, column=1)
        try:
            rows[want] = [int(tok) for tok in rest.split()]
        except ValueError:
            raise GridSyntaxError(f"non-integer entry in {want} line", line=lineno, column=1) from None
    if len(lines) > 3:
        raise GridSyntaxError("trailing content after O line", line=lines[3][0], column=1)
    return validate(n, rows["X"], rows["O"])


def _parse_matrix(lines: list[tuple[int, str]]) -> GridDiagram:
    n = len(lines)
    x: list[int | None] = [None] * n
    o: list[int | None] = [None] * n
    for i, (lineno, body) in enumerate(lines):
        cells = body.replace(" ", "").replace("\t", "")
        if len(cells) != n:
            raise GridSyntaxError(
                f"matrix row has {len(cells)} cells, expected {n}", line=lineno, column=1
            )
        r = n - 1 - i  # rows are stored bottom-up, presented top-down
        for c, ch in enumerate(cells):
            if ch == ".":
                continue
            if ch == "X":
                if x[c] is not None:
                    raise GridSyntaxError(f"column {c} has two X's", line=lineno, column=c + 1)
                x[c] = r
            elif ch == "O":
                if o[c] is not None:
                    raise GridSyntaxError(f"column {c} has two O's", line=lineno, column=c + 1)
                o[c] = r
            else:
                raise GridSyntaxError(f"unexpected cell {ch!r}", line=lineno, column=c + 1)
    for c in range(n):
        if x[c] is None or o[c] is None:
            raise GridSyntaxError(f"column {c} is missing a marker", line=lines[-1][0], column=1)
    return validate(n, x, o)  # type: ignore[arg-type]


def render_ascii(g: GridDiagram) -> str:
    """Render the board as n text rows, top row first."""
    out = []
    for r in range(g.n - 1, -1, -1):
        cells = []
        for c in range(g.n):
            if g.x[c] == r:
                cells.append("X")
            elif g.o[c] == r:
                cells.append("O")
            else:
                cells.append(".")
        out.append(" ".join(cells))
    return "\n".join(out)
