"""Seeded query corpora for the three workloads, with their ground truth.

Every grid, word and move sequence is drawn here with ``random.Random``
and the candidate-move lists below, never with ``gridknot.suites`` or
the order of ``legal_moves``.  gridknot is used only through its
documented behaviour: ``apply`` performs a named move, ``braid_to_grid``
builds a grid of a braid, ``symmetry`` and friends compute the
symmetry images, and ``serialize``/``format_word`` write the text that
the timed process parses back.

Ground truth is fixed by construction where it can be:

* replaying moves of a class gives a YES pair of that class;
* one stabilization outside the class changes an invariant of the class
  (X:NW changes tb, r and sl; X:SW changes the braid strand count; any
  stabilization changes the grid number), so the pair is NO;
* X:NW and X:NE stabilizations of one grid differ in tb, and so do
  X:SE and X:SW, while translations and commutations keep tb: NO for TC;
* conjugation, positive stabilization and exchange give YES braid pairs;
  a differing exponent sum, cycle type or exponent sum minus strands
  gives NO.

Where construction does not fix it, ``truth`` computes it: Burau traces
for 3-strand non-conjugacy, raw-grid orbits for orbit sizes.

The queries that search exhaustively or to their budget start from
inputs fixed apart from the run's seed: the knots of the K pairs, the
base grids of the TC NO pairs and orbit sizes (``bases.py``, drawn from
``BASE_SEED`` with orbits of one size), and the 3-strand non-conjugate
pairs (drawn from ``BASE_SEED``).  The run's seed only moves them to
other representatives: TC scrambles of the grids, rotations of the
words.  The Markov stabilization pairs are drawn from ``BASE_SEED`` as
well (see ``braid_oracles``).  Their cost is the size of an orbit or a budget, so the cost of
a corpus is the same for every seed.  Every other query is drawn from
the run's seed.
"""

from __future__ import annotations

import random

from gridknot import braid, convert, grid, moves

import bases
import truth

BASE_SEED = 8123665
# raw grids in the orbits of the stored TC grids: NO pairs at n=5, orbit sizes at n=6
TC_NO_BAND = (450, 500)
TC_SIZE_BAND = (380, 440)
CORNERS = ("NW", "NE", "SW", "SE")
OPPOSITE = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
CLASS_CORNERS = {
    "K": ("NW", "NE", "SW", "SE"),
    "L": ("NE", "SW"),
    "T": ("NE", "SW", "SE"),
    "B": ("NE", "SE"),
    "TC": (),
}
# the X stabilization that leaves each class (TC: any corner)
OUTSIDE_STAB = {"L": "NW", "T": "NW", "B": "SW", "TC": None}

# Budgets are counted in states and depth only.  max_seconds is an hour:
# a run ends long before, so the time budget can never end a search.
EQUIV_BUDGET = {"max_grid_number": 0, "max_states": 500, "max_seconds": 3600.0}
CONJ_BUDGET = {"max_depth": 12, "max_states": 200}
MARKOV_BUDGET = {"max_depth": 8, "max_states": 6000}

# Two pairs that are YES by construction (seed 0 exchange pair #39 and
# seed 1 conjugated stabilization #21 of ``gridknot verify --suite
# markov``), on which markov_oracle answers UNKNOWN at depth 8.
MARKOV_DEFECT_PAIRS = (
    ((4, (-2, -2, -1, 3, 1, 2, -1, -3)), (4, (-2, -2, -1, -3, 1, 2, -1, 3))),
    ((3, (-2,)), (4, (1, -2, -2, -1, -2, 1, 2, 3, 2, -1))),
)

# ---------------------------------------------------------------- grids


def random_grid(n: int, rng: random.Random) -> grid.GridDiagram:
    while True:
        x = list(range(n))
        o = list(range(n))
        rng.shuffle(x)
        rng.shuffle(o)
        if all(x[c] != o[c] for c in range(n)):
            return grid.validate(n, x, o)


def tc_candidates(g: grid.GridDiagram) -> list:
    out = [moves.Translate(d) for d in "UDLR"]
    x_inv, o_inv = g.x_inverse(), g.o_inverse()
    for r in range(g.n - 1):
        if truth.intervals_commute(x_inv[r], o_inv[r], x_inv[r + 1], o_inv[r + 1]):
            out.append(moves.CommuteRows(r))
    for c in range(g.n - 1):
        if truth.intervals_commute(g.x[c], g.o[c], g.x[c + 1], g.o[c + 1]):
            out.append(moves.CommuteCols(c))
    return out


def _cell(g: grid.GridDiagram, r: int, c: int):
    return "X" if g.x[c] == r else "O" if g.o[c] == r else None


def destab_candidates(g: grid.GridDiagram, corners) -> list:
    """X destabilizations at the given corners: the corner cell empty, the
    opposite cell an O, the other two cells X."""
    out = []
    for corner in corners:
        for r in range(g.n - 1):
            for c in range(g.n - 1):
                cells = {"NW": (r + 1, c), "NE": (r + 1, c + 1), "SW": (r, c), "SE": (r, c + 1)}
                want = {t: None if t == corner else "O" if t == OPPOSITE[corner] else "X" for t in CORNERS}
                if all(_cell(g, *cells[t]) == want[t] for t in CORNERS):
                    out.append(moves.Destabilize("X", corner, r, c))
    return out


def tc_scramble(g: grid.GridDiagram, steps: int, rng: random.Random) -> grid.GridDiagram:
    for _ in range(steps):
        g = moves.apply(g, rng.choice(tc_candidates(g)))
    return g


def class_walk(g: grid.GridDiagram, cls: str, rng: random.Random) -> grid.GridDiagram:
    """One stabilization of the class, then one move among translations,
    commutations and destabilizations of the class (TC: two TC moves)."""
    corners = CLASS_CORNERS[cls]
    if corners:
        g = moves.apply(g, moves.Stabilize("X", rng.choice(corners), rng.randrange(g.n)))
    for _ in range(1 if corners else 2):
        g = moves.apply(g, rng.choice(tc_candidates(g) + destab_candidates(g, corners)))
    return g


def _grid_query(family, op, a, b, cls, truth_value):
    return {
        "family": family,
        "op": op,
        "a": grid.serialize(a),
        "b": grid.serialize(b),
        "cls": cls,
        "truth": truth_value,
    }


def equiv_search(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for cls in ("K", "L", "T", "B", "TC"):
        for _ in range(8):
            g = tc_scramble(random_grid(5, rng), 6, rng)
            out.append(_grid_query(f"yes-{cls}", "equivalent", g, class_walk(g, cls, rng), cls, "yes"))
    for cls, count in (("L", 24), ("T", 24), ("B", 12), ("TC", 12)):
        for _ in range(count):
            g = tc_scramble(random_grid(6, rng), 6, rng)
            corner = OUTSIDE_STAB[cls] or rng.choice(CORNERS)
            h = moves.apply(g, moves.Stabilize("X", corner, rng.randrange(g.n)))
            out.append(_grid_query(f"no-{cls}", "equivalent", g, tc_scramble(h, 4, rng), cls, "no"))
    knots = {
        "unknot": convert.braid_to_grid(braid.word([1])),
        "trefoil": convert.braid_to_grid(braid.word([1, 1, 1])),
        "figure8": convert.braid_to_grid(braid.word([1, -2, 1, -2])),
    }
    for a, b in 4 * (("unknot", "trefoil"), ("unknot", "figure8"), ("trefoil", "figure8")):
        out.append(
            _grid_query(
                f"knots-K-{a}-{b}",
                "equivalent",
                tc_scramble(knots[a], 6, rng),
                tc_scramble(knots[b], 6, rng),
                "K",
                "no",
            )
        )
    for q in out:
        q["budget"] = EQUIV_BUDGET
    rng.shuffle(out)
    return out


def tc_orbits(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for a, b in bases.TC_NO_PAIRS:
        a, b = grid.validate(len(a[0]), *a), grid.validate(len(b[0]), *b)
        out.append(
            _grid_query("no-tb", "tc_orbit_equal", tc_scramble(a, 10, rng), tc_scramble(b, 10, rng), "TC", "no")
        )
    for x, o in bases.TC_SIZE_GRIDS:
        size = len(truth.tc_orbit(len(x), x, o))
        h = tc_scramble(grid.validate(len(x), x, o), 10, rng)
        out.append({"family": "orbit-size", "op": "orbit_size", "a": grid.serialize(h), "truth": size})
    for _ in range(8):
        g = random_grid(7, rng)
        out.append(_grid_query("yes-tc", "tc_orbit_equal", g, tc_scramble(g, 2, rng), "TC", "yes"))
    for _ in range(6):
        # an instance of the symmetry/stabilization table whose image
        # marker is an O, as the table2 suite builds it
        g = random_grid(4, rng)
        s = rng.choice(("S2", "S4"))
        t = rng.choice(CORNERS)
        col = moves.symmetry_marker_image(g, s, "X", rng.randrange(g.n))[1]
        corner = OPPOSITE[moves.stab_type_image(s, t)]
        h = moves.symmetry(g, s)
        out.append(
            {
                "family": "o-stab",
                "op": "o_stab_script",
                "a": grid.serialize(h),
                "corner": corner,
                "col": col,
                "truth": "yes",
            }
        )
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- braids


def random_letters(strands: int, length: int, rng: random.Random) -> tuple:
    gens = [k for k in range(-(strands - 1), strands) if k]
    return tuple(rng.choice(gens) for _ in range(length))


def free_reduce(letters) -> tuple:
    out: list = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def conj(letters, u) -> tuple:
    return free_reduce(tuple(u) + tuple(letters) + truth.inverse(u))


def _braid_query(family, op, a, b, truth_value):
    return {
        "family": family,
        "op": op,
        "a": braid.format_word(braid.BraidWord(*a)),
        "b": braid.format_word(braid.BraidWord(*b)),
        "truth": truth_value,
    }


def braid_oracles(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for _ in range(8):
        w = random_letters(3, 10, rng)
        out.append(_braid_query("conj-yes", "conjugacy_oracle", (3, w), (3, conj(w, random_letters(3, 4, rng))), "yes"))
    while sum(q["family"] == "conj-no-exponent" for q in out) < 24:
        w = random_letters(3, 10, rng)
        v = list(conj(w, random_letters(3, 3, rng)))
        if v:
            i = rng.randrange(len(v))
            v[i] = -v[i]
            out.append(_braid_query("conj-no-exponent", "conjugacy_oracle", (3, w), (3, tuple(v)), "no"))
    while sum(q["family"] == "conj-no-cycle" for q in out) < 24:
        w = random_letters(4, 10, rng)
        i, j = rng.sample((1, 2, 3), 2)
        v = conj(w, random_letters(4, 3, rng)) + (i, -j)
        if truth.cycle_type(4, v) != truth.cycle_type(4, w):
            out.append(_braid_query("conj-no-cycle", "conjugacy_oracle", (4, w), (4, v), "no"))
    base = random.Random(BASE_SEED)
    hard: list = []
    while len(hard) < 12:
        w, v = random_letters(3, 10, base), random_letters(3, 10, base)
        if (
            truth.exponent_sum(w) == truth.exponent_sum(v)
            and truth.cycle_type(3, w) == truth.cycle_type(3, v)
            and truth.burau3_trace(w) != truth.burau3_trace(v)
        ):
            hard.append((w, v))
    for w, v in hard:
        # a rotation is a conjugation of the same length: the truth stays NO
        i, j = rng.randrange(len(w)), rng.randrange(len(v))
        out.append(_braid_query("conj-no-burau", "conjugacy_oracle", (3, w[i:] + w[:i]), (3, v[j:] + v[:j]), "no"))
    # Drawn from BASE_SEED too: markov_oracle's depth defect turns one or
    # two of 8 such pairs into 30 ms UNKNOWNs on about half the seeds,
    # which would make the cost of the corpus depend on the seed.
    for _ in range(8):
        w = random_letters(3, 4, base)
        s = conj(w, random_letters(3, 2, base)) + (3,)
        out.append(_braid_query("markov-yes-stab", "markov_oracle", (3, w), (4, conj(s, random_letters(4, 2, base))), "yes"))
    for _ in range(8):
        b1 = random_letters(3, rng.randint(0, 3), rng)
        b2 = random_letters(3, rng.randint(0, 3), rng)
        out.append(
            _braid_query(
                "markov-yes-exchange", "markov_oracle", (4, b1 + (3,) + b2 + (-3,)), (4, b1 + (-3,) + b2 + (3,)), "yes"
            )
        )
    for _ in range(24):
        w = random_letters(3, 6, rng)
        out.append(
            _braid_query("markov-no-sl", "markov_oracle", (3, w), (4, conj(w, random_letters(3, 2, rng)) + (-3,)), "no")
        )
    for a, b in MARKOV_DEFECT_PAIRS:
        out.append(_braid_query("markov-depth-defect", "markov_oracle", a, b, "yes"))
    for q in out:
        q["budget"] = CONJ_BUDGET if q["op"] == "conjugacy_oracle" else MARKOV_BUDGET
    rng.shuffle(out)
    return out


WORKLOADS = {"equiv-search": equiv_search, "tc-orbits": tc_orbits, "braid-oracles": braid_oracles}


# ------------------------------------------------- stored base grids


def select_tc_bases() -> tuple[list, list]:
    """Draw the base grids of the exhaustive TC queries from ``BASE_SEED``.

    Keeps grids whose raw TC orbit size lies in a band, so every
    exhaustive query walks an orbit of about the same size: 14 NO pairs
    (X:NW/X:NE or X:SE/X:SW stabilizations of one 4x4 grid, in
    ``TC_NO_BAND``) and 8 grids of size 6 for orbit_size (in
    ``TC_SIZE_BAND``).
    """
    rng = random.Random(BASE_SEED)

    def in_band(g, band) -> bool:
        return band[0] <= len(truth.tc_orbit(g.n, g.x, g.o, limit=band[1])) <= band[1]

    pairs: list = []
    while len(pairs) < 14:
        c1, c2 = (("NW", "NE"), ("SE", "SW"))[len(pairs) % 2]
        g = random_grid(4, rng)
        a = moves.apply(g, moves.Stabilize("X", c1, rng.randrange(g.n)))
        b = moves.apply(g, moves.Stabilize("X", c2, rng.randrange(g.n)))
        if in_band(a, TC_NO_BAND) and in_band(b, TC_NO_BAND):
            pairs.append(((a.x, a.o), (b.x, b.o)))
    sizes: list = []
    while len(sizes) < 8:
        g = random_grid(6, rng)
        if in_band(g, TC_SIZE_BAND):
            sizes.append((g.x, g.o))
    return pairs, sizes


def write_bases(path: str) -> None:
    pairs, sizes = select_tc_bases()
    with open(path, "w") as f:
        f.write('"""Base grids of the exhaustive TC queries; written by ``PYTHONPATH=src python3 gridbench/corpus.py --write-bases``.\n\n')
        f.write("Do not edit by hand: see ``corpus.select_tc_bases``.\n\"\"\"\n\n")
        f.write("# ((x, o) of the first grid, (x, o) of the second): TC-inequivalent by tb\n")
        f.write("TC_NO_PAIRS = (\n")
        for pair in pairs:
            f.write(f"    {pair!r},\n")
        f.write(")\n\n# (x, o) of the grids whose orbit sizes are asked\n")
        f.write("TC_SIZE_GRIDS = (\n")
        for g in sizes:
            f.write(f"    {g!r},\n")
        f.write(")\n")


if __name__ == "__main__":
    import os
    import sys

    if sys.argv[1:] != ["--write-bases"]:
        raise SystemExit("usage: PYTHONPATH=src python3 gridbench/corpus.py --write-bases")
    write_bases(os.path.join(os.path.dirname(os.path.abspath(__file__)), "bases.py"))
