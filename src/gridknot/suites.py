"""Verification suites: randomized checks of the move/map correspondences.

Each suite returns a report of pass/fail lines with counterexamples
inlined, and is driven both by the command line (``verify --suite``)
and by the acceptance tests.  All randomness comes from the caller's
seed, so identical invocations print identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from gridknot import braid, convert, equiv, moves
from gridknot.braid import BraidWord
from gridknot.grid import GridDiagram, validate


@dataclass
class SuiteReport:
    name: str
    trials: int
    seed: int
    lines: list[tuple[bool, str]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.lines.append((bool(ok), message))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.lines)

    def render(self) -> str:
        out = [f"suite={self.name} trials={self.trials} seed={self.seed}"]
        for ok, message in self.lines:
            out.append(("ok   " if ok else "FAIL ") + message)
        out.append("PASS" if self.ok else "FAIL")
        return "\n".join(out) + "\n"


def random_grid(n: int, rnd: random.Random) -> GridDiagram:
    """Uniform valid grid: independent permutations, rejecting shared squares."""
    while True:
        x = list(range(n))
        o = list(range(n))
        rnd.shuffle(x)
        rnd.shuffle(o)
        if all(x[c] != o[c] for c in range(n)):
            return validate(n, x, o)


def random_braid_word(strands: int, length: int, rnd: random.Random) -> BraidWord:
    gens = [k for k in range(-(strands - 1), strands) if k != 0]
    return BraidWord(strands, tuple(rnd.choice(gens) for _ in range(length)) if gens else ())


def suite_roundtrip(trials: int, seed: int) -> SuiteReport:
    """Reading a grid built from a braid word returns the word verbatim."""
    rep = SuiteReport("roundtrip", trials, seed)
    rnd = random.Random(seed)
    known = BraidWord(3, (-2, 1, 2, 2, 1, 1))
    back = convert.grid_to_braid(convert.braid_to_grid(known))
    rep.check(back == known, f"known 3-strand word {list(known.letters)} roundtrips")
    bad = 0
    first = ""
    for _ in range(trials):
        n = rnd.randint(1, 4)
        w = random_braid_word(n, rnd.randint(0, 8) if n > 1 else 0, rnd)
        if convert.grid_to_braid(convert.braid_to_grid(w)) != w:
            bad += 1
            first = first or f" first={w}"
    rep.check(bad == 0, f"{trials - bad}/{trials} random words roundtrip verbatim{first}")
    return rep


def suite_table1(trials: int, seed: int) -> SuiteReport:
    """Effect of each move on the braid word and on (tb, r, sl)."""
    rep = SuiteReport("table1", trials, seed)
    rnd = random.Random(seed)
    braid_bad: list[str] = []
    leg_bad: list[str] = []
    markov_total = markov_yes = 0
    for _ in range(trials):
        n = rnd.randint(2, 6)
        g = random_grid(n, rnd)
        w = convert.grid_to_braid(g)
        e = braid.invariants(w).exponent_sum
        ci = convert.classical_invariants(g)
        for m in moves.legal_moves(g):
            if isinstance(m, (moves.Translate, moves.CommuteRows, moves.CommuteCols)):
                ci2 = convert.classical_invariants(moves.apply(g, m))
                if (ci2.tb, ci2.r) != (ci.tb, ci.r):
                    leg_bad.append(f"{m} on {g}")
        for c in range(n):
            for corner, de_dn, dtb_dr in (
                ("NE", None, (0, 0)),
                ("SW", (1, 1), (0, 0)),
                ("SE", None, (-1, -1)),
                ("NW", (-1, 1), (-1, 1)),
            ):
                g2 = moves.apply(g, moves.Stabilize("X", corner, c))
                w2 = convert.grid_to_braid(g2)
                if de_dn is None:
                    if w2.strands != w.strands or not braid.words_equal(w2, w):
                        braid_bad.append(f"X:{corner} at {c} on {g} changed the word")
                else:
                    got = (braid.invariants(w2).exponent_sum - e, w2.strands - w.strands)
                    if got != de_dn:
                        braid_bad.append(f"X:{corner} at {c} on {g}: deltas {got}")
                ci2 = convert.classical_invariants(g2)
                if (ci2.tb - ci.tb, ci2.r - ci.r) != dtb_dr:
                    leg_bad.append(f"X:{corner} at {c} on {g}: (dtb, dr)")
                if corner != "NW" and ci2.sl != ci.sl:
                    leg_bad.append(f"X:{corner} at {c} on {g}: sl moved")
                if corner == "NW" and ci2.sl - ci.sl != -2:
                    leg_bad.append(f"X:NW at {c} on {g}: dsl != -2")
                if corner == "SW" and n <= 4:
                    markov_total += 1
                    if braid.markov_oracle(w, w2).verdict == braid.YES:
                        markov_yes += 1
    rep.check(not braid_bad, f"braid column over {trials} grids: {braid_bad[:1] or 'all marker positions agree'}")
    rep.check(
        markov_yes == markov_total,
        f"positive-stabilization witnesses found for {markov_yes}/{markov_total} X:SW instances (n<=4)",
    )
    rep.check(not leg_bad, f"tb/r/sl columns over {trials} grids: {leg_bad[:1] or 'all moves agree'}")
    return rep


def suite_table2(trials: int, seed: int) -> SuiteReport:
    """Symmetries permute stabilization types, up to orbit equality."""
    rep = SuiteReport("table2", trials, seed)
    rnd = random.Random(seed)
    bad: list[str] = []
    checked = 0
    for _ in range(trials):
        n = rnd.randint(2, 5)
        g = random_grid(n, rnd)
        p = rnd.randrange(n)
        for s in moves.SYMMETRIES:
            for t in moves.CORNERS:
                checked += 1
                if not _table2_instance(g, s, t, p):
                    bad.append(f"{s} X:{t} at column {p} on {g}")
    rep.check(not bad, f"{checked - len(bad)}/{checked} symmetry/stabilization conjugations: {bad[:1] or 'ok'}")
    return rep


def _table2_instance(g: GridDiagram, s: str, t: str, p: int) -> bool:
    left = moves.symmetry(moves.apply(g, moves.Stabilize("X", t, p)), s)
    t_img = moves.stab_type_image(s, t)
    kind_img, col_img = moves.symmetry_marker_image(g, s, "X", p)
    h = moves.symmetry(g, s)
    if kind_img == "X":
        right = moves.apply(h, moves.Stabilize("X", t_img, col_img))
        return equiv.tc_orbit_equal(left, right)
    # the image marker is an O; the matching X stabilization is its paired type
    t_geo = moves.OPPOSITE_CORNER[t_img]
    if not equiv.tc_orbit_equal(left, moves.apply(h, moves.Stabilize("O", t_geo, col_img))):
        return False
    script = moves.o_stab_script(h, t_geo, col_img)
    lone = [m for m in script.moves if isinstance(m, moves.Stabilize)]
    if len(lone) != 1 or lone[0].kind != "X" or lone[0].corner != t_img:
        return False
    return equiv.tc_orbit_equal(script.replay(h), left)


def suite_bw(trials: int, seed: int) -> SuiteReport:
    """Exchange as conjugations plus one positive stab/destab pair."""
    rep = SuiteReport("bw", trials, seed)
    rnd = random.Random(seed)
    bad = 0
    first = ""
    for _ in range(trials):
        b1 = [rnd.choice((1, -1, 2, -2)) for _ in range(rnd.randint(0, 3))]
        b2 = [rnd.choice((1, -1, 2, -2)) for _ in range(rnd.randint(0, 3))]
        steps = braid.birman_wrinkle_script(b1, b2, 4)
        start = BraidWord(4, tuple(b1) + (3,) + tuple(b2) + (-3,))
        target = BraidWord(4, tuple(b1) + (-3,) + tuple(b2) + (3,))
        if not (
            braid.verify_steps(start, steps)
            and len(steps) == 7
            and braid.words_equal(steps[-1].word, target)
        ):
            bad += 1
            first = first or f" first=({b1}, {b2})"
    rep.check(bad == 0, f"{trials - bad}/{trials} seven-step scripts verify{first}")
    return rep


def suite_slcoherence(trials: int, seed: int) -> SuiteReport:
    """Self-linking via the braid equals self-linking via the front."""
    rep = SuiteReport("slcoherence", trials, seed)
    rnd = random.Random(seed)
    bad = 0
    first = ""
    for _ in range(trials):
        g = random_grid(rnd.randint(2, 7), rnd)
        via_braid = convert.sl_from_braid(convert.grid_to_braid(g))
        via_front = convert.classical_invariants(g).sl
        if via_braid != via_front:
            bad += 1
            first = first or f" first={g} braid={via_braid} front={via_front}"
    rep.check(bad == 0, f"{trials - bad}/{trials} grids agree{first}")
    return rep


def suite_markov(trials: int, seed: int) -> SuiteReport:
    """Positive-stabilization oracle: witnesses, obstructions, exchanges."""
    rep = SuiteReport("markov", trials, seed)
    rnd = random.Random(seed)

    res = braid.markov_oracle(BraidWord(1, ()), BraidWord(2, (1,)))
    rep.check(res.verdict == braid.YES, "trivial word reaches its positive stabilization")
    res = braid.markov_oracle(BraidWord(1, ()), BraidWord(2, (-1,)))
    rep.check(
        res.verdict == braid.NO and "vs" in res.reason,
        f"negative stabilization refused with invariant ({res.reason})",
    )

    bad = 0
    for _ in range(trials):
        w = random_braid_word(rnd.randint(2, 3), rnd.randint(0, 4), rnd)
        scrambled = braid.pos_stab(braid.conjugate(w, random_braid_word(w.strands, rnd.randint(0, 2), rnd)))
        scrambled = braid.free_reduce(
            braid.conjugate(scrambled, random_braid_word(scrambled.strands, rnd.randint(0, 2), rnd))
        )
        res = braid.markov_oracle(w, scrambled)
        if res.verdict != braid.YES or not braid.verify_steps(w, res.witness):
            bad += 1
    rep.check(bad == 0, f"{trials - bad}/{trials} conjugated stabilizations recovered with verified witnesses")

    bad = 0
    for _ in range(trials):
        b1 = random_braid_word(3, rnd.randint(0, 3), rnd)
        b2 = random_braid_word(3, rnd.randint(0, 3), rnd)
        w1 = BraidWord(4, b1.letters + (3,) + b2.letters + (-3,))
        w2 = BraidWord(4, b1.letters + (-3,) + b2.letters + (3,))
        if braid.markov_oracle(w1, w2).verdict != braid.YES:
            bad += 1
    rep.check(bad == 0, f"{trials - bad}/{trials} exchange pairs connected by positive moves")
    return rep


# suite name -> runner, in the order the command line lists them
SUITES = {
    "table1": suite_table1,
    "table2": suite_table2,
    "roundtrip": suite_roundtrip,
    "bw": suite_bw,
    "slcoherence": suite_slcoherence,
    "markov": suite_markov,
}
