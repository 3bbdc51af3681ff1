import random

import pytest

from gridknot.braid import conjugacy_no_reason, invariants, word
from gridknot.convert import braid_to_grid, classical_invariants, determinant, grid_to_braid
from gridknot.equiv import (
    NO,
    UNKNOWN,
    YES,
    SearchBudget,
    equivalent,
    orbit_size,
    tc_orbit_equal,
)
from gridknot.errors import UnsupportedClass
from gridknot.grid import census, validate
from gridknot.moves import (
    PAIRED_X_CORNER,
    CommuteCols,
    CommuteRows,
    Destabilize,
    Stabilize,
    Translate,
    apply,
    legal_moves,
    serialize_script,
)
from gridknot.suites import random_grid


class TestTcOrbitEqual:
    def test_translation(self, u2):
        assert tc_orbit_equal(u2, apply(u2, Translate("U")))

    def test_the_other_two_by_two(self, u2):
        assert tc_orbit_equal(u2, validate(2, [0, 1], [1, 0]))

    def test_different_grid_numbers(self, u2, g5):
        assert not tc_orbit_equal(u2, g5)

    def test_disjoint_orbits_same_n(self, u2):
        # stabilizations of opposite signs land in different orbits
        a = apply(u2, Stabilize("X", "NW", 0))
        b = apply(u2, Stabilize("X", "SW", 0))
        assert not tc_orbit_equal(a, b)

    def test_closed_under_all_tc_moves(self, make_grid, rnd):
        from gridknot.moves import CommuteCols, CommuteRows, legal_moves

        for _ in range(25):
            g = make_grid(rnd.randint(2, 5))
            for m in legal_moves(g):
                if isinstance(m, (Translate, CommuteRows, CommuteCols)):
                    assert tc_orbit_equal(g, apply(g, m))


class TestOrbitSize:
    def test_u2(self, u2):
        assert orbit_size(u2) == 2

    def test_constant_on_orbit(self, make_grid, rnd):
        for _ in range(10):
            g = make_grid(3)
            size = orbit_size(g)
            assert size >= 1
            assert orbit_size(apply(g, Translate("L"))) == size

    def test_non_tc_rejected(self, u2):
        with pytest.raises(UnsupportedClass):
            orbit_size(u2, "K")

    def test_matches_brute_force_translate_count(self, make_grid, rnd):
        from gridknot.moves import tc_class_closure

        def brute_force(g):
            n = g.n
            total = 0
            for key in tc_class_closure(g):
                x, o = key[:n], key[n:]
                translates = {
                    bytes((x[(c + dc) % n] + dr) % n for c in range(n))
                    + bytes((o[(c + dc) % n] + dr) % n for c in range(n))
                    for dr in range(n)
                    for dc in range(n)
                }
                total += len(translates)
            return total

        # shift grids x[c] = c + k, o[c] = c are fixed by n translations
        grids = [validate(n, [(c + k) % n for c in range(n)], list(range(n))) for n in range(2, 7) for k in range(1, n)]
        grids += [make_grid(rnd.randint(2, 5)) for _ in range(40)]
        for g in grids:
            assert orbit_size(g) == brute_force(g)


class TestEquivalent:
    def test_legendrian_detects_stabilization(self, u2):
        res = equivalent(u2, apply(u2, Stabilize("X", "NW", 0)), "L")
        assert res.verdict == NO
        assert res.reason == "tb: -1 vs -2"

    def test_transverse_detects_positive_stab(self, u2):
        res = equivalent(u2, apply(u2, Stabilize("X", "NW", 0)), "T")
        assert res.verdict == NO
        assert res.reason == "sl: -1 vs -3"

    def test_topological_undoes_stab(self, u2):
        g2 = apply(u2, Stabilize("X", "NW", 0))
        res = equivalent(u2, g2, "K")
        assert res.verdict == YES
        assert len(res.script.moves) == 1
        assert res.script.replay(u2) == g2

    def test_transverse_absorbs_negative_stab(self, u2):
        g2 = apply(u2, Stabilize("X", "SE", 0))
        res = equivalent(u2, g2, "T")
        assert res.verdict == YES
        assert res.script.replay(u2) == g2
        res_l = equivalent(u2, g2, "L")
        assert res_l.verdict == NO
        assert res_l.reason == "tb: -1 vs -2"

    def test_component_precheck(self, u2):
        g2 = validate(4, [1, 0, 3, 2], [0, 1, 2, 3])
        res = equivalent(u2, g2, "K")
        assert res.verdict == NO
        assert res.reason == "components: 1 vs 2"

    def test_braid_class_precheck(self, u2):
        g2 = apply(u2, Stabilize("X", "SW", 0))
        res = equivalent(u2, g2, "B")
        assert res.verdict == NO
        assert "vs" in res.reason

    def test_braid_class_ne_se_yes(self, u2, rnd):
        g2 = apply(apply(u2, Stabilize("X", "NE", 1)), Stabilize("X", "SE", 0))
        res = equivalent(u2, g2, "B")
        assert res.verdict == YES
        assert res.script.replay(u2) == g2

    def test_unknown_under_tiny_budget(self, u2, make_grid):
        g2 = apply(apply(u2, Stabilize("X", "NE", 0)), Stabilize("X", "NE", 1))
        res = equivalent(u2, g2, "K", SearchBudget(max_grid_number=4, max_states=4))
        assert res.verdict in (UNKNOWN, YES)

    def test_no_cites_recomputable_values(self, u2, make_grid, rnd):
        maps = {
            "components": lambda g: census(g).components,
            "tb": lambda g: classical_invariants(g).tb,
            "r": lambda g: classical_invariants(g).r,
            "determinant": determinant,
        }
        others = [make_grid(rnd.randint(2, 4)) for _ in range(10)]
        # knots whose determinants differ from the unknot's
        others += [braid_to_grid(word(w)) for w in ((1, 1, 1), (-1, -1, -1), (1, -2, 1, -2), (1, 1, 1, 1, 1))]
        for cls in ("K", "L"):
            for g2 in others:
                res = equivalent(u2, g2, cls, SearchBudget(max_states=3000, max_seconds=5))
                if res.verdict == NO:
                    name, _, rest = res.reason.partition(":")
                    left, _, right = rest.partition(" vs ")
                    assert maps[name](u2) == int(left)
                    assert maps[name](g2) == int(right)

    def test_determinant_separates_knots(self):
        unknot, trefoil = braid_to_grid(word([1])), braid_to_grid(word([1, 1, 1]))
        res = equivalent(unknot, trefoil, "K")
        assert (res.verdict, res.reason) == (NO, "determinant: 1 vs 3")

    def test_determinant_after_conjugacy_invariants(self):
        # unknot and figure-eight: 3 strands, exponent sum 0, a 3-cycle each
        unknot, figure8 = braid_to_grid(word([1, -2])), braid_to_grid(word([1, -2, 1, -2]))
        assert conjugacy_no_reason(grid_to_braid(unknot), grid_to_braid(figure8)) is None
        res = equivalent(unknot, figure8, "B")
        assert (res.verdict, res.reason) == (NO, "determinant: 1 vs 5")

    def test_scripts_replay_exactly(self, u2, rnd):
        from gridknot.moves import MoveScript, legal_moves

        # scramble u2 by legal class-L moves, then ask for a way back
        g = u2
        for _ in range(3):
            options = [
                m
                for m in legal_moves(g)
                if not isinstance(m, Stabilize) or (m.kind == "X" and m.corner in ("NE", "SW"))
            ]
            options = [m for m in options if not _is_o_move(m)]
            g = apply(g, rnd.choice(options))
        res = equivalent(u2, g, "L", SearchBudget(max_grid_number=g.n + 1))
        assert res.verdict == YES
        assert res.script.replay(u2) == g

    def test_monotone_in_class(self, u2):
        g2 = apply(apply(u2, Stabilize("X", "NE", 0)), Translate("L"))
        for cls in ("L", "T", "K"):
            res = equivalent(u2, g2, cls)
            assert res.verdict == YES
            assert res.script.replay(u2) == g2

    def test_class_b_consistent_with_word_relation(self, u2):
        from gridknot.braid import conjugacy_oracle

        g2 = apply(apply(u2, Stabilize("X", "SE", 0)), Translate("U"))
        res = equivalent(u2, g2, "B")
        assert res.verdict == YES
        w1, w2 = grid_to_braid(u2), grid_to_braid(g2)
        assert w1.strands == w2.strands
        assert conjugacy_oracle(w1, w2, max_depth=4).verdict == YES


def _class_moves_of(g, cls):
    """Every legal move of g in class ``cls``, with the O (de)stabilizations of the paired X types."""
    corners = {"L": ("NE", "SW"), "T": ("NE", "SW", "SE"), "B": ("NE", "SE")}[cls]
    return [
        m
        for m in legal_moves(g)
        if isinstance(m, (Translate, CommuteRows, CommuteCols))
        or (m.corner if m.kind == "X" else PAIRED_X_CORNER[m.corner]) in corners
    ]


class TestNoReasonsAreClassInvariants:
    """Every invariant ``_no_reason`` may cite is constant under every move of its class."""

    GRIDS = [random_grid(n, random.Random(n * 1000 + i)) for n in range(2, 9) for i in range(6)]

    def test_components_and_determinant_under_every_move(self):
        for g in self.GRIDS:
            before = census(g).components, determinant(g)
            for m in legal_moves(g):
                h = apply(g, m)
                assert (census(h).components, determinant(h)) == before, (g, m)

    def test_tb_and_r_under_class_l_moves(self):
        for g in self.GRIDS:
            ci = classical_invariants(g)
            for m in _class_moves_of(g, "L"):
                h = classical_invariants(apply(g, m))
                assert (h.tb, h.r) == (ci.tb, ci.r), (g, m)

    def test_sl_under_class_t_moves(self):
        for g in self.GRIDS:
            sl = classical_invariants(g).sl
            for m in _class_moves_of(g, "T"):
                assert classical_invariants(apply(g, m)).sl == sl, (g, m)

    def test_braid_invariants_under_class_b_moves(self):
        for g in self.GRIDS:
            w = grid_to_braid(g)
            for m in _class_moves_of(g, "B"):
                v = grid_to_braid(apply(g, m))
                assert v.strands == w.strands, (g, m)
                assert conjugacy_no_reason(w, v) is None, (g, m)

    def test_every_stabilization_type_is_exercised(self):
        seen = {(m.kind, m.corner) for g in self.GRIDS for m in legal_moves(g) if type(m) is Destabilize}
        assert len(seen) == 8


# (class, g1, g2, the YES script equivalent finds): g2 is a seeded walk of
# 2-5 class moves from g1.  The scripts pin the search order: the order of
# legal_moves, the class-move order and the breadth-first expansion.
PINNED_WALKS = [
    ("K", (0, 4, 1, 3, 2), (3, 2, 0, 4, 1), (8, 6, 7, 0, 3, 4, 5, 1, 2), (3, 7, 2, 8, 4, 5, 6, 0, 1),
     "TD\nSX NW 4\nSX SE 1\nSX SE 4\nSX SE 4\n"),
    ("K", (0, 2, 1, 3), (1, 0, 3, 2), (7, 3, 2, 1, 0, 5, 6, 4), (6, 0, 3, 2, 4, 1, 5, 7),
     "TR\nSX NW 2\nSX NE 1\nSX SW 1\nSX SW 2\n"),
    ("L", (1, 2, 4, 0, 3), (4, 0, 2, 3, 1), (1, 0, 3, 5, 2, 4), (5, 1, 2, 3, 4, 0), "CR 0\nSX SW 0\n"),
    ("L", (0, 1, 2, 3, 4), (3, 2, 4, 1, 0), (2, 3, 4, 5, 1, 0), (5, 4, 0, 3, 2, 1), "TU\nSX SW 4\n"),
    ("T", (0, 3, 4, 1, 2), (1, 2, 3, 4, 0), (1, 0, 6, 7, 3, 4, 2, 5), (0, 2, 5, 6, 4, 7, 3, 1),
     "SX NE 0\nSX SW 4\nSX SE 4\n"),
    ("T", (0, 3, 2, 4, 1), (4, 2, 1, 0, 3), (0, 4, 3, 5, 1, 6, 2), (6, 3, 5, 1, 2, 0, 4),
     "SX SE 4\nCC 3\nSX SE 2\nCR 4\n"),
    ("B", (4, 2, 0, 3, 1), (3, 0, 4, 1, 2), (1, 5, 4, 2, 0, 3), (2, 4, 3, 0, 5, 1), "TR\nSX NE 1\n"),
    ("B", (3, 2, 1, 0), (2, 3, 0, 1), (3, 1, 2, 0, 4), (4, 2, 0, 1, 3), "TL\nSX SE 1\n"),
    ("TC", (4, 1, 0, 3, 2), (1, 0, 3, 2, 4), (2, 0, 4, 1, 3), (0, 4, 1, 3, 2), "TL\nCR 1\nCR 3\n"),
    ("TC", (0, 3, 1, 2), (1, 2, 3, 0), (1, 2, 3, 0), (3, 1, 0, 2), "TU\nTL\nCR 0\n"),
]


@pytest.mark.parametrize(
    "cls, x1, o1, x2, o2, script", PINNED_WALKS, ids=[f"{w[0]}-{i % 2}" for i, w in enumerate(PINNED_WALKS)]
)
def test_pinned_yes_scripts(cls, x1, o1, x2, o2, script):
    g1, g2 = validate(len(x1), x1, o1), validate(len(x2), x2, o2)
    res = equivalent(g1, g2, cls, SearchBudget(max_states=20000))
    assert res.verdict == YES
    assert serialize_script(res.script) == script


def _is_o_move(m):
    kind = getattr(m, "kind", None)
    return kind == "O"
