import pytest

from gridknot.braid import BraidWord, conjugacy_oracle, invariants, word, words_equal
from gridknot.convert import (
    RectilinearBraidDiagram,
    braid_to_grid,
    classical_invariants,
    determinant,
    directional_braid,
    grid_to_braid,
    grid_to_front,
    grid_to_rectilinear,
    mirror_word,
    rectilinear_to_word,
    reverse_word,
    sl_from_braid,
)
from gridknot.errors import MalformedDiagram
from gridknot.grid import census, validate
from gridknot.moves import Stabilize, apply, symmetry


class TestGridToRectilinear:
    def test_u2_single_strand(self, u2):
        r = grid_to_rectilinear(u2)
        assert r.strand_count == 1
        assert r.entry_heights == (1,)

    def test_stabilized_still_one_strand(self, u2):
        g = apply(u2, Stabilize("X", "NE", 0))
        assert grid_to_rectilinear(g).strand_count == 1

    def test_strand_count_formula(self, g5):
        x_inv, o_inv = g5.x_inverse(), g5.o_inverse()
        expected = sum(1 for r in range(5) if x_inv[r] < o_inv[r])
        assert grid_to_rectilinear(g5).strand_count == expected

    def test_leftward_rows_always_exist(self, make_grid, rnd):
        # the signed column offsets sum to zero, so some row points left
        for _ in range(50):
            assert grid_to_rectilinear(make_grid(rnd.randint(2, 7))).strand_count >= 1


class TestRectilinearToWord:
    def test_single_positive_crossing(self):
        r = RectilinearBraidDiagram(2, (0, 1), ((1, -1),))
        assert rectilinear_to_word(r).letters == (1,)

    def test_single_negative_crossing(self):
        r = RectilinearBraidDiagram(2, (0, 1), ((0, 2),))
        assert rectilinear_to_word(r).letters == (-1,)

    def test_multi_level_jump(self):
        # a strand dropping past two others crosses each in turn
        r = RectilinearBraidDiagram(3, (0, 5, 9), ((9, -1),))
        assert rectilinear_to_word(r).letters == (1, 2)

    def test_slice_invariant_violations(self):
        with pytest.raises(MalformedDiagram):
            rectilinear_to_word(RectilinearBraidDiagram(2, (0, 1), ((5, 7),)))
        with pytest.raises(MalformedDiagram):
            rectilinear_to_word(RectilinearBraidDiagram(2, (0, 1), ((0, 1),)))


class TestGridToBraid:
    def test_u2_trivial(self, u2):
        w = grid_to_braid(u2)
        assert (w.strands, w.letters) == (1, ())

    def test_ne_stabilization_unchanged(self, u2):
        g = apply(u2, Stabilize("X", "NE", 0))
        assert grid_to_braid(g) == BraidWord(1, ())

    def test_sw_stabilization_adds_positive(self, u2):
        w = grid_to_braid(apply(u2, Stabilize("X", "SW", 0)))
        assert (w.strands, invariants(w).exponent_sum) == (2, 1)

    def test_nw_stabilization_adds_negative(self, u2):
        w = grid_to_braid(apply(u2, Stabilize("X", "NW", 0)))
        assert (w.strands, invariants(w).exponent_sum) == (2, -1)


class TestBraidToGrid:
    def test_trivial_braid_gives_u2(self, u2):
        from gridknot.equiv import tc_orbit_equal

        g = braid_to_grid(BraidWord(1, ()))
        assert g.n == 2
        assert tc_orbit_equal(g, u2)

    def test_known_word_verbatim(self):
        w = word([-2, 1, 2, 2, 1, 1], 3)
        assert grid_to_braid(braid_to_grid(w)) == w

    def test_trefoil_components(self):
        g = braid_to_grid(word([1, 1, 1], 2))
        assert census(g).components == 1

    def test_unreduced_words_survive(self):
        w = word([1, -1], 2)
        assert grid_to_braid(braid_to_grid(w)) == w

    def test_random_roundtrip(self, make_word, rnd):
        for _ in range(150):
            n = rnd.randint(1, 4)
            w = make_word(n, rnd.randint(0, 8) if n > 1 else 0)
            assert grid_to_braid(braid_to_grid(w)) == w


class TestDirectionalBraid:
    def test_left_of_u2(self, u2):
        assert directional_braid(u2, "left") == BraidWord(1, ())

    def test_up_is_transpose_reading(self, make_grid):
        g = make_grid(5)
        assert directional_braid(g, "up") == grid_to_braid(symmetry(g, "S2"))

    def test_down_unfolds(self, make_grid):
        g = make_grid(4)
        assert directional_braid(g, "down") == grid_to_braid(symmetry(symmetry(g, "S2"), "S1"))

    def test_arrows_accepted(self, u2):
        assert directional_braid(u2, "→") == grid_to_braid(u2)

    def test_flip_reading_negates_exponent(self, make_grid, rnd):
        for _ in range(30):
            g = make_grid(rnd.randint(2, 6))
            e = invariants(grid_to_braid(g)).exponent_sum
            assert invariants(grid_to_braid(symmetry(g, "S3"))).exponent_sum == -e


class TestWordOperations:
    def test_mirror(self):
        assert mirror_word(word([1, -2], 3)).letters == (-1, 2)

    def test_reverse(self):
        assert reverse_word(word([1, -2], 3)).letters == (-2, 1)

    def test_s3_reads_mirror_up_to_strand_reversal(self, make_grid, rnd):
        # reflecting the grid renumbers strands bottom-to-top: composing
        # with that relabeling gives the mirror word letter for letter
        for _ in range(40):
            g = make_grid(rnd.randint(2, 6))
            w = grid_to_braid(g)
            flipped = BraidWord(
                w.strands, tuple((1 if k > 0 else -1) * (w.strands - abs(k)) for k in w.letters)
            )
            assert grid_to_braid(symmetry(g, "S3")) == mirror_word(flipped)

    def test_s4_reads_reverse_up_to_strand_reversal(self, make_grid, rnd):
        for _ in range(40):
            g = make_grid(rnd.randint(2, 6))
            w = grid_to_braid(g)
            flipped = BraidWord(
                w.strands, tuple((1 if k > 0 else -1) * (w.strands - abs(k)) for k in w.letters)
            )
            assert grid_to_braid(symmetry(g, "S4")) == reverse_word(flipped)

    def test_s4_reverse_same_braid_class(self, make_grid, rnd):
        # strand reversal is an inner automorphism, so the words agree
        # after conjugation
        hits = 0
        while hits < 10:
            g = make_grid(rnd.randint(2, 4))
            w = grid_to_braid(g)
            if w.strands > 3:
                continue
            hits += 1
            res = conjugacy_oracle(
                grid_to_braid(symmetry(g, "S4")), reverse_word(w), max_depth=8, max_states=30000
            )
            assert res.verdict == "yes"


class TestFront:
    def test_u2(self, u2):
        f = grid_to_front(u2)
        assert (f.right_cusps, f.left_cusps, f.writhe) == (1, 1, 0)

    def test_zigzag_stabilization(self, u2):
        f = grid_to_front(apply(u2, Stabilize("X", "SE", 1)))
        assert f.right_cusps + f.left_cusps == 4

    def test_closed_front_balance(self, make_grid, rnd):
        for _ in range(200):
            f = grid_to_front(make_grid(rnd.randint(2, 6)))
            assert f.right_cusps == f.left_cusps
            assert f.up_cusps + f.down_cusps == f.right_cusps + f.left_cusps


class TestClassicalInvariants:
    def test_maximal_unknot(self, u2):
        assert classical_invariants(u2) == type(classical_invariants(u2))(-1, 0, -1)

    def test_negative_stabilization(self, u2):
        ci = classical_invariants(apply(u2, Stabilize("X", "SE", 0)))
        assert (ci.tb, ci.r, ci.sl) == (-2, -1, -1)

    def test_positive_stabilization(self, u2):
        ci = classical_invariants(apply(u2, Stabilize("X", "NW", 0)))
        assert (ci.tb, ci.r, ci.sl) == (-2, 1, -3)

    def test_sl_is_difference(self, make_grid, rnd):
        for _ in range(50):
            ci = classical_invariants(make_grid(rnd.randint(2, 6)))
            assert ci.sl == ci.tb - ci.r


class TestDeterminant:
    def test_u2_unknot(self, u2):
        assert determinant(u2) == 1

    @pytest.mark.parametrize(
        "letters, strands, value",
        [
            ((1,), 2, 1),  # unknot
            ((1, 1, 1), 2, 3),  # trefoil
            ((1, -2, 1, -2), 3, 5),  # figure-eight
            ((1, 1, 1, 1, 1), 2, 5),  # 5_1
            ((1, 1), 2, 2),  # Hopf link
            ((), 2, 0),  # two-component unlink
            ((1, 1, 1, 1), 2, 4),  # T(2,4)
        ],
    )
    def test_known_links(self, letters, strands, value):
        assert determinant(braid_to_grid(BraidWord(strands, letters))) == value


class TestSlFromBraid:
    def test_known_word(self):
        assert sl_from_braid(word([-2, 1, 2, 2, 1, 1], 3)) == 1

    def test_trivial(self):
        assert sl_from_braid(BraidWord(1, ())) == -1

    def test_trefoil(self):
        assert sl_from_braid(word([1, 1, 1], 2)) == 1

    def test_coherence_with_front(self, make_grid, rnd):
        for _ in range(100):
            g = make_grid(rnd.randint(2, 7))
            assert sl_from_braid(grid_to_braid(g)) == classical_invariants(g).sl
