import pytest

from gridknot.equiv import tc_orbit_equal
from gridknot.errors import GridKnotError, IllegalCommutation, NoSuchBlock, NotPermutation, SharedSquare
from gridknot.grid import GridDiagram, census, validate
from gridknot.moves import (
    CORNERS,
    SYMMETRIES,
    CommuteCols,
    CommuteRows,
    Destabilize,
    MoveScript,
    Stabilize,
    Translate,
    apply,
    inverse_move,
    legal_moves,
    o_stab_script,
    parse_script,
    serialize_script,
    stab_type_image,
    symmetry,
)


def candidate_moves(n):
    """Every move of each kind with indices in range for n, in legal_moves' order."""
    return (
        [Translate(d) for d in "UDLR"]
        + [CommuteRows(r) for r in range(n - 1)]
        + [CommuteCols(c) for c in range(n - 1)]
        + [Stabilize(k, t, c) for k in "XO" for t in CORNERS for c in range(n)]
        + [Destabilize(k, t, r, c) for k in "XO" for t in CORNERS for r in range(n - 1) for c in range(n - 1)]
    )


class TestTranslation:
    def test_up(self, u2):
        assert apply(u2, Translate("U")) == validate(2, [0, 1], [1, 0])

    def test_round_the_torus(self, make_grid):
        for d, back in (("U", "D"), ("L", "R")):
            g = make_grid(5)
            assert apply(apply(g, Translate(d)), Translate(back)) == g
            h = g
            for _ in range(g.n):
                h = apply(h, Translate(d))
            assert h == g


class TestCommutation:
    def test_illegal_on_u2(self, u2):
        with pytest.raises(IllegalCommutation):
            apply(u2, CommuteCols(0))
        with pytest.raises(IllegalCommutation):
            apply(u2, CommuteRows(0))

    def test_involution_where_legal(self, make_grid):
        done = 0
        while done < 50:
            g = make_grid(6)
            for m in legal_moves(g):
                if isinstance(m, (CommuteRows, CommuteCols)):
                    assert apply(apply(g, m), m) == g
                    done += 1

    def test_nested_rows_commute(self):
        # row 0 spans columns 0..3, row 1 spans 1..2: nested, so legal
        g = validate(4, [0, 1, 2, 3], [2, 3, 1, 0])
        assert apply(g, CommuteRows(0)) == validate(4, [1, 0, 2, 3], [2, 3, 0, 1])


class TestStabilization:
    def test_example_x_ne(self, u2):
        g = apply(u2, Stabilize("X", "NE", 0))
        assert (g.n, g.x, g.o) == (3, (2, 1, 0), (1, 0, 2))

    def test_inverse_pair(self, u2):
        g = apply(u2, Stabilize("X", "NE", 0))
        assert apply(g, Destabilize("X", "NE", 1, 0)) == u2

    def test_all_types_roundtrip(self, make_grid, rnd):
        for _ in range(120):
            g = make_grid(rnd.randint(2, 6))
            kind = rnd.choice("XO")
            corner = rnd.choice(CORNERS)
            c = rnd.randrange(g.n)
            stab = Stabilize(kind, corner, c)
            g2 = apply(g, stab)
            assert g2.n == g.n + 1
            assert apply(g2, inverse_move(g, stab)) == g

    def test_destab_then_stab(self, make_grid, rnd):
        for _ in range(60):
            g = make_grid(rnd.randint(3, 6))
            destabs = [m for m in legal_moves(g) if isinstance(m, Destabilize)]
            for m in destabs:
                g2 = apply(g, m)
                assert apply(g2, inverse_move(g, m)) == g

    def test_missing_block(self, u2):
        with pytest.raises(NoSuchBlock):
            apply(u2, Destabilize("X", "NE", 0, 0))

    def test_apply_validates_every_result(self):
        # built without validate: row 2 holds the X of two columns, row 0 none
        bad = GridDiagram(5, (2, 1, 2, 3, 4), (3, 2, 4, 1, 0))
        # each move passes its own legality check, so only validation can catch it
        for m in (
            Translate("U"),
            CommuteRows(0),
            CommuteCols(3),
            Stabilize("X", "NW", 0),
            Destabilize("X", "SW", 1, 0),
        ):
            with pytest.raises((NotPermutation, SharedSquare)):
                apply(bad, m)
        for m in candidate_moves(bad.n):
            with pytest.raises(GridKnotError):
                apply(bad, m)

    @pytest.mark.parametrize("move", ["SX NE 0", ("X", "NE", 0), None])
    def test_unknown_move_raises(self, u2, move):
        with pytest.raises(GridKnotError) as exc:
            apply(u2, move)
        assert type(exc.value) is GridKnotError
        assert str(exc.value) == f"unknown move {move!r}"

    def test_components_preserved(self, make_grid, rnd):
        for _ in range(60):
            g = make_grid(rnd.randint(2, 6))
            base = census(g).components
            for m in legal_moves(g):
                assert census(apply(g, m)).components == base


class TestLegalMoves:
    def test_u2_inventory(self, u2):
        ms = legal_moves(u2)
        assert sum(isinstance(m, Translate) for m in ms) == 4
        assert not any(isinstance(m, (CommuteRows, CommuteCols)) for m in ms)
        assert sum(isinstance(m, Stabilize) for m in ms) == 16
        assert not any(isinstance(m, Destabilize) for m in ms)

    def test_each_call_returns_a_new_list(self, u2):
        ms = legal_moves(u2)
        ms.clear()
        assert len(legal_moves(u2)) == 4 + 16

    def test_created_block_is_listed(self, u2):
        g = apply(u2, Stabilize("X", "NE", 0))
        assert Destabilize("X", "NE", 1, 0) in legal_moves(g)

    def test_exactly_the_applicable_moves(self, make_grid, rnd):
        # reference: every candidate move, in legal_moves' order, that apply accepts
        def applicable(g):
            out = []
            for m in candidate_moves(g.n):
                try:
                    apply(g, m)
                except (IllegalCommutation, NoSuchBlock):
                    continue
                out.append(m)
            return out

        kinds_with_sites = set()
        for _ in range(150):
            g = make_grid(rnd.randint(2, 5))
            for _ in range(rnd.randint(0, 2)):
                g = apply(g, Stabilize(rnd.choice("XO"), rnd.choice(CORNERS), rnd.randrange(g.n)))
            assert legal_moves(g) == applicable(g)
            kinds_with_sites |= {m.kind for m in legal_moves(g) if isinstance(m, Destabilize)}
        assert kinds_with_sites == {"X", "O"}


class TestSymmetry:
    def test_s1_fixes_u2(self, u2):
        assert symmetry(u2, "S1") == u2

    def test_s2_example(self, u2):
        assert symmetry(u2, "S2") == validate(2, [0, 1], [1, 0])

    def test_involutions(self, make_grid, rnd):
        for s in SYMMETRIES:
            for _ in range(25):
                g = make_grid(rnd.randint(2, 7))
                assert symmetry(symmetry(g, s), s) == g

    def test_crossing_count_preserved(self, make_grid, rnd):
        for _ in range(40):
            g = make_grid(rnd.randint(2, 6))
            k = len(census(g).crossings)
            assert len(census(symmetry(g, "S1")).crossings) == k
            assert len(census(symmetry(g, "S2")).crossings) == k


class TestStabTypeImage:
    @pytest.mark.parametrize(
        "s,corner,image",
        [
            ("S1", "NW", "SE"),
            ("S1", "NE", "SW"),
            ("S2", "NW", "NW"),
            ("S2", "NE", "SW"),
            ("S3", "NW", "SW"),
            ("S3", "NE", "SE"),
            ("S4", "SW", "SW"),
            ("S4", "NW", "NW"),
        ],
    )
    def test_table_entries(self, s, corner, image):
        assert stab_type_image(s, corner) == image

    def test_permutations(self):
        for s in SYMMETRIES:
            assert sorted(stab_type_image(s, c) for c in CORNERS) == sorted(CORNERS)
            for c in CORNERS:
                assert stab_type_image(s, stab_type_image(s, c)) == c


class TestScripts:
    def test_roundtrip_text(self, u2):
        script = MoveScript(
            (
                Translate("U"),
                Stabilize("X", "NE", 0),
                CommuteRows(0),
                Destabilize("O", "SW", 1, 1),
                CommuteCols(2),
            )
        )
        assert parse_script(serialize_script(script)) == script

    def test_comments(self):
        s = parse_script("# warm-up\nTU\nSX NE 0  # split the X\n")
        assert s.moves == (Translate("U"), Stabilize("X", "NE", 0))

    def test_replay(self, u2):
        s = parse_script("SX NE 0\nDX NE 1 0\n")
        assert s.replay(u2) == u2


class TestOStabScript:
    def test_paired_corner_sw(self, u2):
        script = o_stab_script(u2, "SW", 0)
        stabs = [m for m in script.moves if isinstance(m, Stabilize)]
        assert len(stabs) == 1
        assert (stabs[0].kind, stabs[0].corner) == ("X", "NE")

    def test_orbit_equal_endpoint(self, u2):
        script = o_stab_script(u2, "NW", 1)
        target = apply(u2, Stabilize("O", "NW", 1))
        assert tc_orbit_equal(script.replay(u2), target)

    def test_random_instances(self, make_grid, rnd):
        pairing = {"NW": "SE", "NE": "SW", "SW": "NE", "SE": "NW"}
        for _ in range(100):
            g = make_grid(rnd.randint(2, 4))
            corner = rnd.choice(CORNERS)
            c = rnd.randrange(g.n)
            script = o_stab_script(g, corner, c)
            stabs = [m for m in script.moves if isinstance(m, Stabilize)]
            assert [s.kind for s in stabs] == ["X"]
            assert stabs[0].corner == pairing[corner]
            assert not any(isinstance(m, Destabilize) for m in script.moves)
            assert tc_orbit_equal(script.replay(g), apply(g, Stabilize("O", corner, c)))


class TestTable2ConjugationLaw:
    def test_small_sample(self, make_grid, rnd):
        from gridknot.suites import _table2_instance

        for _ in range(12):
            g = make_grid(rnd.randint(2, 4))
            s = rnd.choice(SYMMETRIES)
            t = rnd.choice(CORNERS)
            p = rnd.randrange(g.n)
            assert _table2_instance(g, s, t, p)
