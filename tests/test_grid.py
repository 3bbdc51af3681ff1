import pytest
from hypothesis import given, strategies as st

from gridknot.errors import BadLength, GridSyntaxError, NotPermutation, SharedSquare
from gridknot.grid import census, from_key, parse, render_ascii, serialize, validate


def permutation_pairs(max_n=8):
    """Random (n, x, o) with x, o permutations and no shared square."""

    def build(draw_n):
        n, seed = draw_n
        import random

        rnd = random.Random(seed)
        while True:
            x = list(range(n))
            o = list(range(n))
            rnd.shuffle(x)
            rnd.shuffle(o)
            if all(x[c] != o[c] for c in range(n)):
                return validate(n, x, o)

    return st.tuples(st.integers(2, max_n), st.integers(0, 10**9)).map(build)


class TestValidate:
    def test_smallest_grid(self, u2):
        assert (u2.n, u2.x, u2.o) == (2, (1, 0), (0, 1))

    def test_shared_square(self):
        with pytest.raises(SharedSquare):
            validate(2, [1, 0], [1, 0])

    def test_not_permutation(self):
        with pytest.raises(NotPermutation):
            validate(3, [0, 0, 2], [1, 2, 0])

    def test_inverses(self, g5):
        assert g5.x_inverse() == (4, 0, 1, 2, 3)
        assert g5.o_inverse() == (1, 2, 3, 4, 0)


class TestFromKey:
    def test_inverts_key(self, make_grid):
        for n in range(2, 10):
            for _ in range(5):
                g = make_grid(n)
                h = from_key(g.key())
                assert h == g
                assert isinstance(h.x, tuple) and isinstance(h.o, tuple)

    @pytest.mark.parametrize(
        "key, n, x, o, error",
        [
            (b"", 0, [], [], BadLength),
            (bytes([1, 0, 0]), 1, [1], [0, 0], BadLength),
            (bytes([0, 0, 2, 1, 2, 0]), 3, [0, 0, 2], [1, 2, 0], NotPermutation),
            (bytes([1, 0, 2, 0]), 2, [1, 0], [2, 0], NotPermutation),
            (bytes([1, 0, 1, 0]), 2, [1, 0], [1, 0], SharedSquare),
        ],
    )
    def test_malformed_keys_raise_as_validate(self, key, n, x, o, error):
        with pytest.raises(error) as from_key_error:
            from_key(key)
        with pytest.raises(error) as validate_error:
            validate(n, x, o)
        assert str(from_key_error.value) == str(validate_error.value)


class TestCensus:
    def test_unknot(self, u2):
        c = census(u2)
        assert c.components == 1
        assert c.crossings == ()

    def test_five_cycle(self, g5):
        assert census(g5).components == 1

    def test_translated_unknot_is_one_component(self):
        # following the link: column 0 -> row 1 -> column 1 -> row 0 -> close,
        # and the cycle map 0 -> 1 -> 0 has a single cycle
        assert census(validate(2, [0, 1], [1, 0])).components == 1

    def test_split_two_component(self):
        g = validate(4, [1, 0, 3, 2], [0, 1, 2, 3])
        assert census(g).components == 2

    def test_crossings_strictly_interior(self, make_grid):
        for _ in range(100):
            g = make_grid(6)
            x_inv, o_inv = g.x_inverse(), g.o_inverse()
            for col, row, sign in census(g).crossings:
                assert sign in (-1, 1)
                assert min(g.x[col], g.o[col]) < row < max(g.x[col], g.o[col])
                assert min(x_inv[row], o_inv[row]) < col < max(x_inv[row], o_inv[row])


class TestTextFormats:
    def test_parse_header(self, u2):
        assert parse("2\nX: 1 0\nO: 0 1") == u2

    def test_serialize_canonical(self, u2):
        assert serialize(u2) == "2\nX: 1 0\nO: 0 1\n"

    def test_missing_o_line(self):
        with pytest.raises(GridSyntaxError):
            parse("2\nX: 1 0")

    def test_comments_and_blanks(self, u2):
        assert parse("# a grid\n2\nX: 1 0  # top-left X\n\nO: 0 1\n") == u2

    def test_matrix_form(self, u2):
        assert parse("X O\nO X") == u2
        assert parse("XO\nOX") == u2

    def test_matrix_errors(self):
        with pytest.raises(GridSyntaxError):
            parse("X O\nO O")
        with pytest.raises(GridSyntaxError):
            parse("X .\n. X")

    @given(permutation_pairs())
    def test_roundtrip(self, g):
        assert parse(serialize(g)) == g

    @given(permutation_pairs(max_n=6))
    def test_matrix_roundtrip(self, g):
        assert parse(render_ascii(g)) == g


class TestRender:
    def test_u2(self, u2):
        assert render_ascii(u2) == "X O\nO X"

    def test_swapped_roles(self):
        assert render_ascii(validate(2, [0, 1], [1, 0])) == "O X\nX O"

    def test_diagonal(self, g5):
        rows = render_ascii(g5).splitlines()
        assert len(rows) == 5
        # X's sit one step above the main diagonal: x[c] = c + 1 mod 5
        for c in range(5):
            r = g5.x[c]
            assert rows[4 - r].split()[c] == "X"
