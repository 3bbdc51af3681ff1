"""Independent cross-checks of the two decision kernels.

The word-problem solver is compared against exact symbolic matrices of
the reduced Burau representation, which is faithful on three strands,
and the grid determinant against det(I - Burau) at t = -1; the orbit
machinery is compared against a brute-force closure that
enumerates raw grids with the public move API and never touches the
canonical-key kernels.
"""

import random
from collections import deque

import sympy

from gridknot.braid import BraidWord, words_equal
from gridknot.convert import braid_to_grid, determinant
from gridknot.equiv import orbit_size, tc_orbit_equal
from gridknot.moves import CommuteCols, CommuteRows, Translate, apply, legal_moves
from gridknot.suites import random_braid_word, random_grid

t = sympy.Symbol("t")
_BURAU = {
    1: sympy.Matrix([[-t, 1], [0, 1]]),
    2: sympy.Matrix([[1, 0], [t, -t]]),
}
_BURAU[-1] = _BURAU[1].inv()
_BURAU[-2] = _BURAU[2].inv()


def burau(w: BraidWord) -> sympy.Matrix:
    m = sympy.eye(2)
    for k in w.letters:
        m = m * _BURAU[k]
    return m.applyfunc(sympy.cancel)


def test_words_equal_matches_burau_on_three_strands():
    rnd = random.Random(31)
    words = [random_braid_word(3, rnd.randint(0, 7), rnd) for _ in range(40)]
    mats = [burau(w) for w in words]
    checked_equal = 0
    for i, w1 in enumerate(words):
        for j in range(i, len(words)):
            same_matrix = (mats[i] - mats[j]).applyfunc(sympy.cancel) == sympy.zeros(2)
            assert words_equal(w1, words[j]) == same_matrix
            checked_equal += same_matrix
    assert checked_equal >= len(words)  # at least the diagonal


# the same matrices at t = -1, with Python integer entries
_BURAU_AT_MINUS_1 = {k: [[int(v) for v in row] for row in m.subs(t, -1).tolist()] for k, m in _BURAU.items()}


def test_determinant_matches_burau_on_three_strands():
    # det(I - Burau(t)) = (1 + t + t^2) Delta(t) up to a unit on three
    # strands, and 1 + t + t^2 is 1 at t = -1
    rnd = random.Random(37)
    for _ in range(200):
        w = random_braid_word(3, rnd.randint(0, 9), rnd)
        m = [[1, 0], [0, 1]]
        for k in w.letters:
            s = _BURAU_AT_MINUS_1[k]
            m = [[sum(m[i][l] * s[l][j] for l in range(2)) for j in range(2)] for i in range(2)]
        burau_det = abs((1 - m[0][0]) * (1 - m[1][1]) - m[0][1] * m[1][0])
        assert determinant(braid_to_grid(w)) == burau_det, w


def brute_tc_orbit(g):
    seen = {g.key()}
    queue = deque([g])
    while queue:
        h = queue.popleft()
        for m in legal_moves(h):
            if isinstance(m, (Translate, CommuteRows, CommuteCols)):
                h2 = apply(h, m)
                if h2.key() not in seen:
                    seen.add(h2.key())
                    queue.append(h2)
    return seen


def test_orbit_machinery_matches_brute_force():
    rnd = random.Random(13)
    for _ in range(20):
        g1 = random_grid(rnd.randint(2, 4), rnd)
        orbit = brute_tc_orbit(g1)
        assert orbit_size(g1) == len(orbit)
        g2 = random_grid(g1.n, rnd)
        assert tc_orbit_equal(g1, g2) == (g2.key() in orbit)
        # every orbit member must also test equal
        member = sorted(orbit)[len(orbit) // 2]
        from gridknot.grid import GridDiagram

        h = GridDiagram(g1.n, tuple(member[: g1.n]), tuple(member[g1.n :]))
        assert tc_orbit_equal(g1, h)
