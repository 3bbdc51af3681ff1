"""Backend agreement: the compiled kernels must match the pure fallback.

The compiled module is imported directly, so these tests run whenever
it is built, also under ``GRIDKNOT_PURE=1``.
"""

import random

import pytest

from gridknot._kernels import pure
from gridknot.braid import BraidWord, invariants, words_equal
from gridknot.suites import random_grid

fast = pytest.importorskip("gridknot._kernels._fast")


def _random_word(rnd, strands, length):
    return tuple(rnd.choice([k for k in range(-(strands - 1), strands) if k != 0]) for _ in range(length))


def _growing_words():
    """Words whose handle reduction passes through longer words."""
    words = [(1,) + (2,) * k + (-1,) for k in range(40)]
    words += [(-2,) + (3, 3, 1) * k + (2,) for k in range(1, 12)]
    words.append((1,) + (2, 3, 2, 3) * 8 + (-1,) + (-3,) * 5)
    # these two reduce to longer words: 8 -> 10 and 14 -> 18 letters
    words.append((3, -2, 1, 3, -2, -3, -2, -1))
    words.append((-1, 3, -2, -3, 2, -4, -3, 2, 1, -4, -2, 1, 4, 1))
    return words


def test_reduce_handles_agreement():
    rnd = random.Random(99)
    words = [(), *_growing_words()]
    for _ in range(500):
        words.append(_random_word(rnd, rnd.randint(2, 6), rnd.randint(0, 30)))
    for _ in range(200):
        words.append(_random_word(rnd, rnd.randint(7, 9), rnd.randint(10, 60)))
    for w in words:
        assert fast.reduce_handles(w) == pure.reduce_handles(w)
        assert fast.reduce_handles(list(w)) == pure.reduce_handles(w)


def test_reduce_handles_growth_is_exercised():
    # the reduction of s1 s2^k s1^-1 has 3k letters after its first step
    w = (1,) + (2,) * 30 + (-1,)
    assert fast.reduce_handles(w) == pure.reduce_handles(w) == (-2,) + (1,) * 30 + (2,)
    assert any(len(pure.reduce_handles(w)) > len(w) for w in _growing_words())


def test_reduce_handles_is_sound():
    # reduction preserves the group element and kills trivial words
    rnd = random.Random(5)
    for _ in range(200):
        n = rnd.randint(2, 9)
        letters = _random_word(rnd, n, rnd.randint(0, 16))
        red = fast.reduce_handles(letters)
        w, r = BraidWord(n, letters), BraidWord(n, red)
        assert invariants(w).strand_perm == invariants(r).strand_perm
        assert words_equal(w, r)
        doubled = BraidWord(n, letters + tuple(-k for k in reversed(letters)))
        assert fast.reduce_handles(doubled.letters) == ()


@pytest.mark.parametrize("letter", [2**31, -(2**31) - 1, 2**63, -(2**70)])
def test_reduce_handles_rejects_letters_beyond_c_int(letter):
    with pytest.raises(OverflowError):
        fast.reduce_handles((1, letter, -1))


def _shift_grid(n, k):
    """x[c] = c + k, o[c] = c (mod n): every translation (-d, d) fixes it."""
    return [(c + k) % n for c in range(n)], list(range(n))


def _agreement_grids():
    rnd = random.Random(42)
    grids = []
    for _ in range(300):
        g = random_grid(rnd.randint(2, 9), rnd)
        grids.append((g.n, g.x, g.o))
    for n in range(2, 10):
        for k in range(1, n):
            x, o = _shift_grid(n, k)
            grids.append((n, x, o))
    return grids


def test_grid_kernels_agreement():
    for n, x, o in _agreement_grids():
        kp = pure.grid_canon_key(n, x, o)
        for conv in (tuple, list, bytes):
            assert fast.grid_canon_key(n, conv(x), conv(o)) == kp
        assert fast.grid_class_neighbors(n, kp) == pure.grid_class_neighbors(n, kp)


def test_canon_key_is_translation_invariant():
    from gridknot.moves import Translate, apply

    rnd = random.Random(17)
    for _ in range(100):
        g = random_grid(rnd.randint(2, 6), rnd)
        k = fast.grid_canon_key(g.n, g.x, g.o)
        h = apply(apply(g, Translate("U")), Translate("L"))
        assert fast.grid_canon_key(h.n, h.x, h.o) == k


@pytest.mark.parametrize("backend", [pure, fast], ids=["pure", "fast"])
def test_grid_kernels_reject_grid_numbers_beyond_bytes(backend):
    x, o = _shift_grid(257, 1)
    with pytest.raises(ValueError, match="at most 256"):
        backend.grid_canon_key(257, x, o)
    with pytest.raises(ValueError, match="at most 256"):
        backend.grid_class_neighbors(257, bytes(514))


def test_compiled_grid_kernels_accept_grid_number_256():
    x, o = _shift_grid(256, 1)
    key = fast.grid_canon_key(256, x, o)
    assert key == bytes(range(256)) + bytes([255]) + bytes(range(255))
    assert len(fast.grid_class_neighbors(256, key)) == 0
