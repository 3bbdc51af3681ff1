"""Ground truth computed with the benchmark's own code, apart from gridknot.

* Reduced Burau matrices of 3-strand braids over integer Laurent
  polynomials.  The representation is faithful on three strands, so two
  3-strand words are equal in the braid group exactly when their
  matrices are equal, and conjugate braids have equal traces.
* Permutations and cycle types of braid words.
* Translation/commutation (TC) orbits of raw grids, with this module's
  own interval test, for orbit sizes and orbit membership.

Grids here are plain ``(n, x, o)`` tuples and words plain letter tuples,
so nothing in this module depends on the program under test.
"""

from __future__ import annotations

# --- Laurent polynomials: {exponent: coefficient}, no zero coefficients ---


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


_ONE = {0: 1}
_ZERO: dict = {}
# reduced Burau representation of B_3, t the polynomial variable
_GEN = {
    1: ((({1: -1}), _ONE), (_ZERO, _ONE)),
    -1: (({-1: -1}, {-1: 1}), (_ZERO, _ONE)),
    2: ((_ONE, _ZERO), ({1: 1}, {1: -1})),
    -2: ((_ONE, _ZERO), (_ONE, {-1: -1})),
}


def _mat_mul(a, b):
    return tuple(
        tuple(_padd(_pmul(a[i][0], b[0][j]), _pmul(a[i][1], b[1][j])) for j in range(2))
        for i in range(2)
    )


def burau3(letters) -> tuple:
    """Reduced Burau matrix of a 3-strand word, in a comparable canonical form."""
    m = ((_ONE, _ZERO), (_ZERO, _ONE))
    for k in letters:
        m = _mat_mul(m, _GEN[k])
    return tuple(tuple(tuple(sorted(p.items())) for p in row) for row in m)


def burau3_trace(letters) -> tuple:
    """Trace of the reduced Burau matrix: a conjugacy invariant."""
    m = burau3(letters)
    return tuple(sorted(_padd(dict(m[0][0]), dict(m[1][1])).items()))


def inverse(letters) -> tuple:
    return tuple(-k for k in reversed(letters))


def burau3_conjugates(u, w1, w2) -> bool:
    """Whether u w1 u^-1 equals w2 in B_3 (exact: Burau is faithful on 3 strands)."""
    return burau3(tuple(u) + tuple(w1) + inverse(u)) == burau3(w2)


# --- permutations of braid words ---


def cycle_type(strands: int, letters) -> tuple:
    pos = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    seen = [False] * strands
    cycles = []
    for s in range(strands):
        length = 0
        while not seen[s]:
            seen[s] = True
            s = pos[s]
            length += 1
        if length:
            cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


def exponent_sum(letters) -> int:
    return sum(1 if k > 0 else -1 for k in letters)


# --- TC orbits of raw grids ---


def intervals_commute(a1: int, b1: int, a2: int, b2: int) -> bool:
    """Two marker intervals may be swapped: four distinct ends, disjoint or nested."""
    if len({a1, b1, a2, b2}) != 4:
        return False
    lo1, hi1 = min(a1, b1), max(a1, b1)
    lo2, hi2 = min(a2, b2), max(a2, b2)
    return hi1 < lo2 or hi2 < lo1 or (lo1 < lo2 and hi2 < hi1) or (lo2 < lo1 and hi1 < hi2)


def _inverse_perm(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return inv


def tc_neighbours(n: int, x: tuple, o: tuple):
    """Raw grids one translation (up or left) or one legal commutation away."""
    yield tuple((r + 1) % n for r in x), tuple((r + 1) % n for r in o)
    yield x[1:] + x[:1], o[1:] + o[:1]
    x_inv, o_inv = _inverse_perm(x), _inverse_perm(o)
    for r in range(n - 1):
        if intervals_commute(x_inv[r], o_inv[r], x_inv[r + 1], o_inv[r + 1]):
            swap = {r: r + 1, r + 1: r}
            yield tuple(swap.get(v, v) for v in x), tuple(swap.get(v, v) for v in o)
    for c in range(n - 1):
        if intervals_commute(x[c], o[c], x[c + 1], o[c + 1]):
            x2, o2 = list(x), list(o)
            x2[c], x2[c + 1] = x2[c + 1], x2[c]
            o2[c], o2[c + 1] = o2[c + 1], o2[c]
            yield tuple(x2), tuple(o2)


def tc_orbit(n: int, x, o, limit: int | None = None) -> set:
    """Every raw grid reachable by translations and commutations.

    Translations up and left generate all translations, and commutations
    are involutions, so following these edges closes the orbit.  With a
    ``limit``, stops once more than ``limit`` grids are found.
    """
    start = (tuple(x), tuple(o))
    seen = {start}
    stack = [start]
    while stack and (limit is None or len(seen) <= limit):
        gx, go = stack.pop()
        for nb in tc_neighbours(n, gx, go):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def tc_connected(n: int, a: tuple, b: tuple) -> bool:
    """Whether raw grids a = (x, o) and b lie in one TC orbit.

    Grows both orbits a layer at a time, the smaller first, and stops at
    the first shared grid or when one orbit is closed.
    """
    a, b = (tuple(a[0]), tuple(a[1])), (tuple(b[0]), tuple(b[1]))
    if a == b:
        return True
    seen = ({a}, {b})
    frontier = ([a], [b])
    while frontier[0] and frontier[1]:
        side = 0 if len(seen[0]) <= len(seen[1]) else 1
        nxt = []
        for g in frontier[side]:
            for nb in tc_neighbours(n, *g):
                if nb in seen[1 - side]:
                    return True
                if nb not in seen[side]:
                    seen[side].add(nb)
                    nxt.append(nb)
        frontier[side].clear()
        frontier[side].extend(nxt)
    return False
