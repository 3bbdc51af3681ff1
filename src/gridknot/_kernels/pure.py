"""Pure-Python reference implementations of the hot kernels.

The compiled module in ``_fast.c`` mirrors these functions exactly;
either backend may be selected at import time (see ``__init__``).

Kernels:

* ``reduce_handles`` -- braid word problem by handle reduction.  A
  handle is a subword  s_k^e u s_k^-e  whose interior u contains no
  letter of index k or k-1.  Reducing the earliest-closing handle
  (which can contain no nested handle) is a terminating strategy; a
  word represents the trivial braid iff it reduces to the empty word.
* ``grid_canon_key`` / ``grid_class_neighbors`` -- torus-translation
  canonical form of a grid and the commutation neighbors of its
  translation class, used by the orbit-closure searches.
"""

from __future__ import annotations


def reduce_handles(word) -> tuple:
    """Fully handle-reduce a braid word (letters are nonzero ints)."""
    w = list(word)
    while True:
        loc = _first_handle(w)
        if loc is None:
            return tuple(w)
        s, t = loc
        k = abs(w[s])
        e = 1 if w[s] > 0 else -1
        repl = []
        for m in range(s + 1, t):
            a = w[m]
            if abs(a) == k + 1:
                d = 1 if a > 0 else -1
                repl.extend((-e * (k + 1), d * k, e * (k + 1)))
            else:
                repl.append(a)
        w[s : t + 1] = repl


def _first_handle(w):
    """Indices (s, t) of the earliest-closing handle, or None."""
    n = len(w)
    last = {}
    for t in range(n):
        k = abs(w[t])
        s = last.get(k)
        if s is not None and w[s] == -w[t]:
            ok = True
            for m in range(s + 1, t):
                if abs(w[m]) == k - 1:
                    ok = False
                    break
            if ok:
                return s, t
        last[k] = t
    return None


def grid_canon_key(n: int, x, o) -> bytes:
    """Minimal serialization of (x, o) over all torus translations."""
    if n > 256:
        raise ValueError("class keys hold one byte per marker, so n must be at most 256")
    best = None
    for dr in range(n):
        for dc in range(n):
            cand = bytes((x[(c + dc) % n] + dr) % n for c in range(n)) + bytes(
                (o[(c + dc) % n] + dr) % n for c in range(n)
            )
            if best is None or cand < best:
                best = cand
    return best


def intervals_commute(a1, b1, a2, b2):
    """Commutation test for two adjacent lines with marker intervals [a1, b1], [a2, b2].

    The lines commute when their four endpoints are distinct and the
    intervals are disjoint or strictly nested.
    """
    if len({a1, b1, a2, b2}) != 4:
        return False
    lo1, hi1 = (a1, b1) if a1 < b1 else (b1, a1)
    lo2, hi2 = (a2, b2) if a2 < b2 else (b2, a2)
    if hi1 < lo2 or hi2 < lo1:
        return True  # disjoint
    return (lo1 < lo2 and hi2 < hi1) or (lo2 < lo1 and hi1 < hi2)  # strictly nested


def grid_class_neighbors(n: int, key: bytes) -> list:
    """Canonical keys of all commutation neighbors of a translation class.

    Cyclically adjacent pairs are included: commuting the wrap pair
    equals translate-commute-translate, and the legality test only
    involves column intervals, which translations preserve.
    """
    if n > 256:
        raise ValueError("class keys hold one byte per marker, so n must be at most 256")
    x = list(key[:n])
    o = list(key[n:])
    x_inv = [0] * n
    o_inv = [0] * n
    for c in range(n):
        x_inv[x[c]] = c
        o_inv[o[c]] = c

    out = set()
    for r in range(n):
        s = (r + 1) % n
        if intervals_commute(x_inv[r], o_inv[r], x_inv[s], o_inv[s]):
            x2 = [s if v == r else r if v == s else v for v in x]
            o2 = [s if v == r else r if v == s else v for v in o]
            out.add(grid_canon_key(n, x2, o2))
    for c in range(n):
        d = (c + 1) % n
        if intervals_commute(x[c], o[c], x[d], o[d]):
            x2 = list(x)
            o2 = list(o)
            x2[c], x2[d] = x2[d], x2[c]
            o2[c], o2[d] = o2[d], o2[c]
            out.add(grid_canon_key(n, x2, o2))
    return sorted(out)
