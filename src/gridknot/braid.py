"""Braid words, the word problem, and the conjugacy/Markov move calculus.

Words are sequences of nonzero integers: k > 0 is the k-th Artin
generator (crossing strands k, k+1 with the upper strand in front,
strands numbered top to bottom), k < 0 its inverse.  Equality in the
braid group is decided by handle reduction: a word is trivial iff it
reduces to the empty word, so ``w1 == w2`` iff ``w1 w2^-1`` reduces to
nothing.

The bounded oracles answer Yes / No / Unknown.  Yes always carries a
verified witness; No always cites an invariant that differs; Unknown is
the honest answer when the search budget runs out.  Search states are
deduplicated by the lexicographically least rotation of their reduced
form; rotations are conjugations, and the rotation offsets are folded
back into the returned witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from gridknot._kernels import reduce_handles
from gridknot.errors import (
    GridKnotError,
    GridSyntaxError,
    NoExchangePattern,
    NotDestabilizable,
    StrandMismatch,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise GridKnotError(f"strand count must be positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple(int(v) for v in self.letters))
        for k in self.letters:
            if k == 0 or abs(k) > self.strands - 1:
                raise GridKnotError(f"letter {k} out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)


def word(letters: Iterable[int], strands: int | None = None) -> BraidWord:
    """Build a BraidWord, inferring strands as 1 + max |letter| if omitted."""
    letters = tuple(int(v) for v in letters)
    if strands is None:
        strands = 1 + max((abs(k) for k in letters), default=0)
    return BraidWord(strands, letters)


def inverse_letters(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple(-k for k in reversed(letters))


def _free_reduce(letters: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    return BraidWord(w.strands, _free_reduce(w.letters))


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Exact equality in the braid group (handle reduction)."""
    if w1.strands != w2.strands:
        raise StrandMismatch(f"{w1.strands} strands vs {w2.strands}")
    return not reduce_handles(w1.letters + inverse_letters(w2.letters))


def conjugate(w: BraidWord, u: BraidWord | Sequence[int]) -> BraidWord:
    """u w u^-1, literally concatenated."""
    u_letters = u.letters if isinstance(u, BraidWord) else tuple(int(v) for v in u)
    return BraidWord(w.strands, u_letters + w.letters + inverse_letters(u_letters))


def pos_stab(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands + 1, w.letters + (w.strands,))


def neg_stab(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands + 1, w.letters + (-w.strands,))


def destab(w: BraidWord) -> BraidWord:
    """Remove a literal trailing top-strand letter after free reduction."""
    v = _free_reduce(w.letters)
    m = w.strands - 1
    if not v or abs(v[-1]) != m or any(abs(k) >= m for k in v[:-1]):
        raise NotDestabilizable(
            f"word does not free-reduce to v sigma_{m}^+-1 with v in the subgroup below"
        )
    return BraidWord(w.strands - 1, v[:-1])


def exchange(w: BraidWord) -> BraidWord:
    """Swap the signs of the unique top-strand generator pair.

    Requires the word to factor as B1 s^e B2 s^-e where s is the top
    generator and B1, B2 avoid it; the word is taken literally, falling
    back to its free reduction.
    """
    m = w.strands - 1
    if m < 1:
        raise NoExchangePattern("no top generator on one strand")
    for v in (w.letters, _free_reduce(w.letters)):
        hits = [i for i, k in enumerate(v) if abs(k) == m]
        if len(hits) == 2 and v[hits[0]] == -v[hits[1]]:
            i, j = hits
            return BraidWord(w.strands, v[:i] + (-v[i],) + v[i + 1 : j] + (-v[j],) + v[j + 1 :])
    raise NoExchangePattern(f"word does not factor through two opposite sigma_{m} letters")


@dataclass(frozen=True)
class BraidInvariants:
    exponent_sum: int
    strand_perm: tuple[int, ...]  # entry position -> exit position, 1-indexed
    cycle_type: tuple[int, ...]   # partition of the strand count, descending


def invariants(w: BraidWord) -> BraidInvariants:
    n = w.strands
    by_position = list(range(n))  # strand id occupying each position
    for k in w.letters:
        i = abs(k) - 1
        by_position[i], by_position[i + 1] = by_position[i + 1], by_position[i]
    perm = [0] * n
    for pos, strand in enumerate(by_position):
        perm[strand] = pos + 1
    cycles = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        t = s
        while not seen[t]:
            seen[t] = True
            t = perm[t] - 1
            length += 1
        cycles.append(length)
    return BraidInvariants(
        exponent_sum=sum(1 if k > 0 else -1 for k in w.letters),
        strand_perm=tuple(perm),
        cycle_type=tuple(sorted(cycles, reverse=True)),
    )


def closure_components(w: BraidWord) -> int:
    """Number of link components of the braid closure."""
    return len(invariants(w).cycle_type)


# ---------------------------------------------------------------------------
# Oracles


@dataclass(frozen=True)
class OracleResult:
    verdict: str  # YES / NO / UNKNOWN
    witness: object = None
    reason: str = ""


def _cyclic_key(red: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Least free-reduced rotation of a reduced word, with its offset.

    Rotating by offset k conjugates by the inverse of the length-k
    prefix, so two words with equal keys are conjugate by an explicit
    bridge word.
    """
    if not red:
        return red, 0
    best = None
    best_k = 0
    for k in range(len(red)):
        cand = _free_reduce(red[k:] + red[:k])
        if best is None or cand < best:
            best = cand
            best_k = k
    return best, best_k


def _cyclic_state(letters: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(reduced word, canonical rotation key, rotation offset)."""
    red = reduce_handles(tuple(letters))
    key, k = _cyclic_key(red)
    return red, key, k


def _bridge_conjugator(red_from: tuple[int, ...], k_from: int, red_to: tuple[int, ...], k_to: int) -> tuple[int, ...]:
    """u with  u . w_from . u^-1 = w_to  when both rotate to the same key."""
    p_from = red_from[:k_from]
    p_to = red_to[:k_to]
    return _free_reduce(p_to + inverse_letters(p_from))


def conjugacy_no_reason(w1: BraidWord, w2: BraidWord) -> str | None:
    """The first conjugation invariant on which w1 and w2 differ, or None."""
    inv1, inv2 = invariants(w1), invariants(w2)
    if inv1.exponent_sum != inv2.exponent_sum:
        return f"exponent_sum: {inv1.exponent_sum} vs {inv2.exponent_sum}"
    if inv1.cycle_type != inv2.cycle_type:
        return f"cycle_type: {inv1.cycle_type} vs {inv2.cycle_type}"
    return None


def conjugacy_oracle(
    w1: BraidWord,
    w2: BraidWord,
    max_depth: int = 12,
    max_states: int = 20000,
) -> OracleResult:
    """Bounded breadth-first search for a conjugator.

    Yes carries a witness u with u w1 u^-1 = w2; No cites a conjugation
    invariant that differs; Unknown means the budget ran out.
    """
    if w1.strands != w2.strands:
        raise StrandMismatch(f"{w1.strands} strands vs {w2.strands}")
    reason = conjugacy_no_reason(w1, w2)
    if reason is not None:
        return OracleResult(NO, reason=reason)

    n = w1.strands
    gens = [g for i in range(1, n) for g in (i, -i)]
    t_red = reduce_handles(w2.letters)
    t_inv = inverse_letters(t_red)
    t_key, t_k = _cyclic_key(t_red)

    def found(u_sofar: tuple[int, ...], red_s: tuple[int, ...], exact: bool) -> OracleResult:
        if exact:
            u = _free_reduce(u_sofar)
        else:
            key_s, k_s = _cyclic_key(red_s)
            u = _free_reduce(_bridge_conjugator(red_s, k_s, t_red, t_k) + u_sofar)
        witness = BraidWord(n, u)
        if not words_equal(conjugate(w1, witness), w2):  # pragma: no cover - soundness guard
            raise GridKnotError("conjugacy witness failed verification")
        return OracleResult(YES, witness=witness)

    def hit(red_s: tuple[int, ...], u_sofar: tuple[int, ...]) -> OracleResult | None:
        if not reduce_handles(red_s + t_inv):
            return found(u_sofar, red_s, exact=True)
        if _cyclic_key(red_s)[0] == t_key:
            return found(u_sofar, red_s, exact=False)
        return None

    # states are deduplicated by their exact reduced word, so breadth-first
    # depth equals conjugator length; hits are detected semantically.
    red0 = reduce_handles(w1.letters)
    states: dict[tuple[int, ...], tuple[int, ...]] = {red0: ()}
    frontier = [red0]
    res = hit(red0, ())
    if res is not None:
        return res
    for _ in range(max_depth):
        nxt = []
        for red_s in frontier:
            u_sofar = states[red_s]
            for g in gens:
                red2 = reduce_handles((g,) + red_s + (-g,))
                if red2 in states:
                    continue
                u2 = (g,) + u_sofar
                states[red2] = u2
                res = hit(red2, u2)
                if res is not None:
                    return res
                if len(states) >= max_states:
                    return OracleResult(UNKNOWN, reason="state budget exhausted")
                nxt.append(red2)
        if not nxt:
            break
        frontier = nxt
    return OracleResult(UNKNOWN, reason="depth budget exhausted")


@dataclass(frozen=True)
class BwStep:
    """One step of a conjugation/stabilization script: the move plus the word after."""

    kind: str  # "conj" | "stab+" | "destab+"
    conjugator: BraidWord | None
    word: BraidWord


def verify_steps(start: BraidWord, steps: Sequence[BwStep]) -> bool:
    """Check every transition of a step script in the braid group."""
    cur = start
    for step in steps:
        if step.kind == "conj":
            if step.conjugator is None or step.word.strands != cur.strands:
                return False
            if not words_equal(conjugate(cur, step.conjugator), step.word):
                return False
        elif step.kind == "stab+":
            if step.word.strands != cur.strands + 1:
                return False
            if not words_equal(BraidWord(step.word.strands, cur.letters + (cur.strands,)), step.word):
                return False
        elif step.kind == "destab+":
            if step.word.strands != cur.strands - 1:
                return False
            lifted = BraidWord(cur.strands, step.word.letters + (step.word.strands,))
            if not words_equal(lifted, cur):
                return False
        else:
            return False
        cur = step.word
    return True


def birman_wrinkle_script(
    b1: BraidWord | Sequence[int], b2: BraidWord | Sequence[int], n: int
) -> list[BwStep]:
    """Express an exchange move as conjugations and one positive
    stabilization/destabilization pair.

    Starting from  B1 s B2 s^-1  (s the top generator of the n-strand
    group, B1 and B2 below it), returns the seven-step script ending at
    a word equal to  B1 s^-1 B2 s; every transition and both in-line
    rewritings are checked with words_equal during construction.
    """
    b1 = b1.letters if isinstance(b1, BraidWord) else tuple(int(v) for v in b1)
    b2 = b2.letters if isinstance(b2, BraidWord) else tuple(int(v) for v in b2)
    m = n - 1
    if m < 1:
        raise GridKnotError("need at least two strands")
    for k in b1 + b2:
        if k == 0 or abs(k) >= m:
            raise GridKnotError(f"letter {k} not in the subgroup below sigma_{m}")

    def bw(letters: Sequence[int], strands: int) -> BraidWord:
        return BraidWord(strands, tuple(letters))

    start = bw(b1 + (m,) + b2 + (-m,), n)
    steps: list[BwStep] = []

    def push_conj(u: Sequence[int], after: BraidWord) -> None:
        steps.append(BwStep("conj", bw(u, after.strands), after))

    w1 = bw((m,) + b1 + (m,) + b2 + (-m, -m), n)
    push_conj((m,), w1)

    w2 = bw(w1.letters + (n,), n + 1)
    steps.append(BwStep("stab+", None, w2))

    w3 = bw(b1 + (m,) + b2 + (-m, -m, n, m), n + 1)
    push_conj((-m,), w3)
    w3_alt = bw(b1 + (m,) + b2 + (n, m, -n, -n), n + 1)
    _check_rewrite(w3, w3_alt)

    w4 = bw((-n, -n) + b1 + (m, n) + b2 + (m,), n + 1)
    push_conj((-n, -n), w4)
    w4_alt = bw(b1 + (m, n, -m, -m) + b2 + (m,), n + 1)
    _check_rewrite(w4, w4_alt)

    w5 = bw((-m, -m) + b2 + (m,) + b1 + (m, n), n + 1)
    push_conj((-n, -m) + inverse_letters(b1), w5)

    w6 = bw((-m, -m) + b2 + (m,) + b1 + (m,), n)
    steps.append(BwStep("destab+", None, w6))

    w7 = bw(b1 + (-m,) + b2 + (m,), n)
    push_conj((-m,) + inverse_letters(b2) + (m, m), w7)

    if not verify_steps(start, steps):  # pragma: no cover - theorem guard
        raise GridKnotError("stabilization script failed verification")
    return steps


def _check_rewrite(a: BraidWord, b: BraidWord) -> None:
    if not words_equal(a, b):  # pragma: no cover - theorem guard
        raise GridKnotError("in-line rewriting failed verification")


def _markov_no_reason(w1: BraidWord, w2: BraidWord) -> str | None:
    sl1 = sum(1 if k > 0 else -1 for k in w1.letters) - w1.strands
    sl2 = sum(1 if k > 0 else -1 for k in w2.letters) - w2.strands
    if sl1 != sl2:
        return f"exponent_sum - strands: {sl1} vs {sl2}"
    c1, c2 = closure_components(w1), closure_components(w2)
    if c1 != c2:
        return f"closure components: {c1} vs {c2}"
    return None


def markov_oracle(
    w1: BraidWord,
    w2: BraidWord,
    max_depth: int = 8,
    max_states: int = 6000,
    max_strands: int | None = None,
) -> OracleResult:
    """Bounded bidirectional search under conjugation and positive
    (de)stabilization.

    Yes carries a step script from w1 to w2 (checkable with
    verify_steps); No cites the writhe-minus-strands obstruction or a
    component-count mismatch; otherwise Unknown at budget.
    """
    reason = _markov_no_reason(w1, w2)
    if reason is not None:
        return OracleResult(NO, reason=reason)
    if max_strands is None:
        max_strands = max(w1.strands, w2.strands) + 1

    # state: (strands, cyclic key) -> (reduced word, rotation offset, path);
    # path entries carry the word they produce: (kind, payload, reduced, strands)
    roots = (w1, w2)
    sides: list[dict] = []
    for root in roots:
        red, key, k = _cyclic_state(root.letters)
        sides.append({(root.strands, key): (red, k, ())})
    frontiers = [list(sides[0]), list(sides[1])]

    def meet(skey, side: int, entry) -> OracleResult:
        fwd, bwd = (entry, sides[1][skey]) if side == 0 else (sides[0][skey], entry)
        bridge = _bridge_conjugator(fwd[0], fwd[1], bwd[0], bwd[1])
        return _assemble_markov_witness(w1, w2, fwd[2], bwd[2], bridge, BraidWord(skey[0], bwd[0]))

    def meets_root(side: int, red2, new_strands, path) -> OracleResult | None:
        other = roots[1 - side]
        if new_strands != other.strands:
            return None
        if reduce_handles(red2 + inverse_letters(other.letters)):
            return None
        if side == 0:
            return _assemble_markov_witness(w1, w2, path, (), (), other)
        return _assemble_markov_witness(w1, w2, (), path, (), BraidWord(other.strands, red2))

    k0 = next(iter(sides[0]))
    if k0 in sides[1]:
        return meet(k0, 0, sides[0][k0])
    res = meets_root(0, reduce_handles(w1.letters), w1.strands, ())
    if res is not None:
        return res

    total = 2
    for _ in range(max_depth):
        side = 0 if len(sides[0]) <= len(sides[1]) else 1
        if not frontiers[side]:
            side = 1 - side
        if not frontiers[side]:
            break
        here, there = sides[side], sides[1 - side]
        nxt = []
        for cur_key in frontiers[side]:
            red_s, _, path = here[cur_key]
            for kind, payload, new_letters, new_strands in _markov_moves(
                red_s, cur_key[0], max_strands
            ):
                red2, key2, k2 = _cyclic_state(new_letters)
                skey = (new_strands, key2)
                if skey in here:
                    continue
                entry = (red2, k2, path + ((kind, payload, red2, new_strands),))
                here[skey] = entry
                total += 1
                if skey in there:
                    return meet(skey, side, entry)
                res = meets_root(side, red2, new_strands, entry[2])
                if res is not None:
                    return res
                if total >= max_states:
                    return OracleResult(UNKNOWN, reason="state budget exhausted")
                nxt.append(skey)
        frontiers[side] = nxt
        if not frontiers[0] and not frontiers[1]:
            break
    return OracleResult(UNKNOWN, reason="depth budget exhausted")


def _markov_moves(letters: tuple[int, ...], strands: int, max_strands: int):
    for i in range(1, strands):
        for g in (i, -i):
            yield "conj", g, (g,) + letters + (-g,), strands
    if strands < max_strands:
        yield "stab+", None, letters + (strands,), strands + 1
    m = strands - 1
    if letters and letters[-1] == m and all(abs(k) < m for k in letters[:-1]):
        yield "destab+", None, letters[:-1], strands - 1
    # exchange as a derived move: it expands to conjugations and one
    # positive stabilization/destabilization pair in the witness
    for rot, _, b1, b2, sign, swapped in _exchange_rotations(letters, strands):
        yield "exch", rot, swapped, strands


def _exchange_rotations(letters: tuple[int, ...], strands: int):
    """Rotations of the word exposing a literal trailing exchange pattern."""
    m = strands - 1
    length = len(letters)
    if m < 1 or length < 2:
        return
    for rot in range(length):
        v = letters[rot:] + letters[:rot]
        if abs(v[-1]) != m:
            continue
        hits = [i for i, k in enumerate(v) if abs(k) == m]
        if len(hits) != 2 or v[hits[0]] != -v[hits[1]]:
            continue
        i = hits[0]
        b1, b2 = v[:i], v[i + 1 : -1]
        sign = 1 if v[i] > 0 else -1
        swapped = b1 + (-v[i],) + b2 + (v[i],)
        yield rot, v, b1, b2, sign, swapped


def _expand_path(root: BraidWord, path) -> list[BwStep]:
    """Turn a search path into explicit steps, unfolding derived moves."""
    steps: list[BwStep] = []
    prev_red = reduce_handles(root.letters)
    prev_strands = root.strands
    for kind, payload, red, strands in path:
        after = BraidWord(strands, red)
        if kind == "conj":
            steps.append(BwStep("conj", BraidWord(strands, (payload,)), after))
        elif kind in ("stab+", "destab+"):
            steps.append(BwStep(kind, None, after))
        elif kind == "exch":
            steps.extend(_expand_exchange(prev_red, prev_strands, payload))
        else:  # pragma: no cover - internal
            raise GridKnotError(f"unknown step kind {kind!r}")
        prev_red, prev_strands = red, strands
    return steps


def _expand_exchange(red: tuple[int, ...], strands: int, rot: int) -> list[BwStep]:
    """Rotation conjugation followed by the seven-step exchange script."""
    for r, v, b1, b2, sign, swapped in _exchange_rotations(red, strands):
        if r != rot:
            continue
        steps = [BwStep("conj", BraidWord(strands, inverse_letters(red[:rot])), BraidWord(strands, v))]
        if sign > 0:
            steps.extend(birman_wrinkle_script(b1, b2, strands))
        else:
            forward = birman_wrinkle_script(b1, b2, strands)
            steps.extend(_invert_steps(BraidWord(strands, swapped), forward))
        return steps
    raise GridKnotError("exchange rotation vanished during expansion")  # pragma: no cover


def _invert_steps(start: BraidWord, steps: Sequence[BwStep]) -> list[BwStep]:
    """The reverse script: run the steps backwards, inverting each move."""
    words = [start] + [s.word for s in steps]
    out: list[BwStep] = []
    for k in range(len(steps) - 1, -1, -1):
        s = steps[k]
        prev = words[k]
        if s.kind == "conj":
            out.append(BwStep("conj", BraidWord(prev.strands, inverse_letters(s.conjugator.letters)), prev))
        elif s.kind == "stab+":
            out.append(BwStep("destab+", None, prev))
        else:
            out.append(BwStep("stab+", None, prev))
    return out


def _assemble_markov_witness(w1, w2, f_path, b_path, bridge, meet_word: BraidWord) -> OracleResult:
    """Stitch forward path, rotation bridge, and inverted backward path."""
    steps = _expand_path(w1, f_path)
    steps.append(BwStep("conj", BraidWord(meet_word.strands, tuple(bridge)), meet_word))
    back_steps = _expand_path(w2, b_path)
    steps.extend(_invert_steps(w2, back_steps))

    if not verify_steps(w1, steps) or not words_equal(steps[-1].word, w2):
        raise GridKnotError("stabilization witness failed verification")  # pragma: no cover
    return OracleResult(YES, witness=tuple(steps))


def exchange_related(
    w1: BraidWord,
    w2: BraidWord,
    max_depth: int = 4,
    max_states: int = 4000,
) -> bool:
    """True if w1 and w2 differ by conjugations and at most one exchange.

    Checks conjugacy outright (zero exchanges), then searches conjugates
    of w1 for one whose literal exchange is conjugate to w2.
    """
    if w1.strands != w2.strands:
        raise StrandMismatch(f"{w1.strands} strands vs {w2.strands}")
    if conjugacy_oracle(w1, w2, max_depth=max_depth, max_states=max_states).verdict == YES:
        return True
    n = w1.strands
    gens = [g for i in range(1, n) for g in (i, -i)]
    seen = {reduce_handles(w1.letters)}
    frontier = list(seen)

    def try_exchange(red: tuple[int, ...]) -> bool:
        try:
            e = exchange(BraidWord(n, red))
        except NoExchangePattern:
            return False
        return conjugacy_oracle(e, w2, max_depth=max_depth, max_states=max_states).verdict == YES

    if try_exchange(next(iter(seen))):
        return True
    for _ in range(max_depth):
        nxt = []
        for red_s in frontier:
            for g in gens:
                red2 = reduce_handles((g,) + red_s + (-g,))
                if red2 in seen:
                    continue
                seen.add(red2)
                if try_exchange(red2):
                    return True
                if len(seen) >= max_states:
                    return False
                nxt.append(red2)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# Text format


def parse_word(text: str) -> BraidWord:
    """Whitespace-separated signed integers, optional ``n=K;`` prefix."""
    strands = None
    letters = []
    for lineno, raw in enumerate(text.splitlines() or [""], start=1):
        pos = raw.find("#")
        line = raw if pos < 0 else raw[:pos]
        for tok in line.split():
            if tok.startswith("n="):
                if strands is not None or letters:
                    raise GridSyntaxError("strand prefix must come first", line=lineno, column=1)
                body = tok[2:].rstrip(";")
                if not body.isdigit():
                    raise GridSyntaxError(f"bad strand count {tok!r}", line=lineno, column=1)
                strands = int(body)
            else:
                try:
                    letters.append(int(tok))
                except ValueError:
                    raise GridSyntaxError(f"bad letter {tok!r}", line=lineno, column=1) from None
    try:
        return word(letters, strands)
    except GridKnotError as exc:
        raise GridSyntaxError(str(exc), line=1, column=1) from None


def format_word(w: BraidWord) -> str:
    """Two lines: the strand prefix, then the letters (blank if none)."""
    return f"n={w.strands};\n" + " ".join(str(k) for k in w.letters) + "\n"
