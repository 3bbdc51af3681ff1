"""Tests of the benchmark's checker and ground truth.

    python3 -m pytest gridbench -q

Each way a wrong answer can look must count as a failed query: a
flipped verdict, a grid script one move short, a conjugator off by one
letter.  The Burau check must agree with gridknot's word problem on
3-strand words, and the TC NO construction must hold on small grids.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import truth  # noqa: E402
import worker  # noqa: E402
from gridknot import EquivResult, MoveScript, OracleResult, braid, moves  # noqa: E402


def loaded(tmp_path, queries):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(queries))
    return worker.load(str(path))


@pytest.fixture(scope="module")
def equiv_queries(tmp_path_factory):
    qs = [q for q in corpus.equiv_search(7) if "knots" not in q["family"]]
    return loaded(tmp_path_factory.mktemp("e"), qs)


@pytest.fixture(scope="module")
def braid_queries(tmp_path_factory):
    qs = [q for q in corpus.braid_oracles(7) if q["family"] != "conj-no-burau"]
    return loaded(tmp_path_factory.mktemp("b"), qs)


def test_correct_answers_pass(equiv_queries, braid_queries):
    for gk, qs in (equiv_queries, braid_queries):
        for q in qs:
            verdict, value = worker.run_query(gk, q)
            assert checks.check(q, verdict, value) is None, q["family"]


def test_flipped_verdict_fails(equiv_queries, braid_queries):
    for gk, qs in (equiv_queries, braid_queries):
        for family in ("yes-", "no-", "conj-yes", "markov-no-sl"):
            q = next((q for q in qs if q["family"].startswith(family)), None)
            if q is None:
                continue
            verdict, value = worker.run_query(gk, q)
            flipped = "no" if verdict == "yes" else "yes"
            assert checks.check(q, flipped, value)


def test_script_one_move_short_fails(equiv_queries):
    gk, qs = equiv_queries
    tried = 0
    for q in qs:
        if q["truth"] != "yes":
            continue
        r = gk.equivalent(q["g1"], q["g2"], q["cls"], q["search_budget"])
        if r.verdict != "yes" or not r.script.moves:
            continue
        short = EquivResult("yes", script=MoveScript(r.script.moves[:-1]))
        assert checks.check(q, "yes", short) == "script does not end at the target"
        tried += 1
    assert tried >= 10


def test_script_outside_class_fails(equiv_queries):
    gk, qs = equiv_queries
    q = next(q for q in qs if q["family"] == "yes-L")
    r = gk.equivalent(q["g1"], q["g2"], "L", q["search_budget"])
    bad = EquivResult("yes", script=MoveScript((moves.Stabilize("X", "NW", 0),) + r.script.moves))
    assert "outside class" in checks.check(q, "yes", bad)


def test_conjugator_off_by_one_letter_fails(braid_queries):
    gk, qs = braid_queries
    tried = 0
    for q in qs:
        if q["family"] != "conj-yes":
            continue
        r = gk.conjugacy_oracle(q["w1"], q["w2"], **q["budget"])
        u = r.witness.letters
        for wrong in (u + (1,), u + (-2,), u[:-1], u[1:]):
            bad = braid.BraidWord(3, wrong)
            if braid.words_equal(braid.conjugate(q["w1"], bad), q["w2"]):
                continue  # this letter happens to commute with the word
            assert checks.check(q, "yes", OracleResult("yes", witness=bad)) == "conjugator fails the Burau check"
            tried += 1
    assert tried >= 16


def test_markov_script_between_other_words_fails(braid_queries):
    gk, qs = braid_queries
    q = next(q for q in qs if q["family"] == "markov-yes-exchange")
    r = gk.markov_oracle(q["w1"], q["w2"], **q["budget"])
    assert checks.check(dict(q, w1=braid.BraidWord(4, (1,) + q["w1"].letters)), "yes", r)
    assert checks.check(dict(q, w2=braid.BraidWord(4, q["w2"].letters + (1,))), "yes", r)


def test_time_budget_fails_and_state_budget_passes(equiv_queries):
    q = equiv_queries[1][0]
    assert checks.check(q, "unknown", EquivResult("unknown", reason="time budget exhausted"))
    assert checks.check(q, "unknown", EquivResult("unknown", reason="state budget exhausted")) is None


def test_orbit_size_and_o_stab_checks(tmp_path):
    gk, qs = loaded(tmp_path, [q for q in corpus.tc_orbits(7) if q["op"] in ("orbit_size", "o_stab_script")][:8])
    for q in qs:
        verdict, value = worker.run_query(gk, q)
        assert checks.check(q, verdict, value) is None
        if q["op"] == "orbit_size":
            assert checks.check(q, verdict, value + 1)
        else:
            assert checks.check(q, verdict, MoveScript(value.moves[:-1]))
            wrong_corner = [
                moves.Stabilize("X", q["corner"], m.col) if isinstance(m, moves.Stabilize) else m for m in value.moves
            ]
            assert checks.check(q, verdict, MoveScript(tuple(wrong_corner)))


def random_relator_insert(letters, rng):
    """Insert a braid relation or a cancelling pair somewhere in a 3-strand word."""
    i = rng.randrange(len(letters) + 1)
    piece = rng.choice(((1, 2, 1, -2, -1, -2), (2, 1, 2, -1, -2, -1), (1, -1), (-2, 2)))
    return letters[:i] + piece + letters[i:]


def test_burau_agrees_with_words_equal():
    rng = random.Random(11)
    for _ in range(300):
        w = corpus.random_letters(3, rng.randint(0, 12), rng)
        if rng.random() < 0.5:
            v = w
            for _ in range(rng.randint(1, 3)):
                v = random_relator_insert(v, rng)
        else:
            v = corpus.random_letters(3, rng.randint(0, 12), rng)
        same = braid.words_equal(braid.BraidWord(3, w), braid.BraidWord(3, v))
        assert (truth.burau3(w) == truth.burau3(v)) == same


def test_burau_trace_is_a_conjugacy_invariant():
    rng = random.Random(12)
    for _ in range(100):
        w = corpus.random_letters(3, 8, rng)
        u = corpus.random_letters(3, 4, rng)
        assert truth.burau3_trace(w) == truth.burau3_trace(corpus.conj(w, u))
        assert truth.burau3_conjugates(u, w, corpus.conj(w, u))


def test_tb_changing_stabilizations_are_never_tc_equal():
    rng = random.Random(13)
    for _ in range(40):
        g = corpus.random_grid(rng.choice((3, 4)), rng)
        for c1, c2 in (("NW", "NE"), ("SE", "SW")):
            a = moves.apply(g, moves.Stabilize("X", c1, rng.randrange(g.n)))
            b = moves.apply(g, moves.Stabilize("X", c2, rng.randrange(g.n)))
            assert not truth.tc_connected(a.n, (a.x, a.o), (b.x, b.o))
            assert (b.x, b.o) not in truth.tc_orbit(a.n, a.x, a.o)


def test_corpus_depends_only_on_the_seed():
    for make in corpus.WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3) != make(4)
