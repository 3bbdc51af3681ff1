import math

import pytest

from gridknot import equiv
from gridknot.cli import main

U2_TEXT = "2\nX: 1 0\nO: 0 1\n"


@pytest.fixture
def u2_file(tmp_path):
    p = tmp_path / "u2.grid"
    p.write_text(U2_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_validate(self, capsys, u2_file):
        code, out, _ = run(capsys, "validate", u2_file)
        assert code == 0
        assert out == "n=2 components=1 crossings=0 writhe=0\n"

    def test_validate_rejects(self, capsys, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_text("2\nX: 1 0\nO: 1 0\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        assert "same row" in err

    def test_render(self, capsys, u2_file):
        code, out, _ = run(capsys, "render", u2_file)
        assert (code, out) == (0, "X O\nO X\n")

    def test_convert_braid(self, capsys, u2_file):
        code, out, _ = run(capsys, "convert", "--to", "braid", u2_file)
        assert (code, out) == (0, "n=1;\n\n")

    def test_convert_invariants(self, capsys, u2_file):
        code, out, _ = run(capsys, "convert", "--to", "invariants", u2_file)
        assert (code, out) == (0, "tb=-1 r=0 sl=-1\n")

    def test_convert_front(self, capsys, u2_file):
        code, out, _ = run(capsys, "convert", "--to", "front", u2_file)
        assert out == "right_cusps=1 left_cusps=1 up_cusps=1 down_cusps=1 writhe=0\n"

    def test_symmetry(self, capsys, u2_file):
        code, out, _ = run(capsys, "symmetry", u2_file, "--op", "s2")
        assert (code, out) == (0, "2\nX: 0 1\nO: 1 0\n")

    def test_usage_error_exit_code(self, capsys, u2_file):
        with pytest.raises(SystemExit) as e:
            main(["convert", "--to", "nonsense", u2_file])
        assert e.value.code == 2


class TestApplyAndRoundtrips:
    def test_apply_script(self, capsys, tmp_path, u2_file):
        script = tmp_path / "s.moves"
        script.write_text("SX NE 0\n")
        out_file = tmp_path / "out.grid"
        code, _, _ = run(capsys, "apply", u2_file, str(script), "-o", str(out_file))
        assert code == 0
        assert out_file.read_text() == "3\nX: 2 1 0\nO: 1 0 2\n"

    def test_emitted_files_reread(self, capsys, tmp_path, u2_file):
        # braid-to-grid output feeds back into convert, reproducing the word
        out_file = tmp_path / "w.grid"
        code, _, _ = run(capsys, "braid-to-grid", "n=3; -2 1 2 2 1 1", "-o", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "convert", "--to", "braid", str(out_file))
        assert (code, out) == (0, "n=3;\n-2 1 2 2 1 1\n")

    def test_braid_word_default_strands(self, capsys, tmp_path):
        out_file = tmp_path / "w.grid"
        code, _, _ = run(capsys, "braid-to-grid", "1 1 1", "-o", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(out_file))
        assert out.startswith("n=7 components=1")


class TestEquivCommand:
    def test_no_with_reason(self, capsys, tmp_path, u2_file):
        other = tmp_path / "nw.grid"
        other.write_text("3\nX: 1 2 0\nO: 0 1 2\n")  # the X:NW stabilization
        code, out, _ = run(capsys, "equiv", u2_file, str(other), "--class", "L")
        assert (code, out) == (0, "NO (tb: -1 vs -2)\n")

    def test_yes_prints_script(self, capsys, tmp_path, u2_file):
        other = tmp_path / "nw.grid"
        other.write_text("3\nX: 1 2 0\nO: 0 1 2\n")
        code, out, _ = run(capsys, "equiv", u2_file, str(other), "--class", "K")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "YES" and len(lines) == 2

    def test_yes_script_is_replayable(self, capsys, tmp_path, u2_file):
        from gridknot.grid import parse, validate
        from gridknot.moves import parse_script

        other = tmp_path / "nw.grid"
        other.write_text("3\nX: 1 2 0\nO: 0 1 2\n")
        _, out, _ = run(capsys, "equiv", u2_file, str(other), "--class", "K")
        script = parse_script(out.partition("\n")[2])
        assert script.replay(validate(2, [1, 0], [0, 1])) == parse(other.read_text())

    def test_unknown_under_budget(self, capsys, tmp_path, u2_file):
        other = tmp_path / "big.grid"
        other.write_text("4\nX: 3 2 1 0\nO: 2 1 0 3\n")
        code, out, _ = run(
            capsys, "equiv", u2_file, str(other), "--class", "K", "--max-states", "2", "--max-grid", "4"
        )
        assert (code, out) == (0, "UNKNOWN\n")

    @pytest.mark.parametrize("flag, seconds", [((), math.inf), (("--max-seconds", "2.5"), 2.5)])
    def test_time_budget_only_when_asked(self, capsys, monkeypatch, u2_file, flag, seconds):
        budgets = []

        def spy(g1, g2, move_class, budget):
            budgets.append(budget)
            return equiv.EquivResult(equiv.UNKNOWN)

        monkeypatch.setattr(equiv, "equivalent", spy)
        run(capsys, "equiv", u2_file, u2_file, "--class", "K", *flag)
        assert [(b.max_states, b.max_seconds) for b in budgets] == [(200000, seconds)]

    def test_yes_script_text(self, capsys, tmp_path, u2_file):
        # three class-L moves from u2: SX NE 0, TU, SX SW 1; the script
        # found depends on the order in which moves are tried
        other = tmp_path / "l3.grid"
        other.write_text("4\nX: 0 3 2 1\nO: 2 1 3 0\n")
        code, out, _ = run(capsys, "equiv", u2_file, str(other), "--class", "L")
        assert (code, out) == (0, "YES\nTU\nSX NE 1\nSX SW 1\n")


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "roundtrip", "--trials", "10", "--seed", "3")
        assert code == 0
        assert out.startswith("suite=roundtrip trials=10 seed=3\n")
        assert out.endswith("PASS\n")

    @pytest.mark.parametrize("suite", ["table1", "table2", "roundtrip", "bw", "slcoherence", "markov"])
    def test_every_suite_runs(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "4", "--seed", "2")
        assert code == 0
        assert out.endswith("PASS\n")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert err == (
            "error: unknown suite 'bogus'; choose from table1, table2, roundtrip, bw, slcoherence, markov\n"
        )

    def test_deterministic_output(self, capsys):
        argv = ("verify", "--suite", "slcoherence", "--trials", "25", "--seed", "11")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
