import random
from pathlib import Path

import pytest

from coptw import read_coptw, write_coptw
from coptw.bench import CSV_HEADER
from coptw.cli import main

from conftest import random_instance

SOLOMON_SMALL = """\
* tiny synthetic file
6 1
0 0.0 0.0 0.0 0 1 1 0 200
1 10.0 0.0 5.0 20 1 1 0 150
2 0.0 12.0 5.0 30 1 1 0 160
3 -8.0 3.0 5.0 10 1 1 10 170
4 5.0 5.0 5.0 25 1 1 0 150
5 -4.0 -6.0 5.0 15 1 1 20 180
6 7.0 -7.0 5.0 35 1 1 0 160
"""

CORDEAU_SMALL = """\
3 4 180
0 0.0 0.0 0.0 0 1 1 0 180
1 9.0 1.0 4.0 22 1 1 0 140
2 -3.0 11.0 4.0 18 1 1 10 150
3 6.0 -9.0 4.0 28 1 1 0 160
4 -10.0 -2.0 4.0 12 1 1 5 150
"""


def write_inputs(tmp_path):
    a = tmp_path / "s100_1.txt"
    a.write_text(SOLOMON_SMALL)
    b = tmp_path / "q01_1.txt"
    b.write_text(CORDEAU_SMALL)
    return a, b


class TestAugmentCommand:
    def test_writes_normalized_file(self, tmp_path, capsys):
        src, _ = write_inputs(tmp_path)
        out = tmp_path / "a.coptw"
        code = main(["augment", str(src), "-o", str(out), "--seed", "7",
                     "-n", "4", "-P", "3"])
        assert code == 0
        inst = read_coptw(out.read_text())
        assert inst.n_customers == 4
        assert inst.team_size == 3
        assert all(1 <= r <= 3 for r in inst.requirements[1:])
        assert "wrote" in capsys.readouterr().out

    def test_identical_bytes_across_runs(self, tmp_path):
        src, _ = write_inputs(tmp_path)
        out1, out2 = tmp_path / "x1.coptw", tmp_path / "x2.coptw"
        assert main(["augment", str(src), "-o", str(out1), "--seed", "9"]) == 0
        assert main(["augment", str(src), "-o", str(out2), "--seed", "9"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cordeau_autodetected(self, tmp_path):
        _, src = write_inputs(tmp_path)
        out = tmp_path / "c.coptw"
        assert main(["augment", str(src), "-o", str(out), "--seed", "3"]) == 0
        assert read_coptw(out.read_text()).n_customers == 4

    def test_unknown_layout_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("hello world this is not a benchmark\n")
        assert main(["augment", str(bad), "-o", str(tmp_path / "o.coptw")]) == 2
        err = capsys.readouterr().err
        assert "bad.txt" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["augment", str(tmp_path / "nope.txt")]) == 2


class TestSolveVerifyOracle:
    def make_coptw(self, tmp_path, seed=1):
        src, _ = write_inputs(tmp_path)
        out = tmp_path / "inst.coptw"
        assert main(["augment", str(src), "-o", str(out), "--seed", str(seed),
                     "-P", "2"]) == 0
        return out

    def test_solve_then_verify_round_trip(self, tmp_path, capsys):
        inst_path = self.make_coptw(tmp_path)
        sol_path = tmp_path / "inst.sol"
        assert main(["solve", str(inst_path), "-o", str(sol_path)]) == 0
        out = capsys.readouterr().out
        assert "score:" in out and "time:" in out
        assert main(["verify", str(inst_path), str(sol_path)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_default_solution_suffix(self, tmp_path):
        inst_path = self.make_coptw(tmp_path)
        assert main(["solve", str(inst_path)]) == 0
        assert inst_path.with_suffix(".sol").exists()

    def test_tampered_solution_fails_verify(self, tmp_path, capsys):
        inst_path = self.make_coptw(tmp_path)
        sol_path = tmp_path / "inst.sol"
        assert main(["solve", str(inst_path), "-o", str(sol_path)]) == 0
        text = sol_path.read_text()
        lines = text.splitlines()
        # claim a higher score than the routes collect
        lines[-1] = "score: 99999.0"
        sol_path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(inst_path), str(sol_path)]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_mismatched_files_error(self, tmp_path):
        inst_path = self.make_coptw(tmp_path)
        alien = tmp_path / "alien.sol"
        alien.write_text("member 1: 42\nmember 2:\nscore: 5.0\n")
        assert main(["verify", str(inst_path), str(alien)]) == 2

    def test_nonfinite_velocity_exit_2(self, tmp_path):
        src, _ = write_inputs(tmp_path)
        inst_path = self.make_coptw(tmp_path)
        lines = inst_path.read_text().splitlines()
        for velocity in ("nan", "inf"):
            n, p, t_max, _ = lines[1].split()
            lines[1] = f"{n} {p} {t_max} {velocity}"
            inst_path.write_text("\n".join(lines) + "\n")
            assert main(["solve", str(inst_path)]) == 2
            assert not inst_path.with_suffix(".sol").exists()
            assert main(["augment", str(src), "-o", str(tmp_path / "v.coptw"),
                         "-V", velocity]) == 2

    def test_member_line_without_colon_exit_2(self, tmp_path):
        inst_path = self.make_coptw(tmp_path)
        sol_path = tmp_path / "inst.sol"
        sol_path.write_text("member 1 1\nmember 2:\nscore: 0.0\n")
        assert main(["verify", str(inst_path), str(sol_path)]) == 2

    def test_workers_below_one_exit_2(self, tmp_path):
        inst_path = self.make_coptw(tmp_path)
        for argv in (["solve", str(inst_path)], ["bench", str(tmp_path), "-o", "x.csv"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--workers", "0"])
            assert exc.value.code == 2

    def test_oracle_command(self, tmp_path, capsys):
        inst_path = self.make_coptw(tmp_path)
        assert main(["oracle", str(inst_path), "--time-limit", "30"]) == 0
        out = capsys.readouterr().out
        assert "proven optimal" in out

    def test_oracle_limit_reports_unproven(self, tmp_path, capsys):
        inst_path = self.make_coptw(tmp_path)
        assert main(["oracle", str(inst_path), "--node-limit", "3"]) == 0
        assert "not proven" in capsys.readouterr().out

    def test_oracle_bound_mode_flag_gone_exit_2(self, tmp_path):
        inst_path = self.make_coptw(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(inst_path), "--bound-mode", "reward-sum"])
        assert exc.value.code == 2

    def test_oracle_on_garbage_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.coptw"
        bad.write_text("COPTW 9\n")
        assert main(["oracle", str(bad)]) == 2


class TestBenchCommand:
    def test_rows_and_summary(self, tmp_path, capsys):
        indir = tmp_path / "in"
        indir.mkdir()
        (indir / "s100_1.txt").write_text(SOLOMON_SMALL)
        (indir / "q01_1.txt").write_text(CORDEAU_SMALL)
        csv_path = tmp_path / "out.csv"
        code = main([
            "bench", str(indir), "-o", str(csv_path),
            "--sizes", "3,4", "--members", "2", "--seed", "5",
            "--oracle-limit", "20", "--times", "zero",
        ])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 1
        out = capsys.readouterr().out
        assert "mean gap" in out
        first = lines[1].split(",")
        assert first[0] == "q01"
        assert first[2] == "3" and first[3] == "2"
        assert first[-1] in {"true", "false"}

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        (indir / "s100_1.txt").write_text(SOLOMON_SMALL)
        (indir / "q01_1.txt").write_text(CORDEAU_SMALL)
        outputs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            csv_path = tmp_path / name
            assert main([
                "bench", str(indir), "-o", str(csv_path),
                "--sizes", "3,4", "--members", "2", "--seed", "5",
                "--oracle-limit", "20", "--times", "zero",
                "--workers", workers,
            ]) == 0
            outputs.append(csv_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unparseable_file_recorded_and_skipped(self, tmp_path, capsys):
        indir = tmp_path / "in"
        indir.mkdir()
        (indir / "s100_1.txt").write_text(SOLOMON_SMALL)
        (indir / "zzz_1.txt").write_text("garbage file\n")
        csv_path = tmp_path / "out.csv"
        assert main([
            "bench", str(indir), "-o", str(csv_path),
            "--sizes", "3", "--members", "2", "--no-oracle",
        ]) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        bad_row = [ln for ln in lines if ln.startswith("zzz")]
        assert bad_row and ",,," in bad_row[0]

    def test_empty_directory_exit_2(self, tmp_path):
        indir = tmp_path / "empty"
        indir.mkdir()
        assert main(["bench", str(indir), "-o", str(tmp_path / "x.csv")]) == 2


def test_python_dash_m_entry(tmp_path):
    import os
    import subprocess
    import sys

    import coptw

    src = tmp_path / "s.txt"
    src.write_text(SOLOMON_SMALL)
    # the child imports the package under test, not whatever PYTHONPATH holds
    package_root = str(Path(coptw.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "coptw", "augment", str(src), "-o",
         str(tmp_path / "s.coptw"), "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.coptw").exists()


def test_round_trip_library_and_cli_agree(tmp_path):
    rng = random.Random(2)
    inst = random_instance(rng, 5, team_size=2)
    path = tmp_path / "r.coptw"
    path.write_text(write_coptw(inst))
    assert main(["solve", str(path)]) == 0
    assert main(["verify", str(path), str(path.with_suffix(".sol"))]) == 0
