import pytest

from conftest import CONFIG_INFEASIBLE, CONFIG_SYM
from gia.cli import main
from gia.network import NetworkConfig, alignment_all, save_config


@pytest.fixture
def sym_config_file(tmp_path):
    path = tmp_path / "sym.cfg"
    save_config(path, CONFIG_SYM, alignment_all(CONFIG_SYM), seed=0)
    return str(path)


@pytest.fixture
def infeasible_config_file(tmp_path):
    path = tmp_path / "infeasible.cfg"
    save_config(path, CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE), seed=0)
    return str(path)


@pytest.fixture
def easy_config_file(tmp_path):
    # strictly proper network: converges to machine precision in a few rounds
    cfg = NetworkConfig(K=3, J=0, M=(4, 4, 4), N=(4, 4, 4), d=(1, 1, 1))
    path = tmp_path / "easy.cfg"
    save_config(path, cfg, alignment_all(cfg), seed=3)
    return str(path)


class TestFeasibilityCommand:
    def test_feasible_exit_zero(self, sym_config_file, capsys):
        assert main(["feasibility", "--config", sym_config_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("true,symmetric_formula,54,54,")

    def test_infeasible_exit_one(self, infeasible_config_file, capsys):
        assert main(["feasibility", "--config", infeasible_config_file]) == 1
        assert capsys.readouterr().out.startswith("false,hall_rank,54,54,52,")

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("K = 3\nwhat = ever\n")
        assert main(["feasibility", "--config", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["feasibility", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_deterministic_output(self, infeasible_config_file, capsys):
        main(["feasibility", "--config", infeasible_config_file])
        first = capsys.readouterr().out
        main(["feasibility", "--config", infeasible_config_file])
        assert capsys.readouterr().out == first


class TestDesignCommand:
    def test_success_pipeline(self, easy_config_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["design", "--config", easy_config_file, "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "verification = pass" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "t,leakage,I_dB"
        solution = tmp_path / "trace.csv.solution.txt"
        assert solution.exists()
        text = solution.read_text().splitlines()
        assert text[0] == "U 1 4 1"
        # identity block on top of every lifted matrix
        assert text[1].startswith("1.0+0.0i")

    @pytest.mark.parametrize("tol, rounds", [(None, 27), ("1e-3", 14), ("1e-1", 5)])
    def test_stops_at_tol_squared(self, tmp_path, capsys, tol, rounds):
        # leakage < tol**2 bounds every residual entry by tol, so the run
        # stops as soon as verification at --tol can pass, and passing
        # verification is what makes the design a success
        cfg = NetworkConfig(K=3, J=0, M=(5, 5, 5), N=(5, 5, 5), d=(2, 2, 2))
        path = tmp_path / "proper.cfg"
        save_config(path, cfg, alignment_all(cfg), seed=3)
        argv = ["design", "--config", str(path), "--out", str(tmp_path / "trace.csv")]
        code = main(argv + (["--tol", tol] if tol else []))
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert f"rounds_used = {rounds}" in printed
        assert "stop_reason = tolerance" in printed
        assert "verification = pass" in printed
        assert (tmp_path / "trace.csv.solution.txt").exists()

    def test_budget_zero_fails_with_initial_trace(self, easy_config_file, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["design", "--config", easy_config_file, "--out", str(out), "--budget", "0"])
        assert code == 1
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header + t=0 row

    def test_infeasible_warns_but_runs(self, infeasible_config_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["design", "--config", infeasible_config_file, "--out", str(out), "--budget", "40"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "infeasible" in captured.err
        assert out.exists()


class TestTest1Command:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "trials.csv"
        code = main(["test1", "-n", "3", "--seed", "9", "--budget", "3000", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "pass_rate_among_feasible" in printed
        lines = out.read_text().splitlines()
        assert lines[0].startswith("trial_id,K,feasible")
        assert len(lines) == 4

    def test_zero_trials_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["test1", "-n", "0"])
        assert exc.value.code == 2


class TestFig6Command:
    def test_writes_both_traces_deterministically(self, tmp_path):
        out_dir = tmp_path / "fig"
        args = ["fig6", "--id", "3", "--rounds", "25", "--out-dir", str(out_dir)]
        assert main(args) == 0
        gia_bytes = (out_dir / "gia.csv").read_bytes()
        classical_bytes = (out_dir / "classical.csv").read_bytes()
        assert gia_bytes.startswith(b"t,leakage,I_dB")
        assert main(args) == 0
        assert (out_dir / "gia.csv").read_bytes() == gia_bytes
        assert (out_dir / "classical.csv").read_bytes() == classical_bytes

    def test_bad_id_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fig6", "--id", "7", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_writes_rows(self, sym_config_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", sym_config_file, "--seeds", "0,1", "--scales", "1,2",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "member,scale,seed,feasible,method,C,V,rank"
        assert len(lines) == 5
        assert all(line.split(",")[3] == "true" for line in lines[1:])

    def test_partial_alignment_set_from_config(self, tmp_path, capsys):
        path = tmp_path / "partial.cfg"
        save_config(path, CONFIG_INFEASIBLE, ((1, 2), (2, 3)), seed=0)
        main(["feasibility", "--config", str(path)])
        n_constraints = capsys.readouterr().out.split(",")[2]
        assert n_constraints == "18"
        assert main(["sweep", "--config", str(path), "--seeds", "0,1", "--scales", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[5] == n_constraints for row in rows)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--config", "{cfg}", "--seeds", "a"],
            ["sweep", "--config", "{cfg}", "--scales", "x"],
            ["feasibility", "--config", "{dir}"],
            ["feasibility", "--config", "{cfg}", "--seed", "-1"],
            ["sweep", "--config", "{cfg}", "--seeds", "-1"],
            ["test1", "-n", "2", "--budget", "-5"],
            ["design", "--config", "{cfg}", "--out", "{dir}/t.csv", "--budget", "-5"],
            ["fig6", "--id", "3", "--rounds", "-1", "--out-dir", "{dir}"],
            ["design", "--config", "{cfg}", "--out", "{dir}/t.csv", "--budget", "3",
             "--tol", "nan"],
            ["sweep", "--config", "{cfg}", "--seed", "7"],
            ["fig6", "--id", "1", "--round", "3", "--out-dir", "{dir}"],
            ["feasibility", "--config", "{dir}/binary.cfg"],
            ["fig6", "--id", "1", "--rounds", "5", "--stop-db", "nan", "--out-dir", "{dir}"],
            ["fig6", "--id", "1", "--rounds", "5", "--stop-db", "inf", "--out-dir", "{dir}"],
            ["design", "--config", "{cfg}", "--out", "{dir}/t.csv", "--leak-tol", "1e-9"],
            ["design", "--config", "{cfg}", "--out", "{dir}/t.csv", "--target-db", "-80"],
        ],
        ids=["bad-seed-list", "bad-scale-list", "config-is-directory", "negative-seed",
             "negative-seed-in-list", "negative-budget-test1", "negative-budget-design",
             "negative-rounds", "nan-tol", "abbreviated-seeds", "abbreviated-rounds",
             "non-utf8-config", "nan-stop-db", "inf-stop-db", "removed-leak-tol",
             "removed-target-db"],
    )
    def test_exit_two_with_one_error_line(self, argv, sym_config_file, tmp_path, capsys):
        (tmp_path / "binary.cfg").write_bytes(b"K = 3\xff\xfe\n")
        argv = [arg.format(cfg=sym_config_file, dir=tmp_path) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1
