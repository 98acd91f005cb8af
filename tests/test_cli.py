from pathlib import Path

import pytest

from conftest import CONFIG_ASYM, CONFIG_INFEASIBLE, CONFIG_SYM
from gia.cli import main
from gia.feasibility import feasibility_check
from gia.network import (
    ConfigParseError,
    NetworkConfig,
    alignment_all,
    load_config,
    save_config,
    scale_config,
)


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

    @pytest.mark.parametrize("line, message", [
        ("M =", r"line 3: key 'M' expects a comma-separated integer list"),
        ("M 2, 2", r"line 3: expected 'key = value', got 'M 2, 2'"),
        ("alignment = 1,2; 2", r"line 6: alignment entry '2' is not of the form 'k,j'"),
        ("seed = 18446744073709551616",
         r"line 7: seed must be an unsigned 64-bit integer, got 18446744073709551616"),
    ], ids=["empty-list", "no-equals", "bad-alignment-entry", "seed-too-large"])
    def test_bad_line_named_exit_two(self, tmp_path, capsys, line, message):
        lines = ["K = 2", "J = 0", "M = 2, 2", "N = 2, 2", "d = 1, 1", "alignment = all",
                 "seed = 0"]
        key = line.split()[0]
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(line if ln.split()[0] == key else ln for ln in lines) + "\n")
        with pytest.raises(ConfigParseError, match=message):
            load_config(bad)
        assert main(["feasibility", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line ")

    def test_byte_order_mark_accepted(self, sym_config_file, tmp_path, capsys):
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(sym_config_file).read_bytes())
        assert load_config(marked) == load_config(sym_config_file)
        assert main(["feasibility", "--config", str(marked)]) == 0
        assert capsys.readouterr().out.startswith("true,symmetric_formula,")

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

    def test_huge_tol_stops_after_one_round(self, easy_config_file, tmp_path, capsys):
        # tol**2 overflows the float range; the run stops at the first
        # round and verification at --tol decides the exit code
        out = tmp_path / "trace.csv"
        code = main(["design", "--config", easy_config_file, "--out", str(out),
                     "--tol", "1e200", "--budget", "300"])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "rounds_used = 1" in printed
        assert "stop_reason = tolerance" in printed
        assert "verification = pass" in printed

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

    def test_stop_db_ends_each_trace_where_it_is_reached(self, tmp_path):
        out_dir = tmp_path / "fig"
        assert main(["fig6", "--id", "1", "--rounds", "200", "--stop-db", "-20",
                     "--out-dir", str(out_dir)]) == 0
        for name in ("gia.csv", "classical.csv"):
            i_db = [float(row.split(",")[2])
                    for row in (out_dir / name).read_text().splitlines()[1:]]
            assert i_db[-1] <= -20.0 < min(i_db[:-1])

    def test_stop_db_not_a_number_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig6", "--id", "1", "--stop-db", "minus20", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --stop-db: 'minus20' is not a finite number" in capsys.readouterr().err

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
        assert lines[0] == "scale,seed,feasible,method,C,V,rank,tolerance"
        assert len(lines) == 5
        assert all(line.split(",")[2] == "true" for line in lines[1:])

    def test_rows_are_verdict_records(self, infeasible_config_file, capsys):
        assert main(["sweep", "--config", infeasible_config_file, "--seeds", "0,1",
                     "--scales", "1,2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        pairs = alignment_all(CONFIG_INFEASIBLE)
        assert lines[1:] == [
            f"{c},{s}," + feasibility_check(scale_config(CONFIG_INFEASIBLE, c), pairs,
                                            seed=s).to_line()
            for c in (1, 2) for s in (0, 1)
        ]

    def test_header_names_every_field(self, tmp_path, capsys):
        for cfg in (CONFIG_SYM, CONFIG_ASYM, CONFIG_INFEASIBLE):
            path = tmp_path / "net.cfg"
            save_config(path, cfg, alignment_all(cfg))
            assert main(["sweep", "--config", str(path), "--seeds", "0,1",
                         "--scales", "1,2"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 5
            assert {len(line.split(",")) for line in lines} == {len(lines[0].split(","))}

    def test_bad_scale_fails_before_any_verdict(self, sym_config_file, monkeypatch, capsys):
        import gia.harness as harness

        calls = []
        monkeypatch.setattr(harness, "feasibility_check",
                            lambda *args, **kwargs: calls.append(args))
        assert main(["sweep", "--config", sym_config_file, "--scales", "1,0"]) == 2
        assert capsys.readouterr().err.startswith("error: scale factor")
        assert calls == []

    def test_partial_alignment_set_from_config(self, tmp_path, capsys):
        path = tmp_path / "partial.cfg"
        save_config(path, CONFIG_INFEASIBLE, ((1, 2), (2, 3)), seed=0)
        main(["feasibility", "--config", str(path)])
        n_constraints = capsys.readouterr().out.split(",")[2]
        assert n_constraints == "18"
        assert main(["sweep", "--config", str(path), "--seeds", "0,1", "--scales", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[4] == n_constraints for row in rows)


class TestOutputPaths:
    @pytest.mark.parametrize("argv", [
        ["test1", "-n", "1000", "--out", "{missing}/trials.csv"],
        ["design", "--config", "{cfg}", "--out", "{missing}/t.csv"],
        ["design", "--config", "{cfg}", "--out", "{dir}/t.csv", "--solution", "{missing}/s.txt"],
        ["sweep", "--config", "{cfg}", "--out", "{missing}/sweep.csv"],
        ["fig6", "--id", "3", "--out-dir", "{file}/fig"],
        ["test1", "-n", "1000", "--out", "{dir}"],
        ["design", "--config", "{cfg}", "--out", "{dir}"],
        ["design", "--config", "{cfg}", "--out", "{dir}/t.csv", "--solution", "{dir}"],
        ["design", "--config", "{cfg}", "--out", "{dir}/taken.csv"],
        ["sweep", "--config", "{cfg}", "--out", "{dir}"],
    ], ids=["test1", "design-out", "design-solution", "sweep", "fig6", "test1-dir",
            "design-out-dir", "design-solution-dir", "design-default-solution-dir",
            "sweep-dir"])
    def test_bad_path_fails_before_the_work(self, argv, sym_config_file, tmp_path, monkeypatch,
                                            capsys):
        import gia.cli as cli

        def no_work(*_args, **_kwargs):
            raise AssertionError("the work ran")

        for name in ("run_test1", "run_fig6", "run_gia", "sweep_feasibility"):
            monkeypatch.setattr(cli, name, no_work)
        (tmp_path / "file").write_text("")
        (tmp_path / "taken.csv.solution.txt").mkdir()
        argv = [arg.format(cfg=sym_config_file, dir=tmp_path, missing=tmp_path / "missing",
                           file=tmp_path / "file") for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "t.csv").exists()


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
