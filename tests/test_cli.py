"""CLI surface: subcommands, CSV schema, determinism, exit codes."""

import hashlib
import importlib.util
import os
import pathlib
import pickle
import subprocess
import sys
import tracemalloc
import types

import pytest

import poolstream as ps
from poolstream import cli


def run_cli(args):
    return cli.main(args)


def stub_run_trials(monkeypatch, records, failures=()):
    """Stand in for ``cli.run_trials``: yield ``records``, then list ``failures``,
    so a caller that reads the failures before the records run out sees none."""
    def run_trials(emulator, dist, seed, trials, failed, max_iter=None):
        yield from records
        failed.extend(failures)
    monkeypatch.setattr(cli, "run_trials", run_trials)


def read_rows(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return meta, header, rows


class TestSecretaryTable:
    def test_known_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(["secretary-table", "--n-max", "5", "--out", str(out)]) == 0
        meta, header, rows = read_rows(out)
        assert header == ["n", "threshold", "p_sp"]
        assert rows[0] == {"n": "1", "threshold": "1", "p_sp": "1"}
        assert rows[4]["p_sp"].startswith("0.4333333333")
        assert any(line.startswith("# seed=") for line in meta)

    def test_large_horizon_near_limit(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(["secretary-table", "--n-max", "10000", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        last = rows[-1]
        assert abs(float(last["p_sp"]) - 0.36788) < 0.01

    @pytest.mark.parametrize("n_max", [1, 2, 3, 255, 256, 257, 300, 513])
    def test_rows_equal_the_csv_writer_path(self, tmp_path, n_max):
        # The table formats its own rows, 256 to a write; they must be the
        # bytes the generic csv path (_fmt per cell) writes for the same
        # policy_table rows, on either side of each batch edge.
        argv = ["secretary-table", "--n-max", str(n_max)]
        table, generic = tmp_path / "table.csv", tmp_path / "generic.csv"
        assert run_cli(argv + ["--out", str(table)]) == 0
        cfg = cli.resolve_config(cli._build_parser().parse_args(argv))
        cli._emit(str(generic), cli._meta(cfg), ["n", "threshold", "p_sp"],
                  ps.policy_table(n_max))
        assert table.read_bytes() == generic.read_bytes()

    def test_stdout_equals_the_out_file(self, tmp_path, capsys):
        argv = ["secretary-table", "--n-max", "513"]
        out = tmp_path / "table.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_horizon_cap(self):
        assert run_cli(["secretary-table", "--n-max", "200000"]) == 1


class TestEquivTest:
    def test_pass_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["equiv-test", "--fixture", "greedy-max-discrete", "--emulator",
                "gen", "--m", "3", "--q", "1", "--trials", "3000",
                "--seed", "5", "--tv-threshold", "0.05"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        _, _, rows = read_rows(a)
        summary = [r for r in rows if r["row_type"] == "summary"]
        assert summary[0]["status"] == "PASS"
        assert summary[0]["failed_trials"] == "0"

    def test_negative_control_fails_with_exit_2(self, tmp_path):
        out = tmp_path / "neg.csv"
        code = run_cli(["equiv-test", "--fixture", "greedy-max", "--emulator",
                        "first-q", "--m", "4", "--q", "2", "--trials", "2000",
                        "--seed", "6", "--out", str(out)])
        assert code == 2
        _, _, rows = read_rows(out)
        summary = [r for r in rows if r["row_type"] == "summary"][0]
        assert summary["status"] == "FAIL"
        assert float(summary["tv"]) > 0.1

    def test_utility_stream_on_interval_fixture(self, tmp_path):
        out = tmp_path / "us.csv"
        code = run_cli(["equiv-test", "--fixture", "greedy-max", "--emulator",
                        "utility-stream", "--m", "3", "--q", "1",
                        "--trials", "1000", "--seed", "7", "--out", str(out)])
        assert code == 0

    def test_all_trials_capped(self, tmp_path):
        # Every trial hits the cap, so the empirical side is empty.
        out = tmp_path / "capped.csv"
        code = run_cli(["equiv-test", "--fixture", "greedy-max-discrete",
                        "--emulator", "gen", "--m", "4", "--q", "2", "--trials", "5",
                        "--seed", "1", "--max-iter", "3", "--out", str(out)])
        assert code == 2
        _, _, rows = read_rows(out)
        summary = [r for r in rows if r["row_type"] == "summary"][0]
        assert (summary["tv"], summary["status"], summary["failed_trials"]) == (
            "0.5", "FAIL", "5")

    @pytest.mark.parametrize("failed,status,code", [(0, "PASS", 0), (100, "FAIL", 2)],
                             ids=["none-failed", "two-percent-failed"])
    def test_verdict_charges_failed_trials(self, tmp_path, monkeypatch,
                                           failed, status, code):
        # greedy-max at m=2, q=2 always selects the larger element first, so
        # the exact law is one rank pattern; one record in a hundred with the
        # other order puts TV at 0.01, under the 0.02 threshold, and 2% of
        # trials failing must tip the verdict.
        high, low = (ps.LabeledPair(ps.Element(b, 0.0), 0) for b in (0.9, 0.1))
        kept = 5000 - failed
        records = ([ps.RunRecord((high, low), n_sel=2, n_iter=2)] * (kept - kept // 100)
                   + [ps.RunRecord((low, high), n_sel=2, n_iter=2)] * (kept // 100))
        failures = [(t, ps.IterationCapExceeded(2, 2, 0)) for t in range(failed)]
        stub_run_trials(monkeypatch, records, failures)
        out = tmp_path / "verdict.csv"
        assert run_cli(["equiv-test", "--fixture", "greedy-max", "--emulator", "gen",
                        "--m", "2", "--q", "2", "--trials", "5000",
                        "--out", str(out)]) == code
        _, _, rows = read_rows(out)
        summary = [r for r in rows if r["row_type"] == "summary"][0]
        assert (summary["tv"], summary["threshold"], summary["status"],
                summary["failed_trials"]) == ("0.01", "0.02", status, str(failed))

    def test_wait_on_atoms_fixture(self, tmp_path):
        out = tmp_path / "wait.csv"
        code = run_cli(["equiv-test", "--fixture", "greedy-max-atoms",
                        "--emulator", "wait", "--m", "3", "--q", "1",
                        "--trials", "2000", "--seed", "8",
                        "--tv-threshold", "0.05", "--out", str(out)])
        assert code == 0


# Each emulator's cost lookup, as the reports print it, compared with == so
# that any change to its arithmetic shows.
@pytest.mark.parametrize("emulator,fixture,m,q,costs", [
    ("gen", "greedy-max", 4, 1, (16.0, None, 16.0, None, None)),
    ("gen", "greedy-max", 4, 2, (None, None, 173.9700370213789, None, None)),
    ("nowait", "greedy-max", 4, 2, (4.0, 4.0, None, None, None)),
    ("utility-stream", "greedy-max", 4, 2,
     (None, 4.363636363636364, 47.446373733103336, [2.181818181818182, 2.0], None)),
    ("utility-stream", "greedy-max", 3, 3, (None, 6.0, None, [2.0, 2.0, 1.0], None)),
    ("utility-stream", "thm6-chain", 64, 2,
     (None, 5.3643097567787725, 354.57108898699073,
      [2.6821548783893863, 2.6812696082863967], 5.75)),
    ("wait", "greedy-max-atoms", 4, 2, (None, None, None, None, None)),
    ("first-q", "greedy-max", 4, 2, (None, None, None, None, None)),
])
def test_cost_lookup_values(emulator, fixture, m, q, costs):
    assert cli._costs(emulator, cli.build_fixture(fixture, m, q)) == costs


def test_secretary_expected_costs_values():
    assert cli.expected_costs(10, 5) == (8.20561067918289, 121.63097101974482)
    assert cli.expected_costs(6, 3) == (4.579420579420581, 40.96303696303697)


@pytest.mark.parametrize("command", [
    ["iter-bench", "--fixture", "greedy-max-discrete", "--emulator", "gen", "--m", "3"],
    ["lowerbound-demo", "--fixture", "thm6-chain", "--m-grid", "64"]])
def test_fewer_than_two_trials_is_an_error(command, tmp_path, monkeypatch, capsys):
    stub_run_trials(monkeypatch, [ps.RunRecord((), n_sel=1, n_iter=9)])
    out = tmp_path / "out.csv"
    assert run_cli(command + ["--q", "1", "--trials", "3", "--out", str(out)]) == 1
    m = command[-1]
    assert capsys.readouterr().err == f"error: fewer than two uncapped trials at m={m}\n"
    assert not out.exists()


class TestIterBench:
    def test_nowait_constant_columns(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(["iter-bench", "--fixture", "greedy-max-discrete",
                        "--emulator", "nowait", "--m", "4", "--q", "2",
                        "--trials", "200", "--seed", "9", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        by_metric = {r["metric"]: r for r in rows}
        assert float(by_metric["n_iter"]["mean"]) == 4.0
        assert float(by_metric["n_sel"]["mean"]) == 4.0
        assert float(by_metric["n_iter"]["ci_half"]) == 0.0

    def test_gen_reports_bound(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(["iter-bench", "--fixture", "greedy-max-discrete",
                        "--emulator", "gen", "--m", "3", "--q", "1",
                        "--trials", "2000", "--seed", "10", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        n_iter = [r for r in rows if r["metric"] == "n_iter"][0]
        assert float(n_iter["bound"]) == 9.0
        assert n_iter["status"] == "OK"
        assert abs(float(n_iter["mean"]) - 9.0) < 0.5

    def test_utility_stream_round_attempts_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(["iter-bench", "--fixture", "greedy-max", "--emulator",
                        "utility-stream", "--m", "4", "--q", "2",
                        "--trials", "2000", "--seed", "11", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        metrics = [r["metric"] for r in rows]
        assert metrics == ["n_iter", "n_sel", "round_attempts_1", "round_attempts_2"]
        att1 = [r for r in rows if r["metric"] == "round_attempts_1"][0]
        assert abs(float(att1["reference"]) - 24 / 11) < 1e-9

    @pytest.mark.parametrize("n_iters,status,code", [
        ((5, 9, 13), "OK", 0),               # mean 9: the CI holds the bound
        ((20, 20, 20), "VIOLATION", 2),      # the whole CI lies above the bound
    ], ids=["ci-holds-bound", "ci-above-bound"])
    def test_violation_needs_the_ci_above_the_bound(self, tmp_path, monkeypatch,
                                                     n_iters, status, code):
        # gen at m=3, q=1 has the exact expectation m^2 = 9 as its bound.
        records = [ps.RunRecord((), n_sel=1, n_iter=k) for k in n_iters]
        stub_run_trials(monkeypatch, records)
        out = tmp_path / "bench.csv"
        assert run_cli(["iter-bench", "--fixture", "greedy-max-discrete", "--emulator",
                        "gen", "--m", "3", "--q", "1", "--trials", "3",
                        "--out", str(out)]) == code
        _, _, rows = read_rows(out)
        assert float(rows[0]["bound"]) == 9.0
        assert rows[0]["status"] == status
        assert rows[1]["status"] == ""  # n_sel has no bound

    def test_infeasible_coded_budget_is_an_error(self, capsys):
        assert run_cli(["iter-bench", "--fixture", "thm3-good-pool", "--emulator", "gen",
                        "--m", "6", "--q", "4", "--trials", "200"]) == 1
        assert ("thm3-good-pool needs q <= ceil(m/2) or m = q = 2, got m=6, q=4"
                in capsys.readouterr().err)


class TestLowerboundDemo:
    def test_chain_demo_exceeds_bound(self, tmp_path):
        out = tmp_path / "demo.csv"
        code = run_cli(["lowerbound-demo", "--fixture", "thm6-chain",
                        "--q", "2", "--m-grid", "8,16", "--trials", "300",
                        "--seed", "12", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert [r["m"] for r in rows] == ["8", "16"]
        assert all(r["status"] == "OK" for r in rows)
        assert float(rows[1]["mean_n_iter"]) >= float(rows[1]["lower_bound"])

    @pytest.mark.parametrize("n_iters,status,code", [
        ((5, 5, 7), "OK", 0),            # mean 5.67 < 5.75 <= mean + half-width
        ((5, 5, 5), "VIOLATION", 2),     # the whole CI lies below the bound
    ], ids=["ci-straddles-bound", "ci-below-bound"])
    def test_violation_needs_the_ci_below_the_bound(self, tmp_path, monkeypatch,
                                                     n_iters, status, code):
        # thm6-chain at m=64, q=2 has alphabet n=23, so the bound q*n/8 is 5.75.
        records = [ps.RunRecord((), n_sel=2, n_iter=k) for k in n_iters]
        stub_run_trials(monkeypatch, records)
        out = tmp_path / "demo.csv"
        assert run_cli(["lowerbound-demo", "--fixture", "thm6-chain", "--q", "2",
                        "--m-grid", "64", "--trials", "3", "--out", str(out)]) == code
        _, _, rows = read_rows(out)
        assert float(rows[0]["lower_bound"]) == 5.75
        assert float(rows[0]["mean_n_iter"]) < 5.75
        assert rows[0]["status"] == status

    def test_degenerate_budget_equals_pool_sanity_row(self, tmp_path):
        # m = q = 2 keeps every pool split feasible for the coded algorithm
        out = tmp_path / "demo.csv"
        code = run_cli(["lowerbound-demo", "--fixture", "thm3-good-pool",
                        "--q", "2", "--m", "2", "--m-grid", "2",
                        "--trials", "200", "--seed", "15", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert float(rows[0]["mean_n_iter"]) >= 2.0

    def test_infeasible_budget_is_an_error(self, capsys):
        # beyond q = ceil(m/2) some pools have no feasible region
        assert run_cli(["lowerbound-demo", "--fixture", "thm3-good-pool",
                        "--q", "3", "--m", "3", "--m-grid", "3",
                        "--trials", "200", "--seed", "15"]) == 1
        assert ("thm3-good-pool needs q <= ceil(m/2) or m = q = 2, got m=3, q=3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fixture,q,grid", [("thm6-chain", "2", "8,4"),
                                                ("thm3-good-pool", "3", "6,4")])
    def test_grid_is_checked_before_the_first_trial(self, monkeypatch, capsys,
                                                    fixture, q, grid):
        # The first m is valid, the second is not: no trial may run.
        def run_stream(*args):
            raise AssertionError("a trial ran before the whole grid was checked")
        monkeypatch.setattr(cli, "run_stream", run_stream)
        assert run_cli(["lowerbound-demo", "--fixture", fixture, "--q", q,
                        "--m-grid", grid, "--trials", "20000"]) == 1
        assert "m=4" in capsys.readouterr().err

    def test_budget_is_checked_against_the_grid(self, capsys):
        args = ["lowerbound-demo", "--fixture", "thm6-chain", "--q", "5",
                "--trials", "3"]
        assert run_cli(args + ["--m-grid", "64"]) == 0
        capsys.readouterr()
        assert run_cli(args + ["--m-grid", "4,64"]) == 1
        assert "q=5 exceeds m=4" in capsys.readouterr().err
        # Only lowerbound-demo reads the grid; elsewhere q is checked against --m.
        assert run_cli(["iter-bench", "--m", "3", "--q", "5", "--m-grid", "8"]) == 1
        assert "q=5 exceeds m=3" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_empty_grid_is_refused(self, tmp_path, capsys, via):
        # Else m alone runs under a header that names the empty grid.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("m_grid=,\n")
        out = tmp_path / "demo.csv"
        grid = {"flag": ["--m-grid", ","], "file": ["--config", str(cfg)]}[via]
        try:
            code = run_cli(["lowerbound-demo", "--fixture", "thm6-chain", "--q", "2",
                            "--m", "8", "--trials", "20", "--out", str(out)] + grid)
        except SystemExit as exc:  # argparse refuses a flag value on its own
            code = exc.code
        assert code == 1
        err = capsys.readouterr().err
        assert {"flag": "--m-grid", "file": "'m_grid'"}[via] in err
        assert "expected comma-separated integers, got ','" in err
        assert "_int_list" not in err
        assert not out.exists()

    def test_grid_flag_says_what_a_grid_holds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["lowerbound-demo", "--fixture", "thm6-chain", "--m-grid", "4,x"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --m-grid: expected comma-separated integers, got '4,x'" in err
        assert "_int_list" not in err

    def test_coded_demo_grows_with_m(self, tmp_path):
        out = tmp_path / "demo.csv"
        code = run_cli(["lowerbound-demo", "--fixture", "thm3-good-pool",
                        "--q", "2", "--m-grid", "4,8", "--trials", "300",
                        "--seed", "13", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert float(rows[1]["mean_n_iter"]) > float(rows[0]["mean_n_iter"])


class TestConfigAndErrors:
    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("fixture=greedy-max-discrete\n"
                       "emulator=nowait\n"
                       "m=4\nq=2\ntrials=100\nseed=3\n"
                       "# comment line\n")
        out = tmp_path / "o.csv"
        code = run_cli(["equiv-test", "--config", str(cfg), "--trials", "500",
                        "--tv-threshold", "0.2", "--out", str(out)])
        assert code == 0
        meta, _, _ = read_rows(out)
        assert "# trials=500" in meta  # CLI overrides the file
        assert "# fixture=greedy-max-discrete" in meta

    def test_unknown_fixture_is_config_error(self):
        assert run_cli(["equiv-test", "--fixture", "nope"]) == 1

    def test_zero_trials_is_config_error(self):
        assert run_cli(["equiv-test", "--trials", "0"]) == 1

    def test_budget_above_pool_is_config_error(self):
        assert run_cli(["equiv-test", "--m", "2", "--q", "5"]) == 1

    def test_two_region_law_beyond_the_budget_is_refused(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run_cli(["equiv-test", "--fixture", "thm3-good-pool", "--emulator", "gen",
                        "--m", "11", "--q", "2", "--trials", "2", "--out", str(out)]) == 1
        assert "exceeds the enumeration budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--q", "5"], "q=5 exceeds m=4"),
        (["--trials", "0"], "trials must be positive"),
        (["--seed", str(2**64)], "seed must fit in 64 bits"),
        (["--q", "0"], "q must be at least 1"),
        (["--max-iter", "0"], "max_iter must be positive"),
    ], ids=["q-above-m", "zero-trials", "seed-beyond-64-bits", "q-below-one",
            "zero-max-iter"])
    def test_trial_options_are_checked_where_read(self, tmp_path, capsys, option, message):
        # secretary-table reads neither the seed, the trials, the cap nor m and q.
        out = tmp_path / "table.csv"
        assert run_cli(["secretary-table", "--n-max", "5", *option, "--out", str(out)]) == 0
        assert len(read_rows(out)[2]) == 5
        for command in ("equiv-test", "iter-bench", "lowerbound-demo"):
            assert run_cli([command, "--fixture", "thm6-chain", *option]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["equiv-test", "--fixture", "thm6-chain", "--m", "8", "--q", "-1"],
        ["lowerbound-demo", "--fixture", "thm6-chain", "--q", "0", "--m-grid", "8"],
        ["iter-bench", "--fixture", "ex1-hypotheses", "--m", "60", "--q", "0"],
    ], ids=["equiv-test", "lowerbound-demo", "iter-bench"])
    def test_budget_below_one_is_refused_before_any_fixture(self, capsys, args):
        assert run_cli(args) == 1
        assert capsys.readouterr().err == "error: q must be at least 1\n"

    @pytest.mark.parametrize("value", ["nan", "-0.5", "1.5", "inf"])
    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_tv_threshold_outside_unit_interval_is_refused(self, tmp_path, capsys,
                                                           via, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tv_threshold={value}\n")
        option = (["--tv-threshold", value] if via == "flag"
                  else ["--config", str(cfg)])
        out = tmp_path / "o.csv"
        assert run_cli(["equiv-test", "--trials", "10", *option, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: tv_threshold must lie in [0, 1]\n"
        assert not out.exists()
        # Only equiv-test reads the threshold.
        assert run_cli(["iter-bench", "--trials", "10", *option, "--out", str(out)]) == 0

    def test_wait_on_atomless_fixture_is_error(self):
        assert run_cli(["equiv-test", "--fixture", "greedy-max", "--emulator",
                        "wait", "--m", "3", "--q", "1", "--trials", "10"]) == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["equiv-test", "--m", "not-a-number"])
        assert info.value.code == 1
        capsys.readouterr()

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        assert run_cli(["equiv-test", "--config", str(cfg)]) == 1

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("m=4\ntrails=500\n")
        out = tmp_path / "o.csv"
        assert run_cli(["iter-bench", "--config", str(cfg), "--trials", "20",
                        "--out", str(out)]) == 1
        assert f"{cfg}:2: unknown key 'trails'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,fixture", [
        ("iter-bench", "greedy-max"), ("iter-bench", "greedy-max-discrete"),
        ("iter-bench", "greedy-max-atoms"), ("equiv-test", "thm3-good-pool")])
    def test_variant_of_fixture_without_variants_is_refused(self, tmp_path, capsys,
                                                            command, fixture):
        out = tmp_path / "o.csv"
        assert run_cli([command, "--fixture", fixture, "--variant", "3",
                        "--trials", "10", "--out", str(out)]) == 1
        assert f"fixture {fixture} has no variants" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["m=abc", "tv_threshold=x", "m_grid=4,x"])
    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"seed=3\n{line}\n")
        key, value = line.split("=")
        assert run_cli(["iter-bench", "--config", str(cfg), "--trials", "20"]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: bad value {value!r} for key {key!r}" in err
        if key == "m_grid":
            assert f"(expected comma-separated integers, got {value!r})" in err
            assert "_int_list" not in err


# A value for every option but ``out``, each valid for the small run it is
# given in; ``out`` gets the run's own CSV path.
OPTION_VALUES = {
    "seed": "7", "trials": "30", "m": "3", "q": "1",
    "fixture": "greedy-max-discrete", "emulator": "gen", "max_iter": "5000",
    "tv_threshold": "0.5", "n_max": "7", "m_grid": "8,16", "variant": "1",
}


@pytest.mark.parametrize("key", sorted(cli._OPTIONS))
def test_config_file_value_equals_flag(key, tmp_path):
    if key == "n_max":
        base = ["secretary-table"]
    elif key in ("m_grid", "variant"):
        base = ["lowerbound-demo", "--fixture", "thm6-chain", "--q", "2",
                "--m", "8", "--trials", "20"]
    else:  # iter-bench at its default trials when those are under test
        base = ["iter-bench"] + (["--trials", "20"] if key != "trials" else [])

    def csv_of(via):
        path = tmp_path / f"{via}.csv"
        value = str(path) if key == "out" else OPTION_VALUES[key]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}={value}\n")
        extra = {"flag": ["--" + key.replace("_", "-"), value],
                 "file": ["--config", str(cfg)]}.get(via, [])
        if key != "out":
            extra += ["--out", str(path)]
        assert run_cli(base + extra) == 0
        return path.read_bytes()

    flag = csv_of("flag")
    assert csv_of("file") == flag
    if key != "out":  # the value takes effect
        assert flag != csv_of("default")


class TestRunTrials:
    def test_capped_trials_are_listed_by_index(self):
        # Three rounds of m=5 need at least 5 + 4 + 3 draws, above the cap.
        emulator = ps.RejectionEmulator(ps.GreedyUtilityPool(lambda e, h: e.base, 5, 3))
        failures = []
        assert list(cli.run_trials(emulator, ps.uniform_interval(), 31, 4, failures,
                                   max_iter=7)) == []
        assert [t for t, _ in failures] == [0, 1, 2, 3]
        assert all(isinstance(exc, ps.IterationCapExceeded) for _, exc in failures)

    def test_records_are_the_per_trial_runs_in_trial_order(self):
        emulator = ps.RejectionEmulator(ps.GreedyUtilityPool(lambda e, h: e.base, 4, 2))
        dist, cap = ps.uniform_interval(), 20  # 14 of the 40 trials finish under it
        want, want_failed = [], []
        for t in range(40):
            try:
                want.append(ps.run_stream(emulator, dist, ps.trial_rng(9, t), cap))
            except ps.IterationCapExceeded:
                want_failed.append(t)
        assert want and want_failed  # the cap splits the batch
        failures = []
        assert list(cli.run_trials(emulator, dist, 9, 40, failures, cap)) == want
        assert [t for t, _ in failures] == want_failed

    def test_trials_run_as_their_records_are_asked_for(self, monkeypatch):
        calls = []
        real = cli.run_stream
        monkeypatch.setattr(cli, "run_stream", lambda *args: calls.append(1) or real(*args))
        fixture = cli.build_fixture("greedy-max-discrete", 4, 2)
        records = cli.run_trials(ps.NowaitEmulator(fixture.pool_alg), fixture.dist,
                                 3, 10**6, [])
        assert calls == []
        next(records)
        next(records)
        assert len(calls) == 2


class TestMemoryIsFlat:
    """How the traced allocation peak of one CLI call grows with its size."""

    @staticmethod
    def traced_peak(args):
        tracemalloc.start()
        try:
            assert run_cli(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_equiv_test_does_not_grow_with_trials(self, tmp_path):
        # Measured growth 0.24 MB (the trial seed cache); keeping every
        # record grows it by about 4 MB.  A first call fills the caches.
        args = ["equiv-test", "--fixture", "greedy-max-discrete", "--emulator", "nowait",
                "--m", "4", "--q", "2", "--tv-threshold", "1", "--out",
                str(tmp_path / "out.csv"), "--trials"]
        run_cli(args + ["1000"])
        growth = self.traced_peak(args + ["10000"]) - self.traced_peak(args + ["1000"])
        assert growth < 1_000_000

    def test_secretary_table_never_holds_the_report(self, tmp_path):
        # The table keeps three running sums, and the peak was measured to
        # grow 0.24 bytes per row.  A float per horizon fails this: a list
        # of harmonic sums grows it 30-33 bytes per row, a packed array of
        # them 8, a report held as text at least its own 27, and one held
        # whole in a StringIO 118-143.
        args = ["secretary-table", "--out", str(tmp_path / "table.csv"), "--n-max"]
        growth = self.traced_peak(args + ["50000"]) - self.traced_peak(args + ["10000"])
        assert growth / 40000 < 2


def test_used_source_pickles_and_replays_its_stream():
    # Decoding caches closures on the source; pickling drops and rebuilds them.
    plans = {"sampling_table", "prob_one"}
    for name in cli.FIXTURE_NAMES:
        fixture = cli.build_fixture(name, 8, 2)
        emulator = cli.build_emulator("gen" if fixture.dist.atomless else "wait", fixture)
        record = ps.run_stream(emulator, fixture.dist, ps.trial_rng(5, 0))
        assert plans <= vars(fixture.dist).keys()
        copy = pickle.loads(pickle.dumps(fixture.dist))
        assert copy == fixture.dist and not plans & vars(copy).keys()
        assert ps.run_stream(emulator, copy, ps.trial_rng(5, 0)) == record


class TestHypothesisFixture:
    def test_iter_bench_with_wait_emulator(self, tmp_path):
        out = tmp_path / "ex1.csv"
        code = run_cli(["iter-bench", "--fixture", "ex1-hypotheses",
                        "--emulator", "wait", "--m", "60", "--q", "3",
                        "--variant", "5", "--trials", "300", "--seed", "14",
                        "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        by_metric = {r["metric"]: r for r in rows}
        assert float(by_metric["n_sel"]["mean"]) == 3.0
        # waits recur a 12-symbol alphabet: observed elements well above m
        assert float(by_metric["n_iter"]["mean"]) > 60

    def test_equiv_test_is_rejected_with_explanation(self):
        assert run_cli(["equiv-test", "--fixture", "ex1-hypotheses",
                        "--emulator", "wait", "--m", "60", "--q", "3",
                        "--trials", "10"]) == 1

    def test_variant_out_of_range(self):
        assert run_cli(["iter-bench", "--fixture", "ex1-hypotheses",
                        "--emulator", "wait", "--m", "60", "--q", "3",
                        "--variant", "8", "--trials", "10"]) == 1


# sha256 of the README's CLI examples, and of one run per stream decode path
# (two interval pieces; three uniforms per pair under a mapping law; no
# tie-break), at small trial counts.  Any change to a
# seeded stream (trial RNG derivation, uniform buffering, sampling) changes
# these bytes; such a change must be deliberate and explained.
GOLDEN_CSV = {
    "equiv-test": (["equiv-test", "--fixture", "greedy-max-discrete", "--emulator",
                    "gen", "--m", "4", "--q", "2", "--trials", "2000", "--seed", "1",
                    "--tv-threshold", "0.05"],
                   "d13adecf5b3281542ada5b7aaaea047ab631fecd45b671995694a848c2d9cd99"),
    "equiv-test-interval": (["equiv-test", "--fixture", "greedy-max", "--emulator",
                             "utility-stream", "--m", "4", "--q", "2", "--trials",
                             "2000", "--seed", "1"],
                            "f5a04fe5cbda2550b46c832be99ee2e40c0ac629b879dfacd7f7b90dbea90af0"),
    "equiv-test-atoms": (["equiv-test", "--fixture", "greedy-max-atoms", "--emulator",
                          "wait", "--m", "4", "--q", "2", "--trials", "2000", "--seed",
                          "1", "--tv-threshold", "0.05"],
                         "04bf5ebb6a842591ca82eaa3464cd18172e325fb4b429cfa6851bb901fe5b547"),
    "equiv-test-nowait": (["equiv-test", "--fixture", "greedy-max-discrete", "--emulator",
                           "nowait", "--m", "4", "--q", "2", "--trials", "2000", "--seed",
                           "1", "--tv-threshold", "0.05"],
                          "53bce2962ee3d063ff1ec3db68c7f6056fe9cd20f30a15e40033f853ed1f40b6"),
    "equiv-test-pieces": (["equiv-test", "--fixture", "thm3-good-pool", "--emulator", "gen",
                           "--m", "4", "--q", "2", "--trials", "2000", "--seed", "1"],
                          "a64cb6f48137e83131c2ff82e8a1e3fb8bd7e3f333bbb9eb630a8da38c2555e9"),
    "iter-bench": (["iter-bench", "--fixture", "greedy-max", "--emulator",
                    "utility-stream", "--m", "10", "--q", "5", "--trials", "300",
                    "--seed", "1"],
                   "1b0f88281e9a3c7eb41249e1d2d1ae903c1ee398aecef8dd887af6838a789259"),
    # q = m: the secretary emulator's n_iter bound is blank.
    "iter-bench-full-budget": (["iter-bench", "--fixture", "greedy-max", "--emulator",
                                "utility-stream", "--m", "3", "--q", "3", "--trials",
                                "300", "--seed", "1"],
                               "558a4d91189a679708d4a11728ec188bd8bfb09c66a576903bd1480913d666ca"),
    "secretary-table": (["secretary-table", "--n-max", "1000"],
                        "287579a112b2132023bdba051e84d46eba8f1cc4635f10e0c434175242c41981"),
    # The whole table range, including the row closest to the float test's
    # exactness margin (n = 73757).
    "secretary-table-full": (["secretary-table", "--n-max", "100000"],
                             "854ae424a3e92edf521f29749a780cbd821528ba2233d0c46f0ab90a45352a4b"),
    "lowerbound-demo": (["lowerbound-demo", "--fixture", "thm6-chain", "--q", "2",
                         "--m-grid", "8,16,24", "--trials", "200", "--seed", "1"],
                        "2c18e716cb6b03f46f40030db423321d941b7b36ad4c4c9deade006432edd78f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_golden_csv_digest(name, tmp_path):
    args, digest = GOLDEN_CSV[name]
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 over the 21 reports of scripts/run_all_experiments.py at 200 trials,
# seed 11, taken in name order as name + NUL + bytes.  It pins the cells no
# GOLDEN_CSV covers: the gen, nowait and ex1 wait iter-bench rows and the
# thm3 lowerbound-demo rows.
GRID_DIGEST = "969de297783e602a2426838cafd92925b83add523ae7016f21079beec7a51a35"


SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"


@pytest.fixture(scope="module")
def grid_reports(tmp_path_factory):
    """The reports of the experiment grid at 200 trials, seed 11, in name order."""
    out_dir = tmp_path_factory.mktemp("grid")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SCRIPT.parents[1] / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--trials", "200", "--seed", "11", "--out-dir",
         str(out_dir)], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return sorted(out_dir.iterdir(), key=lambda p: p.name)


def test_experiment_grid_digest(grid_reports):
    assert len(grid_reports) == 21
    digest = hashlib.sha256()
    for path in grid_reports:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GRID_DIGEST


def test_every_grid_report_replays_from_its_metadata(grid_reports, tmp_path):
    # Each report's ``# key=value`` lines, less the subcommand, as a config
    # file: the run they name writes the same bytes, and exits 2 exactly when
    # a row of them FAILs or VIOLATEs, as the first-q control's does.
    for path in grid_reports:
        lines = path.read_text().splitlines()
        meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        cells = {cell for line in lines for cell in line.split(",")}
        cfg = tmp_path / f"{path.stem}.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in meta.items() if k != "subcommand"))
        out = tmp_path / path.name
        code = run_cli([meta["subcommand"], "--config", str(cfg), "--out", str(out)])
        assert code == (2 if cells & {"FAIL", "VIOLATION"} else 0), path.name
        assert out.read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("control_code,script_code", [(2, 0), (0, 1)])
def test_grid_script_requires_the_negative_control_to_fail(
        monkeypatch, tmp_path, capsys, control_code, script_code):
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script.cli, "main",
                        lambda argv: control_code if "first-q" in argv else 0)
    assert script.main(["--out-dir", str(tmp_path)]) == script_code
    out = capsys.readouterr().out.splitlines()
    line, = [s for s in out if s.startswith("equiv-greedy-max-first-q")]
    assert ("expected FAIL" if control_code == 2 else "ok, not FAIL") in line


def run_fresh(args, **kwargs):
    """Run ``python args...`` in a fresh interpreter that imports poolstream
    from this checkout's src/."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


# Each name perfbench and the tests replace on cli: its submodule, and a
# command that reads it.
REPLACEABLE = {
    "trial_rng": ("core", ["equiv-test"]),
    "run_stream": ("core", ["equiv-test"]),
    "exact_pool_distribution": ("stats", ["equiv-test"]),
    "two_region_exact_distribution": ("stats", ["equiv-test", "--fixture", "thm3-good-pool",
                                                "--emulator", "gen"]),
    "tv_distance": ("stats", ["equiv-test"]),
    "mean_ci": ("stats", ["iter-bench"]),
}


@pytest.mark.parametrize("name", sorted(REPLACEABLE))
def test_replacement_set_before_first_use_reaches_every_call(name, tmp_path):
    # cli binds these names from their submodules on first access; one set
    # with monkeypatch before that access must still reach the command, and
    # undoing it must leave the submodule's own function.
    home, command = REPLACEABLE[name]
    argv = command + ["--trials", "20", "--seed", "5", "--tv-threshold", "1",
                      "--out", str(tmp_path / "out.csv")]
    done = run_fresh(["-c", (
        "import importlib, pytest, poolstream.cli as cli\n"
        f"name = {name!r}\n"
        "assert name not in vars(cli)\n"
        f"original = importlib.import_module('poolstream.{home}').{name}\n"
        "calls = []\n"
        "patch = pytest.MonkeyPatch()\n"
        "patch.setattr(cli, name, lambda *a: calls.append(a) or original(*a))\n"
        f"code = cli.main({argv!r})\n"
        "patch.undo()\n"
        "print(code, len(calls) > 0, getattr(cli, name) is original)")])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "True", "True"]


def load_perfbench_instrument():
    """perfbench/instrument.py as a fresh module, without a sys.path entry."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
    spec = importlib.util.spec_from_file_location("perfbench_instrument", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("hook,command", [
    ("Tracer", ["equiv-test", "--fixture", "greedy-max-atoms", "--emulator", "wait",
                "--tv-threshold", "1"]),
    ("TrialHook", ["iter-bench", "--fixture", "greedy-max-atoms", "--emulator", "wait"]),
    ("Tracer", ["iter-bench", "--fixture", "greedy-max", "--emulator", "utility-stream"])])
def test_perfbench_hooks_patch_and_restore_the_package(hook, command, tmp_path, monkeypatch):
    # The benchmark patches package attributes by name; each must exist,
    # reach a run, and be the original object again after uninstall.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    instrument = load_perfbench_instrument()
    package = types.SimpleNamespace(**{
        name: importlib.import_module(f"poolstream.{name}")
        for name in ("cli", "constructions", "core", "emulators", "secretary", "stats")})
    hooks = getattr(instrument, hook)(package)
    if hook == "Tracer":
        hooks.begin("guard")
    hooks.install()
    try:
        patched = list(hooks._patches._saved)
        code = cli.main(command + ["--m", "4", "--q", "2", "--trials", "2", "--seed", "5",
                                   "--out", str(tmp_path / "out.csv")])
    finally:
        hooks.uninstall()
    assert code == 0
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    if hook == "Tracer":
        assert hooks.counts[0]["trials"] == 2
        assert hooks.rep_totals(0)["emulators.run"][0] == 2
        if "utility-stream" in command:
            # More than the emulator's q per trial: the cost lookup's calls
            # through cli.cached_policy are counted too.
            assert hooks.counts[0]["secretary.cached_policy"] > 2 * 2
    else:
        assert hooks.attempted == len(hooks.latencies_ns) == 2


@pytest.mark.parametrize("args", [["secretary-table", "--n-max", "300"],
                                  ["equiv-test", "--trials", "300", "--seed", "6"]],
                         ids=["secretary-table", "equiv-test"])
def test_module_entry_point_writes_what_main_writes(args, tmp_path):
    # Under -m the module runs as __main__, whose reads through itself must
    # resolve as they do for poolstream.cli.
    done = run_fresh(["-m", "poolstream.cli", *args, "--out", str(tmp_path / "m.csv")])
    assert done.returncode == 0, done.stderr
    assert run_cli(args + ["--out", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_module_entry_point_reports_an_emulation_error():
    done = run_fresh(["-m", "poolstream.cli", "equiv-test", "--fixture", "ex1-hypotheses",
                      "--emulator", "wait", "--m", "60", "--q", "3", "--trials", "10"])
    assert done.returncode == 1
    assert done.stderr.startswith("error: ex1-hypotheses has no total exact output "
                                  "distribution")
