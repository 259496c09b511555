"""CLI surface: subcommands, CSV schema, determinism, exit codes."""

import hashlib

import pytest

import poolstream as ps
from poolstream import cli


def run_cli(args):
    return cli.main(args)


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
        monkeypatch.setattr(cli, "run_trials", lambda *args: (records, failures))
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
        monkeypatch.setattr(cli, "run_trials", lambda *args: (records, []))
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

    def test_infeasible_budget_is_an_error(self):
        # beyond q = ceil(m/2) some pools have no feasible region
        assert run_cli(["lowerbound-demo", "--fixture", "thm3-good-pool",
                        "--q", "3", "--m", "3", "--m-grid", "3",
                        "--trials", "200", "--seed", "15"]) == 1

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


class TestRunTrials:
    def test_capped_trials_are_listed_by_index(self):
        # Three rounds of m=5 need at least 5 + 4 + 3 draws, above the cap.
        emulator = ps.RejectionEmulator(ps.GreedyUtilityPool(lambda e, h: e.base, 5, 3))
        records, failures = cli.run_trials(emulator, ps.uniform_interval(), 3,
                                           31, 4, max_iter=7)
        assert records == []
        assert [t for t, _ in failures] == [0, 1, 2, 3]
        assert all(isinstance(exc, ps.IterationCapExceeded) for _, exc in failures)


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
    "secretary-table": (["secretary-table", "--n-max", "1000"],
                        "287579a112b2132023bdba051e84d46eba8f1cc4635f10e0c434175242c41981"),
    "lowerbound-demo": (["lowerbound-demo", "--fixture", "thm6-chain", "--q", "2",
                         "--m-grid", "8,16,24", "--trials", "200", "--seed", "1"],
                        "391440ee21140e842f5d981f345ef49b61ed5766189c6aae422452cb2434e627"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_golden_csv_digest(name, tmp_path):
    args, digest = GOLDEN_CSV[name]
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
