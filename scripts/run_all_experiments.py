#!/usr/bin/env python3
"""Run the full experiment grid and write CSV reports under results/.

A thin driver over the ``poolstream`` CLI.  Trial counts default to a quick
desk-scale pass; raise --trials for publication-grade noise floors.  Each
report's line gives its wall seconds, and the last line the total.  Exit 1
if a command errs, or if the first-q negative control does not FAIL.
"""

import argparse
import pathlib
import sys
import time

from poolstream import cli

EQUIV_GRID = [
    # fixture, emulator, m, q
    ("greedy-max", "utility-stream", 3, 1),
    ("greedy-max", "utility-stream", 4, 2),
    ("greedy-max", "utility-stream", 5, 2),
    ("greedy-max-discrete", "gen", 3, 1),
    ("greedy-max-discrete", "gen", 4, 2),
    ("thm3-good-pool", "gen", 3, 1),
    ("thm3-good-pool", "gen", 4, 2),
    ("greedy-max-discrete", "nowait", 4, 2),
    ("greedy-max-atoms", "wait", 4, 2),
    ("thm6-chain", "utility-stream", 8, 2),
    ("greedy-max", "first-q", 4, 2),  # negative control: expected to FAIL
]

BENCH_GRID = [
    ("greedy-max-discrete", "gen", 3, 1),
    ("greedy-max-discrete", "gen", 4, 2),
    ("greedy-max-discrete", "gen", 5, 3),
    ("greedy-max", "utility-stream", 4, 2),
    ("greedy-max", "utility-stream", 10, 5),
    ("greedy-max-discrete", "nowait", 4, 2),
    ("ex1-hypotheses", "wait", 60, 3),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    start = time.perf_counter()

    def run(tag, argv, control=False):
        """Run one report; the negative ``control`` must FAIL."""
        began = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - began
        marker = {0: "ok", 2: "FAIL rows"}.get(code, f"exit {code}")
        if control:
            marker = "expected FAIL" if code == 2 else f"{marker}, not FAIL"
        print(f"{tag:55s} {marker:14s} {seconds:8.2f} s")
        if code not in ((2,) if control else (0, 2)):
            failures.append(tag)
        return code

    for fixture, emulator, m, q in EQUIV_GRID:
        tag = f"equiv-{fixture}-{emulator}-m{m}q{q}"
        run(tag, ["equiv-test", "--fixture", fixture, "--emulator", emulator,
                  "--m", str(m), "--q", str(q), "--trials", str(args.trials),
                  "--seed", str(args.seed), "--out", str(out_dir / f"{tag}.csv")],
            control=emulator == "first-q")

    for fixture, emulator, m, q in BENCH_GRID:
        tag = f"bench-{fixture}-{emulator}-m{m}q{q}"
        run(tag, ["iter-bench", "--fixture", fixture, "--emulator", emulator,
                  "--m", str(m), "--q", str(q), "--trials", str(args.trials),
                  "--seed", str(args.seed), "--out", str(out_dir / f"{tag}.csv")])

    run("secretary-table", ["secretary-table", "--n-max", "10000",
                            "--out", str(out_dir / "secretary-table.csv")])
    run("lowerbound-thm6", ["lowerbound-demo", "--fixture", "thm6-chain",
                            "--q", "2", "--m-grid", "8,16,24",
                            "--trials", str(args.trials), "--seed", str(args.seed),
                            "--out", str(out_dir / "lowerbound-thm6.csv")])
    run("lowerbound-thm3", ["lowerbound-demo", "--fixture", "thm3-good-pool",
                            "--q", "2", "--m-grid", "4,8,16",
                            "--trials", str(min(args.trials, 2000)),
                            "--seed", str(args.seed),
                            "--out", str(out_dir / "lowerbound-thm3.csv")])

    print(f"{'total':55s} {'':14s} {time.perf_counter() - start:8.2f} s")
    if failures:
        print("unexpected exits:", ", ".join(failures))
        return 1
    print(f"reports written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
