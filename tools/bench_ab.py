#!/usr/bin/env python3
"""A/B runner for one google-benchmark suite (python3 stdlib only).

Builds SUITE (a bench target: bench_stream, bench_serve, ...) twice in
Release with -DI2A_BUILD_BENCHMARKS=ON: the base revision, extracted with
`git archive` into .bench_build/ab-base/src and built in
.bench_build/ab-base, and the working tree, built in .bench_build/ab-change.
It then runs the two binaries alternately for R rounds (base first in even
rounds, change first in odd ones), each run with
--benchmark_enable_random_interleaving=true, and prints one verdict per
benchmark point for the change against the base: better, worse,
unchanged or unresolved. The verdict is bench/e2e/run.py's
`metric_verdict` over the per-round wall times (`real_time`, lower is
better; one base and one change value per round form a pair), at the
relative bound given by --bound.

Usage:
  bench_ab.py SUITE [--base REV] [--rounds R] [--bound B] [--filter REGEX]
      Exits 1 when any point is worse or a run reports an error.
  bench_ab.py --self-test
      Runs the verdict path on canned base/change results (no build) and
      checks that it reports better, worse, unchanged and unresolved where
      expected.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_BUILD = os.path.join(ROOT, ".bench_build")

# Import run.py's comparer as is; write no bytecode next to it.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "bench", "e2e"))
from run import metric_verdict, summarize  # noqa: E402


def build(src, build_dir, suite):
    # The extracted base tree lies inside this repository: stop git's
    # search at the build directory, so the suite's recorded commit reads
    # "unknown" instead of the working tree's.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=build_dir)
    subprocess.run(["cmake", "-S", src, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DI2A_BUILD_BENCHMARKS=ON"],
                   check=True, stdout=subprocess.DEVNULL, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", suite], check=True, stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, suite)


def extract(rev, dest):
    """A clean tree of `rev` at `dest` (replacing what was there)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def point_values(doc):
    """{point: real_time} from one google-benchmark JSON result, or None
    for a point that reported an error."""
    return {b["name"]: None if b.get("error_occurred") else float(b["real_time"])
            for b in doc["benchmarks"]}


def verdicts(base_runs, change_runs, bound):
    """[(point, verdict, base median, change median)], one row per point,
    in first-seen order. Round r's base and change runs form a pair."""
    rounds = [(point_values(a), point_values(b))
              for a, b in zip(base_runs, change_runs)]
    points = []
    for a, b in rounds:
        for name in list(a) + list(b):
            if name not in points:
                points.append(name)
    rows = []
    for name in points:
        va = [a.get(name) for a, _ in rounds]
        vb = [b.get(name) for _, b in rounds]
        if any(v is None for v in va + vb):
            rows.append((name, "error", None, None))
            continue
        sa, sb = summarize(va), summarize(vb)
        rows.append((name, metric_verdict(sa, sb, "lower", bound),
                     sa["median"], sb["median"]))
    return rows


def print_rows(rows, bound):
    width = max([len(r[0]) for r in rows] + [5])
    print("%-*s  %14s  %14s  %7s  verdict (bound %g)"
          % (width, "point", "base real_time", "change", "ratio", bound))
    for name, verdict, ma, mb in rows:
        if ma is None:
            print("%-*s  %14s  %14s  %7s  %s" % (width, name, "-", "-", "-",
                                                 verdict))
        else:
            print("%-*s  %14.6g  %14.6g  %7.3f  %s"
                  % (width, name, ma, mb, mb / ma, verdict))


def run_once(binary, out, args):
    cmd = [binary, "--benchmark_enable_random_interleaving=true",
           "--benchmark_out=" + out, "--benchmark_out_format=json"]
    if args.filter:
        cmd.append("--benchmark_filter=" + args.filter)
    # Run beside the output, so nothing a suite writes lands in the cwd.
    subprocess.run(cmd, check=True, cwd=os.path.dirname(out),
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)


def cmd_ab(args):
    base_dir = os.path.join(BENCH_BUILD, "ab-base")
    extract(args.base, os.path.join(base_dir, "src"))
    binaries = {"base": build(os.path.join(base_dir, "src"), base_dir,
                              args.suite),
                "change": build(ROOT, os.path.join(BENCH_BUILD, "ab-change"),
                                args.suite)}
    runs_dir = os.path.join(BENCH_BUILD, "ab-runs")
    shutil.rmtree(runs_dir, ignore_errors=True)
    os.makedirs(runs_dir)
    runs = {"base": [], "change": []}
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for side in order:
            out = os.path.join(runs_dir, "%s-%d.json" % (side, r))
            runs[side].append(run_once(binaries[side], out, args))
        print("round %d/%d done" % (r + 1, args.rounds), file=sys.stderr)
    rows = verdicts(runs["base"], runs["change"], args.bound)
    print("%s: base %s vs working tree, %d rounds"
          % (args.suite, args.base, args.rounds))
    print_rows(rows, args.bound)
    return 1 if any(v in ("worse", "error") for _, v, _, _ in rows) else 0


def canned(points):
    """A google-benchmark JSON result with one iteration row per point."""
    return {"benchmarks": [dict(name=n, real_time=v, time_unit="ns")
                           for n, v in points.items()]}


def cmd_self_test():
    """Eight canned rounds. Base times sit near 100 with a ~1% spread;
    each point's change times are built to land on one verdict at a 5%
    bound (lower real_time is better)."""
    base = {
        "BM_Faster": [100, 101, 99, 100.5, 99.5, 100, 101, 99],
        "BM_Slower": [100, 101, 99, 100.5, 99.5, 100, 101, 99],
        "BM_Same": [100, 101, 99, 100.5, 99.5, 100, 101, 99],
        "BM_Noisy": [80, 120, 95, 110, 85, 125, 100, 90],
    }
    change = {
        "BM_Faster": [90, 91, 89, 90.5, 89.5, 90, 91, 89],
        "BM_Slower": [110, 111, 109, 110.5, 109.5, 110, 111, 109],
        # base, rotated by one round: same distribution, no winner.
        "BM_Same": [101, 99, 100.5, 99.5, 100, 101, 99, 100],
        "BM_Noisy": [120, 85, 100, 80, 115, 95, 110, 90],
    }
    expect = {"BM_Faster": "better", "BM_Slower": "worse",
              "BM_Same": "unchanged", "BM_Noisy": "unresolved",
              "BM_Broken": "error"}
    rounds = len(base["BM_Faster"])
    base_runs = [canned({n: v[r] for n, v in base.items()})
                 for r in range(rounds)]
    change_runs = [canned({n: v[r] for n, v in change.items()})
                   for r in range(rounds)]
    # A point that fails in one change run is reported as an error.
    for runs in (base_runs, change_runs):
        for doc in runs:
            doc["benchmarks"].append(dict(name="BM_Broken", real_time=100.0))
    change_runs[3]["benchmarks"][-1]["error_occurred"] = True
    rows = verdicts(base_runs, change_runs, 0.05)
    print_rows(rows, 0.05)
    got = {name: v for name, v, _, _ in rows}
    failures = 0
    for name, want in expect.items():
        if got.get(name) != want:
            failures += 1
            print("FAIL %s: expected %s, got %s" % (name, want, got.get(name)))
    print("self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("suite", nargs="?",
                        help="bench target, e.g. bench_stream")
    parser.add_argument("--base", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--bound", type=float, default=0.05,
                        help="relative bound of the verdict (default 0.05)")
    parser.add_argument("--filter", default=None)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return cmd_self_test()
    if not args.suite:
        parser.error("a suite is required unless --self-test is given")
    return cmd_ab(args)


if __name__ == "__main__":
    sys.exit(main())
