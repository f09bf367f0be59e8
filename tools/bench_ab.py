#!/usr/bin/env python3
"""A/B runner for one google-benchmark suite (python3 stdlib only).

Builds SUITE (a bench target: bench_stream, bench_serve, ...) twice in
Release with -DI2A_BUILD_BENCHMARKS=ON: the base revision, extracted with
`git archive` into .bench_build/ab-base/src and built in
.bench_build/ab-base, and the working tree, built in .bench_build/ab-change.
It then runs R rounds. Each round visits the points both binaries list
(`--benchmark_list_tests`, narrowed by --filter) in an order shuffled
per round from --seed, and runs each point three times, one process
per run (`--benchmark_filter=^<escaped name>$`): on the base, on the
change, and on the base again (the null run). The three rotate through
the three positions from round to round. A fresh process per point
keeps one point's allocations from shaping the next one's: glibc's
dynamic mmap and trim thresholds carry over between the points of one
process, so a point's time would depend on which points ran before it.
It prints one verdict per point for the change against the base:
better, worse, unchanged or unresolved. The verdict is
bench/e2e/run.py's `metric_verdict` over the per-round wall times
(`real_time`, lower is better; one base and one change value per round
form a pair), at the relative bound given by --bound. Beside it stands
the null verdict, the same verdict for the null runs against the base:
what noise alone reads on that point, so a `worse` whose null also
reads `worse` shows no more than noise. A point only one side lists is
reported as `base only` or `change only`, unmeasured.

Usage:
  bench_ab.py SUITE [--base REV] [--rounds R] [--bound B] [--filter REGEX]
              [--seed S]
      Exits 1 when any point is worse or a run reports an error.
  bench_ab.py --self-test
      Runs the verdict path on canned base/change/null results (no build)
      and checks that it reports better, worse, unchanged and unresolved
      where expected, in the verdict and in the null column, and that the
      one-point filter selects exactly its point.
"""

import argparse
import json
import os
import random
import re
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


def print_rows(rows, null_rows, bound):
    """The verdict table; `null_rows` (from `verdicts` on the base and
    null runs) give each point's null ratio and verdict."""
    null = {name: (verdict, ma, mb) for name, verdict, ma, mb in null_rows}
    width = max([len(r[0]) for r in rows] + [5])
    print("%-*s  %14s  %14s  %7s  %-11s  %7s  %s"
          % (width, "point", "base real_time", "change", "ratio",
             "verdict", "null", "null verdict (bound %g)" % bound))
    ratio = lambda ma, mb: "-" if ma is None else "%.3f" % (mb / ma)
    for name, verdict, ma, mb in rows:
        nv, na, nb = null.get(name, ("-", None, None))
        print("%-*s  %14s  %14s  %7s  %-11s  %7s  %s"
              % (width, name, "-" if ma is None else "%.6g" % ma,
                 "-" if mb is None else "%.6g" % mb, ratio(ma, mb), verdict,
                 ratio(na, nb), nv))


def point_filter(name):
    """The --benchmark_filter regex that selects exactly the point `name`."""
    return "^" + re.escape(name) + "$"


def list_points(binary, runs_dir, pattern):
    """The point names `binary` lists under the filter `pattern`."""
    cmd = [binary, "--benchmark_list_tests=true",
           "--benchmark_out=" + os.path.join(runs_dir, "list.json")]
    if pattern:
        cmd.append("--benchmark_filter=" + pattern)
    out = subprocess.run(cmd, check=True, cwd=runs_dir,
                         stdout=subprocess.PIPE, text=True).stdout
    return [line.strip() for line in out.splitlines() if line.strip()]


def run_point(binary, out, name):
    """One process that runs the point `name` alone; its result rows."""
    cmd = [binary, "--benchmark_filter=" + point_filter(name),
           "--benchmark_out=" + out, "--benchmark_out_format=json"]
    # Run beside the output, so nothing a suite writes lands in the cwd.
    subprocess.run(cmd, check=True, cwd=os.path.dirname(out),
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)["benchmarks"]


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
    listed = {side: list_points(binary, runs_dir, args.filter)
              for side, binary in binaries.items()}
    points = [n for n in listed["change"] if n in listed["base"]]
    # One shuffled order per round, the same for every side; the sides
    # rotate through the three positions from round to round.
    sides = [("base", "base"), ("change", "change"), ("null", "base")]
    rng = random.Random(args.seed)
    runs = {side: [] for side, _ in sides}
    for r in range(args.rounds):
        order = sides[r % 3:] + sides[:r % 3]
        shuffled = rng.sample(points, len(points))
        results = {side: [] for side, _ in sides}
        for i, name in enumerate(shuffled):
            for side, binary in order:
                out = os.path.join(runs_dir, "%s-%d-%d.json" % (side, r, i))
                results[side] += run_point(binaries[binary], out, name)
        for side, _ in sides:
            runs[side].append({"benchmarks": results[side]})
        print("round %d/%d done" % (r + 1, args.rounds), file=sys.stderr)
    rows = verdicts(runs["base"], runs["change"], args.bound)
    rows += [(n, "base only", None, None)
             for n in listed["base"] if n not in listed["change"]]
    rows += [(n, "change only", None, None)
             for n in listed["change"] if n not in listed["base"]]
    print("%s: base %s vs working tree, %d rounds, seed %d"
          % (args.suite, args.base, args.rounds, args.seed))
    print_rows(rows, verdicts(runs["base"], runs["null"], args.bound),
               args.bound)
    return 1 if any(v in ("worse", "error") for _, v, _, _ in rows) else 0


def canned(points):
    """A google-benchmark JSON result with one iteration row per point."""
    return {"benchmarks": [dict(name=n, real_time=v, time_unit="ns")
                           for n, v in points.items()]}


def cmd_self_test():
    """Eight canned rounds. Base times sit near 100 with a ~1% spread;
    each point's change times are built to land on one verdict at a 5%
    bound (lower real_time is better), and its null times (the base run
    again) on one null verdict."""
    base = {
        "BM_Faster": [100, 101, 99, 100.5, 99.5, 100, 101, 99],
        "BM_Slower": [100, 101, 99, 100.5, 99.5, 100, 101, 99],
        "BM_Same": [100, 101, 99, 100.5, 99.5, 100, 101, 99],
        "BM_Noisy": [80, 120, 95, 110, 85, 125, 100, 90],
        "BM_Drift": [100, 101, 99, 100.5, 99.5, 100, 101, 99],
    }
    change = {
        "BM_Faster": [90, 91, 89, 90.5, 89.5, 90, 91, 89],
        "BM_Slower": [110, 111, 109, 110.5, 109.5, 110, 111, 109],
        # base, rotated by one round: same distribution, no winner.
        "BM_Same": [101, 99, 100.5, 99.5, 100, 101, 99, 100],
        "BM_Noisy": [120, 85, 100, 80, 115, 95, 110, 90],
        "BM_Drift": [110, 111, 109, 110.5, 109.5, 110, 111, 109],
    }
    # The base again: rotated by two rounds (no drift), except where the
    # point drifts between runs of one binary, so noise alone reads worse.
    null = {name: v[2:] + v[:2] for name, v in base.items()}
    null["BM_Drift"] = [111, 109, 110.5, 109.5, 110, 111, 109, 110]
    expect = {"BM_Faster": "better", "BM_Slower": "worse",
              "BM_Same": "unchanged", "BM_Noisy": "unresolved",
              "BM_Drift": "worse", "BM_Broken": "error"}
    expect_null = {"BM_Faster": "unchanged", "BM_Slower": "unchanged",
                   "BM_Same": "unchanged", "BM_Noisy": "unresolved",
                   "BM_Drift": "worse", "BM_Broken": "unchanged"}
    rounds = len(base["BM_Faster"])
    runs = [[canned({n: v[r] for n, v in side.items()})
             for r in range(rounds)] for side in (base, change, null)]
    base_runs, change_runs, null_runs = runs
    # A point that fails in one change run is reported as an error.
    for side in runs:
        for doc in side:
            doc["benchmarks"].append(dict(name="BM_Broken", real_time=100.0))
    change_runs[3]["benchmarks"][-1]["error_occurred"] = True
    rows = verdicts(base_runs, change_runs, 0.05)
    null_rows = verdicts(base_runs, null_runs, 0.05)
    print_rows(rows, null_rows, 0.05)
    failures = 0
    for column, got_rows, want in (("verdict", rows, expect),
                                   ("null verdict", null_rows, expect_null)):
        got = {name: v for name, v, _, _ in got_rows}
        for name, w in want.items():
            if got.get(name) != w:
                failures += 1
                print("FAIL %s %s: expected %s, got %s"
                      % (name, column, w, got.get(name)))
    # Each point's filter selects that point and no other: names with
    # '/' and ':' separators, prefixes of one another, and regex
    # metacharacters that must match literally.
    names = ["BM_Construct_FromCoo/65536", "BM_Construct_FromCoo/6553",
             "BM_Construct_FromCoo/65536/8",
             "BM_Generate_RMAT/scale:18/threads:4",
             "BM_Generate_RMAT/scale:18/threads:1",
             "BM_X/0.5", "BM_X/0x5", "BM_Y/a+b", "BM_Y/aab"]
    for name in names:
        chosen = [n for n in names if re.search(point_filter(name), n)]
        if chosen != [name]:
            failures += 1
            print("FAIL filter %s selects %s" % (point_filter(name), chosen))
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
    parser.add_argument("--filter", default=None,
                        help="regex of the points to run (default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the per-round point order (default 1)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return cmd_self_test()
    if not args.suite:
        parser.error("a suite is required unless --self-test is given")
    return cmd_ab(args)


if __name__ == "__main__":
    sys.exit(main())
