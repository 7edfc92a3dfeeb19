#!/usr/bin/env python3
"""The co-design benchmark.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds the benchmark (dune, release profile) and runs one workload.
      The last line of output is {"correct", "attempted", "failed",
      "metrics"}: the end-to-end metrics with --trace 0, the per-layer
      ones with --trace 1.  Extra options: --size tiny, --out FILE (append
      the full result record, with metadata and fingerprints, to FILE).

  python3 perfbench/run.py series --seeds 1-10 [--workloads a,b] --out FILE
      Runs every workload once per seed, appending records to FILE, and
      prints each metric's median, quartiles and spread.

  python3 perfbench/run.py compare OLD NEW
      Compares two record files per (workload, metric): each side's median
      and quartiles.  Flags a pair whose median got worse by more than the
      metric's bound, or whose spread is wider than the bound (unresolved,
      unless every NEW run reads better than every OLD run).  Also checks
      that equal seeds simulated equally within each file.

  python3 perfbench/run.py selftest
      Tiny runs of every workload: every metric prints with its unit, no
      op or partitioned reference run fails (each of the latter must
      simulate exactly what its serial twin does), traced spans nest,
      per-op kernel events add up to the run's total, and fingerprints
      repeat.

Metric names, units, bounds and directions come from BENCHMARK.json.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["cosim", "dse", "verify"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    """Builds the benchmark from the checkout's sources."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--profile", "release", "--display", "quiet", EXE]
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed", 1)


def commit():
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_exe(args, capture=False):
    cmd = [EXE] + args + ["--commit", commit()]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)


def run_record(workload, seed, seconds, trace, size="full", out=None):
    """Runs one workload and returns its full record."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size]
    if out:
        args += ["--out", out]
    r = run_exe(args, capture=True)
    if r.returncode != 0:
        fail("%s seed %d exited with %d" % (workload, seed, r.returncode), 1)
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])


def read_records(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else 0.0


def by_metric(records, trace):
    """{(workload, metric): [values]} over records of one trace mode."""
    table = {}
    for r in records:
        if r["trace"] != trace:
            continue
        for name, m in r["metrics"].items():
            table.setdefault((r["workload"], name), []).append(m["value"])
    return table


def run_key(r):
    return (r["workload"], r["seed"], r["size"])


def fingerprint_problems(records):
    """Equal inputs must simulate equally."""
    problems, seen = [], {}
    for r in records:
        if seen.setdefault(run_key(r), r["fingerprint"]) != r["fingerprint"]:
            problems.append("%s seed %d: fingerprints differ between runs" % (r["workload"], r["seed"]))
    return sorted(set(problems))


def print_table(table, metrics):
    for (w, name), xs in sorted(table.items(), key=lambda kv: (WORKLOADS.index(kv[0][0]), kv[0][1])):
        if name not in metrics:
            continue
        q1, med, q3 = quartiles(xs)
        print("%-7s %-26s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f %s"
              % (w, name, len(xs), med, q1, q3, spread(xs), metrics[name]["unit"]))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def option(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def cmd_series(args):
    s = spec()
    out = option(args, "--out") or fail("series needs --out FILE")
    seeds = parse_seeds(option(args, "--seeds", "1-10"))
    workloads = option(args, "--workloads", ",".join(w["name"] for w in s["workloads"])).split(",")
    trace = int(option(args, "--trace", "0"))
    seconds = option(args, "--seconds", str(s["run_seconds"]))
    build()
    records = []
    for w in workloads:
        for seed in seeds:
            records.append(run_record(w, seed, seconds, trace, out=out))
            print("ran %s seed %d" % (w, seed), file=sys.stderr)
    metrics = {m["name"]: m for m in s["end_to_end" if trace == 0 else "per_layer"]}
    print_table(by_metric(records, trace), metrics)
    bad = [r for r in records if not r["correct"]]
    for r in bad:
        print("INCORRECT %s seed %d" % (r["workload"], r["seed"]))
    for p in fingerprint_problems(records):
        print("FINGERPRINT " + p)
    return 1 if bad or fingerprint_problems(records) else 0


def cmd_compare(args):
    if len(args) != 2:
        fail("usage: run.py compare OLD NEW")
    s = spec()
    old, new = (read_records(p) for p in args)
    metrics = {m["name"]: m for m in s["end_to_end"]}
    a, b = by_metric(old, 0), by_metric(new, 0)
    flagged = 0
    print("%-7s %-18s %-36s %-36s %-8s %s" % ("work", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict"))
    for key in sorted(set(a) & set(b), key=lambda k: (WORKLOADS.index(k[0]), k[1])):
        w, name = key
        if name not in metrics:
            continue
        m = metrics[name]
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(a[key]), quartiles(b[key])
        change = (nmed - omed) / omed if omed else 0.0
        worse = change if m["better"] == "lower" else -change
        bound = m.get("bound", 0.25)
        sign = 1 if m["better"] == "higher" else -1
        all_better = min(sign * x for x in b[key]) > max(sign * x for x in a[key])
        verdict = "ok"
        if max(spread(a[key]), spread(b[key])) > bound and not all_better:
            verdict = "UNRESOLVED (spread %.3f > bound %.2f)" % (max(spread(a[key]), spread(b[key])), bound)
        elif worse > bound:
            verdict = "REGRESSION (worse by %.1f%% > %.0f%%)" % (100 * worse, 100 * bound)
        flagged += verdict != "ok"
        print("%-7s %-18s %-36s %-36s %+7.1f%% %s" % (
            w, name, "%.6g [%.6g, %.6g]" % (omed, oq1, oq3), "%.6g [%.6g, %.6g]" % (nmed, nq1, nq3),
            100 * change, verdict))
    problems = fingerprint_problems(old) + fingerprint_problems(new)
    for p in problems:
        print("FINGERPRINT " + p)
    # Runs of equal inputs on both sides: a change that only speeds the
    # simulators up leaves what they simulate identical.
    prints = {run_key(r): r["fingerprint"] for r in old}
    shared = [r for r in new if run_key(r) in prints]
    changed = [r for r in shared if prints[run_key(r)] != r["fingerprint"]]
    print("simulated statistics: %d of %d shared runs identical%s" % (
        len(shared) - len(changed), len(shared),
        "".join("; changed: %s seed %d" % (r["workload"], r["seed"]) for r in changed)))
    print("%d flagged pair(s)" % flagged)
    return 1 if flagged or problems else 0


def cmd_selftest(_args):
    s = spec()
    build()
    problems = []
    records = []
    for w in WORKLOADS:
        for trace in (0, 0, 1):
            r = run_record(w, 1, 0.5, trace, size="tiny")
            records.append(r)
            expected = s["end_to_end" if trace == 0 else "per_layer"]
            for m in expected:
                got = r["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (w, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s in %s, BENCHMARK.json says %s" % (w, m["name"], got["unit"], m["unit"]))
            if r["failed"] or not r["correct"]:
                problems.append("%s trace %d: %d of %d ops failed, correct=%s"
                                % (w, trace, r["failed"], r["attempted"], r["correct"]))
            if r["reported"]["error_rate"]["value"] != 0:
                problems.append("%s: error_rate is not 0" % w)
            for check, ok in r["checks"].items():
                if not ok:
                    problems.append("%s: %s check failed" % (w, check))
            if trace == 1 and set(r["checks"]) != {"spans_nest", "events_reconcile"}:
                problems.append("%s: traced run did not check spans and events" % w)
            print("%-7s trace %d: %d ops, %d failed, fingerprint %s"
                  % (w, trace, r["attempted"], r["failed"], r["fingerprint"]))
    problems += fingerprint_problems(records)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv):
    if argv and argv[0] in ("series", "compare", "selftest"):
        return {"series": cmd_series, "compare": cmd_compare, "selftest": cmd_selftest}[argv[0]](argv[1:])
    if "--workload" not in argv:
        fail(__doc__.strip())
    build()
    r = run_exe(argv)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
