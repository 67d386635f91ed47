#!/usr/bin/env python3
"""Whole-stack benchmark runner: builds the benchmark program from source and
runs one workload, or one of the benchmark's own checking modes.

Measurement (the benchmark's command, see BENCHMARK.json):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

  Builds perfbench/ (and the library one directory up) with CMake, runs the
  workload for S wall-clock seconds in its own process, checks its outputs,
  and prints as its last line one JSON object with "correct", "attempted",
  "failed" and "metrics": the end-to-end metrics with --trace 0, the
  per-layer metrics with --trace 1. A traced run also writes its spans as
  Chrome trace-event JSON under perfbench/out/ and prints a per-layer
  self-time table. Exit status 0 only when every check passed.

Checking modes:

    python3 perfbench/run.py stability --workload NAME [--runs 10]
            [--seconds S] [--seed N] [--vary-seeds]
  Runs one workload repeatedly in fresh processes and prints the median and
  quartiles of every end-to-end metric, with each spread as a share of the
  median next to the metric's bound. With one seed (the default) it also
  flags any simulated-time metric that differs between runs; with
  --vary-seeds it uses seeds N, N+1, ... as the benchmark's users do.

    python3 perfbench/run.py identity [--seed N]
  Exits non-zero on any difference in simulated-time metrics or final
  membership digests between two same-seed runs of every workload, and
  between the sharded executor at its full worker count and at one worker.

    python3 perfbench/run.py selftest
  Plants one fault per check (a dropped acknowledged write, a duplicated
  yield, an altered digest, ...) and confirms that the run fails on it.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")

WORKLOADS = ["sessions", "sessions-sharded", "wan-drain", "replicated-writes"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(BENCHMARK_JSON) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures and builds the benchmark binaries; the build log goes to
    stderr so the last line of stdout stays the result."""
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(REPO, "src")):
        fail("the library sources (../CMakeLists.txt, ../src) are missing; "
             "run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time when several runs start together.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", jobs, "--target", "wsbench",
             "wsbench_traced"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace, rounds=0, fault="",
               workers=0, echo=True):
    """Runs one workload process; returns (exit status, report dict or None,
    stdout text)."""
    binary = os.path.join(BUILD, "wsbench_traced" if trace else "wsbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if fault:
        cmd += ["--fault", fault]
    if workers:
        cmd += ["--workers", str(workers)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
        elif echo:
            print(line)
    if echo and proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, report, proc.stdout + proc.stderr


def metric_value(report, name):
    for section in ("wall", "sim", "layer"):
        if name in report.get(section, {}):
            return report[section][name]
    return None


def measure(args):
    spec = load_spec()
    build()
    status, report, _ = run_binary(args.workload, args.seed, args.seconds,
                                   args.trace)
    if report is None:
        fail("the workload process (exit %d) printed no report" % status)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = metric_value(report, m["name"])
        if value is None:
            fail("the report lacks metric %s" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %16.6g %s" % (m["name"], value, m["unit"]))
    if args.trace:
        print("tracing overhead: %.2f%% of untraced ops_per_ref_s" %
              report["layer"].get("bench.trace_overhead_pct", 0.0))
    correct = bool(report["correct"]) and status == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stability(args):
    spec = load_spec()
    build()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    reports = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        status, report, text = run_binary(args.workload, seed, args.seconds,
                                          False, echo=False)
        if status != 0 or report is None:
            print(text)
            fail("run %d (seed %d) failed" % (i, seed))
        reports.append(report)
        print("run %2d seed %d: %s" % (i, seed, " ".join(
            "%s=%.6g" % (m["name"], metric_value(report, m["name"]))
            for m in spec["end_to_end"])))
    print("\n%-24s %14s %14s %14s %9s %7s" %
          ("metric", "q1", "median", "q3", "iqr/med", "bound"))
    names = [m["name"] for m in spec["end_to_end"]]
    names += sorted(k for k in reports[0]["wall"] if k not in names)
    names += sorted(k for k in reports[0]["sim"] if k not in names)
    unsteady = []
    for name in names:
        values = [metric_value(r, name) for r in reports]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above bound/3"
            unsteady.append(name)
        print("%-24s %14.6g %14.6g %14.6g %9.4f %7s%s" %
              (name, q1, med, q3, spread,
               "" if bound is None else "%.2f" % bound, flag))
    status = 0
    if not args.vary_seeds:
        moved = sorted(k for k in reports[0]["sim"]
                       if any(r["sim"].get(k) != reports[0]["sim"][k]
                              for r in reports))
        digests = {r["digest"] for r in reports}
        if moved or len(digests) > 1:
            print("SIM-TIME DIFFERENCES between same-seed runs: %s%s" %
                  (", ".join(moved),
                   " (final membership digests differ)"
                   if len(digests) > 1 else ""))
            status = 1
        else:
            print("simulated-time metrics and digests identical in all "
                  "%d runs" % len(reports))
    failed_share = {(r["failed"], r["attempted"]) for r in reports}
    print("failed/attempted per run: %s" % ", ".join(
        "%d/%d" % fa for fa in sorted(failed_share)))
    if unsteady:
        print("spread above a third of the bound: " + ", ".join(unsteady))
    return status


def compare(label, a, b):
    """Differences between the simulated results of two reports."""
    diffs = []
    for k in sorted(set(a["sim"]) | set(b["sim"])):
        if a["sim"].get(k) != b["sim"].get(k):
            diffs.append("%s: %s vs %s" % (k, a["sim"].get(k),
                                           b["sim"].get(k)))
    if a["digest"] != b["digest"]:
        diffs.append("final membership digest: %s vs %s" %
                     (a["digest"], b["digest"]))
    if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
        diffs.append("attempted/failed: %d/%d vs %d/%d" %
                     (a["attempted"], a["failed"], b["attempted"],
                      b["failed"]))
    print("%-58s %s" % (label, "identical" if not diffs else
                        "DIFFERENT\n    " + "\n    ".join(diffs)))
    return not diffs


def one_round(workload, seed, fault="", workers=0):
    status, report, text = run_binary(workload, seed, 0, False, rounds=1,
                                      fault=fault, workers=workers,
                                      echo=False)
    return status, report, text


def identity(args):
    build()
    ok = True
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            status, report, text = one_round(workload, args.seed)
            if status != 0 or report is None:
                print(text)
                fail("%s failed its checks" % workload)
            runs.append(report)
        ok &= compare("%s: two runs, seed %d" % (workload, args.seed),
                      runs[0], runs[1])
    full = one_round("sessions-sharded", args.seed)[1]
    single = one_round("sessions-sharded", args.seed, workers=1)[1]
    ok &= compare("sessions-sharded: full worker count vs one worker",
                  full, single)
    # The classic loop and the sharded executor schedule session arrivals
    # differently by design, so their simulated results are shown, not
    # required to match.
    classic = one_round("sessions", args.seed)[1]
    same = [k for k in classic["sim"]
            if classic["sim"][k] == full["sim"].get(k)]
    print("%-58s %d of %d simulated metrics equal, digests %s "
          "(informational)" %
          ("sessions (classic loop) vs sessions-sharded", len(same),
           len(classic["sim"]),
           "equal" if classic["digest"] == full["digest"] else "differ"))
    print("identity check: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# Planted faults: (workload, fault, text the failing check must print).
PLANTED = [
    ("sessions", "sessions-drop-mutation",
     "differs from the replayed mutation log"),
    ("sessions-sharded", "sessions-drop-mutation",
     "differs from the replayed mutation log"),
    ("wan-drain", "wan-fig1-extra", "did not yield exactly the seeded set"),
    ("wan-drain", "wan-duplicate-yield", "yielded twice"),
    ("wan-drain", "wan-drop-acked-add", "never a member"),
    ("wan-drain", "wan-drop-yield", "member for the whole drain"),
    ("replicated-writes", "writes-drop-acked",
     "do not hold what the writers acknowledged"),
    ("replicated-writes", "writes-move-changes-membership",
     "committed move changed"),
    ("replicated-writes", "writes-lost-on-recovery",
     "recovered host lost acknowledged writes"),
]


def selftest(args):
    build()
    ok = True
    for workload in WORKLOADS:
        status, report, text = one_round(workload, args.seed)
        clean = status == 0 and report is not None and report["correct"]
        print("%-18s %-32s %s" % (workload, "(no fault)",
                                  "passes" if clean else "FAILS"))
        ok &= clean
    for workload, fault, needle in PLANTED:
        status, report, text = one_round(workload, args.seed, fault=fault)
        caught = status != 0 and needle in text and report is not None \
            and not report["correct"]
        print("%-18s %-32s %s" % (workload, fault,
                                  "caught" if caught else "NOT CAUGHT"))
        ok &= caught
    # The identity check must notice an altered final-membership digest.
    base = one_round("sessions", args.seed)[1]
    altered = one_round("sessions", args.seed,
                        fault="sessions-alter-digest")[1]
    caught = base["digest"] != altered["digest"]
    print("%-18s %-32s %s" % ("sessions", "sessions-alter-digest",
                              "caught by identity" if caught
                              else "NOT CAUGHT"))
    ok &= caught
    print("self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    mode = argv[0] if argv and not argv[0].startswith("-") else "measure"
    if mode != "measure":
        argv = argv[1:]
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--vary-seeds", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if mode == "measure":
        if args.workload is None:
            fail("--workload is required")
        return measure(args)
    if mode == "stability":
        if args.workload is None:
            fail("--workload is required")
        return stability(args)
    if mode == "identity":
        return identity(args)
    if mode == "selftest":
        return selftest(args)
    fail("unknown mode %s" % mode)


if __name__ == "__main__":
    sys.exit(main())
