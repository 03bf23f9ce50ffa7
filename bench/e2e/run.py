#!/usr/bin/env python3
"""ccbench entry point: build, run one workload, compare, smoke-test.

Run from the repository root:

  python3 bench/e2e/run.py --workload profile_matrix --seed 1 --seconds 20 --trace 0
  python3 bench/e2e/run.py --workload ingest_mix --trace 1 --trace-out ingest.trace.json
  python3 bench/e2e/run.py --workload mrc_sweep --out runs.jsonl
  python3 bench/e2e/run.py --compare parent.jsonl change.jsonl
  python3 bench/e2e/run.py --smoke

A run builds bench/e2e (and the library sources it compiles) with CMake
into $CARGO_TARGET_DIR/ccbench (default .bench_build/ccbench), runs the
ccbench binary for the workload, and passes its output through: the
last line is the result object {"correct", "attempted", "failed",
"metrics"}. The exit status is ccbench's (0 = every oracle gate held).
"""

import argparse
import concurrent.futures
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["profile_matrix", "mrc_sweep", "screen_sweep", "ingest_mix"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir(args):
    if args.build_dir:
        return args.build_dir
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "ccbench")


def build(bdir):
    """Configures (when needed) and builds ccbench; returns the binary path."""
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f)) for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(logfile) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log(f"build failed: {' '.join(cmd)} (log: {logfile})")
                return None
    return os.path.join(bdir, "ccbench")


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(binary, bdir, workload, seed, seconds, trace, trace_out=None, smoke=False):
    """Runs ccbench in a child process.

    Returns (exit code, output lines, detail, result); detail and result
    are None when the child printed no result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--git-sha", git_sha(),
           "--workdir", os.path.join(bdir, f"work-{workload}-t{int(trace)}-{os.getpid()}")]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    detail = result = None
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        pass
    return proc.returncode, lines, detail, result


def load_benchmark():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        return json.load(f)


# --- compare ---------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_runs(path):
    """Untraced run records per workload: every end-to-end metric and
    every detail-line extra, by name."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"]:
                    continue
                values = {k: v["value"] for k, v in rec["detail"]["extra"].items()}
                values.update({k: v["value"] for k, v in rec["result"]["metrics"].items()})
                runs.setdefault(rec["workload"], []).append(values)
    return runs


# Accuracy, from the detail line. A seed fixes these values, so their
# bound is 0: any move against the parent changes what the program
# computes, and a loss of accuracy counts as a regression.
ACCURACY = [("fail_ratio", "lower"), ("verdict_agreement", "higher"),
            ("mrc_max_err", "lower")]


def compare(parent_path, change_path):
    """One row per workload and metric (end-to-end, then accuracy);
    exit 1 on a regression."""
    bench = load_benchmark()
    metrics = [(m["name"], m["better"] == "lower", m["bound"]) for m in bench["end_to_end"]]
    metrics += [(name, better == "lower", 0.0) for name, better in ACCURACY]
    parent, change = read_runs(parent_path), read_runs(change_path)
    print(f"{'workload':<15} {'metric':<18} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':>6}  verdict")
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        for name, lower, bound in metrics:
            p = [r[name] for r in parent[workload] if name in r]
            c = [r[name] for r in change[workload] if name in r]
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            pairs = list(zip(p, c))
            better = (lambda a, b: b < a) if lower else (lambda a, b: b > a)
            wins = sum(better(a, b) for a, b in pairs)
            losses = sum(better(b, a) for a, b in pairs)
            win_frac = wins / len(pairs) if pairs else 0.0
            # Positive = the change is worse, as a share of the parent
            # median (any worsening of a zero median is infinitely worse).
            delta = cq[1] - pq[1] if lower else pq[1] - cq[1]
            worse = delta / abs(pq[1]) if pq[1] else math.copysign(math.inf, delta) if delta else 0.0
            spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
            all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
            # A gain needs ten pairs, nine tenths of them won, and a median
            # shift wider than the parent's own interquartile range.
            if (len(pairs) >= 10 and win_frac >= 0.9 and worse < 0
                    and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
                verdict = "improved"
            elif worse > bound:
                verdict = "regressed"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "no-worse"
            regressed |= verdict == "regressed"
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"{workload:<15} {name:<18} {fmt(pq):<32} {fmt(cq):<32} "
                  f"{wins}/{len(pairs)} ({losses} lost)  {verdict}")
    return 1 if regressed else 0


# --- smoke -----------------------------------------------------------------

def smoke(binary, bdir):
    """Every workload, untraced and traced, at minimal length: every gate
    holds and every metric BENCHMARK.json names is printed in its unit."""
    bench = load_benchmark()
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        log("BENCHMARK.json workloads differ from ccbench's")
        return 1
    expect = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    def check(case):
        workload, trace = case
        start = time.time()
        code, _, _, result = run_one(binary, bdir, workload, DEFAULT_SEED, 2, trace,
                                     smoke=True)
        problems = []
        if code != 0 or not result or not result.get("correct"):
            problems.append(f"exit {code}, result {result and result.get('correct')}")
        got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
        if got != expect[trace]:
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(expect[trace].items()))}")
        status = "ok" if not problems else "FAIL " + "; ".join(problems)
        log(f"smoke {workload} trace={trace}: {status} ({time.time() - start:.1f} s)")
        return not problems

    # Three runs at a time keep the whole smoke test under 30 s.
    cases = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        ok = list(pool.map(check, cases))
    return 0 if all(ok) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float,
                    help="measured time (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-out", help="write the traced run's spans as Chrome trace JSON")
    ap.add_argument("--out", help="append the run's record (detail + result) to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two JSONL files of runs made with --out")
    ap.add_argument("--smoke", action="store_true", help="short run of every workload")
    ap.add_argument("--build-dir", help="CMake build directory (default "
                    "$CARGO_TARGET_DIR/ccbench or .bench_build/ccbench)")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir(args)
    binary = build(bdir)
    if not binary:
        return 2
    if args.smoke:
        return smoke(binary, bdir)

    seconds = args.seconds or load_benchmark()["run_seconds"]
    code, lines, detail, result = run_one(binary, bdir, args.workload, args.seed,
                                          seconds, args.trace, args.trace_out)
    if result is None:
        log(f"ccbench exited {code} without a result")
        return code or 1
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "detail": detail,
                                "result": result}) + "\n")
    print("\n".join(lines[-2:]), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
