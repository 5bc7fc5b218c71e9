#!/usr/bin/env python3
"""Perf ledger: build and run the four benchmark workloads, compare runs.

Run from the repository root:

  python3 perfledger/ledger.py run [--traced] [seed=N] [--out FILE]
      All four workloads, each measured for BENCHMARK.json's run_seconds;
      prints every metric with its unit and sample count (and with --traced
      the per-layer metrics and the ledger), writes one JSON file and exits
      non-zero if any correctness check fails.
  python3 perfledger/ledger.py compare A/*.json -- B/*.json [--self]
      One row per (workload, metric): each side's median and quartiles, and
      for the BENCHMARK.json metrics the win fraction over the alternating
      pairs (A[i], B[i]) and a verdict against the metric's bound; the other
      metrics are information. --self checks that two sets of runs of one
      commit agree within the bounds. Pairs whose generated inputs differ
      are refused.
  python3 perfledger/ledger.py bench --workload W --seed N --seconds S --trace 0|1
      One workload; the last stdout line is the result object BENCHMARK.json
      describes (end-to-end metrics, or per-layer metrics with --trace 1).
  python3 perfledger/ledger.py smoke
      Every workload at toy size, correctness only.

The program is built from this checkout's sources into .bench_build/ledger
(RelWithDebInfo) on first use. Standard library only.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "ledger"
WORK = ROOT / ".bench_build" / "work"
TRACES = ROOT / ".bench_build" / "traces"
RUNS = ROOT / ".bench_build" / "runs"
BINARY = BUILD / "bench_ledger"
WORKLOADS = ["campus_paper", "campus_city", "serve_standalone", "cluster_2shard"]
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found (run from a checkout of the repository)")
    return json.loads(path.read_text())


def bounds():
    """name -> (better, bound) for the end-to-end metrics BENCHMARK.json gates."""
    return {m["name"]: (m["better"], m["bound"])
            for m in benchmark_spec()["end_to_end"]}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no program sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_ledger",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if done.returncode != 0:
            die(f"build failed: {' '.join(step)}")


def run_binary(workload, seed, seconds, trace):
    """Runs one workload and returns its full report (a dict)."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), workload, f"seed={seed}", f"seconds={seconds}",
           f"trace={1 if trace else 0}", f"work_dir={WORK}"]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd.append(f"trace_out={TRACES / f'{workload}-seed{seed}.json'}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        die(f"{workload} exited {done.returncode} without a result")
    return json.loads(lines[-1])


def fmt(value):
    if value == 0 or value is None:
        return str(value)
    return f"{value:.4g}" if abs(value) >= 1e-3 else f"{value:.3e}"


def print_report(report, names, judged):
    print(f"\n== {report['workload']}  correct={report['correct']}  "
          f"attempted={report['attempted']} failed={report['failed']}  "
          f"inputs={report['digest']} ({report['digest_of']})")
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")
    print(f"   {'metric':40s} {'value':>12s} {'unit':6s} {'samples':>9s}  bound")
    for name in names:
        metric = report["metrics"].get(name)
        if metric is None:
            continue
        spec = judged.get(name)
        bound = "-" if spec is None else f"{spec[0]} {spec[1]:.0%}"
        print(f"   {name:40s} {fmt(metric['value']):>12s} {metric['unit']:6s} "
              f"{metric['samples']:>9d}  {bound}")


def print_ledger(report):
    ledger = report["ledger"]
    if not ledger["rows"]:
        return
    e2e = ledger["e2e_ns_per_lu"]
    explained = 0.0
    print(f"   ledger ({report['workload']}): layer ns x calls per LU")
    for row in ledger["rows"]:
        per_lu = row["ns_per_call"] * row["calls_per_lu"]
        tag = "" if row["additive"] else "  (off the measured thread)"
        if row["additive"]:
            explained += per_lu
        print(f"     {row['layer']:34s} {fmt(row['ns_per_call']):>10s} ns x "
              f"{fmt(row['calls_per_lu']):>9s} = {fmt(per_lu):>9s} ns{tag}")
    residual = 1.0 - explained / e2e if e2e else 0.0
    print(f"     {'sum':34s} {'':>10s}    {'':>9s}   {fmt(explained):>9s} ns")
    print(f"     {'end-to-end':34s} {'':>10s}    {'':>9s}   {fmt(e2e):>9s} ns"
          f"   residual {residual:.1%}")


def benchmark_result(report, trace):
    """The BENCHMARK.json result object for one run."""
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in spec:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"{report['workload']}: metric {m['name']} missing or not in "
                f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def cmd_bench(argv):
    opts = {"--workload": None, "--seed": "1",
            "--seconds": str(benchmark_spec()["run_seconds"]), "--trace": "0"}
    it = iter(argv)
    for arg in it:
        if arg not in opts:
            die(f"unknown argument {arg}")
        opts[arg] = next(it, None)
    workload = opts["--workload"]
    if workload not in WORKLOADS:
        die(f"--workload must be one of {', '.join(WORKLOADS)}")
    trace = opts["--trace"] == "1"
    build()
    report = run_binary(workload, int(opts["--seed"]), float(opts["--seconds"]),
                        trace)
    result = benchmark_result(report, trace)
    names = [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]
    stdout, sys.stdout = sys.stdout, sys.stderr
    print_report(report, names, {} if trace else bounds())
    if trace:
        print_ledger(report)
    sys.stdout = stdout
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def cmd_run(argv):
    traced = "--traced" in argv
    seed, seconds, out = 1, benchmark_spec()["run_seconds"], None
    it = iter(a for a in argv if a != "--traced")
    for arg in it:
        if arg.startswith("seed="):
            seed = int(arg.split("=", 1)[1])
        elif arg == "--out":
            out = Path(next(it))
        else:
            die(f"unknown argument {arg}")
    build()
    judged = bounds()
    started = time.time()
    doc = {"schema": "mgrid-perf-ledger-v1", "seed": seed, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {"untraced": run_binary(workload, seed, seconds, False)}
        report = entry["untraced"]
        ok = ok and report["correct"]
        print_report(report, list(report["metrics"]), judged)
        if traced:
            entry["traced"] = run_binary(workload, seed, seconds, True)
            ok = ok and entry["traced"]["correct"]
            traced_only = [n for n in entry["traced"]["metrics"]
                           if n not in report["metrics"]]
            print_report(entry["traced"], traced_only, {})
            print_ledger(entry["traced"])
        doc["workloads"][workload] = entry
    if out is None:
        RUNS.mkdir(parents=True, exist_ok=True)
        out = RUNS / f"run-seed{seed}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out} ({time.time() - started:.1f} s)"
          + ("" if ok else "  -- CORRECTNESS CHECKS FAILED"))
    return 0 if ok else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(direction, a, b):
    """+1 when b is better than a, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (b < a) == (direction == "lower") else -1


def verdict(direction, bound, a_vals, b_vals, wins):
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_q1, b_med, b_q3 = quartiles(b_vals)
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    worse_by = change if direction == "lower" else -change
    all_better = all(better(direction, a, b) > 0 for a in a_vals for b in b_vals)
    if wins >= 0.9 and abs(b_med - a_med) > (a_q3 - a_q1) and worse_by < 0:
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "no worse"


def load_side(paths):
    docs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != "mgrid-perf-ledger-v1":
            die(f"{path} is not a ledger run file")
        docs.append(doc)
    if not docs:
        die("compare needs at least one run file per side")
    return docs


def cmd_compare(argv):
    self_check = "--self" in argv
    argv = [a for a in argv if a != "--self"]
    if "--" not in argv:
        die("usage: compare A/*.json -- B/*.json [--self]")
    split = argv.index("--")
    side_a, side_b = load_side(argv[:split]), load_side(argv[split + 1:])
    pairs = min(len(side_a), len(side_b))
    judged = bounds()
    for i in range(pairs):
        for workload in WORKLOADS:
            da = side_a[i]["workloads"][workload]["untraced"]["digest"]
            db = side_b[i]["workloads"][workload]["untraced"]["digest"]
            if da != db:
                die(f"pair {i}: {workload} inputs differ ({da} vs {db}); "
                    "compare runs made with the same seed")
    print(f"{'workload':17s} {'metric':17s} {'A q1/median/q3':>32s} "
          f"{'B q1/median/q3':>32s} {'B wins':>7s} {'bound':>6s}  verdict")
    failures = 0
    for workload in WORKLOADS:
        reports = [d["workloads"][workload]["untraced"] for d in side_a + side_b]
        names = [n for n in reports[0]["metrics"]
                 if all(n in r["metrics"] for r in reports)]
        for name in names:
            a_vals = [r["metrics"][name]["value"] for r in reports[:len(side_a)]]
            b_vals = [r["metrics"][name]["value"] for r in reports[len(side_a):]]
            wins, shown = "-", "-"
            if name not in judged:
                v = "information" + (", identical" if a_vals == b_vals else "")
            else:
                direction, bound = judged[name]
                scores = [better(direction, a_vals[i], b_vals[i])
                          for i in range(pairs)]
                b_wins = sum(1 for s in scores if s > 0) / pairs
                wins, shown = f"{b_wins:.0%}", f"{bound:.0%}"
                v = verdict(direction, bound, a_vals, b_vals, b_wins)
                if self_check:
                    # Same code on both sides: each must be no worse than the
                    # other, and the spread must stay within the bound.
                    reverse = verdict(direction, bound, b_vals, a_vals,
                                      sum(1 for s in scores if s < 0) / pairs)
                    ok = v == "no worse" and reverse == "no worse"
                    v = "agree" if ok else f"DISAGREE ({v}/{reverse})"
                    failures += not ok
            qa = "/".join(fmt(x) for x in quartiles(a_vals))
            qb = "/".join(fmt(x) for x in quartiles(b_vals))
            print(f"{workload:17s} {name:17s} {qa:>32s} {qb:>32s} "
                  f"{wins:>7s} {shown:>6s}  {v}")
    if self_check:
        print(f"\nself-check: {'PASS' if failures == 0 else f'FAIL ({failures})'}")
        return 0 if failures == 0 else 1
    return 0


def cmd_smoke(argv):
    if argv:
        die("smoke takes no arguments")
    build()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run([str(BINARY), "smoke", f"work_dir={WORK}"],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("smoke run timed out")
    return done.returncode


def main(argv):
    commands = {"run": cmd_run, "compare": cmd_compare, "bench": cmd_bench,
                "smoke": cmd_smoke}
    if not argv or argv[0] not in commands:
        die(__doc__.strip())
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
