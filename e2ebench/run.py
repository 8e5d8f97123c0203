#!/usr/bin/env python3
"""End-to-end serving benchmark with per-layer attribution.

Builds the library and the workload runner from source (CMake, into
$CARGO_TARGET_DIR or .bench_build/ under the checkout root), runs one
workload in its own process and prints every metric by name and unit.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
lists; with --trace 1 the run is traced and the metrics are the
per-layer ones, including those read off the Chrome trace.

    python3 e2ebench/run.py --workload mixed-medline --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --all --seed 1 --seconds 20

--all runs every workload, each in its own process, and exits non-zero
if any correctness gate failed. Workloads, and why each exists, are
described in e2ebench/workloads.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_table  # noqa: E402

WORKLOADS = ("mixed-medline", "durable-treebank", "query-xmark")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds e2e_bench; returns its path or None."""
    out = os.path.join(build_dir(), "e2ebench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write("\n%s\n" % e)
                rc = 1
            if rc != 0:
                break
    binary = os.path.join(out, "e2e_bench")
    if rc != 0 or not os.path.exists(binary):
        with open(log_path) as log:
            sys.stderr.write("build failed:\n" + log.read()[-4000:] + "\n")
        return None
    return binary


def spec():
    """The metric lists of BENCHMARK.json, each as name -> entry."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return ({m["name"]: m for m in b["end_to_end"]},
            {m["name"]: m for m in b["per_layer"]})


def run_binary(binary, workload, seed, seconds, trace, workdir, extra=()):
    """Runs one workload in its own process; returns its result dict."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--workdir=" + workdir] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("%s exited %d without a result:\n%s"
                           % (workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def trace_metrics(trace_path):
    """Per-layer metrics that only the trace can give."""
    spans, violations = trace_table.load(trace_path)
    split = trace_table.write_split(spans)
    metrics = {
        "service.write_unattributed_ms": (
            trace_table.median([s["unattributed"] for s in split]), len(split)),
        "store.checkpoint_ms": (
            trace_table.span_median_ms(spans, "store.checkpoint"),
            sum(1 for s in spans if s.name == "store.checkpoint")),
        "store.recover_ms": (
            trace_table.span_median_ms(spans, "store.recover"),
            sum(1 for s in spans if s.name == "store.recover")),
    }
    return metrics, trace_table.report(spans, violations), violations


def fmt_metric(name, m):
    n = " (n=%d)" % m["n"] if m.get("n") else ""
    return "  %-32s %16.6g %-6s%s" % (name, m["value"], m["unit"], n)


def run_workload(binary, workload, seed, seconds, trace, keep_trace=None):
    """Runs one workload; prints its report; returns the contract dict."""
    e2e_spec, layer_spec = spec()
    workdir = os.path.join(build_dir(), "runs", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        r = run_binary(binary, workload, seed, seconds, trace, workdir)
        correct = r["correct"]
        print("%s seed %d: %d rounds, %s" % (
            workload, seed, r["rounds"], "correct" if correct else "INCORRECT"))
        for e in r["errors"]:
            print("  error: " + e)
        print("end-to-end%s:" % (" (traced)" if trace else ""))
        for name, m in sorted(r["end_to_end"].items()):
            print(fmt_metric(name, m))
        if not trace:
            wanted, values = e2e_spec, r["end_to_end"]
        else:
            trace_path = os.path.join(workdir, "trace.json")
            extra, table, violations = trace_metrics(trace_path)
            if violations:
                correct = False
            for name, (value, n) in extra.items():
                r["per_layer"][name] = {"value": value, "unit": "ms", "n": n}
            print("per-layer:")
            for name, m in sorted(r["per_layer"].items()):
                print(fmt_metric(name, m))
            print(table)
            if keep_trace:
                shutil.copyfile(trace_path, keep_trace)
            wanted, values = layer_spec, r["per_layer"]
        return {
            "correct": bool(correct),
            "attempted": int(r["attempted"]),
            "failed": int(r["failed"]),
            "metrics": {k: {"value": values[k]["value"], "unit": m["unit"]}
                        for k, m in wanted.items()},
        }, r
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def describe(binary, workloads, seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    out = []
    for w in workloads:
        proc = subprocess.run([binary, "--workload=" + w, "--seed=%d" % seed,
                               "--describe"], stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            return proc.returncode
        d = json.loads(proc.stdout)
        d["why"] = why.get(w, "")
        out.append(d)
    note = ("The first round's generated inputs for seed %d, as printed by "
            "`python3 e2ebench/run.py --describe --seed %d`. Every round of a "
            "run draws its own document and update sequence from (seed, round), "
            "so sizes vary by a few percent between rounds and seeds."
            % (seed, seed))
    print(json.dumps({"note": note, "workloads": out}, indent=2))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json-out", help="also write e2e_bench's raw result JSON here")
    ap.add_argument("--keep-trace", help="copy the Chrome trace here")
    ap.add_argument("--describe", action="store_true",
                    help="print each workload's generated inputs for --seed")
    args = ap.parse_args(argv)
    if not args.all and not args.workload and not args.describe:
        ap.error("--workload, --all or --describe is required")
    started = time.time()
    binary = build()
    if binary is None:
        return 2
    print("built in %.1f s" % (time.time() - started), file=sys.stderr)
    workloads = (args.workload,) if args.workload else WORKLOADS
    if args.describe:
        return describe(binary, workloads, args.seed)
    results, raw = {}, {}
    for w in workloads:
        try:
            results[w], raw[w] = run_workload(binary, w, args.seed, args.seconds,
                                              args.trace, args.keep_trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError,
                ValueError) as e:
            sys.stderr.write("%s: %s\n" % (w, e))
            return 3
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(raw if args.all else raw[args.workload], f)
    ok = all(r["correct"] for r in results.values())
    if args.all:
        print(json.dumps({w: r for w, r in results.items()}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
