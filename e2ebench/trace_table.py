#!/usr/bin/env python3
"""Turns a traced e2e_bench run's Chrome trace into per-layer tables.

    python3 e2ebench/trace_table.py TRACE.json [--traced R1.json --untraced R0.json]

Prints, from the trace alone:
  * per span name: layer, count, total and self time, median duration;
  * per layer: self time (span duration minus the part its children
    cover) and its share of all traced self time;
  * the write split: each sampled write batch's outside-in replay legs
    (clone, apply, encode, rule_meta, rule_summary, rest of publish)
    paired with the real Writer::Apply issued next to it, plus the store
    legs nested inside that write and the unattributed remainder. The
    legs of each sample sum to that sample's write latency by
    construction; the table counts the samples whose unattributed or
    publish leg came out negative (a replayed leg ran longer than its
    counterpart in the real write), since those legs are not clamped.

It checks that every span lies inside its parent on the same thread
(exit code 1 otherwise). Given two result JSON lines of e2e_bench (or
run.py --json-out files) for the same workload and seed, one traced and
one untraced, it also prints the tracing overhead of every end-to-end
metric both report.
"""

import argparse
import json
import statistics
import sys

# Span-name prefix -> module of this repository.
LAYERS = {
    "xml": "xml",
    "pipeline": "pipeline",
    "pool": "pipeline",
    "repair": "repair/core",
    "tree_repair": "repair/core",
    "update": "update",
    "grammar": "grammar",
    "service": "service",
    "store": "store",
    "query": "query",
    "read": "core reads",
    "dag": "dag",
    "udc": "update",
    "api": "api",
    "bench": "client (benchmark)",
}

# Timestamps are printed in microseconds with nanosecond digits.
EPS_US = 0.0015


def layer_of(name):
    return LAYERS.get(name.split(".", 1)[0], "other")


class Span:
    __slots__ = ("name", "tid", "ts", "dur", "parent", "children")

    def __init__(self, name, tid, ts, dur):
        self.name, self.tid, self.ts, self.dur = name, tid, ts, dur
        self.parent = None
        self.children = []

    @property
    def end(self):
        return self.ts + self.dur

    def self_time(self):
        return self.dur - sum(c.dur for c in self.children)

    def descendants(self):
        for c in self.children:
            yield c
            yield from c.descendants()


def load(path):
    """Reads the trace and links every span to its parent.

    Returns (spans, violations): a violation is a span that starts
    inside another span of its thread but ends after it.
    """
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        by_tid.setdefault(e["tid"], []).append(
            Span(e["name"], e["tid"], float(e["ts"]), float(e["dur"])))
    spans, violations = [], []
    for tid in sorted(by_tid):
        stack = []
        for s in sorted(by_tid[tid], key=lambda s: (s.ts, -s.dur)):
            while stack and s.ts >= stack[-1].end - EPS_US:
                stack.pop()
            if stack:
                if s.end > stack[-1].end + EPS_US:
                    violations.append((s, stack[-1]))
                else:
                    s.parent = stack[-1]
                    stack[-1].children.append(s)
            stack.append(s)
            spans.append(s)
    return spans, violations


# Client phases, from the benchmark's top-level spans; the rest of the
# run is "serve" (writes, reads, queries, flushes and merges).
PHASES = ("setup", "serve", "verify", "reopen")
PHASE_SPANS = {"bench.setup": "setup", "bench.setup_replay": "setup",
               "bench.verify": "verify", "bench.reopen": "reopen"}


def windows(spans):
    """(start, end, phase) of every client phase span."""
    return [(s.ts, s.end, PHASE_SPANS[s.name]) for s in spans
            if s.name in PHASE_SPANS]


def phase_of(span, wins):
    for start, end, phase in wins:
        if start <= span.ts <= end:
            return phase
    return "serve"


def write_split(spans):
    """Per sampled write: {leg: ms}, legs summing to the write latency."""
    samples = []
    for group in spans:
        # A sampled batch: an untimed warm-up replay, its real write and
        # its timed outside-in replay, under one bench.write_sample span.
        if group.name != "bench.write_sample":
            continue
        pair = {c.name: c for c in group.children}
        if not {"bench.write_replay", "bench.write"} <= set(pair):
            continue
        replay, write = pair["bench.write_replay"], pair["bench.write"]
        legs = {c.name: c.dur for c in replay.children}
        needed = ("grammar.clone", "update.apply", "store.encode",
                  "grammar.rule_meta", "grammar.rule_summary",
                  "service.publish")
        if not all(n in legs for n in needed):
            continue  # the replayed batch failed part-way
        store = sum(d.dur for d in write.descendants()
                    if d.name == "store.apply_batch")
        sample = {
            "clone": legs["grammar.clone"],
            "apply": legs["update.apply"],
            "encode": legs["store.encode"],
            "rule_meta": legs["grammar.rule_meta"],
            "rule_summary": legs["grammar.rule_summary"],
            "publish": legs["service.publish"] - legs["grammar.rule_meta"]
            - legs["grammar.rule_summary"],
            "store": store,
        }
        sample["unattributed"] = write.dur - (
            legs["grammar.clone"] + legs["update.apply"]
            + legs["store.encode"] + legs["service.publish"] + store)
        sample["write"] = write.dur
        samples.append({k: v / 1e3 for k, v in sample.items()})
    return samples


def median(values):
    return statistics.median(values) if values else 0.0


def span_median_ms(spans, name):
    return median([s.dur / 1e3 for s in spans if s.name == name])


def table(rows, header):
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    fmt = "  ".join("{:<%d}" % w if i == 0 else "{:>%d}" % w
                    for i, w in enumerate(widths))
    lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    lines += [fmt.format(*r) for r in rows]
    return "\n".join(lines)


def report(spans, violations):
    out = []
    names = {}
    for s in spans:
        names.setdefault(s.name, []).append(s)
    rows = []
    for name in sorted(names, key=lambda n: -sum(s.self_time() for s in names[n])):
        group = names[name]
        rows.append((name, layer_of(name), len(group),
                     "%.2f" % (sum(s.dur for s in group) / 1e3),
                     "%.2f" % (sum(s.self_time() for s in group) / 1e3),
                     "%.4f" % median([s.dur / 1e3 for s in group])))
    out.append("Spans (times in ms):")
    out.append(table(rows, ("span", "layer", "count", "total", "self", "median")))

    layers = {}
    wins = windows(spans)
    for s in spans:
        cell = layers.setdefault(layer_of(s.name), dict.fromkeys(PHASES, 0.0))
        cell[phase_of(s, wins)] += s.self_time()
    serving = sum(c["serve"] for c in layers.values()) or 1.0
    rows = [(layer,) + tuple("%.2f" % (c[p] / 1e3) for p in PHASES)
            + ("%.1f%%" % (100.0 * c["serve"] / serving),)
            for layer, c in sorted(layers.items(), key=lambda kv: -kv[1]["serve"])]
    out.append("")
    out.append("Self time per layer and phase, all threads (ms; a span's phase "
               "is the client phase its start falls in):")
    out.append(table(rows, ("layer",) + PHASES + ("serve share",)))

    samples = write_split(spans)
    if samples:
        legs = ("clone", "apply", "encode", "rule_meta", "rule_summary",
                "publish", "store", "unattributed")
        mean_write = statistics.mean(s["write"] for s in samples)
        rows = []
        for leg in legs:
            vals = [s[leg] for s in samples]
            rows.append((leg, "%.4f" % statistics.mean(vals), "%.4f" % median(vals),
                         "%.1f%%" % (100.0 * statistics.mean(vals) / mean_write)))
        rows.append(("write (sum)", "%.4f" % mean_write,
                     "%.4f" % median([s["write"] for s in samples]), "100.0%"))
        out.append("")
        out.append("Write split over %d sampled batches (ms; publish is "
                   "GrammarSnapshot::Make minus the two index builds):" % len(samples))
        out.append(table(rows, ("leg", "mean", "median", "share")))
        for leg in ("unattributed", "publish"):
            neg = sum(1 for s in samples if s[leg] < 0)
            out.append("%d of %d samples have a negative %s leg (kept as "
                       "measured, not clamped)." % (neg, len(samples), leg))
    else:
        out.append("")
        out.append("Write split: no sampled write batches in this trace.")

    out.append("")
    if violations:
        out.append("NESTING VIOLATIONS: %d spans end after their parent, e.g. %s "
                   "inside %s" % (len(violations), violations[0][0].name,
                                  violations[0][1].name))
    else:
        out.append("Nesting check: every span lies inside its parent "
                   "on the same thread (%d spans)." % len(spans))
    return "\n".join(out)


def overhead(traced, untraced):
    rows = []
    for name in sorted(untraced["end_to_end"]):
        if name not in traced["end_to_end"]:
            continue
        u = untraced["end_to_end"][name]["value"]
        t = traced["end_to_end"][name]["value"]
        delta = "n/a" if u == 0 else "%+.1f%%" % (100.0 * (t - u) / u)
        rows.append((name, "%.6g" % u, "%.6g" % t, delta))
    return ("Tracing overhead (traced run vs untraced run, same seed):\n"
            + table(rows, ("metric", "untraced", "traced", "change")))


def read_result(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    return json.loads(lines[-1])


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trace")
    ap.add_argument("--traced", help="result JSON of the traced run")
    ap.add_argument("--untraced", help="result JSON of an untraced run")
    args = ap.parse_args(argv)
    spans, violations = load(args.trace)
    print(report(spans, violations))
    if args.traced and args.untraced:
        print()
        print(overhead(read_result(args.traced), read_result(args.untraced)))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
