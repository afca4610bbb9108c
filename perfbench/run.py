"""leftprim benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Workloads are ``exact``, ``approx`` and ``solve`` (see ``workloads.py`` and
``BENCHMARK.json``).  One client in one process runs a closed loop: each op
starts when the previous one has returned.  The op list is built once from
the seed and run pass after pass until ``--seconds`` have elapsed (at least
``MIN_PASSES`` passes).  Every op's output is checked against an independent
reference on the first pass and must digest identically on every later pass.

Times are scaled to a reference machine speed.  A fixed pure-Python
calibration loop is timed between ops, and each op's latency is multiplied
by the mean speed (``REF_S`` over the loop's time) sampled around it.  On
the shared 2-core VM the benchmark was built on, the CPU speed swings by up
to 2x within a second and stays low for tens of seconds, longer than a run;
raw times are kept in the run record.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: fresh ``import leftprim`` plus building the seeded inputs,
  median of ``SETUP_REPEATS`` set-ups;
* ``wall_s``: summed op latency of one pass, median over passes;
* ``op_p50_ms`` / ``op_tail_ms``: median, and the highest percentile with at
  least ten ops beyond it, of the per-op latencies (each op's median over
  passes; the run record names the percentile and the sample count);
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` runs untraced passes, then patches the package's public calls
(``tracer.py``) and runs traced passes; it prints the per-layer metrics: work
counters and self times per layer, and the tracing overhead.

Ops that raise or fail their check are reported as ``failed`` out of
``attempted``.  The last stdout line is the result JSON; the line before it
is the run record (seed, source revision, machine, versions, failures,
baseline comparison).  Spans and the record are also written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 11
# Seconds one calibration loop takes at the reference speed (the fast state
# of a 2-core Intel Xeon VM).  Only ratios of scaled times are meaningful;
# the constant fixes their scale.
REF_S = 3.4e-4
WINDOW_S = 0.25
SUBMODULES = ("stepfn", "symbolic", "funcspace", "quadrature", "integral",
              "gauge", "solver", "systems", "builders", "reporting", "runs",
              "suites", "cli")


def import_leftprim(src):
    """A fresh import of the package and the submodules the ops call."""
    for name in [n for n in sys.modules if n == "leftprim" or n.startswith("leftprim.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    lp = importlib.import_module("leftprim")
    for sub in SUBMODULES:
        importlib.import_module(f"leftprim.{sub}")
    return lp


def source_revision(root):
    """Git commit when the checkout is a repository, and a digest of src/."""
    sha = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, src).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return sha, h.hexdigest()[:16]


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "system": platform.platform()}


def _calibration_loop():
    acc, d = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i % 7, i % 11 + 1) * Fraction(3, i)
    for i in range(600):
        d[i % 97] = d.get(i % 97, 0) + i
    return acc


def machine_speed():
    """REF_S over the time of the calibration loop (best of two)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return REF_S / best


def run_pass(ops, first, digests, failures, before_op=None):
    """One pass over the op list.

    Returns (scaled, raw) per-op latencies in seconds and the seconds spent
    checking outputs.  The machine speed is sampled between ops; an op's
    scaled latency is its raw latency times the mean speed sampled within
    max(WINDOW_S, its latency) of it, so it reads as seconds at the
    reference speed.
    """
    raw, spans, samples, checking = [], [], [], 0.0
    clock = lambda: time.perf_counter() - checking  # check time left out
    samples.append((clock(), machine_speed()))
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        err = None
        t0 = time.perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # an op that raises is a failed op
            err = exc
        t1 = time.perf_counter()
        raw.append(t1 - t0)
        spans.append((t0 - checking, t1 - checking))
        samples.append((clock(), machine_speed()))
        if err is not None:
            failures.setdefault(i, [("raised", repr(err))])
            continue
        c0 = time.perf_counter()
        d = op.digest(out)
        if first:
            digests[i] = d
            try:
                found = op.check(out)
            except Exception as exc:
                found = [("check-raised", repr(exc))]
            if found:
                failures[i] = found
        elif digests.get(i) != d:
            failures.setdefault(i, []).append(("drift", "output differs between passes"))
        del out
        checking += time.perf_counter() - c0
    ts = [t for t, _ in samples]
    speeds = [v for _, v in samples]
    lat = []
    for dt, (t0, t1) in zip(raw, spans):
        w = max(WINDOW_S, dt)
        near = speeds[bisect_left(ts, t0 - w):bisect_right(ts, t1 + w)]
        lat.append(dt * sum(near) / len(near))
    return lat, raw, checking


def tail_index(n):
    """Index (ascending) of the highest percentile with >= 10 samples beyond."""
    return max(0, n - 11)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-baseline", action="store_true",
                    help="store this run's digest (and counters, when traced) "
                         "in perfbench/baseline.json")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "leftprim", "__init__.py")):
        print(f"no leftprim sources under {src}", file=sys.stderr)
        return 2
    import workloads as W
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out", f"{args.workload}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)

    # set-up: fresh import plus seeded inputs, several times
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        ops = lp = None
        gc.collect()
        speed = machine_speed()
        t0 = time.perf_counter()
        lp = import_leftprim(src)
        ops = W.WORKLOADS[args.workload](lp, args.seed, out_dir)
        dt = time.perf_counter() - t0
        setups_raw.append(dt)
        setups.append(dt * (speed + machine_speed()) / 2)

    import numpy as np
    import tracer as TR

    digests, failures = {}, {}
    passes, raw_passes, traced_passes, traced = [], [], [], []
    # the measuring time excludes the output checks of the first pass
    start, checking = time.perf_counter(), 0.0
    elapsed = lambda: time.perf_counter() - start - checking
    budget = args.seconds / 2 if args.trace else args.seconds
    while len(passes) < MIN_PASSES or elapsed() < budget:
        gc.collect()
        lat, raw, spent = run_pass(ops, not passes, digests, failures)
        passes.append(lat)
        raw_passes.append(raw)
        checking += spent
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counters_repeat = True
    if args.trace:
        TR.install(lp)
        T = TR.TRACER
        while len(traced_passes) < MIN_TRACED_PASSES or elapsed() < args.seconds:
            T.reset()
            gc.collect()
            T.active = True
            lat, raw, spent = run_pass(ops, False, digests, failures,
                                       before_op=lambda i: setattr(T, "op_id", i))
            checking += spent
            T.active = False
            traced_passes.append((lat, raw))
            snap = (dict(T.self_s), dict(T.calls), dict(T.counters), T.err_over_tol)
            if traced:
                counters_repeat &= (snap[1], snap[2], snap[3]) == \
                    (traced[0][1], traced[0][2], traced[0][3])
            else:
                T.write(os.path.join(out_dir, "spans.npz"))
                n_spans = len(T.span_start)
            traced.append(snap)

    # -- metrics ------------------------------------------------------------------
    per_op = [statistics.median(p[i] for p in passes) for i in range(len(ops))]
    order = sorted(range(len(ops)), key=lambda i: per_op[i])
    ti = tail_index(len(ops))
    tail_pct = 100.0 * (ti + 1) / len(ops)
    wall = statistics.median(sum(p) for p in passes)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (per_op[order[ti]] * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }

    known = {i for i, f in failures.items() if all(k.startswith("known:") for k, _ in f)}
    by_kind = {}
    for f in failures.values():
        for k, _ in f:
            by_kind[k] = by_kind.get(k, 0) + 1
    wl_digest = hashlib.sha256("".join(digests.get(i, "-") for i in range(len(ops)))
                               .encode()).hexdigest()[:16]
    sha, src_digest = source_revision(root)
    record = {
        "workload": args.workload, "seed": args.seed, "git_sha": sha,
        "src_digest": src_digest, "machine": machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "loop": "closed, 1 client, 1 process",
        "ops": len(ops), "passes": len(passes),
        "op_samples": len(ops) * len(passes),
        "tail_percentile": round(tail_pct, 2),
        "tail_ops": [ops[i].name for i in order[ti:]],
        "op_ms": {ops[i].name: round(per_op[i] * 1e3, 4) for i in order},
        "timing": "op latencies scaled to the reference machine speed",
        "setup_runs_s": setups, "setup_runs_raw_s": setups_raw,
        "pass_wall_s": [sum(p) for p in passes],
        "pass_wall_raw_s": [sum(p) for p in raw_passes],
        "check_s": checking,
        "failures_by_kind": by_kind,
        "failed_ops": {ops[i].name: [m for _, m in f][:2] for i, f in failures.items()},
        "output_digest": wl_digest,
    }
    if any(k == "known:offlattice" for k in by_kind):
        n_sa = sum(1 for op in ops if op.name.startswith("stepapprox"))
        record["offlattice_failure_share"] = \
            f"{by_kind['known:offlattice']}/{n_sa} step_approximation ops"

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    counters = None
    if args.trace:
        self_med = {}
        for name in set().union(*(t[0] for t in traced)):
            self_med[name] = statistics.median(t[0].get(name, 0.0) for t in traced)
        _, calls, counters, err_over_tol = traced[0]
        layers = TR.layer_metrics(self_med, calls, counters, err_over_tol)
        # overhead from scaled pass times; self-time shares from raw ones,
        # like the span times themselves
        traced_wall = statistics.median(sum(p[0]) for p in traced_passes)
        traced_raw = statistics.median(sum(p[1]) for p in traced_passes)
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        layers["trace.spans"] = (n_spans, "count")
        layers["unattributed.self_s"] = (traced_raw - sum(self_med.values()), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        counters = {k: v for k, (v, u) in layers.items() if u != "s"}
        record["traced_passes"] = len(traced_passes)
        record["untraced_wall_s"] = wall
        record["traced_wall_s"] = traced_wall
        record["counters_repeat"] = counters_repeat
        record["self_time_share"] = {
            g: round(sum(self_med.get(n, 0.0) for n in names) / traced_raw, 4)
            for g, names in TR.GROUPS.items()}

    # baseline comparison of output digests and work counters
    base_path = os.path.join(HERE, "baseline.json")
    baseline = {}
    if os.path.exists(base_path):
        with open(base_path) as fh:
            baseline = json.load(fh)
    entry = baseline.get("runs", {}).get(args.workload, {}).get(str(args.seed))
    flags = []
    if entry is None:
        record["baseline"] = "no recorded baseline for this seed"
    else:
        if entry.get("output_digest") != wl_digest:
            flags.append("output digest differs from the recorded baseline")
        if counters is not None and entry.get("counters") is not None and \
                entry["counters"] != counters:
            diff = sorted(k for k in counters if counters[k] != entry["counters"].get(k))
            flags.append(f"work counters differ from the recorded baseline: {diff}")
        record["baseline"] = flags or "match"
    if args.trace and not counters_repeat:
        flags.append("work counters differ between traced passes")
    for f in flags:
        print(f"FLAG: {f}", file=sys.stderr)
    if args.record_baseline:
        runs = baseline.setdefault("runs", {}).setdefault(args.workload, {})
        e = runs.setdefault(str(args.seed), {})
        e["output_digest"] = wl_digest
        e["src_digest"] = src_digest
        e["failed_ops"] = sorted(ops[i].name for i in failures)
        if counters is not None:
            e["counters"] = counters
        with open(base_path, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")

    with open(os.path.join(out_dir, f"record-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    result = {"correct": len(known) == len(failures) and counters_repeat,
              "attempted": len(ops), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
