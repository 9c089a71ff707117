"""placement-opt benchmark: closed-loop train, evaluate and place_large workloads.

Run from the repository root (the package is imported from ./src):

    python3 placebench/run.py --workload train --seed 1 --seconds 20 --trace 0

One client runs one operation at a time, each starting when the previous one
finishes. After set-up (repeated SETUP_REPS times; the median is reported)
and warm-up operations, operations run until their summed time reaches
about --seconds and at least MIN_OPS have run. Every operation's outputs are
checked outside the timed region. Times are scaled to the nominal speed of
the machine-speed probe in speedprobe.py, which runs next to every operation
and set-up; raw wall times are printed too.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are per-layer numbers from a traced
replay of the same operations, plus the tracing overhead. The lines before it
state the tail percentile and sample count, the output digests and the run
metadata; `.placebench_work/<workload>-seed<n>-trace<t>/` keeps `result.json`
and, for traced runs, every span (`spans.csv.gz`).

The default workload seed is DEFAULT_SEED; HELD_OUT_SEED is kept out of
tuning, and a claimed gain must also hold on it.
"""

from __future__ import annotations

import os
import sys

# One core per process: pin BLAS before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import time
import traceback

import speedprobe

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPS = 5
MIN_OPS = 21  # so the tail percentile (10 samples beyond it) is at least p50
TAIL_BEYOND = 10
MAX_PHASE_S = 110.0  # stop a phase early rather than overrun the run's time limit

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "quality_ratio": "ratio",
}


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * k / (n - 1)


class Phase:
    def __init__(self):
        self.raw: list[float] = []  # wall seconds of each timed op
        self.times: list[float] = []  # the same at the speed probe's nominal speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_phase(wl, seconds, min_ops, fixed_ops=None, rec=None) -> Phase:
    """Warm-up ops, then timed ops: exactly `fixed_ops` of them, or at least
    `min_ops` and a whole number of the workload's cycles, stopping at the
    cycle boundary nearest to where their summed wall time reaches `seconds`.
    The speed probe runs just before and just after every op."""
    ph = Phase()
    wall0 = time.perf_counter()
    i = 0
    while True:
        timed = i >= wl.warmup_ops
        if timed:
            n = len(ph.raw)
            if fixed_ops is not None:
                if n >= fixed_ops:
                    break
            elif n >= min_ops and n % wl.cycle == 0 and sum(ph.raw) * (1 + wl.cycle / (2 * n)) >= seconds:
                break  # the cycle boundary nearest to `seconds`
            elif time.perf_counter() - wall0 > MAX_PHASE_S:
                break
        if rec is not None:
            rec.op, rec.active = i, timed
        before = speedprobe.probe()
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
            ok = True
        except Exception:  # an operation failing is a result, not the end of the run
            ok = False
            ph.problems.append(f"op {i}: " + traceback.format_exc(limit=3).strip().replace("\n", " | "))
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.active = False
        after = speedprobe.probe()
        if timed:
            ph.raw.append(dt)
            ph.times += speedprobe.scaled([dt], [before, after])
        ph.attempted += 1
        problems = wl.check(i, out) if ok else ["op raised"]
        if problems:
            ph.failed += 1
            ph.problems += problems
        i += 1
    return ph


def src_lines(src):
    total = 0
    for base, _, files in os.walk(os.path.join(src, "placement_opt")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as f:
                    total += sum(1 for _ in f)
    return total


def layer_metrics(summary, ops, rec, untraced, traced):
    """Per-layer metrics of the traced operations (set-up kept apart)."""
    ops_stats = summary["ops"]
    out = {}
    for label in rec.names:
        s = ops_stats[label]
        out[f"{label}.calls"] = (s["calls"], "count")
        out[f"{label}.ms"] = (s["ms"], "ms")
        out[f"{label}.self_ms"] = (s["self_ms"], "ms")
    edges = summary["edges"]
    steps = ops_stats["placement_env.step"]["calls"]
    step_sims = edges.get(("placement_env.evaluate_placement", "placement_env.step"), 0)
    sim = ops_stats["sim_engine.simulate"]
    ex = ops_stats["baselines.exhaustive_search"]
    ex_sims = edges.get(("sim_engine.simulate", "baselines.exhaustive_search"), 0)
    out["neural_primitives.dense_forward.calls_per_op"] = (ops_stats["neural_primitives.dense_forward"]["calls"] / ops, "count")
    out["trainer.steps_per_op"] = (steps / ops, "count")
    out["placement_env.sim_skip_ratio"] = ((steps - step_sims) / steps if steps else 0.0, "ratio")
    out["sim_engine.events"] = (rec.sim_events, "count")
    out["sim_engine.us_per_event"] = (sim["ms"] * 1e3 / rec.sim_events if rec.sim_events else 0.0, "us")
    out["baselines.exhaustive_search.placements_per_s"] = (ex_sims / (ex["ms"] / 1e3) if ex["ms"] else 0.0, "1/s")
    for label, s in summary["setup"].items():
        key = f"setup.{label.split('.')[0]}.self_ms"
        out[key] = (out.get(key, (0.0,))[0] + s["self_ms"], "ms")
    out["trace.untraced_ops_per_s"] = (ops / sum(untraced), "1/s")
    out["trace.traced_ops_per_s"] = (ops / sum(traced), "1/s")
    out["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "evaluate", "place_large"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "placement_opt", "__init__.py")):
        print(f"error: no src/placement_opt under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np
    import placement_opt

    if not os.path.abspath(placement_opt.__file__).startswith(src + os.sep):
        print(f"error: imported placement_opt from {placement_opt.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    workdir = os.path.join(root, ".placebench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    inputs = os.path.join(workdir, "inputs")  # set-up directories, removed at exit
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed)
    problems = []

    speedprobe.probe()  # warm the kernel before its first timed run
    setup_raw, setup_s, fingerprints = [], [], []
    for k in range(SETUP_REPS):
        before = speedprobe.probe()
        t0 = time.perf_counter()
        fingerprints.append(wl.setup(os.path.join(inputs, f"setup{k}")))
        setup_raw.append(time.perf_counter() - t0)
        setup_s += speedprobe.scaled(setup_raw[-1:], [before, speedprobe.probe()])
    if len(set(fingerprints)) != 1:
        problems.append("set-up repetitions produced different inputs")
    wl.prepare()
    if args.trace:
        # Untraced half, then the same ops replayed from a fresh set-up with
        # every layer wrapped; the ratio of their times is the overhead.
        need = max(3, wl.output_ops - wl.warmup_ops)
        phase = run_phase(wl, args.seconds / 2, need)
        digests = wl.digests()
        quality = wl.quality()
        rec = tracing.SpanRecorder()
        sites = tracing.install(rec)
        cache_clear = getattr(getattr(placement_opt.policy_gnn, "_graph_index", None), "cache_clear", None)
        if cache_clear:
            cache_clear()  # the replay starts as cold as the untraced half did
        rec.op, rec.active = tracing.SETUP_OP, True
        wl.setup(os.path.join(inputs, "setup-traced"))
        rec.active = False
        replay = run_phase(wl, 0, 0, fixed_ops=len(phase.times), rec=rec)
        if wl.digests() != digests:
            problems.append("traced replay produced different outputs")
        phases = [phase, replay]
    else:
        phase = run_phase(wl, args.seconds, MIN_OPS)
        digests = wl.digests()
        quality = wl.quality()
        phases = [phase]
    for ph in phases:
        problems += ph.problems
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    correct = failed == 0 and not problems and quality > 0

    times = phase.times
    ops = len(times)
    tail_ms, tail_pct = tail(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(src),
        "setup_reps": SETUP_REPS,
        "warmup_ops": wl.warmup_ops,
        "timed_ops": ops,
        "attempted": attempted,
        "failed": failed,
        "config": wl.config(),
    }
    e2e = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": tail_ms * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "quality_ratio": quality,
    }
    result = {"meta": meta, "digests": digests, "end_to_end": e2e, "failed_ratio": failed / attempted,
              "op_ms_tail_percentile": tail_pct, "setup_s_reps": setup_s, "setup_s_raw": setup_raw,
              "op_ms": [t * 1e3 for t in times], "op_ms_raw": [t * 1e3 for t in phase.raw],
              "probe_nominal_s": speedprobe.NOMINAL_S, "problems": problems[:50]}
    if args.trace:
        summary = rec.summary()
        layers = layer_metrics(summary, ops, rec, phase.times, replay.times)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["per_layer"] = metrics
        result["rebind_sites"] = sites
        result["spans"] = rec.span_count
        rec.write(os.path.join(workdir, "spans.csv.gz"))
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump(result, f, indent=2)
    shutil.rmtree(inputs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    print(f"ops: {ops} timed after {wl.warmup_ops} warm-up; attempted {attempted}, failed {failed} "
          f"(failed_ratio {failed / attempted:g})")
    if args.trace:
        print(f"traced replay of the same {ops} ops: {rec.span_count} spans")
    else:
        print(f"op_ms_tail is p{tail_pct:.1f} of {ops} ops ({TAIL_BEYOND} beyond it)")
    print(f"setup_s median of {SETUP_REPS}: " + ", ".join(f"{s:.4f}" for s in setup_s))
    print(f"times at the speed probe's nominal {speedprobe.NOMINAL_S * 1e3:g} ms; raw wall: setup_s "
          f"{statistics.median(setup_raw):.4f}, op_ms_p50 {statistics.median(phase.raw) * 1e3:.2f}, "
          f"ops_per_s {ops / sum(phase.raw):.4f}")
    for k, v in digests.items():
        print(f"digest {k}: {v}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for p in problems[:10]:
        print(f"problem: {p}")
    for k, m in metrics.items():
        print(f"  {k:<48} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
