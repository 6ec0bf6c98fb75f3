"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ladder-q --seed 1 --seconds 20 --trace 0

A closed loop with one caller on one thread: each instance starts when the
previous answer is back. Passes over the workload's inputs repeat for about
`--seconds`; every pass gets fresh inputs made from the seed. A timer
interrupts the passes with a fixed reference computation that measures the
speed of the machine, and every reported time is scaled to the reference's
nominal speed (see `reference.py`).
After timing, every answer is checked; exceptions and wrong answers count
as failed. With `--trace 0` the last line holds the end-to-end metrics. With
`--trace 1` untraced and traced passes alternate and the last line holds the
per-layer metrics of the traced passes. Every metric is printed above it by
name and unit, and a `record` line keeps them all with the environment for
`compare.py`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import reference
import workloads
from tracing import Tracer

# setup_s is the median of fresh imports plus input builds: this many before
# the passes and one after each pass, so that the whole run is sampled
SETUP_REPEATS = 10
# reference samples take this share of an untraced pass
REFERENCE_SHARE = 0.15
BENCHMARK = workloads.ROOT / "BENCHMARK.json"
SPANS_DIR = workloads.ROOT / ".bench_out"


def setup(name, seed):
    """Import the package afresh and build and serialize the first inputs."""
    t0 = time.perf_counter()
    S = workloads.import_package()
    wl = workloads.make(S, name, seed)
    wl.prepare(0)
    return wl, time.perf_counter() - t0


def setup_again(name, seed):
    """Time one more set-up, then put back the package the passes use:
    its functions import siblings at call time through `sys.modules`."""
    in_use = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "superschur"}
    seconds = setup(name, seed)[1]
    sys.modules.update(in_use)
    gc.collect()  # the discarded import is cyclic garbage
    return seconds


def run_pass(wl, k, tracer=None, sampler=None):
    """One pass: (wall seconds, [(rung, key, seconds, answer, error)]).

    With a `sampler`, reference samples interrupt the pass; every time
    returned leaves them out.
    """
    if tracer is not None:
        tracer.instance = tracer.rung = f"{k}:prepare"
    prepared = wl.prepare(k)
    results = []

    def spent():
        return 0.0 if sampler is None else sampler.spent

    start, spent_before = time.perf_counter(), spent()
    for idx, (rung, key, query) in enumerate(wl.instances(prepared)):
        if tracer is not None:
            tracer.instance, tracer.rung = f"{k}:{idx}", rung
        t0, s0 = time.perf_counter(), spent()
        try:
            answer, error = query(), None
        except Exception as exc:  # one failed instance is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - (spent() - s0)
        results.append((rung, key, seconds, answer, error))
    return time.perf_counter() - start - (spent() - spent_before), results


def git_sha():
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_sha": git_sha()}


def end_to_end(setup_times, untraced, peak_rss_mb, speed):
    """Medians over every untraced pass, times multiplied by `speed`.

    A rung's time is its median over the passes, and `wall_s` sums the
    rungs; a scan pass is a single rung. The latency percentiles are taken
    over distinct inputs: a ladder input (a `key`, asked in every pass) has
    the mean of its timings as its latency, as `speed` is a mean too, and
    every scan instance is an input of its own.
    """
    by_rung, by_input = {}, {}
    for k, (_, results) in enumerate(untraced):
        per_pass = {}
        for idx, (rung, key, seconds, _, _) in enumerate(results):
            per_pass.setdefault(rung, []).append(seconds)
            by_input.setdefault((k, idx) if key is None else key, []).append(seconds)
        for rung, latencies in per_pass.items():
            by_rung.setdefault(rung, []).append(latencies)
    rung_s = {rung: speed * statistics.median(sum(p) for p in passes)
              for rung, passes in by_rung.items()}
    latencies = [speed * statistics.fmean(ts) for ts in by_input.values()]
    wall = sum(rung_s.values())
    out = {
        "setup_s": speed * statistics.median(setup_times),
        "wall_s": wall,
        "instances_per_s": sum(len(p[0]) for p in by_rung.values()) / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
    }
    if len(rung_s) > 1:
        out.update({f"rung.{rung}_ms": 1000 * s for rung, s in rung_s.items()})
    return out, len(latencies)


def per_layer(traced, untraced):
    """Counts from the first traced pass, self times as medians over all."""
    out = dict(traced[0])
    for name in [n for n in out if n.endswith(".self_s")]:
        out[name] = statistics.median(m.get(name, 0.0) for m in traced)
    out["trace.overhead_ratio"] = (statistics.median(m["wall"] for m in traced)
                                   / statistics.median(wall for wall, _ in untraced))
    del out["wall"]
    return out


def unit_of(name, declared):
    name = name.removeprefix("raw.")
    if name in declared:
        return declared[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "scale")):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.FIELD_OF))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())

    setups = [setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    wl = setups[-1][0]
    setup_times = [t for _, t in setups]
    # one untimed instance first, so lazy caches fill before timing
    next(iter(wl.instances(wl.prepare(0))))[2]()

    tracer = Tracer(wl.S) if args.trace else None
    untraced, traced, all_results, pass_s = [], [], [], []
    sampler = reference.Sampler(REFERENCE_SHARE)
    deadline = time.perf_counter() + args.seconds
    k = 0
    # a pass starts if a typical one would be half done by the deadline,
    # so that runs last `--seconds` on average
    while k == 0 or (tracer and not traced) or (
            time.perf_counter() + statistics.median(pass_s) / 2 < deadline):
        t0 = time.perf_counter()
        if tracer is not None and k % 2 == 1:
            tracer.reset()
            with tracer:
                wall, results = run_pass(wl, k, tracer)
            traced.append(dict(tracer.metrics(), wall=wall))
            if len(traced) == 1:
                tracer.write_spans(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            with sampler:
                wall, results = run_pass(wl, k, sampler=sampler)
            untraced.append((wall, results))
        all_results.append((k, results))
        if k == 0:
            # set-up and one pass; later passes would add the answers kept for the gate
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        k += 1
        setup_times.append(setup_again(args.workload, args.seed))
        pass_s.append(time.perf_counter() - t0)

    failures = []
    for k_done, results in all_results:
        for rung, key, _, answer, error in results:
            problem = error or wl.check(key, answer)
            if problem:
                failures.append(f"pass {k_done} {rung}: {problem}")
    attempted = sum(len(results) for _, results in all_results)

    speed = reference.NOMINAL_S / statistics.fmean(sampler.samples)
    e2e, samples = end_to_end(setup_times, untraced, peak_rss_mb, speed)
    raw = end_to_end(setup_times, untraced, peak_rss_mb, 1.0)[0]
    e2e.update({f"raw.{n}": v for n, v in raw.items() if n != "peak_rss_mb"})
    e2e["reference.scale"] = speed
    e2e["failed_ratio"] = len(failures) / attempted
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = dict(e2e)
    if tracer is not None:
        shown.update(per_layer(traced, untraced))
        for m in spec["per_layer"]:
            shown.setdefault(m["name"], 0)
    for name, value in shown.items():
        print(f"{name:<48} {value:.6g} {unit_of(name, declared)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")

    contract = spec["per_layer"] if tracer is not None else spec["end_to_end"]
    metrics = {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]} for m in contract}
    record = {"workload": args.workload, "seed": args.seed, "field": str(wl.field),
              "trace": args.trace, "seconds": args.seconds, "passes": k,
              "latency_samples": samples, "reference_samples": len(sampler.samples),
              "env": environment(), "failures": failures[:20],
              "metrics": {n: {"value": v, "unit": unit_of(n, declared)} for n, v in shown.items()}}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
