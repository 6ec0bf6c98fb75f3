"""The benchmark's own test: pinned answers, repeatable counts, the gate,
the compare rule and the failure outside a full checkout.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

S = workloads.import_package()
ORACLE = workloads.Oracle()
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, cwd=workloads.ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["ladder-q", "ladder-f5"])
def test_pinned_answers_match_oracle(workload):
    ladder = workloads.make(S, workload, seed=0)
    for _, key, L in ladder.rungs:
        if key in workloads.CATALOG_PINNED:
            want = (workloads.CATALOG_PINNED[key][0], S.catalog.entry(key).expected_multiplier_dim)
        else:
            want = workloads.PINNED[key][:2]
        assert ORACLE.dims(workloads.compact(L)) == want, (workload, key)


def test_gate_catches_wrong_answers():
    ladder = workloads.make(S, "ladder-q", seed=0)
    _, key, query = next(ladder.instances(ladder.prepare(0)))
    answer = query()
    assert ladder.check(key, answer) is None
    assert ladder.check(key, dict(answer, multiplier=answer["multiplier"] + 1))
    assert ladder.check(key, dict(answer, capable=not answer["capable"]))

    scan = workloads.make(S, "scan-f5", seed=0)
    answers = [q() for _, _, q in scan.instances(scan.prepare(0))]
    assert all(scan.check(None, a) is None for a in answers)
    in_scope = next(a for a in answers if a["low"].entries[0].gamma is not None)
    entry = in_scope["low"].entries[0]
    wrong = type(entry)(entry.name, entry.gamma + 1, None)
    assert scan.check(None, dict(in_scope, low=type(in_scope["low"])((wrong,), ())))
    finding = S.Finding(claim="Thm2.3", instance="", expected="", observed="")
    assert scan.check(None, dict(in_scope, findings=[finding]))


def test_tracer_spans_nest_and_names_are_restored():
    before = (S.linalg.rref, S.homology.rref, S.algebra.lower_central_series, S.fields.Mod.__add__)
    ladder = workloads.make(S, "ladder-f5", seed=0)
    prepared = ladder.prepare(0)
    tracer = Tracer(S)
    with tracer:
        for _, _, query in ladder.instances(prepared[:2]):
            query()
    assert before == (S.linalg.rref, S.homology.rref, S.algebra.lower_central_series,
                      S.fields.Mod.__add__)
    spans = {s[0]: s for s in tracer.spans}
    for span_id, parent, _, _, start, end in tracer.spans:
        if parent != -1:
            assert spans[parent][4] <= start <= end <= spans[parent][5]
    # looked up through homology's own `from .linalg import ...` binding
    assert tracer.calls["linalg.mat_rank"] > 0 and tracer.calls["homology.relations3"] == 2
    assert tracer.mod_ops > 0


def exact_counts(metrics):
    keys = [n for n in metrics if n.endswith(".calls") or n in (
        "fields.mod_ops", "linalg.entries_in", "linalg.nnz_in")
        or n.startswith(("homology.relations3.rows", "homology.relations3.cols",
                         "homology.relations3.nnz"))]
    return {n: metrics[n]["value"] for n in keys}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    runs = []
    for _ in range(2):
        proc = run_bench(workload, seed=3, trace=1)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        record = next(line for line in proc.stdout.splitlines() if line.startswith("record "))
        runs.append(exact_counts(json.loads(record[len("record "):])["metrics"]))
    assert runs[0] == runs[1]
    assert runs[0]["linalg.mat_rank.calls"] > 0


def test_end_to_end_line_has_every_metric():
    proc = run_bench("ladder-f5", seed=2, trace=0)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("scan-f5", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_rule():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    same = [v * 1.01 for v in base]
    assert compare.verdict(base, same, "lower", 0.1, list(zip(base, same)))[0] == "same"
    slow = [v * 1.2 for v in base]
    assert compare.verdict(base, slow, "lower", 0.1, list(zip(base, slow)))[0] == "regressed"
    fast = [v * 0.8 for v in base]
    assert compare.verdict(base, fast, "lower", 0.1, list(zip(base, fast)))[0] == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, base, "lower", 0.1, list(zip(noisy, base)))[0] == "unresolved"
    assert compare.verdict(base, fast, "higher", 0.1, list(zip(base, fast)))[0] == "regressed"
