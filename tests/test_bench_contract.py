"""What the benchmark in bench/ relies on, checked against this package.

The benchmark reads `L.table.items()` as dense coordinate tuples (`Mod`
entries with `.val` over F_p), counts `Mod` arithmetic by patching its own
dunders, and traces `rref` and `mat_rank` through the bindings `homology`
imports. If any of these breaks, every benchmark run fails. The bench
modules are loaded by path and nothing under bench/ is changed; the full
benchmark test is `python3 -m pytest bench/test_bench.py`.
"""

import importlib.util
from itertools import islice
from pathlib import Path

import pytest

import superschur as S

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", list(workloads.FIELD_OF))
def test_first_instances_pass_the_gate(name):
    wl = workloads.make(S, name, seed=0)
    for _, key, query in islice(wl.instances(wl.prepare(0)), 3):
        assert wl.check(key, query()) is None


def test_tracer_counts_and_restores():
    before = (S.linalg.rref, S.homology.rref, S.homology.mat_rank, S.fields.Mod.__add__)
    ladder = workloads.make(S, "ladder-f5", seed=0)
    tracer = tracing.Tracer(S)
    with tracer:
        for _, _, query in ladder.instances(ladder.prepare(0)[:2]):
            query()
    assert tracer.calls["homology.relations3"] == 2
    assert tracer.calls["linalg.mat_rank"] > 0
    assert tracer.mod_ops > 0
    assert before == (S.linalg.rref, S.homology.rref, S.homology.mat_rank,
                      S.fields.Mod.__add__)


def test_scan_gate_passes_in_and_out_of_gamma_scope():
    # the first instances of the default scan on each side of the gamma scope
    scan_f5 = workloads.make(S, "scan-f5", seed=0)
    verdicts = {}
    for _, key, query in scan_f5.instances(S.ScanConfig()):
        answer = query()
        in_scope = answer["low"].entries[0].gamma is not None
        if in_scope not in verdicts:
            verdicts[in_scope] = scan_f5.check(key, answer)
        if len(verdicts) == 2:
            break
    assert verdicts == {True: None, False: None}
