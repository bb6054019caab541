"""Self-tests of the benchmark code (not of charprod).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import gzip
import importlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import charprod  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_IDS = ("dihedral8", "heisenberg3")  # heisenberg3 runs the witness descent


def small_catalog(seed):
    wl = workloads.CatalogVerify(seed)
    wl.inputs = [entry for entry in wl.inputs if entry[0] in SMALL_IDS]
    return wl


def test_relabelled_outputs_match_the_references():
    for seed in (1, 2):
        phase = run.measure(small_catalog(seed), 1, 1)
        assert phase.attempted == len(SMALL_IDS) * len(phase.walls)
        assert phase.failed_keys == []


def test_corrupted_reference_byte_is_a_failed_op(tmp_path, monkeypatch):
    for gid in SMALL_IDS:
        key = f"catalog_verify/{gid}"
        target = tmp_path / f"{key}.json.gz"
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(workloads.reference_path(key).read_bytes())
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    assert run.measure(small_catalog(3), 1, 1).failed_keys == []

    bad = tmp_path / "catalog_verify" / "heisenberg3.json.gz"
    packed = bad.read_bytes()
    plain = bytearray(gzip.decompress(packed))
    plain[len(plain) // 2] ^= 0x01
    bad.write_bytes(gzip.compress(bytes(plain)))
    phase = run.measure(small_catalog(3), 1, 1)
    assert phase.failed_keys == ["catalog_verify/heisenberg3"] * len(phase.walls)

    packed = bytearray(packed)
    packed[len(packed) // 2] ^= 0xFF
    bad.write_bytes(bytes(packed))
    phase = run.measure(small_catalog(3), 1, 1)
    assert phase.failed_keys == ["catalog_verify/heisenberg3"] * len(phase.walls)


def test_non_canonical_cycle_text_is_a_mismatch():
    key = "catalog_verify/heisenberg3"
    text = gzip.decompress(workloads.reference_path(key).read_bytes()).decode()
    assert workloads.matches_reference(key, text, {})
    first = workloads.CYCLE.search(workloads.QUOTED_CYCLES.search(text).group(1)).group(1).split()
    rotated = text.replace("(" + " ".join(first) + ")", "(" + " ".join(first[1:] + first[:1]) + ")", 1)
    assert rotated != text
    assert not workloads.matches_reference(key, rotated, {})


def _bindings():
    """Identity of every module attribute, class attribute and dispatch entry
    the tracer may patch."""
    out = {}
    for name in tracing.MODULES:
        mod = importlib.import_module(f"charprod.{name}")
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cls_attr, member in vars(value).items():
                    out[(name, attr, cls_attr)] = id(member)
    for attr, value in vars(charprod).items():
        out[("charprod", attr)] = id(value)
    for key, value in charprod.verify._CHECKERS.items():
        out[("_CHECKERS", key)] = id(value)
    return out


def test_tracer_leaves_no_patched_attribute_behind():
    before = _bindings()
    tracer = tracing.Tracer().install(charprod)
    try:
        patched = {k for k, v in _bindings().items() if before.get(k) != v}
        assert ("chartab", "dixon_table") in patched
        assert ("verify", "dixon_table") in patched
        assert ("_CHECKERS", "C") in patched
        assert ("perm", "Group", "mul") in patched
        with pytest.raises(RuntimeError):
            tracer.install(charprod)
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def middle(depth):
        now[0] += 1.0
        if depth:
            middle_span(depth - 1)  # recursion through the traced binding
        leaf_span()

    def top():
        now[0] += 3.0
        middle_span(1)
        now[0] += 0.5
        raise ValueError("spans close on exceptions too")

    leaf_span = tracer.span("a.leaf", leaf)
    middle_span = tracer.span("b.middle", middle)
    with pytest.raises(ValueError):
        tracer.span("c.top", top)()
    spans, _ = tracer.take()
    assert spans["a.leaf"] == [2, 4.0, 4.0]
    assert spans["b.middle"] == [2, 9.0, 2.0]  # outer call 6 s total, inner 3 s
    assert spans["c.top"] == [1, 9.5, 3.5]
    assert tracer.take() == ({}, {})


def test_layer_self_times_sum_to_traced_wall():
    wl = small_catalog(4)
    untraced = run.measure(wl, 1, 1)
    with tracing.Tracer().install(charprod) as tracer:
        traced = run.measure(wl, 1, 1, tracer)
    metrics = {k: v["value"] for k, v in run.per_layer(untraced, traced).items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + metrics["unattributed_s"] == pytest.approx(metrics["traced_wall_s"], abs=1e-9)
    assert metrics["unattributed_s"] >= 0
    assert metrics["verify.witness_checks"] > 0
    assert metrics["perm.mul_calls"] > 0 and metrics["cyclotomic.values"] > 0
    assert metrics["catalog.parse_calls"] == len(SMALL_IDS)

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(metrics)
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])


def test_end_to_end_metrics_match_the_spec():
    phase = run.measure(small_catalog(5), 1, 2, clock=speed.Sampler())
    metrics = run.end_to_end(phase, 0.1)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())
    assert len(phase.setups) >= 2
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_sampler_subtracts_its_kernel_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = speed.Sampler()
    with clock.window() as scale:
        w0, c0 = clock.now()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        w1, c1 = clock.now()
    assert signal.getsignal(signal.SIGALRM) is before
    assert scale.samples == len(clock.samples) >= 2
    assert w1 - w0 == pytest.approx(0.35 - sum(w for w, _ in clock.samples), abs=0.005)
    assert scale.wall == speed.REFERENCE_S / statistics.mean(w for w, _ in clock.samples)
    assert clock.run_scale().wall == scale.wall
    assert 0 < c1 - c0 <= w1 - w0 + 0.005


def test_refuses_to_run_with_a_closure_cap(monkeypatch, capsys):
    monkeypatch.setenv(run.CAP_ENV_VAR, "500")
    assert run.main(["--workload", "table_2187", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
