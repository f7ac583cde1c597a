"""Smoke tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench

Every workload runs at toy size (radarformer-tiny; 8-frame 32x32 clips) in
both modes, and must emit exactly the metrics BENCHMARK.json names,
with their units.  The MAC join is checked at the radarformer-ref shapes
(the 128x128 forward takes about 20 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from radarkit import models, profiler  # noqa: E402
from radarkit import tensor as T  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _toy(name, tmp_path, **kwargs):
    return workloads.WORKLOADS[name](3, tmp_path, toy=True, **kwargs)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(name, trace, tmp_path):
    run = harness.measure(_toy(name, tmp_path), seconds=0.05, trace=bool(trace), setup_repeats=2)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, run["detail"]["failures"]
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_matches_harness():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == harness.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("hw, total", [((32, 32), 8_200_359_936), ((128, 128), 119_801_155_584)])
def test_leaf_macs_sum_to_count_macs(hw, total):
    model = models.build_reference("radarformer-ref", dtype=np.float32)
    model.set_training(False)
    shape = (1, 2, 32, 4) + hw
    assert profiler.count_macs(model, shape)[1] == total
    tracer = tr.Tracer()
    with tracer:
        tracer.attach(model)
        with T.no_grad():
            model(T.zeros(shape, dtype=np.float32))
    joined = tr.mac_attribution(tracer.spans)
    assert sum(own for own, _ in joined.values()) == total
    # each module's own share of its profile() MACs is exactly what its own
    # matmul/conv ops executed, computed from their operand shapes
    assert all(own == ops for own, ops in joined.values())
    assert sum(s[tr.MACS] for s in tracer.spans if s[tr.KIND].startswith("tensor.")) == total
    names = {s[tr.NAME] for s in tracer.spans}
    assert "trunk.blocks.3.window_attn.mlp" in names
    assert "down.convs.0" in names


def test_measuring_leaves_the_model_unchanged(tmp_path):
    model = models.build_reference("radarformer-tiny", dtype=np.float64)
    model.set_training(False)
    bn = model.stem_bn1
    bn._buffers["running_mean"] = np.full_like(bn._buffers["running_mean"], 0.25)
    frozen = model.stem1.w
    frozen.requires_grad = False
    before = {n: p.data.copy() for n, p in model.named_params()}
    mods = [m for _, m in tr.walk_modules(model)]
    buffers = [(m, {k: v.copy() for k, v in m._buffers.items()}) for m in mods]

    class OnModel(workloads.TrainStep):
        def setup(self):
            state = super().setup()
            state["model"] = model
            state["cube"] = T.from_array(state["cube"].data, dtype=np.float64)
            return state

    run = harness.measure(OnModel(3, tmp_path, toy=True), seconds=0.05, trace=True, setup_repeats=1)
    assert run["result"]["correct"], run["detail"]["failures"]
    assert all(not m.training for m in mods)
    assert not frozen.requires_grad
    assert all(p.grad is None for p in model.params())
    for m, bufs in buffers:
        for k, v in bufs.items():
            np.testing.assert_array_equal(m._buffers[k], v)
    for n, p in model.named_params():
        np.testing.assert_array_equal(p.data, before[n])
    assert "forward" not in model.__dict__


def test_tracing_is_uninstalled():
    originals = {op: getattr(T, op) for op in tr.COMPUTE_OPS + tr.MOVEMENT_OPS}
    with tr.Tracer():
        assert T.matmul is not originals["matmul"]
    assert {op: getattr(T, op) for op in originals} == originals


def test_reference_ap_ar_matches_evaluate(tmp_path):
    wl = _toy("frame-pipeline", tmp_path)
    state = wl.setup()
    cycles = []
    for i in range(2):
        wl.before_op(state, i)
        cycles.append(wl.op(state, i))
    result = wl.finish(cycles)
    assert wl.check_finish(cycles, result) == []
    assert 0 < result.ap_total < 1 and 0 < result.ar_total <= 1


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "ref-infer",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
