"""The ``radarkit`` command: its JSON equals the library's numbers, and each
error class exits with its code."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from radarkit import cli
from radarkit.confmap import (
    Annotation, Detection, read_annotations, read_detections, write_annotations, write_detections,
)
from radarkit.errors import UsageError
from radarkit.evaluation import OLS_THRESHOLDS, evaluate
from radarkit.models import build_reference, save_checkpoint
from radarkit.profiler import count_macs, count_params

SRC = Path(__file__).resolve().parents[1] / "src"

# two frames; the detections hit, land a few bins off, take the wrong class and miss
ANNS = [Annotation(0, 0, 20, 30), Annotation(0, 2, 60, 10), Annotation(1, 1, 40, 40), Annotation(1, 2, 90, 5)]
DETS = [
    Detection(0, 20, 30, 0.9, frame_id=0), Detection(2, 62, 11, 0.7, frame_id=0),
    Detection(1, 41, 44, 0.8, frame_id=1), Detection(0, 90, 5, 0.6, frame_id=1),
    Detection(2, 100, 20, 0.3, frame_id=1),
]


def run(capsys, *argv):
    """Exit code, the parsed JSON on stdout or None, and stderr."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


@pytest.fixture
def files(tmp_path):
    write_detections(tmp_path / "f.det", DETS)
    write_annotations(tmp_path / "f.ann", ANNS)
    return str(tmp_path / "f.det"), str(tmp_path / "f.ann")


@pytest.mark.parametrize("from_checkpoint", [False, True], ids=["name", "checkpoint"])
def test_profile_equals_profiler(capsys, tmp_path, from_checkpoint):
    model = build_reference("radarformer-tiny")
    arg = "radarformer-tiny"
    if from_checkpoint:
        arg = str(tmp_path / "tiny.rfck")
        save_checkpoint(model, arg)
    code, report, err = run(capsys, "profile", arg)
    rows, params = count_params(model)
    assert (code, err) == (0, "")
    assert report == {
        "model": arg, "input_shape": [1, 2, 8, 4, 32, 32], "params": params, "macs": count_macs(model)[1],
        "layers": [{"name": r.name, "params": r.param_count, "macs": r.mac_count} for r in rows],
    }
    assert (report["params"], report["macs"]) == (69_523, 94_699_520)
    assert report["layers"][0]["name"].startswith("merge.")


def test_eval_equals_evaluate(capsys, files):
    code, report, err = run(capsys, "eval", *files)
    res = evaluate(read_detections(files[0]), read_annotations(files[1]))
    assert (code, err) == (0, "")
    assert 0.0 < res.ap_total < 1.0 and 0.0 < res.ar_total < 1.0
    assert (report["ap"], report["ar"]) == (res.ap_total, res.ar_total)
    assert report["per_threshold"] == {
        f"{t:.2f}": {"ap": res.per_threshold[t]["ap"], "ar": res.per_threshold[t]["ar"]} for t in OLS_THRESHOLDS
    }
    assert list(report["per_threshold"]) == ["0.50", "0.55", "0.60", "0.65", "0.70", "0.75", "0.80", "0.85", "0.90"]


def _truncated_checkpoint(tmp_path, files):
    path = tmp_path / "bad.rfck"
    save_checkpoint(build_reference("radarformer-tiny"), path)
    path.write_bytes(path.read_bytes()[:-100])
    return ["profile", str(path)]


def _bad_confidence(tmp_path, files):
    with open(files[0], "a", encoding="ascii") as fh:
        fh.write("1 0 5 5 nan\n")
    return ["eval", *files]


@pytest.mark.parametrize("argv, code, category, words", [
    (lambda tmp_path, files: ["profile", "no-such-model"], 2, "config", "unknown reference config 'no-such-model'"),
    (_truncated_checkpoint, 3, "data", "bad.rfck: truncated blob"),
    (lambda tmp_path, files: ["eval", str(tmp_path / "missing.det"), files[1]], 3, "data",
     "missing.det: cannot open: No such file or directory"),
    (_bad_confidence, 3, "data", "f.det:6: malformed field: confidence 'nan' is not finite"),
], ids=["unknown-model", "truncated-checkpoint", "missing-dets", "nan-confidence"])
def test_error_prints_json_and_exits_with_its_code(capsys, tmp_path, files, argv, code, category, words):
    got, report, err = run(capsys, *argv(tmp_path, files))
    assert (got, report) == (code, None)
    error = json.loads(err)
    assert error["error"] == category and words in error["message"]


def test_runtime_error_exits_4(capsys, monkeypatch, files):
    def refuse(*args):
        raise UsageError("evaluate refused")

    monkeypatch.setattr(cli, "evaluate", refuse)
    assert run(capsys, "eval", *files) == (4, None, '{"error": "usage", "message": "evaluate refused"}\n')


@pytest.mark.parametrize("argv", [[], ["bogus"], ["profile"], ["profile", "a", "b"], ["eval", "f.det"]])
def test_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    assert ei.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: radarkit")


def test_runs_as_main_module(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["radarkit", "profile", "no-such-model"])
    monkeypatch.delitem(sys.modules, "radarkit.cli")
    with pytest.raises(SystemExit) as ei:
        runpy.run_module("radarkit.cli", run_name="__main__")
    assert ei.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_subprocess_prints_exact_counts():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "radarkit.cli", "profile", "radarformer-tiny"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert '"params": 69523' in done.stdout and '"macs": 94699520' in done.stdout
