"""The ``radarkit`` command: a model's exact counts and the AP/AR of
detection files, each printed as one JSON object on stdout.

    radarkit profile MODEL     # a checkpoint file or a models.REFERENCE_NAMES name
    radarkit eval DETS ANNS    # a .det file scored against a .ann file

A ``RadarkitError`` prints ``{"error": category, "message": text}`` on
stderr and exits with its code: 2 config, 3 data/format, 4 runtime.  A
usage error exits 2, as argparse does.  Also runs as ``python -m radarkit.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .confmap import read_annotations, read_detections
from .errors import RadarkitError
from .evaluation import evaluate
from .models import build_reference, load_checkpoint
from .profiler import profile_layers


def _write(obj, stream) -> None:
    print(json.dumps(obj), file=stream)


def profile(model: str) -> dict:
    """Parameters and MACs of a checkpoint or reference model at its input shape, total and per layer."""
    net = load_checkpoint(model) if os.path.isfile(model) else build_reference(model)
    layers = [{"name": l.name, "params": l.param_count, "macs": l.mac_count} for l in profile_layers(net)]
    return {"model": model, "input_shape": list(net.input_shape),
            "params": sum(l["params"] for l in layers), "macs": sum(l["macs"] for l in layers), "layers": layers}


def score(dets: str, anns: str) -> dict:
    """AP and AR over the OLS thresholds, and at each of them."""
    res = evaluate(read_detections(dets), read_annotations(anns))
    return {"ap": res.ap_total, "ar": res.ar_total,
            "per_threshold": {f"{t:.2f}": {"ap": r["ap"], "ar": r["ar"]}
                              for t, r in res.per_threshold.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="radarkit", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("profile", help="parameter and MAC counts of a model").add_argument("model")
    evaluation = commands.add_parser("eval", help="AP/AR of a detection file against an annotation file")
    evaluation.add_argument("dets")
    evaluation.add_argument("anns")
    args = parser.parse_args(argv)
    try:
        out = profile(args.model) if args.command == "profile" else score(args.dets, args.anns)
    except RadarkitError as e:
        _write({"error": e.category, "message": str(e)}, sys.stderr)
        return e.exit_code
    _write(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
