"""The names and fields the benchmark under perfbench/ reads from pcclone.

perfbench/tracer.py is loaded by path and only read: these tests fail when a
change to the package would break `perfbench/run.py --trace 1` or
`perfbench/smoke.py`, which tier-1 does not run.
"""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import pcclone.cli
from pcclone.cloner import pqcm_scheme_a, pqcm_scheme_b
from pcclone.statekit import Ket, PlaneId

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_exists():
    for layer, names in _tracer().LAYERS.items():
        module = importlib.import_module(f"pcclone.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pcclone.{layer}.{name}"
    assert callable(Ket.__post_init__)


@pytest.mark.parametrize("scheme", [pqcm_scheme_a, pqcm_scheme_b])
def test_dense_schemes_return_a_report_and_a_ket(scheme):
    report, state = scheme(0.7, PlaneId.XY, 2)
    assert len(report.per_clone_fidelity) == 3
    assert state.amplitudes.shape == (8,)


def test_report_fields_survive_replace():
    report, _ = pqcm_scheme_a(0.7, PlaneId.XY, 2)
    fids = [f + 1e-9 for f in report.per_clone_fidelity]
    assert dataclasses.replace(report, per_clone_fidelity=fids).per_clone_fidelity == fids
    bumped = dataclasses.replace(report, success_prob=report.success_prob + 1e-9)
    assert bumped.success_prob == report.success_prob + 1e-9


def test_simulate_json_carries_the_checked_fields(capsys):
    argv = ["simulate", "--M", "5", "--scheme", "b", "--seed", "1", "--format", "json"]
    assert pcclone.cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["M"] == 5 and payload["scheme"] == "B"
    assert len(payload["per_clone_fidelity"]) == 5
    assert {"success_prob", "covariance_defect"} <= set(payload)
