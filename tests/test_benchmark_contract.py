"""The names and fields the benchmark under perfbench/ reads from pcclone.

perfbench/tracer.py is loaded by path and only read: these tests fail when a
change to the package would break `perfbench/run.py --trace 1` or
`perfbench/smoke.py`, which tier-1 does not run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcclone.cli
from pcclone.cloner import pqcm_scheme_a, pqcm_scheme_b
from pcclone.statekit import Ket, PlaneId

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_smoke_script_passes():
    # bytecode off, so that the run leaves nothing under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


ORACLE_ONLY = {"symmetric_projector", "build_hamiltonian", "hamiltonian_in_rotated_modes", "cg_ladder"}


class _OracleUses(ast.NodeVisitor):
    """Every reference to an ORACLE_ONLY name outside that name's own definition."""

    def __init__(self, path):
        self.path, self.inside, self.uses = path.name, [], []

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    def _use(self, name, node):
        if name in ORACLE_ONLY and name not in self.inside:
            self.uses.append(f"{self.path}:{node.lineno} {name}")

    def visit_Name(self, node):
        self._use(node.id, node)

    def visit_Attribute(self, node):
        self._use(node.attr, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._use(alias.name, node)

    def visit_Constant(self, node):  # getattr(module, "name")
        self._use(node.value, node)


def test_oracle_only_names_have_no_caller_in_the_package():
    """symmetric_projector, build_hamiltonian, hamiltonian_in_rotated_modes and
    cg_ladder are oracles for the tests alone. They stay only because
    perfbench/tracer.py's LAYERS names them, and they are deleted with ROADMAP
    item 1; until then nothing in src/pcclone may use them."""
    uses = []
    for path in sorted((ROOT / "src" / "pcclone").glob("*.py")):
        visitor = _OracleUses(path)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        uses += visitor.uses
    assert uses == []
