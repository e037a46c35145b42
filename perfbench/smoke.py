"""Smoke test of the benchmark's checks: each must pass on the program's real
output and fail on a copy with one value perturbed.

Run from the repository root:

    python3 perfbench/smoke.py

Exits 0 when every check tells the two apart, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import numpy as np

import checks
import run


def _edit(payload, **changes):
    return dict(copy.deepcopy(payload), **changes)


def cases(pc):
    """Yield (label, check, real output, perturbed output)."""
    plane = pc.statekit.PlaneId.XY
    report_a, state_a = pc.cloner.pqcm_scheme_a(0.7, plane, 2)
    report_b, state_b = pc.cloner.pqcm_scheme_b(0.7, plane, 2)
    real = (report_a, state_a, report_b, state_b)

    def point(out):
        checks.check_clone_point(3, *out)

    fids = [f + 1e-9 for f in report_a.per_clone_fidelity]
    yield "clone fidelity", point, real, (
        dataclasses.replace(report_a, per_clone_fidelity=fids), state_a, report_b, state_b)
    for i, report in ((0, report_a), (2, report_b)):
        bad = list(real)
        bad[i] = dataclasses.replace(report, success_prob=report.success_prob + 1e-9)
        yield f"scheme {report.scheme} success probability", point, real, tuple(bad)
    amps = state_b.amplitudes.copy()
    amps[0] += 1e-5
    yield "scheme A/B overlap", point, real, (
        report_a, state_a, report_b, pc.statekit.Ket(3, amps).normalized())

    argv = ["simulate", "--M", "3", "--scheme", "b", "--seed", "1", "--format", "json"]
    code, text = run.cli_call(pc.cli, argv)
    sim = run.cli_payload((code, text))

    def simulate(out):
        checks.check_simulate(out[0], out[1], 3, "B")

    fids = [f - 1e-9 for f in sim["per_clone_fidelity"]]
    yield "simulate fidelity", simulate, (code, sim), (code, _edit(sim, per_clone_fidelity=fids))
    yield "simulate success probability", simulate, (code, sim), (
        code, _edit(sim, success_prob=sim["success_prob"] - 1e-9))
    yield "simulate covariance defect", simulate, (code, sim), (
        code, _edit(sim, covariance_defect=2e-10))
    yield "simulate exit code", simulate, (code, sim), (2, None)

    code, text = run.cli_call(pc.cli, ["fidelity-sweep", "--max-m", "21", "--format", "json"])
    sweep = run.cli_payload((code, text))

    def sweep_check(out):
        checks.check_sweep(out[0], out[1], 21)

    rows = [dict(r, gamma_exact="1/2") if r["M"] == 11 else r for r in sweep["rows"]]
    yield "sweep gamma value", sweep_check, (code, sweep), (code, _edit(sweep, rows=rows))
    yield "sweep row count", sweep_check, (code, sweep), (
        code, _edit(sweep, rows=sweep["rows"][:-1]))

    code, _ = run.cli_call(pc.cli, ["verify", "--suite", "angular"])
    yield "verify exit code", checks.check_verify, code, 1

    code, text = run.cli_call(pc.cli, ["opa", "--phase", "0.4", "--format", "json"])
    opa = run.cli_payload((code, text))

    def opa_check(out):
        checks.check_opa(out[0], out[1])

    a30 = [x * (1 + 1e-9) for x in opa["first_order_amp_30"]]
    yield "opa amplitude ratio", opa_check, (code, opa), (code, _edit(opa, first_order_amp_30=a30))
    yield "opa reduced fidelity", opa_check, (code, opa), (
        code, _edit(opa, reduced_fidelity=opa["reduced_fidelity"] + 1e-9))

    phase = 1.3
    evolved, _ = pc.opa.evolve(pc.opa.fock_state(8, 1, 0, mode_basis=phase), 0.3, 3)
    rho = pc.opa.photon_reduced_density(run.photon_sector(pc.opa, evolved, 3)).matrix

    def sector(out):
        checks.check_sector(out, phase, 3)

    target = checks.photon_target(phase)
    yield "amplifier sector fidelity", sector, rho, rho + 1e-9 * np.outer(target, target.conj())


def _passes(check, value):
    try:
        check(value)
    except checks.CheckFailed:
        return False
    return True


def main():
    pc = run.import_program()
    missed = 0
    for label, check, real, bad in cases(pc):
        ok = _passes(check, real) and not _passes(check, bad)
        missed += not ok
        print(f"{'ok  ' if ok else 'MISS'} {label}")
    print("every check fails on its perturbed value" if not missed
          else f"{missed} checks did not tell real from perturbed output")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
