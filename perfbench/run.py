"""Benchmark of pcclone: four closed-loop workloads, one caller each.

Run from the repository root:

    python3 perfbench/run.py --workload clone_ladder --seed 1 --seconds 25 --trace 0

Each invocation runs one workload in this single process. Its operations run
back to back in rounds; every round is the same list of operations, built
from --seed, and another round starts while it is expected to end within
--seconds (at least one round runs). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With --trace 0 the metrics are the end-to-end ones (setup_s,
wall_s, cpu_s, peak_rss_mb); with --trace 1 the public functions of every
pcclone module are wrapped and the per-layer metrics are reported instead.
See perfbench/README.md for the workloads and the reference figures.
"""

from __future__ import annotations

import time

# Set-up time counts from here: the imports below, numpy and pcclone
# included, and the building of the workload's inputs.
START = time.perf_counter()

import os

# BLAS threads are fixed before numpy loads: one thread was the steadiest
# setting on a shared 2-core machine, and it is recorded in every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import pi
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from tracer import Tracer, metric_units

SETUP_PROBES = 5
RESULTS_DIR = Path(__file__).resolve().parent / "results"

# Amplifier: cutoff 2K+2 and series order K reach the N = 2K+1 sector.
AMP_ORDER = 9
AMP_GAIN = 0.3
AMP_PHASES = 3
# A valid low-gain evolution whose N=5 and N=7 sectors have squared norms
# 3e-16 and 4e-24; photon_reduced_density rejects them as a zero state.
WEAK_CUTOFF, WEAK_PHASE, WEAK_GAIN, WEAK_ORDER = 8, 0.37, 1e-4, 3
WEAK_SECTORS = (3, 5, 7)


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def import_program():
    """Import pcclone from src/ under the current directory, never elsewhere."""
    src = Path.cwd() / "src"
    if not (src / "pcclone" / "__init__.py").is_file():
        sys.exit("perfbench: src/pcclone not found; run from the repository root")
    sys.path.insert(0, str(src))
    for name in ("pcclone", "pcclone.cli"):
        importlib.import_module(name)
    return sys.modules["pcclone"]


def cli_call(cli, argv):
    """Run the CLI in process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_payload(out):
    code, text = out
    return json.loads(text) if code == 0 else None


def _no_check(out):
    return None


def clone_ladder(pc, rng):
    """Both schemes at every odd M from 3 to 13 with seeded input phases.

    All three planes run at M <= 11. At M=13 each dense projector is 1 GiB and
    one scheme run takes about 8 s, so only one plane, drawn from the seed,
    runs there; the three planes share every code path.
    """
    cloner = pc.cloner
    planes = list(pc.statekit.PlaneId)
    ops = []
    for M in range(3, 14, 2):
        for plane in planes if M < 13 else [rng.choice(planes)]:
            ops.append(_clone_point(cloner, M, plane, rng.uniform(0, 2 * pi)))
    return ops


def _clone_point(cloner, M, plane, phase):
    P = (M + 1) // 2

    def call():
        report_a, state_a = cloner.pqcm_scheme_a(phase, plane, P)
        report_b, state_b = cloner.pqcm_scheme_b(phase, plane, P)
        return report_a, state_a, report_b, state_b

    return Op(f"clone M={M} {plane.value}", call,
              lambda out: checks.check_clone_point(M, *out))


def simulate_cli(pc, rng):
    """The simulate command, JSON output, with a seeded covariance probe."""
    ops = []
    for M in (5, 7, 9):
        for scheme in ("a", "b"):
            argv = ["simulate", "--M", str(M), "--scheme", scheme,
                    "--plane", rng.choice(["xz", "yz", "xy"]),
                    "--phase", repr(rng.uniform(0, 2 * pi)),
                    "--seed", str(rng.randrange(2 ** 31)), "--format", "json"]
            ops.append(Op(
                " ".join(argv[:5]),
                lambda argv=argv: cli_call(pc.cli, argv),
                lambda out, M=M, s=scheme.upper():
                    checks.check_simulate(out[0], cli_payload(out), M, s),
            ))
    return ops


def exact_sweep(pc, rng):
    """Exact gamma(P) sweep and the angular verify suite; no seeded input."""
    max_m = 2001
    sweep = ["fidelity-sweep", "--max-m", str(max_m), "--format", "json"]
    return [
        Op("fidelity-sweep", lambda: cli_call(pc.cli, sweep),
           lambda out: checks.check_sweep(out[0], cli_payload(out), max_m)),
        Op("verify angular", lambda: cli_call(pc.cli, ["verify", "--suite", "angular"]),
           lambda out: checks.check_verify(out[0])),
    ]


def amplifier(pc, rng):
    """The opa command, then seeded evolutions cut into photon-number sectors."""
    opa = pc.opa
    argv = ["opa", "--phase", repr(rng.uniform(0, 2 * pi)), "--format", "json"]
    ops = [Op("opa command", lambda: cli_call(pc.cli, argv),
              lambda out: checks.check_opa(out[0], cli_payload(out)))]
    for _ in range(AMP_PHASES):
        phase = rng.uniform(0, 2 * pi)
        injected = opa.fock_state(2 * AMP_ORDER + 2, 1, 0, mode_basis=phase)
        ops += _sectors(opa, injected, phase, AMP_GAIN, AMP_ORDER,
                        range(3, 2 * AMP_ORDER + 2, 2))
    injected = opa.fock_state(WEAK_CUTOFF, 1, 0, mode_basis=WEAK_PHASE)
    ops += _sectors(opa, injected, WEAK_PHASE, WEAK_GAIN, WEAK_ORDER, WEAK_SECTORS)
    return ops


def _sectors(opa, injected, phase, gain, order, sectors):
    """An evolve operation and one reduced-density operation per sector."""
    evolved = {}

    def run_evolve():
        evolved.clear()
        evolved["state"], _ = opa.evolve(injected, gain, order)

    ops = [Op(f"evolve gain={gain} phase={phase:.3f}", run_evolve, _no_check)]
    for N in sectors:
        ops.append(Op(
            f"sector N={N} gain={gain}",
            lambda N=N: opa.photon_reduced_density(photon_sector(opa, evolved["state"], N)),
            lambda rho, N=N: checks.check_sector(rho.matrix, phase, N),
        ))
    return ops


def photon_sector(opa, state, N):
    """The N-photon part of a two-mode FockVec."""
    side = state.cutoff + 1
    photons = np.add.outer(np.arange(side), np.arange(side)).reshape(-1)
    return opa.FockVec(state.cutoff, state.amplitudes * (photons == N), state.mode_basis)


WORKLOADS = {
    "clone_ladder": clone_ladder,
    "simulate_cli": simulate_cli,
    "exact_sweep": exact_sweep,
    "amplifier": amplifier,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="pcclone benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import pcclone and build inputs; print the time taken")
    return parser.parse_args(argv)


def probe_setup(args):
    """Set-up time of one fresh process running this script with --setup-probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def run_round(ops, faults):
    """Run every operation once; return ([(wall s, cpu s)] per op, failed, wrong)."""
    times = []
    failed = wrong = 0
    for op in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is counted, not fatal
            out = exc
        times.append((time.perf_counter() - w0, time.process_time() - c0))
        if isinstance(out, Exception):
            failed += 1
            faults.setdefault(op.name, f"{type(out).__name__}: {out}")
            continue
        try:
            op.check(out)
        except checks.CheckFailed as exc:
            failed += 1
            wrong += 1
            faults.setdefault(op.name, f"wrong output: {exc}")
    return times, failed, wrong


def main(argv=None):
    args = parse_args(argv)
    pc = import_program()
    ops = WORKLOADS[args.workload](pc, random.Random(args.seed))
    if args.setup_probe:
        print(time.perf_counter() - START)
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    # Set-up probes start after this process's own set-up has warmed the file
    # cache. One runs before each round, so that their median samples the
    # machine across the run rather than in one burst.
    probes = 0 if args.trace else SETUP_PROBES
    setup = []

    faults = {}
    op_times = []  # per round, (wall s, cpu s) of each operation
    walls, cpus = [], []  # per round totals
    failed = wrong = 0
    deadline = time.perf_counter() + args.seconds
    # Whole rounds only: another round starts while one more of median length
    # is expected to end by the deadline.
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        if len(setup) < probes:
            setup.append(probe_setup(args))
        times, f, w = run_round(ops, faults)
        op_times.append(times)
        walls.append(sum(t[0] for t in times))
        cpus.append(sum(t[1] for t in times))
        failed += f
        wrong += w
    while len(setup) < probes:
        setup.append(probe_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall_s = statistics.median(walls)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations x {len(walls)} rounds, BLAS threads {BLAS_THREADS}")
    print(f"round wall s: {[round(w, 4) for w in walls]}")
    for name, msg in faults.items():
        print(f"failed: {name}: {msg}")

    if tracer is None:
        values = {"setup_s": statistics.median(setup), "wall_s": wall_s,
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
        print(f"setup samples s: {[round(s, 4) for s in setup]}")
    else:
        values = tracer.per_round(len(walls))
        units = metric_units()
        print(f"traced wall_s: {wall_s:.4f}")
        for name in sorted(values, key=values.get, reverse=True):
            if name.endswith(".self_s") and values[name] > 0:
                calls = values[name[:-len("self_s")] + "calls"]
                print(f"  {name:<45} {values[name]:10.4f} s  {calls:10.0f} calls")

    result = {
        "correct": wrong == 0,
        "attempted": len(ops) * len(walls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  blas_threads=int(BLAS_THREADS), setup_samples=setup, round_wall_s=walls,
                  round_cpu_s=cpus, op_times=op_times, faults=faults)
    out_file = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
