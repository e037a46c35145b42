"""Command-line front end: cloning runs, fidelity sweeps, verification, OPA.

Exit codes: 0 success, 1 failed verification or closed stdout, 2 configuration error.
The parser is the one input boundary and ``_write`` the one output writer.
"""

import argparse
import csv
import functools
import json
import math
import os
import random
import re
import sys
import time

from .angular import fidelity_formula, gamma, gamma_closed_form
from .cloner import DEFAULT_PROBE_PHASES, covariance_defect, run_kernel, scheme_kernel
from .opa import CutoffOverflowError, evolve, first_order_output, fock_state, photon_reduced_density
from .statekit import CapacityError, PlaneId, equatorial_state, fidelity
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2

# largest norm deficit `opa` accepts from the truncated series
SERIES_TOLERANCE = 1e-6


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument error raises ConfigError instead of printing usage and exiting.

    A token such as -1e-3 or -inf is a value, as -1 and -0.5 are: argparse alone
    reads only the last two as negative numbers. No option looks like a number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _typed(convert, accept, expected):
    """An argparse type that converts the text and rejects values `accept` refuses."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # so argparse still says "invalid int value: 'x'"
    return parse


def _int_at_least(low):
    return _typed(int, lambda n: n >= low, f"an integer >= {low}")


_finite = _typed(float, math.isfinite, "a finite number")
_odd_m = _typed(int, lambda n: n >= 3 and n % 2 == 1, "an odd integer >= 3")


def _write(out, fmt, payload, text, rows=None):
    """Print the payload as one JSON line, the rows as CSV, or the text lines."""
    if fmt == "json":
        out.write(json.dumps(payload) + "\n")
    elif fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        out.writelines(line + "\n" for line in text)


def _sweep_rows(max_m):
    """One row per odd M <= max_m."""
    for P in range(2, (max_m + 1) // 2 + 1):
        exact = gamma(P)
        closed = gamma_closed_form(P)
        yield {
            "M": 2 * P - 1,
            "gamma_exact": f"{exact.numerator}/{exact.denominator}",
            "gamma_closed_form": f"{closed.numerator}/{closed.denominator}",
            "equal": exact == closed,
        }


def cmd_fidelity_sweep(args, out):
    start = time.perf_counter()
    rows = list(_sweep_rows(args.max_m))
    elapsed = time.perf_counter() - start
    text = [f"M={r['M']:>5}  gamma={r['gamma_exact']}  closed={r['gamma_closed_form']}  "
            f"{'ok' if r['equal'] else 'MISMATCH'}" for r in rows]
    text.append(f"elapsed: {elapsed:.3f} s")
    _write(out, args.format, {"rows": rows, "elapsed_s": elapsed}, text, rows)
    return EXIT_OK if all(r["equal"] for r in rows) else EXIT_VERIFY_FAIL


def cmd_simulate(args, out):
    M, P = args.M, (args.M + 1) // 2
    kernel = scheme_kernel(args.scheme, PlaneId(args.plane), P)
    run = run_kernel(kernel, args.phase)
    probes = DEFAULT_PROBE_PHASES
    if args.seed is not None:
        rng = random.Random(args.seed)
        probes = tuple(rng.uniform(0, 2 * math.pi) for _ in range(8))
    defect = covariance_defect(kernel, probes)
    optimum = float(fidelity_formula("cov_odd", 1, M))
    head = {"M": M, "P": P, "scheme": kernel.scheme, "plane": args.plane, "input_phase": args.phase}
    tail = {"success_prob": run.success_prob, "success_log10": run.success_log10,
            "optimal_fidelity": optimum, "covariance_defect": defect}
    # the output is symmetric, so every clone has the same fidelity: text and
    # CSV print it once; JSON keeps the M-entry list, which perfbench/checks.py reads
    payload = {**head, "per_clone_fidelity": [run.fidelity] * M, **tail} if args.format == "json" else None
    # success_prob is the last stage's alone; the text names every stage and the run
    stages = {**{f"{name} stage": v for name, v in run.stage_log10.items()},
              "whole run": run.success_log10}
    text = [f"1 -> {M} cloner, scheme {kernel.scheme}, plane {args.plane}, phase {args.phase:.6f}",
            f"  fidelity, each clone: {run.fidelity:.12f}",
            *(f"  success probability, {name + ':':<12} {10 ** lg:.12f} (log10 {lg:.12f})"
              for name, lg in stages.items()),
            f"  optimal fidelity:    {optimum:.12f}",
            f"  covariance defect:   {defect:.3e}"]
    _write(out, args.format, payload, text, [{**head, **tail, "fidelity": run.fidelity}])
    return EXIT_OK


def cmd_verify(args, out):
    rows, elapsed = run_suite(args.suite)
    all_ok = all(ok for *_, ok in rows)
    text = [f"{'PASS' if ok else 'FAIL'}  {name}: defect {defect:.3e} (threshold {threshold:.1e})"
            for name, defect, threshold, ok in rows]
    text.append("all checks passed" if all_ok else "FAILURES present")
    checks = [dict(zip(("name", "defect", "threshold", "pass"), row)) for row in rows]
    _write(out, args.format, {"checks": checks, "elapsed_s": elapsed, "passed": all_ok}, text)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_opa(args, out):
    # the first-order output is the 3-photon sector alone: the same at every cutoff >= 3
    first = first_order_output(args.phase)
    a30 = first.amplitude(3, 0)
    a12 = first.amplitude(1, 2)
    ratio = abs(a30 / a12) if a12 != 0 else float("inf")
    rho = photon_reduced_density(first)
    fid = fidelity(rho, equatorial_state(PlaneId.XY, args.phase))
    injected = fock_state(args.cutoff, 1, 0, mode_basis=float(args.phase))
    evolved, remainder = evolve(injected, args.gain, args.order)
    deficit = abs(1 - evolved.norm_sq)
    if not deficit <= SERIES_TOLERANCE:  # NaN too: an overflowed series
        raise ConfigError(
            f"series norm deficit {deficit:.3e} exceeds {SERIES_TOLERANCE:g}; raise --order"
        )
    payload = {
        "phase": args.phase,
        "gain": args.gain,
        "order": args.order,
        "first_order_amp_30": [a30.real, a30.imag],
        "first_order_amp_12": [a12.real, a12.imag],
        "amp_ratio_magnitude": ratio,
        "reduced_fidelity": fid,
        "series_norm_deficit": deficit,
        "series_remainder": remainder,
    }
    text = [
        f"first-order amplitudes: (3,0) {a30:.6f}  (1,2) {a12:.6f}",
        f"|ratio| = {ratio:.10f}",
        f"reduced single-photon fidelity = {fid:.10f}",
        f"series norm deficit = {deficit:.3e} (remainder estimate {remainder:.3e})",
    ]
    _write(out, args.format, payload, text)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state in it."""
    parser = _Parser(
        prog="pcclone",
        description="Optimal 1->M equatorial-qubit cloning: simulation, exact "
                    "coefficient theory, and parametric-amplifier model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity-sweep", help="check the exact reduced-state weight against its closed form")
    p.add_argument("--max-m", type=_int_at_least(3), required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=cmd_fidelity_sweep)

    p = sub.add_parser("simulate", help="run one cloning pipeline and report fidelities")
    p.add_argument("--M", type=_odd_m, required=True)
    p.add_argument("--plane", type=str.lower, choices=[plane.value for plane in PlaneId], default="xz")
    p.add_argument("--phase", type=_finite, default=0.0)
    p.add_argument("--scheme", type=str.upper, choices=["A", "B"], default="A")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="sample probe phases instead of the fixed grid")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", choices=["all", "angular", "symmetry", "cloner", "opa"], default="all")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("opa", help="collinear parametric-amplifier first-order analysis")
    p.add_argument("--phase", type=_finite, default=0.0)
    p.add_argument("--gain", type=_finite, default=0.1)
    p.add_argument("--order", type=_int_at_least(1), default=8)
    p.add_argument("--cutoff", type=_int_at_least(3), default=10)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_opa)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except (CapacityError, ConfigError, CutoffOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
