"""Command-line front end: cloning runs, fidelity sweeps, verification, OPA.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings

import numpy as np

from .angular import fidelity_formula, gamma, gamma_closed_form
from .cloner import covariance_defect, pqcm_scheme_a, pqcm_scheme_b
from .opa import CutoffOverflowError, evolve, first_order_output, fock_state, photon_reduced_density
from .statekit import CapacityError, Ket, PlaneId, fidelity
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2

# largest norm deficit `opa` accepts from the truncated series
SERIES_TOLERANCE = 1e-6


class ConfigError(Exception):
    pass


def _parse_plane(text):
    try:
        return PlaneId(text.lower())
    except ValueError:
        raise ConfigError(f"plane must be one of xz, yz, xy (got {text!r})")


def _check_finite(option, value):
    if not math.isfinite(value):
        raise ConfigError(f"{option} must be a finite number (got {value!r})")


def cmd_fidelity_sweep(args, out):
    if args.max_m < 3:
        raise ConfigError("--max-m must be >= 3")
    start = time.perf_counter()
    rows = []
    all_equal = True
    for M in range(3, args.max_m + 1, 2):
        P = (M + 1) // 2
        exact = gamma(P)
        closed = gamma_closed_form(P)
        equal = exact == closed
        all_equal &= equal
        rows.append({
            "M": M,
            "gamma_exact": f"{exact.numerator}/{exact.denominator}",
            "gamma_closed_form": f"{closed.numerator}/{closed.denominator}",
            "equal": equal,
        })
    elapsed = time.perf_counter() - start
    if args.format == "json":
        json.dump({"rows": rows, "elapsed_s": elapsed}, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write("M,gamma_exact,gamma_closed_form,equal\n")
        for r in rows:
            out.write(f"{r['M']},{r['gamma_exact']},{r['gamma_closed_form']},{r['equal']}\n")
    else:
        for r in rows:
            mark = "ok" if r["equal"] else "MISMATCH"
            out.write(f"M={r['M']:>5}  gamma={r['gamma_exact']}  closed={r['gamma_closed_form']}  {mark}\n")
        out.write(f"elapsed: {elapsed:.3f} s\n")
    return EXIT_OK if all_equal else EXIT_VERIFY_FAIL


def cmd_simulate(args, out):
    if args.M is not None and args.P is not None:
        raise ConfigError("give either --M or --P, not both")
    if args.M is None and args.P is None:
        raise ConfigError("one of --M or --P is required")
    if args.M is not None:
        if args.M % 2 == 0 or args.M < 3:
            raise ConfigError("M must be odd and >= 3")
        P = (args.M + 1) // 2
    else:
        if args.P < 2:
            raise ConfigError("P must be >= 2")
        P = args.P
    plane = _parse_plane(args.plane)
    _check_finite("--phase", args.phase)
    scheme = args.scheme.upper()
    if scheme not in ("A", "B"):
        raise ConfigError("scheme must be a or b")

    run = pqcm_scheme_a if scheme == "A" else pqcm_scheme_b
    report, _ = run(args.phase, plane, P)
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        probes = tuple(rng.uniform(0, 2 * np.pi, 8))
        defect = covariance_defect(plane, P, scheme, probes)
    else:
        defect = covariance_defect(plane, P, scheme)

    payload = report.to_dict()
    payload["covariance_defect"] = defect
    if args.format == "json":
        json.dump(payload, out)
        out.write("\n")
    elif args.format == "csv":
        fid_cols = ",".join(f"fid_{i + 1}" for i in range(report.M))
        out.write(f"M,P,scheme,plane,input_phase,{fid_cols},success_prob,optimal_fidelity,covariance_defect\n")
        fids = ",".join(repr(f) for f in report.per_clone_fidelity)
        out.write(
            f"{report.M},{report.P},{report.scheme},{report.plane.value},"
            f"{report.input_phase!r},{fids},{report.success_prob!r},"
            f"{report.optimal_fidelity!r},{defect!r}\n"
        )
    else:
        out.write(f"1 -> {report.M} cloner, scheme {report.scheme}, plane {report.plane.value}, "
                  f"phase {report.input_phase:.6f}\n")
        for i, f in enumerate(report.per_clone_fidelity, 1):
            out.write(f"  clone {i}: fidelity {f:.12f}\n")
        out.write(f"  success probability: {report.success_prob:.12f}\n")
        out.write(f"  optimal fidelity:    {report.optimal_fidelity:.12f}\n")
        out.write(f"  covariance defect:   {defect:.3e}\n")
    return EXIT_OK


def cmd_verify(args, out):
    rows = run_suite(args.suite)
    all_ok = True
    for name, defect, threshold, ok in rows:
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        out.write(f"{status}  {name}: defect {defect:.3e} (threshold {threshold:.1e})\n")
    out.write(f"{'all checks passed' if all_ok else 'FAILURES present'}\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_opa(args, out):
    if args.order < 1:
        raise ConfigError("--order must be >= 1")
    if args.cutoff < 3:
        raise ConfigError("--cutoff must be >= 3")
    _check_finite("--phase", args.phase)
    _check_finite("--gain", args.gain)
    first = first_order_output(args.phase, args.cutoff)
    a30 = first.amplitude(3, 0)
    a12 = first.amplitude(1, 2)
    ratio = abs(a30 / a12) if a12 != 0 else float("inf")
    rho = photon_reduced_density(first)
    target = Ket(1, np.array([1, np.exp(1j * args.phase)]) / np.sqrt(2))
    fid = fidelity(rho, target)
    injected = fock_state(args.cutoff, 1, 0, mode_basis=float(args.phase))
    # held back until the series is accepted, so a refusal prints one line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolved, remainder = evolve(injected, args.gain, args.order)
    deficit = abs(1 - evolved.norm_sq)
    if deficit > SERIES_TOLERANCE:
        raise ConfigError(
            f"series norm deficit {deficit:.3e} exceeds {SERIES_TOLERANCE:g}; raise --order"
        )
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
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
    if args.format == "json":
        json.dump(payload, out)
        out.write("\n")
    else:
        out.write(f"first-order amplitudes: (3,0) {a30:.6f}  (1,2) {a12:.6f}\n")
        out.write(f"|ratio| = {ratio:.10f}\n")
        out.write(f"reduced single-photon fidelity = {fid:.10f}\n")
        out.write(f"series norm deficit = {payload['series_norm_deficit']:.3e} "
                  f"(remainder estimate {remainder:.3e})\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcclone",
        description="Optimal 1->M equatorial-qubit cloning: simulation, exact "
                    "coefficient theory, and parametric-amplifier model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity-sweep", help="check the exact reduced-state weight against its closed form")
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=cmd_fidelity_sweep)

    p = sub.add_parser("simulate", help="run one cloning pipeline and report fidelities")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--P", type=int, default=None)
    p.add_argument("--plane", default="xz")
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--scheme", choices=["a", "b", "A", "B"], default="a")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--seed", type=int, default=None, help="sample probe phases instead of the fixed grid")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", choices=["all", "angular", "symmetry", "cloner", "opa"], default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("opa", help="collinear parametric-amplifier first-order analysis")
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--gain", type=float, default=0.1)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--cutoff", type=int, default=10)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_opa)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ConfigError, CapacityError, CutoffOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
