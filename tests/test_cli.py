import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pcclone
from pcclone import opa, verify
from pcclone import symmetry as sym
from pcclone.angular import gamma, gamma_closed_form
from pcclone.cli import build_parser, main
from pcclone.cloner import covariance_defect, pqcm_scheme_b, scheme_kernel
from pcclone.statekit import Ket, PlaneId

REAL_SYMMETRIZE = sym.symmetrize
REAL_HAMILTONIAN = opa._apply_hamiltonian
REAL_POWERS = sym.symmetric_powers
REAL_SCHEME_B = pqcm_scheme_b


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFidelitySweep:
    def test_text_ok(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity-sweep", "--max-m", "7")
        assert code == 0
        assert out.count("ok") == 3  # M = 3, 5, 7

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity-sweep", "--max-m", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        by_m = {row["M"]: row for row in payload["rows"]}
        assert by_m[3]["gamma_exact"] == "5/6"
        assert by_m[5]["gamma_exact"] == "4/5"
        assert all(row["equal"] for row in payload["rows"])

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity-sweep", "--max-m", "9", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["M"]) for r in rows] == [3, 5, 7, 9]
        assert rows[2]["gamma_closed_form"] == "11/14"

    def test_rows_match_per_p_gamma(self, capsys):
        # the sweep against one lone gamma call per P, and against (3M+1)/(4M),
        # which shares no table with either
        code, out, _ = run_cli(capsys, "fidelity-sweep", "--max-m", "401", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        expected = []
        for P in range(2, 202):
            exact, closed = gamma(P), gamma_closed_form(P)
            expected.append({
                "M": 2 * P - 1,
                "gamma_exact": f"{exact.numerator}/{exact.denominator}",
                "gamma_closed_form": f"{closed.numerator}/{closed.denominator}",
                "equal": exact == closed,
            })
        assert rows == expected
        for row in rows:
            M = row["M"]
            assert Fraction(row["gamma_exact"]) == Fraction(3 * M + 1, 4 * M), M

    def test_bad_max_m_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "fidelity-sweep", "--max-m", "1")
        assert code == 2
        assert "error" in err


class TestSimulate:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--M", "3", "--plane", "xz", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["M"] == 3 and payload["P"] == 2
        assert all(abs(f - 5 / 6) < 1e-10 for f in payload["per_clone_fidelity"])
        assert abs(payload["success_prob"] - 8 / 9) < 1e-10
        assert payload["covariance_defect"] < 1e-10

    def test_text_names_every_stage(self, capsys):
        # success_prob is scheme A's final stage alone; the text shows the whole run too
        code, out, _ = run_cli(capsys, "simulate", "--M", "5")
        assert code == 0
        lines = {line.split(":")[0].strip(): line.split(":")[1].split()[0]
                 for line in out.splitlines() if "success probability" in line}
        assert {name: float(v) for name, v in lines.items()} == pytest.approx({
            "success probability, uqcm stage": 0.5,
            "success probability, final stage": 0.8,
            "success probability, whole run": 0.4,
        }, abs=1e-12)
        _, out, _ = run_cli(capsys, "simulate", "--M", "5", "--format", "json")
        assert abs(json.loads(out)["success_prob"] - 0.8) < 1e-12

    def test_scheme_b_via_p(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--M", "3", "--scheme", "b", "--plane", "xy",
            "--phase", "1.2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "B"
        assert all(abs(f - 5 / 6) < 1e-10 for f in payload["per_clone_fidelity"])

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--M", "3", "--format", "csv", "--phase", "0.5"
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["plane"] == "xz"
        assert abs(float(row["fidelity"]) - 5 / 6) < 1e-10

    def test_seeded_runs_deterministic(self, capsys):
        args = ("simulate", "--M", "3", "--seed", "7", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_seed_draws_probes_with_the_stdlib(self, capsys):
        rng = random.Random(7)
        probes = tuple(rng.uniform(0, 2 * math.pi) for _ in range(8))
        _, out, _ = run_cli(capsys, "simulate", "--M", "5", "--seed", "7", "--format", "json")
        assert json.loads(out)["covariance_defect"] == covariance_defect(scheme_kernel("A", PlaneId.XZ, 3), probes)

    def test_seed_loads_no_numpy_random(self):
        # a fresh interpreter, so that no other test has loaded numpy.random
        env = dict(os.environ, PYTHONPATH=str(Path(pcclone.__file__).resolve().parents[1]))
        code = ("import sys; from pcclone.cli import main; "
                "main(['simulate', '--M', '5', '--seed', '3']); "
                "print('numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "False"

    def test_even_m_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--M", "4")
        assert code == 2
        assert "odd" in err

    def test_bad_plane(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--M", "3", "--plane", "qq")
        assert code == 2
        assert "plane" in err

    @pytest.mark.parametrize("phase", ["nan", "inf", "-inf"])
    def test_non_finite_phase_rejected(self, capsys, phase):
        code, out, err = run_cli(capsys, "simulate", "--M", "3", f"--phase={phase}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--phase" in err

    def test_beyond_dense_cap_runs(self, capsys):
        # the Dicke engine holds M+1 coefficients: a dense 2^41 ket would be 32 TiB
        code, out, err = run_cli(capsys, "simulate", "--M", "41", "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert all(abs(f - (3 * 41 + 1) / (4 * 41)) <= 1e-12 for f in payload["per_clone_fidelity"])
        assert payload["covariance_defect"] <= 1e-12

    def test_success_log10_in_every_format(self, capsys):
        want = math.log10(2 ** 3 / math.comb(6, 3))  # whole-run probability, P = 3
        for scheme in ("a", "b"):
            _, out, _ = run_cli(capsys, "simulate", "--M", "5", "--scheme", scheme, "--format", "json")
            assert abs(json.loads(out)["success_log10"] - want) <= 1e-12
            _, out, _ = run_cli(capsys, "simulate", "--M", "5", "--scheme", scheme, "--format", "csv")
            assert abs(float(next(csv.DictReader(io.StringIO(out)))["success_log10"]) - want) <= 1e-12

    def test_m_100001(self, capsys):
        M, P = 100001, 50001
        want = (P * math.log10(2) - math.log10(math.comb(2 * P, P)))
        for scheme in ("a", "b"):
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "simulate", "--M", str(M), "--scheme", scheme, "--format", "json")
            elapsed = time.perf_counter() - start
            assert code == 0 and elapsed < 10
            payload = json.loads(out)
            assert abs(payload["success_log10"] - want) <= 1e-12 * abs(want)
            fids = payload["per_clone_fidelity"]
            assert len(fids) == M and max(abs(f - (3 * M + 1) / (4 * M)) for f in fids) <= 1e-12
            assert payload["covariance_defect"] <= 1e-12

    def test_text_and_csv_print_one_fidelity(self, capsys):
        # every clone has the same fidelity, so text and CSV carry it once at any M
        code, out, _ = run_cli(capsys, "simulate", "--M", "100001")
        assert code == 0
        assert len([line for line in out.splitlines() if "fidelity, each clone" in line]) == 1
        assert "clone 1:" not in out and len(out.splitlines()) == 7
        code, out, _ = run_cli(capsys, "simulate", "--M", "100001", "--format", "csv")
        header, row, *rest = out.splitlines()
        fields = header.split(",")
        assert code == 0 and rest == [] and len(row.split(",")) == len(fields)
        assert "fidelity" in fields and not any(f.startswith("fid_") for f in fields)

    def test_csv_fidelity_is_each_json_entry(self, capsys):
        args = ("simulate", "--M", "101", "--plane", "yz", "--phase", "1.3")
        _, out, _ = run_cli(capsys, *args, "--format", "csv")
        row = next(csv.DictReader(io.StringIO(out)))
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(out)
        assert set(row) == (set(payload) - {"per_clone_fidelity"}) | {"fidelity"}
        fids = payload["per_clone_fidelity"]
        assert len(fids) == 101 and all(f == float(row["fidelity"]) for f in fids)

    @pytest.mark.parametrize("M", [3, 10001])
    def test_formats_agree(self, capsys, M):
        args = ("simulate", "--M", str(M), "--plane", "xy", "--phase", "0.7", "--seed", "3")
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(out)
        fid = payload["per_clone_fidelity"][0]
        assert payload["per_clone_fidelity"] == [fid] * M
        _, out, _ = run_cli(capsys, *args, "--format", "csv")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["fidelity"]) == fid
        for key in ("success_prob", "success_log10", "covariance_defect"):
            assert float(row[key]) == payload[key], key
        _, out, _ = run_cli(capsys, *args)
        lines = out.splitlines()
        assert f"  fidelity, each clone: {fid:.12f}" in lines
        final = f"  success probability, final stage: {payload['success_prob']:.12f} (log10 "
        assert any(line.startswith(final) for line in lines)
        assert lines[-3].endswith(f"(log10 {payload['success_log10']:.12f})")
        assert lines[-1] == f"  covariance defect:   {payload['covariance_defect']:.3e}"


class TestVerify:
    @pytest.mark.parametrize("suite", ["angular", "symmetry", "opa"])
    def test_single_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out

    def test_json_carries_the_text_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "angular", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert list(payload["elapsed_s"]) == ["angular"] and payload["elapsed_s"]["angular"] > 0
        _, text, _ = run_cli(capsys, "verify", "--suite", "angular")
        rows = [f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}: defect {c['defect']:.3e} "
                f"(threshold {c['threshold']:.1e})" for c in payload["checks"]]
        assert text.splitlines() == rows + ["all checks passed"]

    def test_json_times_every_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert list(payload["elapsed_s"]) == ["angular", "symmetry", "cloner", "opa"]
        suites = {c["name"].split(":")[0] for c in payload["checks"]}
        assert suites == set(payload["elapsed_s"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failure_exits_1_in_both_formats(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(verify, "_racah", lambda *labels: (0, 0, 1))
        code, out, _ = run_cli(capsys, "verify", "--suite", "angular", "--format", fmt)
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert payload["passed"] is False
            assert [c["pass"] for c in payload["checks"]][:2] == [False, False]
        else:
            assert out.splitlines()[-1] == "FAILURES present"


def _summing_symmetrize(state, subset):
    """symmetrize with each Hamming-weight class of the subset summed, not averaged."""
    n, k = state.num_qubits, len(subset)
    index = np.arange(2 ** n)
    weight = sum((index >> (n - 1 - q)) & 1 for q in subset)
    counts = np.array([math.comb(k, w) for w in range(k + 1)])
    return Ket(n, REAL_SYMMETRIZE(state, subset).amplitudes * counts[weight])


def _wrong_rotated_phase(basis, cutoff, amps):
    """_apply_hamiltonian with the {phi, phi_perp} form written at phi + 0.1."""
    return REAL_HAMILTONIAN(basis if basis == "HV" else float(basis) + 0.1, cutoff, amps)


def _transposed_powers(u, N):
    """symmetric_powers with u's off-diagonal entries swapped."""
    return REAL_POWERS(np.asarray(u).T, N)


def _swapped_columns_powers(u, N):
    """symmetric_powers with u's two columns swapped."""
    return REAL_POWERS(np.asarray(u)[:, ::-1], N)


def _shifted_scheme_b(input_phase, plane, P):
    """pqcm_scheme_b run on the input at input_phase + 0.3."""
    return REAL_SCHEME_B(input_phase + 0.3, plane, P)


@pytest.mark.parametrize("suite,module,name,wrong,check", [
    ("symmetry", sym, "symmetrize", _summing_symmetrize, "matrix-free projection == permutation mean"),
    ("symmetry", sym, "symmetrize", _summing_symmetrize, "concatenation defect"),
    ("opa", opa, "_apply_hamiltonian", _wrong_rotated_phase, "rotated Hamiltonian form invariance"),
    ("symmetry", sym, "symmetric_powers", _transposed_powers, "symmetric power == per-qubit product"),
    ("cloner", verify, "pqcm_scheme_b", _shifted_scheme_b, "scheme equivalence"),
    ("cloner", verify, "pqcm_scheme_b", _shifted_scheme_b, "Dicke engine == dense oracle"),
    ("cloner", verify, "pqcm_scheme_b", _shifted_scheme_b, "reduced state diagonal in-plane"),
    ("cloner", sym, "symmetric_powers", _swapped_columns_powers, "Dicke engine == dense oracle"),
], ids=["permutation mean", "concatenation", "form invariance", "symmetric power",
        "scheme equivalence", "engine == oracle", "in-plane diagonal", "plane map"])
def test_replacement_check_fails_on_a_wrong_operator(monkeypatch, suite, module, name, wrong, check):
    monkeypatch.setattr(module, name, wrong)
    rows = [(defect, threshold) for label, defect, threshold in verify.SUITES[suite]()
            if label.startswith(check)]
    assert rows and all(defect > threshold for defect, threshold in rows)


class TestOpa:
    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "opa", "--phase", "0.3", "--gain", "0.1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["amp_ratio_magnitude"] - 3 ** 0.5) < 1e-10
        assert abs(payload["reduced_fidelity"] - 5 / 6) < 1e-9
        assert payload["series_norm_deficit"] < 1e-6

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "opa")
        assert code == 0
        assert "|ratio| = 1.7320508076" in out

    def test_no_negative_zero(self, capsys):
        _, text, _ = run_cli(capsys, "opa", "--phase", "0")
        assert "-0.000000" not in text
        _, out, _ = run_cli(capsys, "opa", "--phase", "0", "--format", "json")
        amp_30 = json.loads(out)["first_order_amp_30"]
        assert math.copysign(1, amp_30[1]) == 1

    def test_bad_order(self, capsys):
        code, _, _ = run_cli(capsys, "opa", "--order", "0")
        assert code == 2

    def test_cutoff_overflow_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "opa", "--gain", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cutoff" in err

    @pytest.mark.parametrize("argv", [["--gain", "5"], ["--gain", "0.6", "--cutoff", "40", "--order", "2"],
                                      ["--gain", "1e80"]])
    def test_large_gain_refusal_is_one_error_line(self, argv):
        # a fresh interpreter, so that a warning reaches the real stderr
        env = dict(os.environ, PYTHONPATH=str(Path(pcclone.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "pcclone.cli", "opa", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_accepted_large_gain_prints_no_warning(self):
        # a fresh interpreter, so that a warning would reach the real stderr;
        # the norm-deficit tolerance, not |gain|, decides whether a series is used
        env = dict(os.environ, PYTHONPATH=str(Path(pcclone.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "pcclone.cli", "opa", "--gain", "0.6",
                               "--cutoff", "80", "--order", "40"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "series norm deficit" in proc.stdout

    def test_unconverged_series_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "opa", "--gain", "0.45", "--cutoff", "40", "--order", "2", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--order" in err

    def test_cutoff_over_dense_budget_is_config_error(self, capsys):
        # 100001^2 amplitudes need 149 GiB: refused before numpy allocates them
        code, out, err = run_cli(capsys, "opa", "--cutoff", "100000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"needs {16 * 100001 ** 2} bytes" in err

    def test_large_cutoff(self, capsys):
        code, out, _ = run_cli(capsys, "opa", "--cutoff", "200", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["reduced_fidelity"] - 5 / 6) < 1e-9
        # the first-order output is the 3-photon sector alone: the cutoff cannot move it
        _, out, _ = run_cli(capsys, "opa", "--format", "json")
        first = ("first_order_amp_30", "first_order_amp_12", "amp_ratio_magnitude", "reduced_fidelity")
        assert {k: payload[k] for k in first} == {k: json.loads(out)[k] for k in first}

    @pytest.mark.parametrize("option", ["--phase", "--gain"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_rejected(self, capsys, option, value):
        code, out, err = run_cli(capsys, "opa", f"{option}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and option in err


def test_closed_stdout_exits_1_quietly():
    # the reader of a pipe has left, as `pcclone ... | head -1` leaves
    env = dict(os.environ, PYTHONPATH=str(Path(pcclone.__file__).resolve().parents[1]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "pcclone.cli", "simulate", "--M", "3"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_negative_number_with_an_exponent_is_a_value(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--M", "3", "--phase", "-1e-3")
    assert code == 0 and "phase -0.001000" in out
    code, _, _ = run_cli(capsys, "opa", "--gain", "-1e-2")
    assert code == 0


def test_negative_infinity_is_refused_as_not_finite(capsys):
    code, out, err = run_cli(capsys, "simulate", "--M", "3", "--phase", "-inf")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "expected a finite number" in err


@pytest.mark.parametrize("argv", [
    ["opa", "--order", "x"],
    ["simulate", "--M", "3", "--scheme", "c"],
    ["simulate", "--M", "3", "--seed", "x"],
    ["simulate", "--M", "3", "--seed", "-1"],
    ["opa", "--bogus"],
    ["no-such-command"],
    [],
    ["simulate"],
    ["simulate", "--M", "16777217"],  # over the dense byte budget: 2^24 + 2 coefficients
    ["simulate", "--M", "1999999999999999999999"],
])
def test_argument_error_is_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cached_parser_matches_fresh_parser(capsys):
    sequence = [
        ["simulate", "--M", "3", "--scheme", "c"],
        ["simulate", "--M", "3"],
        ["simulate", "--M", "3", "--scheme", "b", "--plane", "xy"],
        ["opa"],
    ]
    build_parser.cache_clear()
    cached = [run_cli(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
