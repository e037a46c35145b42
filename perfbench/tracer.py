"""Per-layer tracing of pcclone from outside the package.

Each listed public function is replaced, in every pcclone module that holds
a reference to it, by a wrapper that counts calls and accumulates self time:
the call's duration minus the part spent in other traced calls it made.
Counts derived from array sizes are taken at the same boundaries. The
program's source is not changed.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = {
    "statekit": ("tensor", "tensor_all", "permute_qubits", "apply", "partial_trace",
                 "fidelity", "outer", "trace_distance", "phase_rotate"),
    "symmetry": ("dicke_state", "symmetric_projector", "project_and_postselect"),
    "angular": ("gamma", "gamma_closed_form", "cg", "cg_ladder", "fidelity_formula"),
    "cloner": ("uqcm", "pqcm_scheme_a", "pqcm_scheme_b", "covariance_defect"),
    "opa": ("evolve", "first_order_output", "photon_reduced_density", "build_hamiltonian",
            "hamiltonian_in_rotated_modes"),
    "verify": ("run_suite",),
    "cli": ("main",),
}

FUNCTIONS = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]

# Counts computed from array sizes, with their units.
COUNTS = {
    "statekit.Ket.count": "count",
    "statekit.Ket.bytes": "bytes",
    "symmetry.projector_bytes": "bytes",
    "cloner.pipeline_runs": "count",
    "opa.dicke_dim": "amplitudes",
}

COMPLEX_BYTES = 16


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTS)
    return units


def _sector(state):
    """Photon number of a single-sector FockVec: the largest m + n it holds."""
    side = state.cutoff + 1
    m, n = state.amplitudes.reshape(side, side).nonzero()
    return int((m + n).max())


class Tracer:
    """Call counts, self times and size-derived counts for one process."""

    def __init__(self):
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._child_s = []

    def _on_return(self, name, args, result):
        if name == "symmetry.symmetric_projector":
            self.counts["symmetry.projector_bytes"] += COMPLEX_BYTES * 4 ** args[0]
        elif name in ("cloner.pqcm_scheme_a", "cloner.pqcm_scheme_b"):
            self.counts["cloner.pipeline_runs"] += 1
        elif name == "opa.photon_reduced_density":
            self.counts["opa.dicke_dim"] += 2 ** _sector(args[0])

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            self._on_return(name, args, result)
            return result
        return traced

    def install(self):
        """Wrap the listed functions; pcclone must already be imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pcclone" or key.startswith("pcclone.")]
        for name in FUNCTIONS:
            layer, fname = name.split(".")
            original = getattr(sys.modules[f"pcclone.{layer}"], fname)
            traced = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

        ket = sys.modules["pcclone.statekit"].Ket
        post_init = ket.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            post_init(obj)
            counts["statekit.Ket.count"] += 1
            counts["statekit.Ket.bytes"] += COMPLEX_BYTES * 2 ** obj.num_qubits

        ket.__post_init__ = counted_post_init

    def per_round(self, rounds):
        """Every per-layer metric, averaged over the run's identical rounds."""
        values = {}
        for name in FUNCTIONS:
            values[f"{name}.self_s"] = self.self_s[name] / rounds
            values[f"{name}.calls"] = self.calls[name] / rounds
        for name, total in self.counts.items():
            values[name] = total / rounds
        return values
