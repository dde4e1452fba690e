"""Spans around the public functions of parfluor's layers.

The tracer replaces each listed function by a wrapper on its module, so
calls from other modules and from inside the same module both pass through
it.  Module-level tables that hold the function (such as a dispatch dict)
are pointed at the wrapper too.  A span records name, start, end, the index
of the enclosing span and one measured quantity (evaluated points, bytes,
probes); self times and counts are derived from the spans afterwards.  A
listed function the program no longer has is skipped and reported.
"""

from __future__ import annotations

import time

import numpy as np


def _size_of_result(args, kwargs, result):
    return int(np.size(result))


def _fft_bytes(args, kwargs, result):
    return int(np.asarray(args[0]).nbytes + np.asarray(result).nbytes)


def _probes(args, kwargs, result):
    return int(getattr(result, "n_probes", 0))


def _realizations(args, kwargs, result):
    ensemble = kwargs.get("ensemble", args[3] if len(args) > 3 else None)
    return int(getattr(ensemble, "n_realizations", 0))


def _written_bytes(args, kwargs, result):
    return len(args[1])


# (module, function, measure) for every wrapped function
TARGETS = [
    ("dispersion", "kz_signal_grid", _size_of_result),
    ("dispersion", "kz_pump_grid", _size_of_result),
    ("dispersion", "d_kz_d_omega", None),
    ("dispersion", "d_kz_d_ktrans", None),
    ("phasematch", "perfect_curve", None),
    ("phasematch", "linearize", None),
    ("perturbative", "flux_quadrature_exact", None),
    ("perturbative", "flux_quadrature_gaussianized", None),
    ("wigner", "to_position", _fft_bytes),
    ("wigner", "to_spectral", _fft_bytes),
    ("wigner", "sample_vacuum", None),
    ("wigner", "azimuthal_average", None),
    ("wigner", "calibrate_gain", _probes),
    ("wigner", "run_simulation", _realizations),
    ("cli", "main", None),
    ("cli", "load_config", None),
    ("cli", "build_crystal", None),
    ("cli", "build_pump", None),
    ("cli", "build_grid", None),
    ("cli", "build_ensemble", None),
    ("cli", "write_manifest", None),
    ("cli", "atomic_write_text", _written_bytes),
    ("cli", "atomic_write_bytes", _written_bytes),
]

_KZ = ["dispersion.kz_signal_grid", "dispersion.kz_pump_grid"]
_DERIV = ["dispersion.d_kz_d_omega", "dispersion.d_kz_d_ktrans"]

# per-layer metric -> (unit, kind, span names); kind is 'count' (number of
# spans), 'measure' (sum of the spans' measured quantity), 'self' (sum of
# self times) or 'total' (sum of inclusive times)
LAYER_METRICS = {
    "dispersion.kz_calls": ("count", "count", _KZ),
    "dispersion.kz_evals": ("count", "measure", _KZ),
    "dispersion.kz_s": ("s", "self", _KZ),
    "dispersion.deriv_calls": ("count", "count", _DERIV),
    "dispersion.deriv_s": ("s", "self", _DERIV),
    "phasematch.root_solves": ("count", "count", ["phasematch.perfect_curve"]),
    "phasematch.root_s": ("s", "self", ["phasematch.perfect_curve"]),
    "phasematch.linearize_s": ("s", "self", ["phasematch.linearize"]),
    "perturbative.quad_points": ("count", "count", ["perturbative.flux_quadrature_exact",
                                                    "perturbative.flux_quadrature_gaussianized"]),
    "perturbative.quad_s": ("s", "self", ["perturbative.flux_quadrature_exact",
                                          "perturbative.flux_quadrature_gaussianized"]),
    "wigner.fft_calls": ("count", "count", ["wigner.to_position", "wigner.to_spectral"]),
    "wigner.fft_s": ("s", "self", ["wigner.to_position", "wigner.to_spectral"]),
    "wigner.fft_bytes": ("B", "measure", ["wigner.to_position", "wigner.to_spectral"]),
    "wigner.vacuum_s": ("s", "self", ["wigner.sample_vacuum"]),
    "wigner.bin_s": ("s", "self", ["wigner.azimuthal_average"]),
    "wigner.step_other_s": ("s", "self", ["wigner.run_simulation", "wigner.calibrate_gain"]),
    "wigner.realizations": ("count", "measure", ["wigner.run_simulation"]),
    "wigner.calib_probes": ("count", "measure", ["wigner.calibrate_gain"]),
    "wigner.calib_s": ("s", "total", ["wigner.calibrate_gain"]),
    "cli.config_s": ("s", "self", ["cli.load_config", "cli.build_crystal", "cli.build_pump",
                                   "cli.build_grid", "cli.build_ensemble"]),
    "cli.write_s": ("s", "self", ["cli.write_manifest", "cli.atomic_write_text",
                                  "cli.atomic_write_bytes"]),
    "cli.write_bytes": ("B", "measure", ["cli.atomic_write_text", "cli.atomic_write_bytes"]),
}


class Tracer:
    """Installs span-recording wrappers; spans are [name, start, end, parent, measure]."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []  # (container, key, original)

    def _wrapper(self, label, fn, measure):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if measure is not None:
                spans[idx][4] = measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        self.missing = []
        for mod_name, fn_name, measure in TARGETS:
            module = getattr(self.package, mod_name, None)
            fn = getattr(module, fn_name, None) if module is not None else None
            if not callable(fn):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self._wrapper(f"{mod_name}.{fn_name}", fn, measure)
            self._patch(vars(module), fn_name, wrapped)
            for table in list(vars(module).values()):
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if value is fn:
                            self._patch(table, key, wrapped)

    def _patch(self, container, key, value):
        self._patches.append((container, key, container[key]))
        container[key] = value

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def self_times(spans):
    """Self time of each span: its duration minus that of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans):
    """Per-layer metrics of LAYER_METRICS from one list of spans."""
    own = self_times(spans)
    values = {}
    for metric, (_unit, kind, names) in LAYER_METRICS.items():
        picked = [i for i, s in enumerate(spans) if s[0] in names]
        if kind == "count":
            values[metric] = len(picked)
        elif kind == "measure":
            values[metric] = sum(spans[i][4] for i in picked)
        elif kind == "self":
            values[metric] = sum(own[i] for i in picked)
        else:
            values[metric] = sum(spans[i][2] - spans[i][1] for i in picked)
    return values
