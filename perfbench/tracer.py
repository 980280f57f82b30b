"""Span recording around calls into the nvsense modules.

Each public function is wrapped at the module attribute its callers
look up (``nvsense.fitting.nlls_fit``, ``nvsense.cli.synthesize``, ...),
so calls made from inside the package are seen as well as calls made by
the benchmark.  A span holds name, start, end, parent span and op id,
plus one optional number taken from the call (a fit cost, a byte count).
Spans live in flat arrays while the run goes and are written out once at
the end; self times and counters are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from array import array

import numpy as np


def _path_size(path_arg):
    return float(os.path.getsize(os.fspath(path_arg)))


def _nlls_value(args, kwargs, result):
    return result.ss_res


def _nlls_flag(args, kwargs, result):
    return 0 if result.converged else 1


def _deer_rabi_n(args, kwargs, result):
    return int(kwargs.get("n_spins", args[1] if len(args) > 1 else 0))


def _draws(args, kwargs, result):
    det = kwargs.get("det", args[2] if len(args) > 2 else None)
    if det is not None and det.noiseless:
        return 0.0
    return float(result.x.size * len(result.channels))


def _written(args, kwargs, result):
    return _path_size(kwargs.get("path", args[0]))


# (module, attribute, span name, value(args, kwargs, result), flag(...)).
# A function imported by name into another module is wrapped in both, so
# its calls are seen whichever reference a caller uses.
WRAP_POINTS = (
    ("fitting", "nlls_fit", "fitting.nlls_fit", _nlls_value, _nlls_flag),
    ("fitting", "nv_epr_signal", "deer.nv_epr_signal", None, None),
    ("fitting", "fit_deer_rabi", "fitting.fit_deer_rabi", None, _deer_rabi_n),
    ("fitting", "select_spin_count", "fitting.select_spin_count", None, None),
    ("fitting", "fit_rabi", "fitting.fit_rabi", None, None),
    ("fitting", "fit_gaussian_peak", "fitting.fit_gaussian_peak", None, None),
    ("synth", "synthesize", "synth.synthesize", _draws, None),
    ("cli", "synthesize", "synth.synthesize", _draws, None),
    ("synth", "coherence_trace", "synth.coherence_trace", None, None),
    ("synth", "normalize_channels", "synth.normalize_channels", None, None),
    ("synth", "snr_estimate", "synth.snr_estimate", None, None),
    ("cli", "write_trace", "io.write_trace", _written, None),
    ("io", "write_trace", "io.write_trace", _written, None),
    ("io", "read_trace", "io.read_trace",
     lambda a, k, r: _path_size(k.get("path", a[0])), None),
    ("cli", "main", "cli.main", None, None),
    ("hamiltonian", "invert_field", "hamiltonian.invert_field", None, None),
    ("hamiltonian", "transition_frequencies",
     "hamiltonian.transition_frequencies", None, None),
    ("hamiltonian", "g_value", "hamiltonian.g_value", None, None),
    ("eseem", "eseem_modulation", "eseem.eseem_modulation", None, None),
    ("eseem", "density_matrix_eseem_oracle",
     "eseem.density_matrix_eseem_oracle", None, None),
)

# spans whose cost is compared with their siblings' in start_win_ratio
_FIT_SPAN = "fitting.nlls_fit"
# two LM runs reach the same optimum when their costs agree this closely
_WIN_RTOL = 1e-9


class Tracer:
    """Collects spans for the calls made between install() and remove()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.value = array("d")
        self.flag = array("q")
        self._stack: list[int] = []
        self._patches: list = []
        self.op_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, package) -> None:
        """Wrap every WRAP_POINTS attribute of the imported package."""
        for mod_name, attr, span, value_fn, flag_fn in WRAP_POINTS:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            setattr(module, attr,
                    self._wrap(original, self._name_id(span), value_fn,
                               flag_fn))
            self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, func, name_id, value_fn, flag_fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.start.append(clock())
            tracer.end.append(math.nan)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.name.append(name_id)
            tracer.value.append(math.nan)
            tracer.flag.append(0)
            tracer._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if value_fn is not None:
                tracer.value[idx] = value_fn(args, kwargs, result)
            if flag_fn is not None:
                tracer.flag[idx] = flag_fn(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "value": np.frombuffer(self.value, dtype=float),
            "flag": np.frombuffer(self.flag, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span and the name table to one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the part covered by its direct child spans."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer numbers of a traced run, keyed by metric name."""
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    own = self_times(spans)

    def sel(name):
        nid = tracer._ids.get(name)
        return spans["name"] == nid if nid is not None else np.zeros(
            dur.shape, dtype=bool)

    fits = sel(_FIT_SPAN)
    deer_rabi = sel("fitting.fit_deer_rabi")
    out = {
        "fitting.nlls_fit.calls": float(np.count_nonzero(fits)),
        "fitting.nlls_fit.self_s": float(own[fits].sum()),
        "fitting.nlls_fit.unconverged": float(spans["flag"][fits].sum()),
        "fitting.start_win_ratio": _start_win_ratio(spans, fits),
        "deer.nv_epr_signal.calls":
            float(np.count_nonzero(sel("deer.nv_epr_signal"))),
        "synth.synthesize.self_s": float(own[sel("synth.synthesize")].sum()),
        "synth.draws": float(
            np.nansum(spans["value"][sel("synth.synthesize")])),
        "synth.normalize.self_s": float(
            own[sel("synth.coherence_trace")
                | sel("synth.normalize_channels")].sum()),
        "io.write_trace.s": float(dur[sel("io.write_trace")].sum()),
        "io.read_trace.s": float(dur[sel("io.read_trace")].sum()),
        "io.bytes_written": float(
            np.nansum(spans["value"][sel("io.write_trace")])),
        "io.bytes_read": float(
            np.nansum(spans["value"][sel("io.read_trace")])),
        "cli.main.self_s": float(own[sel("cli.main")].sum()),
        "hamiltonian.invert_field.s":
            float(dur[sel("hamiltonian.invert_field")].sum()),
        "hamiltonian.transition_frequencies.calls": float(
            np.count_nonzero(sel("hamiltonian.transition_frequencies"))),
        "eseem.eseem_modulation.s":
            float(dur[sel("eseem.eseem_modulation")].sum()),
        "eseem.density_matrix_eseem_oracle.s":
            float(dur[sel("eseem.density_matrix_eseem_oracle")].sum()),
    }
    for n in (1, 2):
        out[f"fitting.fit_deer_rabi.n{n}_s"] = float(
            dur[deer_rabi & (spans["flag"] == n)].sum())
    return out


def _start_win_ratio(spans: dict, fits: np.ndarray) -> float:
    """Share of LM runs that reach the best cost among their sibling runs.

    Siblings are the LM runs under one parent span, i.e. the starts of
    one multi-start fit.  0 when no LM run was made.
    """
    idx = np.nonzero(fits)[0]
    if idx.size == 0:
        return 0.0
    parents = spans["parent"][idx]
    costs = spans["value"][idx]
    wins = 0
    for p in np.unique(parents):
        group = costs[parents == p]
        best = float(np.min(group))
        wins += int(np.count_nonzero(
            group <= best + _WIN_RTOL * max(abs(best), 1e-300)))
    return wins / idx.size


def op_counters(tracer: Tracer) -> dict:
    """Work counts per op id: calls of each span name, plus summed values.

    These count work, not time, so two runs of one program on one seed
    must give identical tables (see compare_counters.py).
    """
    spans = tracer.arrays()
    table: dict = {}
    for op, nid, value, flag in zip(
            spans["op"].tolist(), spans["name"].tolist(),
            spans["value"].tolist(), spans["flag"].tolist()):
        row = table.setdefault(str(op), {})
        name = tracer.names[nid]
        row[name + ".calls"] = row.get(name + ".calls", 0) + 1
        if name in ("synth.synthesize", "io.write_trace", "io.read_trace"):
            row[name + ".value"] = row.get(name + ".value", 0) + int(value)
        elif name == _FIT_SPAN:
            row[name + ".unconverged"] = row.get(name + ".unconverged",
                                                 0) + flag
    return table


def write_counters(path: str, meta: dict, table: dict) -> None:
    with open(path, "w") as handle:
        json.dump({"meta": meta, "ops": table}, handle, indent=1,
                  sort_keys=True)
