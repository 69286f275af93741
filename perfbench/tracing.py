"""Per-layer trace of trtc solves, taken from outside the package.

The tracer rebinds the module attributes that the solver loop, the core
updates and the CLI look up at call time, so every call through them becomes
a span. Nothing in `src/trtc` is edited, and `restore` puts every original
back. A span's self time is its duration minus the durations of the spans
nested in it, so the self times of one solve sum to the solve's duration. Byte
figures are computed from result sizes (`nbytes`), not measured traffic.

A wrapped name that no longer exists is listed in `absent`, and its layer
metrics read 0.
"""

import importlib
import time

import numpy as np


def _out_bytes(result, args):
    return result.nbytes


def _read_bytes(result, args):
    return result[0].nbytes


def _write_bytes(result, args):
    return np.asarray(args[0]).nbytes


def _svt_rank(result, args):
    return result.effective_rank


# module, attribute, span name, what to add to the span's tally per call
WRAPPED = (
    ("trtc.solvers", "_merge", "ring.merge", _out_bytes),
    ("trtc.solvers", "_trace_contract", "ring.trace_contract", _out_bytes),
    ("trtc.solvers", "svt", "prox.svt", _svt_rank),
    ("trtc.solvers", "core_update_olrf", "prox.core_update", None),
    ("trtc.solvers", "core_update_llrf", "prox.core_update", None),
    ("trtc.solvers", "gamma_unfold", "tensors.gamma_unfold", None),
    ("trtc.solvers", "gamma_fold", "tensors.gamma_fold", None),
    ("trtc.solvers", "_validate", "solvers.validate", None),
    ("trtc.prox", "delta_unfold", "tensors.delta_unfold", _out_bytes),
    ("trtc.prox", "subchain_gram", "ring.subchain_gram", None),
    ("trtc.prox", "ridge_solve", "prox.ridge_solve", None),
    ("trtc.prox", "gamma_unfold", "tensors.gamma_unfold", None),
    ("trtc.prox", "gamma_fold", "tensors.gamma_fold", None),
    ("trtc.cli", "read_tensor", "io.read_tensor", _read_bytes),
    ("trtc.cli", "write_tensor", "io.write_tensor", _write_bytes),
    ("trtc.cli", "synth_instance", "cli.synth_instance", None),
)

# the CLI reaches the solvers through this dict, so its entries are wrapped too
SOLVER_TABLE = ("trtc.cli", "SOLVERS", "solvers.loop")


class Tally:
    __slots__ = ("calls", "self_s", "amount")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.amount = 0


class Tracer:
    """Collects per-span-name tallies while installed; use as a context manager."""

    def __init__(self):
        self.tallies = {}
        self.absent = []
        self._open = []  # time covered by the children of each open span
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        return self._span(name, fn, None, args, kwargs)

    def _span(self, name, fn, measure, args, kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            children = self._open.pop()
            if self._open:
                self._open[-1] += dur
            tally = self.tallies.get(name)
            if tally is None:
                tally = self.tallies[name] = Tally()
            tally.calls += 1
            tally.self_s += dur - children
        if measure is not None:
            tally.amount += measure(result, args)
        return result

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            return self._span(name, fn, measure, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, attr, name, measure in WRAPPED:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(name, orig, measure))
        mod_name, attr, name = SOLVER_TABLE
        table = getattr(importlib.import_module(mod_name), attr, None)
        if isinstance(table, dict):
            for key, fn in list(table.items()):
                self._saved.append((table, key, fn))
                table[key] = self._wrap(name, fn, None)
        else:
            self.absent.append(f"{mod_name}.{attr}")

    def restore(self):
        while self._saved:
            owner, key, orig = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def total_self_s(self):
        return sum(t.self_s for t in self.tallies.values())


# per-solver layer metrics: span name and the metric suffixes it reports
LAYER_METRICS = (
    ("ring.merge", ("calls", "self_s", "out_mb")),
    ("tensors.delta_unfold", ("calls", "self_s", "out_mb")),
    ("ring.trace_contract", ("calls", "self_s", "out_mb")),
    ("solvers.loop", ("self_s",)),
    ("prox.core_update", ("calls", "self_s")),
    ("prox.svt", ("calls", "self_s", "rank_mean")),
    ("prox.ridge_solve", ("calls", "self_s")),
    ("ring.subchain_gram", ("calls", "self_s")),
    ("tensors.gamma_unfold", ("calls", "self_s")),
    ("tensors.gamma_fold", ("calls", "self_s")),
    ("solvers.validate", ("calls", "self_s")),
    ("io.read_tensor", ("calls", "self_s", "mb")),
    ("io.write_tensor", ("calls", "self_s", "mb")),
    ("cli.complete", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s", "out_mb": "MB", "mb": "MB", "rank_mean": "count"}


def layer_values(tracer):
    """Layer metrics of one traced solve, keyed `<span>.<suffix>`."""
    values = {}
    for name, suffixes in LAYER_METRICS:
        tally = tracer.tallies.get(name, Tally())
        for suffix in suffixes:
            if suffix == "calls":
                v = tally.calls
            elif suffix == "self_s":
                v = tally.self_s
            elif suffix == "rank_mean":
                v = tally.amount / tally.calls if tally.calls else 0.0
            else:
                v = tally.amount / 1e6
            values[f"{name}.{suffix}"] = v
    return values
