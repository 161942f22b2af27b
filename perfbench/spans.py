"""Span recording at pdmag's module boundaries, from the benchmark's side.

``Tracer.install`` replaces public functions by timing wrappers as the
calling module sees them (``pdmag.oracle.eigh_tridiagonal`` is the name
the oracle calls, ``pdmag.sweeps.energy`` the one the sweeps call), and
``Tracer.restore`` puts every original back. Spans are kept in memory as
parallel columns (name, start, end, parent, items) and written out once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from time import perf_counter
from types import SimpleNamespace

import numpy as np


def _kind(value) -> str:
    return getattr(value, "value", str(value))


# (module, attribute, label(args, kwargs) -> (span name, items))
def _hooks():
    def kind_of(i, prefix):
        return lambda a, k: (f"{prefix}.{_kind(a[i])}", 0)

    def fixed(name):
        return lambda a, k: (name, 0)

    def eigh(a, k):
        return (f"oracle.eigh.n{len(a[0])}", 0)

    def sweep(a, k):
        spec = a[0]
        return (f"sweeps.sweep.{_kind(spec.kind)}", len(spec.states) * spec.steps)

    def cli_run(a, k):
        argv = a[0] if a else k.get("argv")
        return (f"cli.run.{argv[0] if argv else '-'}", 0)

    return (
        ("pdmag.oracle", "verify_states", fixed("oracle.verify_states")),
        ("pdmag.oracle", "oracle_energy", kind_of(0, "oracle.level")),
        ("pdmag.oracle", "eigh_tridiagonal", eigh),
        ("pdmag.oracle", "closed_form_energy", kind_of(0, "models.energy")),
        ("pdmag.oracle", "closed_form_wavefunction", kind_of(0, "models.wavefunction")),
        ("pdmag.oracle", "residual", fixed("oracle.residual")),
        ("pdmag.oracle", "node_count", fixed("oracle.node_count")),
        ("pdmag.sweeps", "energy", kind_of(0, "models.energy")),
        ("pdmag.sweeps", "sweep", sweep),
        ("pdmag.sweeps", "find_crossings", fixed("sweeps.find_crossings")),
        ("pdmag.models", "wavefunction", kind_of(0, "models.wavefunction")),
        ("pdmag.models", "normalize", fixed("specfun.normalize")),
        ("pdmag.models", "laguerre", fixed("specfun.laguerre")),
        ("pdmag.models", "jacobi", fixed("specfun.jacobi")),
        ("pdmag.cli", "run", cli_run),
        ("pdmag.cli", "energy", kind_of(0, "models.energy")),
        ("pdmag.cli", "wavefunction", kind_of(0, "models.wavefunction")),
        ("pdmag.cli", "verify_states", fixed("oracle.verify_states")),
        ("pdmag.cli", "sweep", sweep),
        ("pdmag.cli", "find_crossings", fixed("sweeps.find_crossings")),
        ("pdmag.cli", "field_table", fixed("fields.field_table")),
    )


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._paused = False

    def _open(self, name: str, items: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.items.append(items)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, items: int = 0):
        """A span opened by the benchmark itself."""
        idx = self._open(name, items)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, label):
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            name, items = label(args, kwargs)
            idx = self._open(name, items)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self) -> None:
        for module_name, attr, label in _hooks():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label))
        # sweeps calls dataclasses.replace through its module reference.
        sweeps = importlib.import_module("pdmag.sweeps")
        original = sweeps.dataclasses
        self._saved.append((sweeps, "dataclasses", original))
        sweeps.dataclasses = SimpleNamespace(
            replace=self._wrap(original.replace, lambda a, k: ("params.replace", 0))
        )

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            items=np.frombuffer(self.items, dtype=np.int64),
        )


class SpanTable:
    """Read-side view of a Tracer's spans as numpy columns."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.nid = np.array(tracer.name_id, dtype=np.int64)
        self.start = np.array(tracer.start)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.items = np.array(tracer.items)
        self.dur = np.array(tracer.end) - self.start

    def ids(self, prefix: str):
        """Indices of the spans whose name starts with prefix."""
        wanted = [i for i, name in enumerate(self.names) if name.startswith(prefix)]
        return np.nonzero(np.isin(self.nid, wanted))[0]

    def per_parent(self, child_ids, values=None):
        """For every span, the count (or sum of values) of its direct children
        among child_ids."""
        weights = None if values is None else values[child_ids]
        parents = self.parent[child_ids]
        keep = parents >= 0
        return np.bincount(
            parents[keep], weights=None if weights is None else weights[keep],
            minlength=len(self.dur),
        )

    def median_ms(self, ids):
        return 1e3 * float(np.median(self.dur[ids])) if len(ids) else None
