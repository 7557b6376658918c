"""Outside-in span tracing of the vharvest layers.

The tracer replaces the public entry points of ``specfun``, ``harvesting``,
``survey``, ``oracle``, ``atoms`` and ``angular`` (every function in each
module's ``__all__``, plus the private ``specfun`` functions the per-layer
metrics name) with wrappers that record one span per call: layer name,
start, end, parent span, point id, a work count and whether the call raised.
The package itself is not edited; every module-level binding of a wrapped
function is swapped, so calls through ``from x import f`` names are seen too.

Spans are kept in flat arrays (about 40 bytes each) until the run ends.
``Tracer.uninstall`` puts the original functions back.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

LAYER_MODULES = ("specfun", "harvesting", "survey", "oracle", "atoms", "angular")

# private specfun functions that carry the per-layer metrics, with the names
# the metrics use; public functions keep "<module>.<function>"
_ALIASES = {
    "specfun.scaled_time_kernel": "specfun.time_kernel",
    "specfun.spherical_bessel_j": "specfun.bessel",
    "specfun._gk15_panels": "specfun.gk15",
    "specfun._adaptive_gk": "specfun.adaptive_gk",
    "specfun._wynn_epsilon": "specfun.wynn",
}
_PRIVATE = ("_gk15_panels", "_adaptive_gk", "_wynn_epsilon")


def _nodes_of_arg(index: int):
    def count(args, kwargs, result, tracer):
        return int(np.size(args[index])) if len(args) > index else 0
    return count


def _gk15_nodes(args, kwargs, result, tracer):
    return int(result[3])


def _quadrature_evals(args, kwargs, result, tracer):
    return int(result.evaluations)


def _grid_rows(args, kwargs, result, tracer):
    rows = result.rows
    tracer.counters["survey.run_grid.nonconverged"] += sum(not r.converged for r in rows)
    tracer.counters["survey.run_grid.harvestable"] += sum(bool(r.harvestable) for r in rows)
    return len(rows)


def _oracle_evaluations(args, kwargs, result, tracer):
    return sum(r.evaluations for r in result)


# work counted per span: array nodes, quadrature evaluations or grid rows
_WORK = {
    "specfun.time_kernel": _nodes_of_arg(0),
    "specfun.bessel": _nodes_of_arg(1),
    "specfun.gk15": _gk15_nodes,
    "specfun.integrate_damped": _quadrature_evals,
    "survey.run_grid": _grid_rows,
    "oracle.run_all": _oracle_evaluations,
}


class Tracer:
    """Records spans around the layer entry points of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.point = array("q")
        self.work = array("q")
        self.raised = array("b")
        self.counters = {"survey.run_grid.nonconverged": 0,
                         "survey.run_grid.harvestable": 0}
        self.point_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.layer.append(name_id)
        self.parent.append(self._stack[-1])
        self.point.append(self.point_id)
        self.work.append(0)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter() - self.t0)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter() - self.t0
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count = _WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[i] = 1
                tracer._close(i)
                raise
            tracer._close(i)
            if count is not None:
                tracer.work[i] = count(args, kwargs, result, tracer)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Swap every module-level binding of each traced function."""
        targets = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"vharvest.{short}")
            names = list(mod.__all__) + (list(_PRIVATE) if short == "specfun" else [])
            for n in names:
                # a function a later version renames or removes is not traced;
                # its metrics then read 0
                fn = getattr(mod, n, None)
                if not _is_function(fn):
                    continue
                key = f"{short}.{n}"
                targets[id(fn)] = (fn, self.wrap(_ALIASES.get(key, key), fn))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "vharvest" or modname.startswith("vharvest.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def columns(self) -> dict:
        """Copies of the span arrays as numpy columns."""
        cols = {"layer": (self.layer, np.uint16), "start": (self.start, float),
                "end": (self.end, float), "parent": (self.parent, np.int64),
                "point": (self.point, np.int64), "work": (self.work, np.int64),
                "raised": (self.raised, np.int8)}
        return {k: np.frombuffer(a, dtype=t).copy() for k, (a, t) in cols.items()}

    def layer_table(self, sections: dict) -> dict:
        """Per-span-name calls, work, raised, self time and the names of the
        spans that caused them, for each section.

        Self time is the span's duration minus the durations of its direct
        children (children of one span never overlap: the run is single
        threaded).  ``sections`` maps the name of each root span the
        benchmark opens to a section label; every span counts in the section
        of its root.
        """
        c = self.columns()
        n = c["start"].size
        dur = c["end"] - c["start"]
        parent = c["parent"]
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        # parents precede children, so pointer jumping converges in
        # log2(depth) passes
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        root_label = {i: sections[self.names[c["layer"][i]]]
                      for i in np.flatnonzero(~has_parent).tolist()}
        labels = sorted(set(root_label.values()))
        label_of_root = np.full(n, -1)
        for i, label in root_label.items():
            label_of_root[i] = labels.index(label)
        section = label_of_root[root] if n else label_of_root
        parent_name = np.where(has_parent,
                               c["layer"][np.maximum(parent, 0)].astype(np.int64), -1)
        table: dict[str, dict[str, dict]] = {}
        for k, label in enumerate(labels):
            mask = section == k
            rows = {}
            for name_id, name in enumerate(self.names):
                sel = mask & (c["layer"] == name_id)
                calls = int(sel.sum())
                if calls == 0:
                    continue
                pids, counts = np.unique(parent_name[sel], return_counts=True)
                rows[name] = {"calls": calls, "work": int(c["work"][sel].sum()),
                              "raised": int(c["raised"][sel].sum()),
                              "self_s": float(self_t[sel].sum()),
                              "total_s": float(dur[sel].sum()),
                              "parents": {self.names[p] if p >= 0 else "(root)": int(n)
                                          for p, n in zip(pids.tolist(), counts.tolist())}}
            table[label] = rows
        return table

    def write_spans(self, path) -> int:
        """Write one tab-separated line per span (gzip) and return the count."""
        c = self.columns()
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tpoint\twork\traised\n")
            for i in range(c["start"].size):
                fh.write(f"{i}\t{names[c['layer'][i]]}\t{c['start'][i]:.9f}\t"
                         f"{c['end'][i]:.9f}\t{c['parent'][i]}\t{c['point'][i]}\t"
                         f"{c['work'][i]}\t{c['raised'][i]}\n")
        return int(c["start"].size)


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.i = self.tracer._open(self.name_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.tracer.raised[self.i] = 1
        self.tracer._close(self.i)
        return False


def _is_function(obj) -> bool:
    return callable(obj) and not isinstance(obj, type)
