"""Span tracer that times the library's layers from outside.

Wrappers replace public functions at every ``diracbound`` module attribute
that holds them, because callers resolve names through their own module's
globals (``table1.solve_eigenvalue`` and ``radial.solve_eigenvalue`` are the
same object looked up in two places). Method targets are replaced on each
class of the defining module that defines them.

Spans are kept in memory as (name, item, start, end) and written out once,
after the traced phase, together with each span's parent, the innermost
span enclosing it; self time and call counts are derived from them.
``uninstall`` puts every original object back, and untraced runs never
construct a tracer.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# (defining module, function): one span per call, named "module.function"
SPAN_FUNCTIONS = (
    ("radial", "solve_eigenvalue"),
    ("radial", "build_grid"),
    ("radial", "normalize"),
    ("radial", "count_nodes"),
    ("envelope", "minimize_bound"),
    ("comparison", "assert_ordering"),
    ("comparison", "predicted_bracket"),
    ("comparison", "identity_residual"),
    ("comparison", "derivative_identity_check"),
    ("table1", "compute_state_pair"),
)
# called hundreds of times per item; counted without a span to keep the
# traced phase's overhead and memory small
COUNT_FUNCTIONS = (
    ("coulomb", "coulomb_eigenvalue"),
    ("envelope", "bound_objective"),
)
# (defining module, method): wrapped on each class of the module defining it
SPAN_METHODS = (("potentials", "evaluate"),)

_WRAPPED = "__perfbench_wrapped__"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "diracbound" or name.startswith("diracbound."))
    ]


class Tracer:
    """Installs wrappers, records spans and counts, and restores originals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, item id, start, end), appended when a call returns
        self._spans: list[tuple[int, int, float, float]] = []
        self._counts: dict[str, list[int]] = {}
        self.grid_points: list[int] = []
        self.item_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrappers

    def _span(self, label, fn):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        nid = self._ids[label]
        append = self._spans.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                append((nid, self.item_id, t0, perf_counter()))

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _solve_span(self, label, fn):
        """Span that also records the returned solution's grid size."""
        inner = self._span(label, fn)
        points = self.grid_points

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = inner(*args, **kwargs)
            points.append(sol.grid.count)
            return sol

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _counter(self, label, fn):
        cell = self._counts.setdefault(label, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, lib) -> None:
        """Wrap every target at each module attribute that resolves to it."""
        modules = _package_modules()
        targets = [(m, f, self._span) for m, f in SPAN_FUNCTIONS]
        targets += [(m, f, self._counter) for m, f in COUNT_FUNCTIONS]
        for mod_name, fn_name, make in targets:
            original = getattr(getattr(lib, mod_name), fn_name)
            if (mod_name, fn_name) == ("radial", "solve_eigenvalue"):
                make = self._solve_span
            wrapper = make(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for mod_name, method in SPAN_METHODS:
            mod = getattr(lib, mod_name)
            for cls in vars(mod).values():
                if (
                    isinstance(cls, type)
                    and cls.__module__ == mod.__name__
                    and method in vars(cls)
                ):
                    label = f"{mod_name}.{method}"
                    self._patch(cls, method, self._span(label, vars(cls)[method]))

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_attributes(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # ------------------------------------------------------------- derivation

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans in start order, with the parent of each: the innermost
        span that encloses it, or -1."""
        spans = sorted(self._spans, key=lambda s: (s[2], -s[3]))
        parent = np.full(len(spans), -1, dtype=np.int64)
        stack: list[int] = []
        for i, (_, _, start, end) in enumerate(spans):
            while stack and spans[stack[-1]][3] <= start:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
        cols = list(zip(*spans)) if spans else [(), (), (), ()]
        return {
            "name": np.array(cols[0], dtype=np.uint16),
            "item": np.array(cols[1], dtype=np.int64),
            "parent": parent,
            "start": np.array(cols[2], dtype=np.float64),
            "end": np.array(cols[3], dtype=np.float64),
            "names": np.array(self.names),
        }

    def layer_metrics(self, a: dict[str, np.ndarray], item_scale: np.ndarray) -> dict[str, float]:
        """Per-item calls, busy and self time of each span name, plus ratios,
        from the span arrays returned by :meth:`arrays`. Span durations are
        multiplied by their item's speed-gauge scale (``item_scale[item]``)."""
        items = len(item_scale)
        dur = (a["end"] - a["start"]) * item_scale[a["item"]]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        out: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            mask = a["name"] == nid
            out[f"{label}.calls"] = float(np.count_nonzero(mask)) / items
            out[f"{label}.busy_s"] = float(dur[mask].sum()) / items
            out[f"{label}.self_s"] = float(self_time[mask].sum()) / items
        for mod_name, fn_name in COUNT_FUNCTIONS:
            label = f"{mod_name}.{fn_name}"
            out[f"{label}.calls"] = self._counts.get(label, [0])[0] / items
        # build_grid calls made inside a solve, per solve that made any
        solve = a["name"] == self._ids["radial.solve_eigenvalue"]
        grids = (a["name"] == self._ids["radial.build_grid"]) & has_parent
        parents = a["parent"][grids]
        parents = parents[solve[parents]]
        owners = np.unique(parents).size
        out["radial.grids_per_solve"] = parents.size / owners if owners else 0.0
        out["radial.grid_points_mean"] = (
            float(np.mean(self.grid_points)) if self.grid_points else 0.0
        )
        return out
