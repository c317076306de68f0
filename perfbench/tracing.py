"""Per-layer spans recorded from outside redinv.

``Tracer.install`` wraps the public functions of every layer module, and a
few methods, in place.  ``from .intmat import hnf`` binds ``hnf`` in the
importing module too, so every ``redinv.*`` namespace that holds a wrapped
function gets the wrapper; methods are patched on their class.  Spans stay
in memory until ``Tracer.metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("intmat", "abgrp", "gammamod", "homcx", "rootdata", "tres", "cech",
          "catalogio", "cli")

# Methods wrapped on their class, as (layer, class, method).  Their spans
# are named <layer>.<Class>.<method>, except for ALIASES.
METHODS = (
    ("intmat", "IntMatrix", "__matmul__"),
    ("abgrp", "FgAbelianGroup", "invariants"),
    ("abgrp", "FgAbelianGroup", "__post_init__"),
    ("abgrp", "FgAbelianGroup", "reduce"),
    ("abgrp", "FgAbelianGroup", "contains_in_relations"),
    ("abgrp", "AbHom", "is_well_defined"),
    ("abgrp", "SubquotientData", "class_coords"),
    ("gammamod", "GammaModule", "check"),
    ("gammamod", "GammaHom", "is_equivariant"),
    ("homcx", "BoundedComplex", "cohomology_data"),
    ("homcx", "BoundedComplex", "cohomology"),
    ("homcx", "BoundedComplex", "check"),
    ("homcx", "ChainMap", "check"),
    ("catalogio", "ResultRecord", "to_json"),
)
# FgAbelianGroup.invariants is the group-level entry to SNF, and
# __post_init__ runs an HNF for every group built.
ALIASES = {
    "intmat.IntMatrix.__matmul__": "intmat.IntMatrix.matmul",
    "abgrp.FgAbelianGroup.invariants": "abgrp.invariants",
    "abgrp.FgAbelianGroup.__post_init__": "abgrp.FgAbelianGroup.init",
}

# intmat functions whose first argument is the matrix worked on.
MATRIX_IN = {"intmat.hnf", "intmat.snf", "intmat.det", "intmat.solve_linear",
             "intmat.kernel_basis", "intmat.rank", "intmat.invariant_factors",
             "intmat.inverse_unimodular"}


def _bits(*mats) -> int:
    return max((abs(x).bit_length() for m in mats for row in m.data for x in row), default=0)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        # span: (name, start, end, parent span index, op index, outermost
        # of its name, inside member_coords)
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._snf_seen: set = set()
        self._groups: set = set()
        self._hook_table = self._hooks()

    def start_op(self, index: int) -> None:
        self.op = index
        self._snf_seen = set()

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"redinv.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        for layer, cls, meth in METHODS:
            klass = getattr(importlib.import_module(f"redinv.{layer}"), cls)
            span = f"{layer}.{cls}.{meth}"
            setattr(klass, meth, self._wrap(ALIASES.get(span, span), vars(klass)[meth]))

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        hook = self._hook_table.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, None)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, depth[name] == 0,
                                depth["abgrp.member_coords"] > 0)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # --- counters at layer boundaries ------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def cells(args, result):
            if result is None and args:
                m = args[0]
                counts["intmat.max_cells"] = max(counts["intmat.max_cells"], m.rows * m.cols)

        def normal_form(args, result):
            cells(args, result)
            if result is not None:
                bits = _bits(*result)
                counts["intmat.coef_bits_max"] = max(counts["intmat.coef_bits_max"], bits)

        def snf(args, result):
            normal_form(args, result)
            if result is None:
                key = (args[0].cols, args[0].data)
                counts["intmat.snf.repeats"] += key in self._snf_seen
                self._snf_seen.add(key)

        def bar_rows(args, result):
            if result is not None:
                counts["gammamod.bar_differential.rows"] += result.matrix.rows

        def record(args, result):
            if result is not None:
                counts["catalogio.record_bytes_total"] += len(result)

        def group(args, result):
            if result is None:
                g = args[0]
                self._groups.add((g.ambient_rank, g.relations.data))

        hooks = {name: cells for name in MATRIX_IN}
        hooks.update({
            "intmat.hnf": normal_form,
            "intmat.snf": snf,
            "gammamod.bar_differential": bar_rows,
            "catalogio.ResultRecord.to_json": record,
            "abgrp.invariants": group,
        })
        return hooks

    # --- results -----------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-function calls, total and self time, per-layer self time and
        the counters, as a flat name -> value map."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, op, outermost, in_mc), ch in zip(self.spans, child):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - ch
            out[f"{name.split('.')[0]}.self_s"] += dur - ch
            if outermost:
                out[f"{name}.total_s"] += dur
            if name == "intmat.snf" and in_mc:
                out["intmat.snf.under_member_coords_s"] += dur
        c = self.counts
        out["intmat.max_cells"] = c["intmat.max_cells"]
        out["intmat.coef_bits_max"] = c["intmat.coef_bits_max"]
        out["intmat.snf.repeat_ratio"] = c["intmat.snf.repeats"] / max(1, out["intmat.snf.calls"])
        out["gammamod.bar_differential.rows"] = c["gammamod.bar_differential.rows"]
        out["catalogio.record_bytes"] = c["catalogio.record_bytes_total"] / max(1, ops)
        groups = max(1, len(self._groups))
        out["abgrp.invariants.per_group"] = out["abgrp.invariants.calls"] / groups
        out["trace.spans"] = len(self.spans)
        return dict(out)
