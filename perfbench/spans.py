"""Span tracing of the flatiso layers, installed from outside the package.

`install` wraps, at run time, every public function and every public method
of every public class in each layer module, plus the RingElem arithmetic
dunders.  Each wrapped name is rebound in every flatiso module that binds
it (``p6`` does ``from .flatcore import mat_adjugate``, so patching
``flatcore`` alone would miss those calls).  The connection callable that
``isomono.okubo_z_system`` returns is wrapped too, so ODE right-hand-side
evaluations are counted.

Spans (name, start, end, parent, item) are kept in flat arrays in memory
and written out once, by `Tracer.write`, when the run ends.  Self time
(span time minus the time its child spans cover) is summed as spans close.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

LAYERS = ("ring", "exprio", "flatcore", "logvf", "p6", "isomono", "midconv",
          "catalog", "cli")
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__pow__", "__neg__")
CONNECTION = "isomono.okubo_z_system.connection"
ODE_NAMES = ("isomono.integrate_pfaffian", "isomono.integrate_p6_hamiltonian",
             "isomono.p6_hamiltonian_rhs", "isomono.monodromy_on_loop",
             CONNECTION)
PARSE_PREFIX = "exprio.parse_"


class Tracer:
    """In-memory span store with per-name call, self-time and failure totals."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.failed = []
        self.failures = {}            # (name id, exception type) -> count
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1                # -1 while setting up
        self._stack = [-1]
        self._child = [0.0]

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.failed.append(0)
        return nid

    def wrap(self, fn, name):
        nid = self.name_id(name)
        tr = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack, child = tr._stack, tr._child
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1])
            tr.span_item.append(tr.item)
            stack.append(idx)
            child.append(0.0)
            t0 = perf()
            tr.span_start.append(t0)
            tr.span_end.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tr.failed[nid] += 1
                key = (nid, type(exc).__name__)
                tr.failures[key] = tr.failures.get(key, 0) + 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                inner = child.pop()
                child[-1] += t1 - t0
                tr.self_s[nid] += t1 - t0 - inner
                tr.calls[nid] += 1
                tr.span_end[idx] = t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- totals ----------------------------------------------------------------

    def count(self, name):
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_time(self, name):
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def failures_of(self, name, exc_name):
        nid = self._ids.get(name)
        return self.failures.get((nid, exc_name), 0)

    def inclusive_top(self, prefix):
        """Summed duration of spans named prefix* with no such span above them."""
        names = self.names
        total = 0.0
        for i, nid in enumerate(self.span_name):
            if not names[nid].startswith(prefix):
                continue
            p = self.span_parent[i]
            if p >= 0 and names[self.span_name[p]].startswith(prefix):
                continue
            total += self.span_end[i] - self.span_start[i]
        return total

    def write(self, path):
        """One tab-separated line per span: id, name, start, end, parent, item."""
        names = self.names
        with open(path, "w") as f:
            f.write("id\tname\tstart\tend\tparent\titem\n")
            for i, nid in enumerate(self.span_name):
                f.write(f"{i}\t{names[nid]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}"
                        f"\t{self.span_parent[i]}\t{self.span_item[i]}\n")


def install(tracer):
    """Wrap the public surface of every layer module, reporting to tracer."""
    import flatiso
    mods = {layer: importlib.import_module(f"flatiso.{layer}") for layer in LAYERS}
    from flatiso.ring import RingElem
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if obj.__name__ == "okubo_z_system":
                    obj = _traced_connection(tracer, obj)
                wrapped[vars(mod)[attr]] = tracer.wrap(obj, f"{layer}.{attr}")
            elif inspect.isclass(obj):
                _wrap_methods(tracer, obj, f"{layer}.{attr}",
                              ARITH if obj is RingElem else ())
    for mod in [flatiso, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _wrap_methods(tracer, cls, prefix, dunders):
    for mname, mobj in list(vars(cls).items()):
        if mname.startswith("_") and mname not in dunders:
            continue
        name = f"{prefix}.{mname}"
        if isinstance(mobj, (staticmethod, classmethod)):
            setattr(cls, mname, type(mobj)(tracer.wrap(mobj.__func__, name)))
        elif inspect.isfunction(mobj):
            setattr(cls, mname, tracer.wrap(mobj, name))


def _traced_connection(tracer, okubo_z_system):
    def traced_okubo_z_system(snapshot):
        return tracer.wrap(okubo_z_system(snapshot), CONNECTION)
    traced_okubo_z_system.__name__ = okubo_z_system.__name__
    return traced_okubo_z_system


def layer_metrics(tr, items, points, entries):
    """Per-layer metrics of a traced run.

    items: timed items; points: path points the items swept; entries: catalog
    structures the run served (verdicts on catalog-exact).
    """
    def ratio(num, den):
        return num / den if den else 0.0

    by_layer = {layer: [0, 0.0, 0] for layer in LAYERS}
    for nid, name in enumerate(tr.names):
        acc = by_layer[name.split(".", 1)[0]]
        acc[0] += tr.calls[nid]
        acc[1] += tr.self_s[nid]
        acc[2] += tr.failed[nid]
    out = {}
    for layer, (calls, self_s, failed) in by_layer.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.failed"] = failed
    arith = [f"ring.RingElem.{d}" for d in ARITH]
    out["ring.arith.calls"] = sum(tr.count(n) for n in arith)
    out["ring.arith.self_s"] = sum(tr.self_time(n) for n in arith)
    out["ring.eval.calls"] = tr.count("ring.RingElem.eval")
    out["ring.eval.self_s"] = tr.self_time("ring.RingElem.eval")
    out["ring.eval_per_point"] = ratio(out["ring.eval.calls"], points)
    out["ring.partial.calls"] = tr.count("ring.RingElem.partial")
    out["ring.solve_z.calls"] = tr.count("ring.Ring.solve_z")
    out["flatcore.builds_per_entry"] = ratio(
        tr.count("flatcore.build_saito_matrices"), entries)
    out["logvf.discriminants_per_entry"] = ratio(
        tr.count("logvf.discriminant"), entries)
    out["p6.frames_per_point"] = ratio(tr.count("p6.StructureSampler.frame"), points)
    out["p6.eig.self_s"] = tr.self_time("p6.ordered_eig")
    rhs = tr.count("isomono.p6_hamiltonian_rhs") + tr.count(CONNECTION)
    out["isomono.rhs_evals"] = rhs
    out["isomono.rhs_evals_per_item"] = ratio(rhs, items)
    out["isomono.ode.self_s"] = sum(tr.self_time(n) for n in ODE_NAMES)
    out["isomono.step_underflow"] = sum(
        tr.failures_of(n, "StepUnderflow")
        for n in ("isomono.integrate_pfaffian", "isomono.integrate_p6_hamiltonian"))
    out["exprio.parse_s"] = tr.inclusive_top(PARSE_PREFIX)
    return out
