"""Spans and counters at padicmat's module boundaries, installed from outside.

`Tracer.install` replaces every public function and method of the seven
modules (plus the arithmetic dunders) with a timing wrapper, and rebinds
the name in every module that imported it; `uninstall` puts the originals
back.  Each call records a span (name, start, end, parent span, run id).
Scalar `galois_rings` calls run millions of times per round, so they are
counted and timed (calls, total and self time) without a span each; their
time still counts as child time of the span that called them.
"""

from __future__ import annotations

import json
import os
import time
from array import array

import numpy as np

MODULES = ("cli", "experiments", "matrix_groups", "galois_rings",
           "polynomials", "char_derivative", "conjugacy")
UNSPANNED_MODULES = ("galois_rings",)
DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__divmod__", "__floordiv__",
    "__mod__", "__call__"})
# private samplers wrapped only to count candidate draws under sample_fq
DRAWS = ("matrix_groups.Matrix.random", "matrix_groups._sample_isometry_tab",
         "matrix_groups._sample_isometry")
PRIVATE = {"matrix_groups": ("_sample_isometry_tab", "_sample_isometry")}
# calls split by the ring's extension degree: name.m1 (m = 1), name.ext (m > 1)
SPLIT_BY_M = ("matrix_groups.Matrix.__mul__", "matrix_groups.char_poly")

_MG, _GR, _PO = "matrix_groups.", "galois_rings.GRElem.", "polynomials."
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
# (metric, unit, kind, wrapped names): kind "mean" is the mean time per call,
# "calls" the calls per round, "self" the module's self time per round
LAYER_METRICS = [
    ("matrix_groups.sample_haar.us", "us", "mean", (_MG + "sample_haar",)),
    ("matrix_groups.sample_fq.us", "us", "mean", (_MG + "sample_fq",)),
    ("matrix_groups.hensel_lift_section.us", "us", "mean",
     (_MG + "hensel_lift_section",)),
    ("matrix_groups.is_member.calls", "count", "calls",
     (_MG + "GroupSpec.is_member",)),
    ("matrix_groups.is_member.us", "us", "mean", (_MG + "GroupSpec.is_member",)),
    ("matrix_groups.mul.m1.us", "us", "mean", (_MG + "Matrix.__mul__.m1",)),
    ("matrix_groups.mul.m1.calls", "count", "calls", (_MG + "Matrix.__mul__.m1",)),
    ("matrix_groups.mul.ext.us", "us", "mean", (_MG + "Matrix.__mul__.ext",)),
    ("matrix_groups.mul.ext.calls", "count", "calls",
     (_MG + "Matrix.__mul__.ext",)),
    ("matrix_groups.char_poly.m1.us", "us", "mean", (_MG + "char_poly.m1",)),
    ("matrix_groups.char_poly.ext.us", "us", "mean", (_MG + "char_poly.ext",)),
    ("matrix_groups.min_poly_mod_p.us", "us", "mean", (_MG + "min_poly_mod_p",)),
    ("matrix_groups.enumerate_group.s", "s", "mean", (_MG + "enumerate_group",)),
    ("matrix_groups.self_s", "s", "self", ()),
    ("experiments.trace_datum_key.us", "us", "mean",
     ("experiments.trace_datum_key",)),
    ("experiments.matrix_traces.us", "us", "mean", ("experiments.matrix_traces",)),
    ("experiments.tv_to_uniform.ms", "ms", "mean", ("experiments.tv_to_uniform",)),
    ("experiments.self_s", "s", "self", ()),
    ("galois_rings.elem.calls", "count", "calls", (_GR + "__init__",)),
    ("galois_rings.mul.calls", "count", "calls",
     (_GR + "__mul__", _GR + "__rmul__")),
    ("galois_rings.inv.calls", "count", "calls", (_GR + "inv",)),
    ("galois_rings.mul.us", "us", "mean", (_GR + "__mul__", _GR + "__rmul__")),
    ("galois_rings.self_s", "s", "self", ()),
    ("polynomials.factor.us", "us", "mean", (_PO + "factor",)),
    ("polynomials.radical.us", "us", "mean", (_PO + "radical",)),
    ("polynomials.divmod.calls", "count", "calls", (_PO + "Poly.__divmod__",)),
    ("polynomials.hayes_label.us", "us", "mean", (_PO + "hayes_label",)),
    ("polynomials.trace_datum_of.us", "us", "mean", (_PO + "trace_datum_of",)),
    ("polynomials.self_s", "s", "self", ()),
    ("conjugacy.class_of_matrix_gl.us", "us", "mean",
     ("conjugacy.class_of_matrix_gl",)),
    ("conjugacy.fulman_prob_gl.us", "us", "mean", ("conjugacy.fulman_prob_gl",)),
    ("conjugacy.self_s", "s", "self", ()),
    ("char_derivative.verify_image.ms", "ms", "mean",
     ("char_derivative.verify_image",)),
    ("char_derivative.self_s", "s", "self", ()),
    ("cli.self_s", "s", "self", ()),
]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.names = []
        self.ids = {}
        self.calls = []
        self.total = []
        self.self_time = []
        self.stack = []
        self.run_id = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches = []

    # -- bookkeeping --

    def _fid(self, name):
        fid = self.ids.get(name)
        if fid is None:
            fid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return fid

    def _wrap(self, fn, name, spanned):
        perf = time.perf_counter
        stack, calls, total, self_time = (self.stack, self.calls, self.total,
                                          self.self_time)
        if not spanned:
            fid = self._fid(name)

            def counted(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else -1]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf() - t0
                    stack.pop()
                    calls[fid] += 1
                    total[fid] += d
                    self_time[fid] += d - frame[0]
                    if stack:
                        stack[-1][0] += d
            return counted

        split = name in SPLIT_BY_M
        if split:
            fids = (self._fid(name + ".m1"), self._fid(name + ".ext"))
        else:
            fids = (self._fid(name),) * 2
        s_name, s_parent, s_run = self.span_name, self.span_parent, self.span_run
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        def spanned_call(*args, **kwargs):
            fid = fids[split and args[0].ctx.m != 1]
            idx = len(s_name)
            s_name.append(fid)
            s_parent.append(stack[-1][1] if stack else -1)
            s_run.append(tracer.run_id)
            s_end.append(0.0)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                s_end[idx] = t1
                stack.pop()
                d = t1 - t0
                calls[fid] += 1
                total[fid] += d
                self_time[fid] += d - frame[0]
                if stack:
                    stack[-1][0] += d
        return spanned_call

    # -- installation --

    def _targets(self):
        for short, mod in self.modules.items():
            private = PRIVATE.get(short, ())
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type):
                    if (obj.__module__ != mod.__name__
                            or issubclass(obj, BaseException)):
                        continue
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in DUNDERS:
                            continue
                        yield short, obj, attr, val, "%s.%s.%s" % (
                            short, obj.__name__, attr)
                elif (callable(obj)
                      and getattr(obj, "__module__", None) == mod.__name__
                      and (not name.startswith("_") or name in private)):
                    yield short, mod, name, obj, "%s.%s" % (short, name)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        every_module = list(self.modules.values()) + [self.package]
        for short, owner, attr, val, name in list(self._targets()):
            spanned = short not in UNSPANNED_MODULES
            if isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(val.__func__, name, spanned))
            elif isinstance(val, property) or not callable(val):
                continue
            else:
                new = self._wrap(val, name, spanned)
            self._patches.append((owner, attr, val))
            setattr(owner, attr, new)
            if isinstance(owner, type):
                continue
            # rebind the name wherever another module imported it
            for other in every_module:
                for oname, oval in list(vars(other).items()):
                    if oval is val and other is not owner:
                        self._patches.append((other, oname, val))
                        setattr(other, oname, new)

    def uninstall(self):
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    # -- results --

    def _stat(self, *names):
        calls = total = 0
        for name in names:
            fid = self.ids.get(name)
            if fid is not None:
                calls += self.calls[fid]
                total += self.total[fid]
        return calls, total

    def _mean(self, scale, *names):
        calls, total = self._stat(*names)
        return total / calls * scale if calls else 0.0

    def module_self(self):
        out = {name: 0.0 for name in MODULES}
        for name, st in zip(self.names, self.self_time):
            out[name.split(".", 1)[0]] += st
        return out

    def draws_per_sample(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        fq = self.ids.get("matrix_groups.sample_fq", -1)
        draw_ids = [self.ids[n] for n in DRAWS if n in self.ids]
        mask = np.isin(names, draw_ids) & (parents >= 0)
        draws = int(np.count_nonzero(names[parents[mask]] == fq))
        samples = self.calls[fq] if fq >= 0 else 0
        return draws / samples if samples else 0.0

    def per_layer(self, rounds, overhead_s):
        """The per-layer metrics; counts and self times are per traced round."""
        mself = self.module_self()
        out = {}
        for metric, unit, kind, names in LAYER_METRICS:
            if kind == "mean":
                value = self._mean(SCALE[unit], *names)
            elif kind == "calls":
                value = self._stat(*names)[0] / rounds
            else:
                value = mself[metric.split(".", 1)[0]] / rounds
            out[metric] = {"value": value, "unit": unit}
        out["matrix_groups.sample_fq.draws_per_sample"] = {
            "value": self.draws_per_sample(), "unit": "draws/sample"}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def write(self, path_stem, rounds):
        """Write the spans (.npz) and per-function totals (.json)."""
        os.makedirs(os.path.dirname(path_stem), exist_ok=True)
        np.savez(path_stem + ".npz",
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 run=np.frombuffer(self.span_run, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
        funcs = {name: {"calls": c, "total_s": t, "self_s": s}
                 for name, c, t, s in zip(self.names, self.calls, self.total,
                                          self.self_time) if c}
        with open(path_stem + ".json", "w") as fh:
            json.dump({"traced_rounds": rounds, "spans": len(self.span_name),
                       "module_self_s": self.module_self(),
                       "functions": funcs}, fh, indent=1, sort_keys=True)
