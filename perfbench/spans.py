"""Spans around qstkit's public functions, for the traced benchmark run.

`install` replaces every public function of the qstkit modules with a
wrapper that records a span (name, start, end, parent) while the tracer is
active.  Each name is replaced where its caller looks it up: in every
module namespace that bound it (`cli` binds `group_preset` at import), in
`cli.SUITE_FUNCS`, and on the descriptors `group_preset` returns, whose
group laws are stored callables.  Public methods and the arithmetic
dunders of public classes are wrapped too, so that exact-algebra work is
charged to the module that defines it.  Spans stay in memory; `summary`
reduces them and `dump` writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import time
import types

import numpy as np

MODULES = ("cli", "momentum", "liestructure", "waves", "hopf_algebra", "twist",
           "polyfield", "moyal_matrix", "loop", "gauge", "causality")
CLASS_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__eq__")


class Tracer:
    """Span recorder; a wrapper records only while `active` is true."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.names, self.parent, self.start, self.end = [], [], [], []
        self._stack = [-1]

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.names.append(name)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
        return span

    def summary(self) -> dict:
        """Per span name: count, total and self seconds; self seconds per module."""
        return summarize(self.names, self.parent, self.start, self.end)

    def dump(self, path):
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], p, s, e] for n, p, s, e in
                zip(self.names, self.parent, self.start, self.end)]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "names": names, "spans": rows}, fh)


def summarize(names, parent, start, end) -> dict:
    dur = np.asarray(end, float) - np.asarray(start, float)
    parent = np.asarray(parent, np.int64)
    child = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    own = dur - child
    count, total, self_s = {}, {}, {}
    for n, d, s in zip(names, dur.tolist(), own.tolist()):
        count[n] = count.get(n, 0) + 1
        total[n] = total.get(n, 0.0) + d
        self_s[n] = self_s.get(n, 0.0) + s
    module_self = {m: 0.0 for m in MODULES}
    for n, s in self_s.items():
        module_self[n.split(".", 1)[0]] += s
    return {"spans": len(names), "count": count, "total_s": total,
            "self_s": self_s, "module_self_s": module_self}


def load_summary(path) -> dict:
    """Summary of a span file written by `Tracer.dump`."""
    with gzip.open(path, "rt") as fh:
        data = json.load(fh)
    rows = data["spans"]
    return summarize([data["names"][r[0]] for r in rows], [r[1] for r in rows],
                     [r[2] for r in rows], [r[3] for r in rows])


def merge(summaries) -> dict:
    """Sum several summaries (one per traced command of a pass)."""
    out = {"spans": 0, "count": {}, "total_s": {}, "self_s": {},
           "module_self_s": {m: 0.0 for m in MODULES}}
    for s in summaries:
        out["spans"] += s["spans"]
        for key in ("count", "total_s", "self_s", "module_self_s"):
            for n, v in s[key].items():
                out[key][n] = out[key].get(n, 0) + v
    return out


class _ModuleProxy:
    """Stands in for a module object, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _wrap_class(tracer, short, cls):
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr not in CLASS_DUNDERS:
            continue
        name = f"{short}.{cls.__name__}.{attr}"
        if isinstance(obj, types.FunctionType):
            setattr(cls, attr, tracer.wrap(name, obj))
        elif isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, obj.__func__)))


def install(tracer: Tracer):
    """Wrap qstkit's public functions, classes and group laws with spans."""
    import qstkit
    mods = {m: importlib.import_module(f"qstkit.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
            elif isinstance(obj, type):
                _wrap_class(tracer, short, obj)

    preset = mods["momentum"].group_preset

    @functools.wraps(preset)
    def group_preset(*args, **kwargs):
        g = preset(*args, **kwargs)
        return dataclasses.replace(g, add=tracer.wrap("momentum.law_add", g.add),
                                   inv=tracer.wrap("momentum.law_inv", g.inv))

    wrapped[preset] = tracer.wrap("momentum.group_preset", group_preset)
    namespaces = [vars(m) for m in mods.values()] + [vars(qstkit), mods["cli"].SUITE_FUNCS]
    for ns in namespaces:
        for attr, obj in list(ns.items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                ns[attr] = wrapped[obj]
    loop = mods["loop"]
    loop.integrate = _ModuleProxy(loop.integrate,
                                  quad=tracer.wrap("loop.quad", loop.integrate.quad))
