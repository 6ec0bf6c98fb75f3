"""Spans and exact counts around the package's public functions.

Each public function defined in a traced module is replaced by a span
wrapper in every package namespace that binds it, so calls that look the
name up through `from .linalg import rref` or through a module's own
globals are traced too. `Mod` arithmetic is counted without spans. The
package files are not edited; leaving the `with` block restores every name.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("presentation", "algebra", "linalg", "fields", "homology", "capability", "verifier")
# Entry points of elimination; nested calls (mat_rank -> rref) are not recounted.
ELIMINATION = frozenset({"linalg.mat_rank", "linalg.rref", "linalg.nullspace"})
MOD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__")


def algebra_key(L):
    return (L.field, L.dims, frozenset(L.table.items()))


class Tracer:
    """In-memory spans for one traced pass; `reset` starts the next pass."""

    def __init__(self, package):
        self.package = package
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []  # (id, parent id or -1, instance, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.mod_ops = 0
        self.entries_in = 0
        self.nnz_in = 0
        self.relations = []  # (rung, rows, cols, nnz) per relations3 result
        self.relation_algebras = set()
        self.instance = None
        self.rung = None
        self._stack = []  # [span id, start, seconds covered by child spans]
        self._next_id = 0
        self._elimination_depth = 0

    def __enter__(self):
        pkg = self.package
        wrappers = {}
        for layer in LAYERS:
            module = getattr(pkg, layer)
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [pkg] + [m for m in vars(pkg).values() if isinstance(m, types.ModuleType)
                              and m.__name__.startswith(pkg.__name__ + ".")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        mod = pkg.fields.Mod
        for attr in MOD_OPS:
            self._patch(mod, attr, self._counted(mod.__dict__[attr]))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _counted(self, fn):
        tracer = self

        def counted(*args):
            tracer.mod_ops += 1
            return fn(*args)
        return counted

    def _wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per step, so the work of producing each item is timed
            def stepper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter(name, args)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, args, None)
                    yield item
            return functools.wraps(fn)(stepper)

        def wrapper(*args, **kwargs):
            tracer._enter(name, args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(name, args, result)
        return functools.wraps(fn)(wrapper)

    def _enter(self, name, args):
        t = perf_counter()
        if name in ELIMINATION:
            if self._elimination_depth == 0 and isinstance(args[0], (list, tuple)):
                for row in args[0]:
                    self.entries_in += len(row)
                    self.nnz_in += sum(1 for x in row if x)
            self._elimination_depth += 1
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        start = perf_counter()
        if parent is not None:
            parent[2] += start - t  # counting is tracer work, not the parent's
        self._stack.append([self._next_id, start, 0.0])
        self._next_id += 1

    def _exit(self, name, args, result):
        end = perf_counter()
        span_id, start, covered = self._stack.pop()
        self.self_s[name] += end - start - covered
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent[0] if parent else -1, self.instance, name, start, end))
        if name in ELIMINATION:
            self._elimination_depth -= 1
        if name == "homology.relations3" and result is not None:
            rows = result.codomain_dim
            nnz = sum(1 for row in result.rows for x in row if x)
            self.relations.append((self.rung, rows, result.domain_dim, nnz))
            self.relation_algebras.add(algebra_key(args[0]))
        if parent is not None:
            parent[2] += perf_counter() - start

    def metrics(self):
        """Counts and self times of this pass, keyed by metric name."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out["fields.mod_ops"] = self.mod_ops
        out["linalg.entries_in"] = self.entries_in
        out["linalg.nnz_in"] = self.nnz_in
        rel = "homology.relations3"
        if self.relations:
            out[f"{rel}.reuse_ratio"] = len(self.relation_algebras) / len(self.relations)
            largest = {}
            for rung, rows, cols, nnz in self.relations:
                for key in (rung, None):
                    if key not in largest or rows * cols > largest[key][0] * largest[key][1]:
                        largest[key] = (rows, cols, nnz)
            for key, shape in largest.items():
                suffix = "" if key is None else f".{key}"
                for label, v in zip(("rows", "cols", "nnz"), shape):
                    out[f"{rel}.{label}{suffix}"] = v
        return out

    def write_spans(self, path):
        """One JSON array per line, after a header line naming the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "instance", "name", "start", "end"]) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
