"""Span tracing for the traced pass, implemented entirely in the benchmark.

While installed, every public function of each traced program module is
replaced, in every ``groupoidqm`` namespace that holds it, by a wrapper
that records a span ``[layer, start, end, parent]``; ``numpy.linalg``'s
``eigh``, ``eigvalsh`` and ``svd`` are wrapped the same way.  A span's
self time is its duration minus the durations of its direct children.
Methods and constructors are not wrapped, so their time counts towards
the public function that called them.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

MODULES = ("cli", "formats", "groupoid", "algebra", "lattice", "states", "dynamics")
# eigvalsh is the eigenvalue-only eigh and is counted with it
LINALG = {"eigh": "linalg.eigh", "eigvalsh": "linalg.eigh", "svd": "linalg.svd"}
LAYERS = MODULES + ("linalg.eigh", "linalg.svd")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def _replace(self, namespace, name: str, wrapper) -> None:
        self._undo.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, wrapper)

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"groupoidqm.{short}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, short))
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "groupoidqm" or n.startswith("groupoidqm.")]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(ns, name, hit[1])
        for name, layer in LINALG.items():
            self._replace(np.linalg, name, self._wrap(getattr(np.linalg, name), layer))

    def uninstall(self) -> None:
        while self._undo:
            ns, name, original = self._undo.pop()
            setattr(ns, name, original)

    def drain(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per layer since the last drain; clears the spans."""
        if self._open:
            raise RuntimeError("drain() inside an open span")
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for layer, start, end, parent in self.spans:
            calls[layer] += 1
            self_s[layer] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        self.spans.clear()
        return calls, self_s
