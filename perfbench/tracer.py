"""Outside-in span tracer for the reconcap package.

``Tracer.install()`` wraps every public function, public method and dataclass
constructor of the package's layer modules, plus the ``numpy.linalg``
decompositions they call.  Each wrapper counts its calls and keeps a span
stack, so a layer's self time is its spans' duration minus the time of the
spans nested inside them.  The spans of one pass telescope: the self times of
all layers sum to the duration of the root spans (``scenarios.run_scenario``).

Modules import each other's functions by name (``from .spectral import
singular_values``), so a wrapper is bound into every ``reconcap.*`` namespace
that holds the original, not only the defining module.  ``uninstall()``
restores every binding it changed.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# reconcap modules traced as layers; "scenarios" holds the root span of a pass.
LAYERS = (
    "rng",
    "spectral",
    "tasks",
    "transport",
    "capacity",
    "gaussian",
    "thermo",
    "config",
    "scenarios",
)
LINALG_DECOMPOSITIONS = ("svd", "eigh", "eigvalsh", "qr", "lstsq", "slogdet")
ALL_LAYERS = LAYERS + ("linalg",)

# config writers and the position of their path argument
_WRITERS = {
    "config.write_csv": 0,
    "config.write_json": 0,
    "config.save_config": 1,
    "config.RunManifest.finish": 1,
}


class Tracer:
    """Call counts and per-layer self time for the calls made while installed."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.fields_written = 0
        self.bytes_written = 0
        self._stack = []
        self._undo = []

    def _wrap(self, layer: str, key: str, fn):
        calls = self.calls
        self_s = self.self_s
        stack = self._stack
        clock = time.perf_counter
        path_arg = _WRITERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if path_arg is not None:
                self._count_write(key, args, path_arg)
            return result

        return traced

    def _count_write(self, key: str, args: tuple, path_arg: int) -> None:
        self.bytes_written += os.path.getsize(args[path_arg])
        if key == "config.write_csv":
            self.fields_written += sum(len(row) for row in args[2])

    def _bind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls) -> None:
        key = f"{layer}.{cls.__name__}"
        self._bind(cls, "__init__", self._wrap(layer, key, cls.__init__))
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                wrapped = self._wrap(layer, f"{key}.{name}", attr.__func__)
                self._bind(cls, name, classmethod(wrapped))
            elif inspect.isfunction(attr):
                self._bind(cls, name, self._wrap(layer, f"{key}.{name}", attr))

    def install(self) -> "Tracer":
        import numpy as np

        if self._undo:
            raise RuntimeError("Tracer.install: already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"reconcap.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    self._wrap_class(layer, obj)
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "reconcap" or name.startswith("reconcap.")
        ]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._bind(module, name, entry[1])
        for name in LINALG_DECOMPOSITIONS:
            self._bind(np.linalg, name, self._wrap("linalg", f"linalg.{name}", getattr(np.linalg, name)))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _total(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if key.startswith(layer + "."))

    def counts(self) -> dict:
        """Per-layer work counts; deterministic for a given config."""
        c = self.calls
        return {
            "transport.steps": c["transport.step"],
            "transport.jacobian_builds": c["transport.step_jacobian"],
            "transport.propagations": c["transport.propagate"],
            "tasks.evals": c["tasks.value"] + c["tasks.gradient"],
            "tasks.builds": c["tasks.QuadraticTask"] + c["tasks.TaskPair"],
            "spectral.validations": c["spectral.as_vector"]
            + c["spectral.as_matrix"]
            + c["spectral.require_symmetric"],
            "spectral.svds": c["linalg.svd"],
            "rng.streams": c["rng.stream"],
            "linalg.decomps": self._total("linalg"),
            "capacity.calls": self._total("capacity"),
            "thermo.calls": self._total("thermo"),
            "gaussian.states": c["gaussian.GaussianState"],
            "config.fields_written": self.fields_written,
            "config.bytes_written": self.bytes_written,
        }

    def self_times(self) -> dict:
        """Self time in seconds of every layer, idle layers included."""
        return {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in ALL_LAYERS}
