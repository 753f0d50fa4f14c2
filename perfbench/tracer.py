"""Outside-in tracer for matchpow.

At start-up the tracer finds every function a matchpow module lists in
``__all__`` and replaces it, in every *other* module that has bound it (and in
the benchmark's own modules), with a wrapper that records one span per call:
the key (caller layer, callee layer, function name), the start and the end.
Nothing in the package source is edited, and a public name that no longer
exists is simply not wrapped.

Spans live in three flat arrays and are turned into per-layer numbers when
the run ends.  Calls inside the module that defines a function are not seen,
so a layer's self time includes its own internal helpers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from array import array
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterable

# Flags folded into the span key; key ids stay well below them.
ERROR_BIT = 1 << 29
RESUME_BIT = 1 << 28
KEY_MASK = RESUME_BIT - 1

BENCH_LAYER = "bench"
UNMEASURED_LAYERS = ("cli",)


def discover(package: str = "matchpow") -> dict[str, ModuleType]:
    """Every submodule of the package, by layer name."""
    pkg = importlib.import_module(package)
    return {
        info.name: importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    }


def public_functions(modules: dict[str, ModuleType]) -> dict[Callable, tuple[str, str]]:
    """Functions listed in ``__all__`` and defined in that module -> (layer, name)."""
    out: dict[Callable, tuple[str, str]] = {}
    for layer, mod in modules.items():
        if layer in UNMEASURED_LAYERS:
            continue
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = (layer, name)
    return out


class Tracer:
    def __init__(self) -> None:
        self.key_names: list[tuple[str, str, str]] = []  # id -> (caller, layer, fn)
        self._key_ids: dict[tuple[str, str, str], int] = {}
        self.keys = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._restore: list[tuple[ModuleType, str, Any]] = []

    # -- installation ----------------------------------------------------
    def install(
        self, modules: dict[str, ModuleType], bench_modules: Iterable[ModuleType] = ()
    ) -> int:
        """Wrap every cross-module binding of a public function; returns the
        number of bindings wrapped."""
        funcs = public_functions(modules)
        callers = [(layer, mod) for layer, mod in modules.items()]
        callers += [(BENCH_LAYER, mod) for mod in bench_modules]
        for caller, mod in callers:
            for attr, value in list(vars(mod).items()):
                target = funcs.get(value) if inspect.isfunction(value) else None
                if target is None or target[0] == caller:
                    continue
                key = self._key(caller, *target)
                self._restore.append((mod, attr, value))
                setattr(mod, attr, self._wrap(value, key))
        return len(self._restore)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _key(self, caller: str, layer: str, name: str) -> int:
        k = (caller, layer, name)
        if k not in self._key_ids:
            self._key_ids[k] = len(self.key_names)
            self.key_names.append(k)
        return self._key_ids[k]

    def _wrap(self, fn: Callable, key: int) -> Callable:
        # The bookkeeping after the call is only C-level calls made at the
        # wrapper's own frame depth, the same depth as the perf_counter() call
        # that took the start time.  So when the callee dies of RecursionError
        # the span is still recorded whole, and a wrapper that cannot even
        # start records nothing: the three arrays never fall out of step.
        keys, starts, ends = self.keys, self.starts, self.ends
        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                k = key
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        k |= ERROR_BIT
                        raise
                    finally:
                        keys.append(k)
                        starts.append(t0)
                        ends.append(perf_counter())
                    k = key | RESUME_BIT
                    yield item

            traced = traced_gen
        else:

            def traced(*args, **kwargs):
                k = key
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    k = key | ERROR_BIT
                    raise
                finally:
                    keys.append(k)
                    starts.append(t0)
                    ends.append(perf_counter())

        return functools.wraps(fn)(traced)

    # -- results ---------------------------------------------------------
    def write(self, path: Path) -> None:
        """Spans as a JSON header plus raw key, start, end and parent arrays, in
        end order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        parents = parent_indices(self.starts, self.ends)
        header = {
            "keys": [list(k) for k in self.key_names],
            "error_bit": ERROR_BIT,
            "resume_bit": RESUME_BIT,
            "spans": len(self.keys),
            "arrays": ["key:int64", "start:f64", "end:f64", "parent:int64"],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.keys, self.starts, self.ends, parents):
                arr.tofile(fh)


def _nest(starts, ends):
    """Yield (index, self time, children) over spans given in end order.

    Single-threaded spans nest, so the completed spans that started after a
    span did are exactly its descendants; the unclaimed ones among them are
    its children.
    """
    pending: list[tuple[int, float]] = []  # (index, duration) awaiting a parent
    for i in range(len(starts)):
        s = starts[i]
        dur = ends[i] - s
        covered = 0.0
        children = []
        while pending and starts[pending[-1][0]] >= s:
            j, d = pending.pop()
            covered += d
            children.append(j)
        pending.append((i, dur))
        yield i, dur - covered, children


def self_times(starts, ends) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    return [own for _, own, _ in _nest(starts, ends)]


def parent_indices(starts, ends) -> array:
    """Index of the span that caused each span, -1 for spans the benchmark made."""
    parents = array("l", [-1]) * len(starts)
    for i, _, children in _nest(starts, ends):
        for j in children:
            parents[j] = i
    return parents


def layer_metrics(
    tracer: Tracer, functions: Iterable[str], oracle_layers: Iterable[str]
) -> dict[str, float]:
    """Per-layer and per-function calls, self seconds and errors, plus calls
    from the harness into the oracle layers."""
    own = self_times(tracer.starts, tracer.ends)
    wanted = set(functions)
    oracle = set(oracle_layers)
    out: dict[str, float] = {"harness.oracle_calls": 0}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    for key, t in zip(tracer.keys, own):
        caller, layer, fn = tracer.key_names[key & KEY_MASK]
        is_call = not key & RESUME_BIT
        failed = bool(key & ERROR_BIT)
        add(f"{layer}.self_s", t)
        add(f"{layer}.calls", is_call)
        add(f"{layer}.errors", failed)
        qual = f"{layer}.{fn}"
        if qual in wanted:
            add(f"{qual}.self_s", t)
            add(f"{qual}.calls", is_call)
        if caller == "harness" and layer in oracle and is_call:
            out["harness.oracle_calls"] += 1
    out["trace.self_sum_s"] = sum(own)
    return out
