"""Layer tracing from outside the program.

Wrappers around each layer's public functions are patched into every
``qwalk.*`` module namespace that holds the function (``transfer``,
``verify``, ``cli`` and ``upst_search`` import names from ``linalg``), so a
call is seen whichever module makes it.  Each wrapped call records a span
[name, start, end, parent, op id] in memory; self time is a span's duration
minus the durations of its child spans.  Surd arithmetic and
``eigenvalue_support`` are counted with plain counters and their time, not
spans: there are hundreds of thousands and tens of thousands of such calls,
and their time stays in the enclosing span's self time.

A name that is missing (a later change deleted or renamed it) is skipped
and listed in ``absent``.  Only public names are wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_FUNCTIONS = (
    ("qwalk.linalg", "spectral_decomposition"),
    ("qwalk.linalg", "transition_matrix"),
    ("qwalk.linalg", "SpectralDecomposition.validate"),
    ("qwalk.transfer", "strong_cospectrality"),
    ("qwalk.transfer", "certify_pst"),
    ("qwalk.transfer", "certify_pgst"),
    ("qwalk.transfer", "fidelity_sweep"),
    ("qwalk.numtheory", "relation_lattice"),
    ("qwalk.numtheory", "float_relation_probe"),
    ("qwalk.numtheory", "charpoly_mod2"),
    ("qwalk.star", "classify_star_m"),
    ("qwalk.star", "star_support_surds"),
    ("qwalk.upst_search", "upst_necessary_conditions"),
    ("qwalk.constructions", "build_family"),
)
COUNTED_FUNCTIONS = (("qwalk.transfer", "eigenvalue_support"),)
SURD = "numtheory.surd"
SURD_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "ratio")
EIGH = "linalg.eigh"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def held_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds in its attributes, directly
    or in lists (a decomposition's projectors, or its eigenvector blocks)."""
    total = 0
    for value in getattr(obj, "__dict__", {}).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


class _Proxy:
    """Forwards attribute reads to a module, except the overridden ones."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.counted_s: Counter = Counter()
        self.projector_bytes = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._counting: set[str] = set()
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one benchmark operation."""
        self._op = op_id
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self._op = -1

    def _span_wrapper(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(result)
            return result
        return traced

    def _count_wrapper(self, fn, key, also=None):
        """Count the outermost calls under ``key`` (nested ones, such as
        Surd subtraction calling addition, are part of the outer call) and
        their time; ``also`` names a second counter."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if key in self._counting:
                return fn(*args, **kwargs)
            self._counting.add(key)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counted_s[key] += time.perf_counter() - start
                self._counting.discard(key)
                self.counts[key] += 1
                if also is not None:
                    self.counts[also] += 1
        return counted

    # -- hooks for computed counts -------------------------------------------

    def _sweep_points(self, fn):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            steps = sig.bind(*args, **kwargs).arguments.get("steps", 0)
            self.counts["sweep_points"] += int(steps)
        return before

    def _record_bytes(self, result) -> None:
        self.projector_bytes = max(self.projector_bytes, held_bytes(result))

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qwalk" or mod_name.startswith("qwalk.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _resolve(self, module: str, attr: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, leaf, None)):
            return None, None
        return owner, leaf

    def install(self) -> None:
        self.absent = []
        for module, attr in LAYER_FUNCTIONS:
            name = span_name(module, attr)
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                self.absent.append(f"{module}.{attr}")
                continue
            fn = getattr(owner, leaf)
            before = self._sweep_points(fn) if leaf == "fidelity_sweep" else None
            after = self._record_bytes if leaf == "spectral_decomposition" else None
            wrapper = self._span_wrapper(fn, name, before, after)
            if isinstance(owner, type):
                self._set(owner, leaf, wrapper)
            else:
                self._replace_everywhere(fn, wrapper)
        for module, attr in COUNTED_FUNCTIONS:
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                self.absent.append(f"{module}.{attr}")
            else:
                fn = getattr(owner, leaf)
                self._replace_everywhere(fn, self._count_wrapper(fn, span_name(module, attr)))
        linalg = sys.modules.get("qwalk.linalg")
        if linalg is not None and getattr(linalg, "np", None) is np:
            eigh = self._span_wrapper(np.linalg.eigh, EIGH)
            self._set(linalg, "np", _Proxy(np, linalg=_Proxy(np.linalg, eigh=eigh)))
        else:
            self.absent.append("qwalk.linalg.np.linalg.eigh")
        surd = getattr(sys.modules.get("qwalk.numtheory"), "Surd", None)
        for meth in SURD_METHODS:
            fn = surd.__dict__.get(meth) if surd is not None else None
            if fn is None:
                self.absent.append(f"qwalk.numtheory.Surd.{meth}")
            else:
                also = f"{SURD}_ratio_calls" if meth == "ratio" else None
                self._set(surd, meth, self._count_wrapper(fn, SURD, also))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------------

    def layer_totals(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = totals[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return totals

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            fh.write('{"fields": ["name", "start_s", "end_s", "parent", "op"]}\n')
            for name, start, end, parent, op in self.spans:
                fh.write(f'["{name}", {start - origin:.9f}, {end - origin:.9f}, '
                         f'{parent}, {op}]\n')
