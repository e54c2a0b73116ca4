"""Span recorder that times olskit's layers from outside the package.

``Tracer.install`` rebinds, in every module of ``olskit``, each public
function defined somewhere in the package to a wrapper that records a
span, so calls from one module into another (and a module's calls to its
own public functions) are timed without editing ``src/``.  It also wraps
``FiniteModel.__post_init__`` (the covariance PSD check) and the
decompositions of ``numpy.linalg``.  ``uninstall`` puts every original back.

A span is ``[name, start_ns, end_ns, parent, solution]``, where ``parent``
is the index of the enclosing span or -1.  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import time
from collections import defaultdict

import numpy as np

import olskit
from olskit.model import FiniteModel, OlsEstimator


def _svd_flops(a, full_matrices=True, compute_uv=True, **_kw) -> float:
    # Golub & Van Loan, Matrix Computations, Fig. 8.6.1 (m >= n)
    *batch, m, n = np.shape(a)
    m, n = max(m, n), min(m, n)
    per = 14 * m * n * n + 8 * n ** 3 if compute_uv else 4 * m * n * n - 4 * n ** 3 / 3
    return math.prod(batch) * per


def _lstsq_flops(a, b, *_args, **_kw) -> float:
    # LAPACK gelsd: counted as a thin SVD with U and V
    return _svd_flops(a)


def _square(per_n):
    def flops(a, *_args, **_kw) -> float:
        *batch, n, _ = np.shape(a)
        return math.prod(batch) * per_n(n)
    return flops


def _solve_flops(a, b, **_kw) -> float:
    *batch, n, _ = np.shape(a)
    rhs = 1 if np.ndim(b) == np.ndim(a) - 1 else np.shape(b)[-1]
    return math.prod(batch) * (2 * n ** 3 / 3 + 2 * n * n * rhs)


def _qr_flops(a, *_args, **_kw) -> float:
    *batch, m, n = np.shape(a)
    m, n = max(m, n), min(m, n)
    return math.prod(batch) * (2 * m * n * n - 2 * n ** 3 / 3)


# Flop counts of the LAPACK decompositions, computed from the operand
# shapes; they are estimates of the work asked for, not hardware counts.
LINALG_FLOPS = {
    "svd": _svd_flops,
    "lstsq": _lstsq_flops,
    "eigh": _square(lambda n: 9 * n ** 3),
    "eigvalsh": _square(lambda n: 4 * n ** 3 / 3),
    "eig": _square(lambda n: 25 * n ** 3),
    "eigvals": _square(lambda n: 10 * n ** 3),
    "cholesky": _square(lambda n: n ** 3 / 3),
    "inv": _square(lambda n: 2 * n ** 3),
    "det": _square(lambda n: 2 * n ** 3 / 3),
    "slogdet": _square(lambda n: 2 * n ** 3 / 3),
    "solve": _solve_flops,
    "qr": _qr_flops,
}


def _estimator_bytes(est: OlsEstimator) -> int:
    return sum(v.nbytes for v in vars(est).values() if isinstance(v, np.ndarray))


def _text_bytes(_path, text, *_args, **_kw) -> int:
    return len(text.encode("utf-8"))


class Tracer:
    """Records spans and per-solution counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.solution = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0, 0, parent, self.solution]
            self.spans.append(span)
            self._stack.append(index)
            if on_call is not None:
                on_call(args, kwargs)
            span[1] = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time_ns()
                self._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count(self, name: str, measure):
        def hook(args, kwargs):
            self.counters[name] += measure(*args, **kwargs)
        return hook

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "cli.atomic_write": (self._count("cli.bytes_written", _text_bytes), None),
            "model.ols_build": (None, self._add_estimator),
        }
        for info in pkgutil.iter_modules(olskit.__path__):
            module = importlib.import_module(f"olskit.{info.name}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("olskit.")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self._rebind(module, attr, self._wrap(name, obj, *hooks.get(name, (None, None))))
        self._rebind(FiniteModel, "__post_init__",
                     self._wrap("model.FiniteModel", FiniteModel.__post_init__))
        for attr, flops in LINALG_FLOPS.items():
            self._rebind(np.linalg, attr, self._wrap(
                f"numpy.linalg.{attr}", getattr(np.linalg, attr),
                on_call=self._count("numpy.linalg.flop", flops)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _add_estimator(self, est: OlsEstimator) -> None:
        self.counters["model.estimator_bytes"] += _estimator_bytes(est)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "solution"],
                       "spans": self.spans}, fh)


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Inclusive seconds, self seconds and call counts per span name.

    Inclusive time counts only the outermost span of a name, so a
    function that reaches itself again is not counted twice.  Self time is
    a span's duration minus the durations of its direct children, which
    nest inside it and do not overlap one another.
    """
    out: dict[str, float] = defaultdict(float)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _sol in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, _sol) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start - child_ns[i]) * 1e-9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += (end - start) * 1e-9
        if name.startswith("numpy.linalg."):
            out["numpy.linalg.calls"] += 1
            out["numpy.linalg.s"] += (end - start) * 1e-9
    return out
