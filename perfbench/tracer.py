"""Outside-in tracing of gdrazin's public functions for the traced benchmark run.

Nothing inside the package is edited: while a ``Tracer`` is installed, each
traced function is replaced by a wrapper in its defining module *and* in
every gdrazin module that imported it by name
(``cli`` does ``from .io import load_matrix``, so patching ``gdrazin.io``
alone would miss most calls). ``numpy.linalg.svd`` is wrapped as well, in
``numpy.linalg`` and in the private module whose functions (``norm(a, 2)``
among them) call it by global name, so every SVD is counted by matrix size.

Each wrapped call records a span ``(name, start, end, parent, request)`` in
memory; ``write_spans`` saves them when the run ends. A layer's time is self
time: the span's duration minus the time covered by its child spans.
"""

import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Public functions timed and counted, by defining module. Spans are named
# "<module>.<function>" with the "gdrazin." prefix dropped.
TRACED = {
    "gdrazin.cli": ("main", "build_parser"),
    "gdrazin.io": ("load_matrix", "save_matrix", "matrix_to_doc", "load_instance", "save_instance"),
    "gdrazin.drazin": ("drazin_oracle", "check_drazin_axioms", "drazin_index", "is_quasinilpotent"),
    "gdrazin.additive": (
        "check_factor_condition",
        "drazin_sum",
        "drazin_sum_nilpotent",
        "nilpotent_sum_closure",
    ),
    "gdrazin.blockmat": ("check_hypothesis", "block_drazin"),
    "gdrazin.series": ("summed",),
    "gdrazin.casegen": ("generate", "certify"),
}

# SVD size buckets by the larger matrix side: (upper bound, metric suffix).
SVD_BUCKETS = ((8, "n8"), (32, "n32"), (128, "n128"), (None, "n256"))

PACKAGE = "gdrazin"
_NUMPY_SVD_MODULES = ("numpy.linalg", "numpy.linalg._linalg")


def svd_bucket(shape) -> str:
    side = max(shape[-2:])
    return next(name for bound, name in SVD_BUCKETS if bound is None or side <= bound)


class Tracer:
    """Span recorder and counter set. ``install`` puts the wrappers in
    place and ``uninstall`` restores the original functions; as a context
    manager it does both.

    Recording happens only while ``active`` is true, so the benchmark's own
    output checks (which also call numpy) are never counted.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = 0
        self.active = False
        self._stack: list[list] = []  # open spans, innermost last
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        for modname, names in TRACED.items():
            short = modname.removeprefix(PACKAGE + ".")
            for name in names:
                original = getattr(sys.modules[modname], name)
                self._patch_everywhere(original, self._wrap(f"{short}.{name}", original))
        svd = np.linalg.svd
        wrapped = self._wrap("svd", svd)
        for modname in _NUMPY_SVD_MODULES:
            self._patch(sys.modules[modname], "svd", wrapped)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _patch(self, module, name, replacement) -> None:
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    # ------------------------------------------------------------ spans

    def _wrap(self, name, fn):
        hooks = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hooks and hooks[0]:
                args, kwargs = hooks[0](self, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)  # filled in when the span ends
            frame = [name, index, 0.0]  # name, span index, seconds in child spans
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                dur = end - start
                self.spans[index] = (name, start, end, parent[1] if parent else -1, self.request)
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
            if hooks and hooks[1]:
                hooks[1](self, args, kwargs, result)
            return result

        return wrapper

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------- hooks
# Per-function extras: (before(tracer, args, kwargs) -> (args, kwargs),
# after(tracer, args, kwargs, result)). Both run only while recording.

def _after_load_matrix(tr, args, kwargs, result):
    tr.counts["io.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _after_load_instance(tr, args, kwargs, result):
    d = Path(args[0] if args else kwargs["directory"])
    tr.counts["io.bytes_read"] += os.path.getsize(d / "instance.json")


def _after_save_matrix(tr, args, kwargs, result):
    tr.counts["io.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


def _after_save_instance(tr, args, kwargs, result):
    d = Path(args[0] if args else kwargs["directory"])
    tr.counts["io.bytes_written"] += os.path.getsize(d / "instance.json")


def _before_svd(tr, args, kwargs):
    a = args[0] if args else kwargs["a"]
    tr.counts["svd.calls." + svd_bucket(np.shape(a))] += 1
    return args, kwargs


def _before_summed(tr, args, kwargs):
    args = list(args)
    terms = args[0] if args else kwargs.pop("terms")
    nmax = args[1] if len(args) > 1 else kwargs["nmax"]
    tr.counts["series.cap"] += int(nmax)

    def counted():
        for t in terms:
            tr.counts["series.terms"] += 1
            yield t

    if args:
        args[0] = counted()
    else:
        kwargs["terms"] = counted()
    return tuple(args), kwargs


def _before_certify(tr, args, kwargs):
    if tr.in_span("casegen.generate"):
        tr.counts["casegen.certify.in_generate"] += 1
    return args, kwargs


_HOOKS = {
    "io.load_matrix": (None, _after_load_matrix),
    "io.load_instance": (None, _after_load_instance),
    "io.save_matrix": (None, _after_save_matrix),
    "io.save_instance": (None, _after_save_instance),
    "svd": (_before_svd, None),
    "series.summed": (_before_summed, None),
    "casegen.certify": (_before_certify, None),
}


# ---------------------------------------------------------------- metrics

def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass: {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (tr.calls[name], "count")

    def ms(name, key=None):
        out[key or f"{name}.ms"] = (tr.self_s[name] * 1e3, "ms")

    out["cli.self_ms"] = (tr.self_s["cli.main"] * 1e3, "ms")
    ms("cli.build_parser")
    out["cli.report_bytes"] = (tr.counts["cli.report_bytes"], "bytes")

    for name in ("io.load_matrix", "io.save_matrix"):
        calls(name)
        ms(name)
    out["io.bytes_read"] = (tr.counts["io.bytes_read"], "bytes")
    out["io.bytes_written"] = (tr.counts["io.bytes_written"], "bytes")
    ms("io.matrix_to_doc")

    for name in ("drazin.drazin_oracle", "drazin.check_drazin_axioms"):
        calls(name)
        ms(name)
    calls("drazin.drazin_index")
    calls("drazin.is_quasinilpotent")
    out["drazin.oracle_failures"] = (
        sum(v for k, v in tr.counts.items() if k.startswith("drazin.drazin_oracle.raised.")),
        "count",
    )

    for _, bucket in SVD_BUCKETS:
        key = f"svd.calls.{bucket}"
        out[key] = (tr.counts[key], "count")
    ms("svd")

    for name in (
        "additive.check_factor_condition",
        "additive.drazin_sum",
        "additive.drazin_sum_nilpotent",
        "additive.nilpotent_sum_closure",
        "blockmat.check_hypothesis",
        "blockmat.block_drazin",
    ):
        calls(name)
        ms(name)

    calls("series.summed")
    terms, cap = tr.counts["series.terms"], tr.counts["series.cap"]
    out["series.terms"] = (terms, "count")
    out["series.cap"] = (cap, "count")
    out["series.fill"] = (terms / cap if cap else 0.0, "ratio")
    out["series.convergence_errors"] = (
        tr.counts["series.summed.raised.ConvergenceError"], "count"
    )

    for name in ("casegen.generate", "casegen.certify"):
        calls(name)
        ms(name)
    generated = tr.calls["casegen.generate"]
    out["casegen.certify_per_generate"] = (
        tr.counts["casegen.certify.in_generate"] / generated if generated else 0.0, "ratio"
    )
    out["casegen.generation_failed"] = (
        tr.counts["casegen.generate.raised.GenerationFailed"], "count"
    )
    return out
