"""Per-layer tracing of unidiv, installed from outside the package.

`install(tracer)` replaces the public functions of every unidiv module, and
a fixed list of hot methods, with timing wrappers.  A function imported by
name into another module (``from .algebra import inverse`` in codebook.py,
for example) is replaced there too, so every call site is counted once.

Each wrapped call pushes a frame; on return its duration is charged to the
parent frame, and its self time (duration minus the time of wrapped
children) to the function.  Functions of the ``cli``, ``codebook`` and
``algebra`` modules also keep a full span (name, start, end, parent span,
request id).  The finer ``fields``, ``rationals`` and ``polynomials`` calls
keep per-request aggregates only (calls and self time), which bounds memory
while ``KElem.__mul__`` runs millions of times.  Generator functions are
timed across every resume, not just at creation, and keep aggregates only.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from time import perf_counter

MODULES = ("rationals", "polynomials", "fields", "algebra", "codebook", "cli")
SPAN_MODULES = ("cli", "codebook", "algebra")

# Methods worth a name of their own: (module, class, attribute names, label).
# Reflected operators share the label of the operator they mirror.
METHODS = (
    ("polynomials", "Polynomial", ("__init__",), "Polynomial"),
    ("fields", "KElem", ("__mul__", "__rmul__"), "KElem.mul"),
    ("fields", "KElem", ("__add__", "__radd__", "__sub__", "__rsub__"), "KElem.add"),
    ("fields", "KElem", ("inv",), "KElem.inv"),
    ("fields", "LElem", ("__mul__", "__rmul__"), "LElem.mul"),
    ("fields", "LElem", ("__add__", "__radd__", "__sub__", "__rsub__"), "LElem.add"),
    ("fields", "LElem", ("sigma",), "LElem.sigma"),
    ("fields", "LElem", ("conj",), "LElem.conj"),
    ("fields", "LElem", ("norm_to_k",), "LElem.norm_to_k"),
    ("fields", "LElem", ("inv",), "LElem.inv"),
    ("fields", "LElem", ("__eq__",), "LElem.eq"),
    ("algebra", "AlgElem", ("__mul__", "__rmul__"), "AlgElem.mul"),
    ("algebra", "AlgElem", ("__add__", "__sub__"), "AlgElem.add"),
    ("algebra", "AlgElem", ("scale",), "AlgElem.scale"),
    ("algebra", "MatL", ("det",), "MatL.det"),
    ("codebook", "SubfieldSpec", ("__post_init__",), "SubfieldSpec.check"),
    ("codebook", "SubfieldSpec", ("element",), "SubfieldSpec.element"),
)


class Tracer:
    """Frames, per-request aggregates and spans of one traced run."""

    def __init__(self):
        self.stack: list[list] = []  # [child seconds, span id]
        self.request = -1
        self.current: dict[str, list] = {}  # name -> [calls, self seconds]
        self.per_request: list[tuple[int, dict]] = []
        self.spans: list[tuple] = []  # (name, start, end, parent id, request)

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self.current = {}

    def end_request(self) -> None:
        self.per_request.append((self.request, self.current))
        self.current = {}

    def totals(self, scale=None) -> dict[str, list]:
        """Calls and self seconds per function, summed over requests.

        `scale`, if given, maps a request id to a factor for its seconds.
        """
        out: dict[str, list] = {}
        for rid, agg in self.per_request:
            factor = 1.0 if scale is None else scale(rid)
            for name, (calls, self_s) in agg.items():
                acc = out.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s * factor
        return out

    def write(self, path) -> None:
        """Spans and per-request aggregates as gzipped JSON."""
        payload = {
            "span_fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "per_request": [
                {"request": rid, "aggregates": agg} for rid, agg in self.per_request
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _wrap_call(tracer: Tracer, name: str, fn, keep_span: bool):
    stack = tracer.stack
    spans = tracer.spans

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent_span = stack[-1][1] if stack else -1
        frame = [0.0, parent_span]
        if keep_span:
            frame[1] = len(spans)
            spans.append(None)
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            agg = tracer.current.get(name)
            if agg is None:
                agg = tracer.current[name] = [0, 0.0]
            agg[0] += 1
            agg[1] += dur - frame[0]
            if keep_span:
                spans[frame[1]] = (name, start, end, parent_span, tracer.request)

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    stack = tracer.stack

    def resume(gen):
        while True:
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                agg = tracer.current.setdefault(name, [0, 0.0])
                agg[1] += dur - frame[0]
            yield item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.current.setdefault(name, [0, 0.0])[0] += 1
        return resume(fn(*args, **kwargs))

    return traced


def install(tracer: Tracer, package) -> None:
    """Wrap unidiv's public functions and the METHODS list."""
    modules = {m: getattr(package, m) for m in MODULES}
    replaced: dict[int, object] = {}
    for mod_name, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{mod_name}.{attr}"
            if inspect.isgeneratorfunction(fn):
                wrapped = _wrap_generator(tracer, name, fn)
            else:
                wrapped = _wrap_call(tracer, name, fn, mod_name in SPAN_MODULES)
            replaced[id(fn)] = wrapped
    # Rebind every module-level reference, including names imported by name.
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and inspect.isfunction(value):
                setattr(mod, attr, replaced[id(value)])
    for mod_name, cls_name, attrs, label in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        name = f"{mod_name}.{label}"
        for attr in attrs:
            fn = vars(cls)[attr]
            setattr(cls, attr, _wrap_call(tracer, name, fn, mod_name in SPAN_MODULES))
