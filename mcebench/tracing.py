"""In-memory spans recorded around the program's layer boundaries.

The benchmark does not instrument the program. In a traced job it replaces,
for the duration of that job only, the functions the runners call into a
layer with wrappers that record a span around the original call. The
replacement happens at the *import site*, i.e. the name a caller module
looks up (``repro.core.hbbmc.reduce_graph``), so the defining module and
every other caller are untouched. Spans stay in memory and are written out
when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans of the current run: name, start, end, parent span and job.

    Single-threaded by design: the benchmark drives one job at a time, so a
    stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.job: str | None = None

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self.job,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span.update(attrs)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """The span's duration minus what its direct children cover (children
    of one span never overlap: the benchmark is single-threaded)."""
    kids = sum(duration(s) for s in spans if s["parent"] == span["id"])
    return duration(span) - kids


# -- wrappers ---------------------------------------------------------------


def _wrap_reduce(tracer: Tracer, fn):
    @functools.wraps(fn)
    def reduce_graph(g, *args, **kwargs):
        s = tracer.open("reduction.gr", n=g.n)
        try:
            red = fn(g, *args, **kwargs)
        finally:
            tracer.close(s)
        s.update(removed=red.removed, gr_cliques=len(red.cliques))
        return red

    return reduce_graph


def _wrap_edge_order(tracer: Tracer, fn):
    @functools.wraps(fn)
    def edge_order_rank(g, kind, *args, **kwargs):
        with tracer.span(f"ordering.{kind}"):
            return fn(g, kind, *args, **kwargs)

    return edge_order_rank


def _wrap_plain(name: str):
    def wrap(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return wrap


def _wrap_tplex(tracer: Tracer, fn):
    # enumerate_tplex is a generator: its span runs from the first ``next``
    # to exhaustion and so includes the caller's emission of every clique it
    # yields, which is the ET emission step as a whole.
    @functools.wraps(fn)
    def enumerate_tplex(*args, **kwargs):
        s = tracer.open("early_term.tplex")
        n = 0
        try:
            for clique in fn(*args, **kwargs):
                n += 1
                yield clique
        finally:
            tracer.close(s, cliques=n)

    return enumerate_tplex


#: (caller module, looked-up name, wrapper factory) for every layer entry the
#: runners reach. Sites in modules that are not imported are skipped, so the
#: local workloads never import the Spark job; a site whose name the module
#: no longer imports is skipped too, and its layer then reads 0.
SITES = (
    ("repro.core.hbbmc", "reduce_graph", _wrap_reduce),
    ("repro.core.hbbmc", "edge_order_rank", _wrap_edge_order),
    ("repro.core.hbbmc", "degeneracy_order", _wrap_plain("ordering.degeneracy")),
    ("repro.core.kernels", "enumerate_tplex", _wrap_tplex),
    ("repro.dist.mce", "to_local", _wrap_plain("graphs.to_local")),
    ("repro.dist.mce", "reduce_graph", _wrap_reduce),
    ("repro.dist.mce", "edge_order_rank", _wrap_edge_order),
    ("repro.dist.mce", "degeneracy_order", _wrap_plain("ordering.degeneracy")),
)


@contextmanager
def installed(tracer: Tracer):
    """Swap every import site for its wrapper; restore the originals on
    exit, also when the job raises."""
    saved = []
    try:
        for mod_name, attr, factory in SITES:
            mod = sys.modules.get(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:  # module not loaded, or the name is gone
                continue
            saved.append((mod, attr, orig))
            setattr(mod, attr, factory(tracer, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
