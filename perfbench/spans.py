"""Spans around k3lab's public functions, recorded from outside the program.

`Tracer.install()` replaces each function named in `TRACED` on the module
where its caller looks it up (a name bound by ``from x import f`` is wrapped
in the importing module too), and wraps ``MultiPolynomial.__mul__`` and
``__rmul__`` on the class.  Every call records a span: name, start, end,
parent span and iteration id.  Spans stay in memory until `write()`; the
per-layer metrics are computed from them by `layer_metrics()`.  A tracer in
another process hands its spans over with `state()` and `absorb()`.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from pathlib import Path

# (span name, [(module, attribute), ...]) - every place the name is looked up.
TRACED = (
    ("exact.clear_denominators", [("k3lab.exact", "clear_denominators"),
                                  ("k3lab.shioda_inose", "clear_denominators")]),
    ("shioda_inose.verify_master_identity", [("k3lab.shioda_inose", "verify_master_identity")]),
    ("shioda_inose.fit_kappa", [("k3lab.shioda_inose", "fit_kappa")]),
    ("shioda_inose.identity_residual_at", [("k3lab.shioda_inose", "identity_residual_at")]),
    ("shioda_inose.ab_numeric", [("k3lab.shioda_inose", "ab_numeric"),
                                 ("k3lab.modular", "ab_numeric")]),
    ("shioda_inose.ab_powers_from_lambda", [("k3lab.shioda_inose", "ab_powers_from_lambda")]),
    ("shioda_inose.ab_powers_from_j", [("k3lab.shioda_inose", "ab_powers_from_j")]),
    ("lattice.lattice_invariants", [("k3lab.lattice", "lattice_invariants")]),
    ("lattice.kernel_basis", [("k3lab.lattice", "kernel_basis")]),
    ("lattice.induced_gram", [("k3lab.lattice", "induced_gram"),
                              ("k3lab.kummer", "induced_gram")]),
    ("kummer.labeled_tree_report", [("k3lab.kummer", "labeled_tree_report")]),
    ("kummer.pair", [("k3lab.kummer", "pair")]),
    ("toric.lattice_points", [("k3lab.toric", "lattice_points")]),
    ("toric.dual_polytope", [("k3lab.toric", "dual_polytope")]),
    ("toric.edge_reports", [("k3lab.toric", "edge_reports")]),
    ("weierstrass.fiber_analysis", [("k3lab.weierstrass", "fiber_analysis")]),
    ("weierstrass.is_degenerate_numeric", [("k3lab.weierstrass", "is_degenerate_numeric")]),
    ("modular.j_numeric", [("k3lab.modular", "j_numeric")]),
    ("modular.build_modular_polynomial", [("k3lab.modular", "build_modular_polynomial")]),
    ("modular.load_modular_polynomial", [("k3lab.modular", "load_modular_polynomial")]),
    ("cli.main", [("k3lab.cli", "main")]),
    # The speed probe (speed.py) is a span of its own, so that no layer's
    # self time includes it.
    ("speed.probe", [("speed", "probe")]),
)


class Tracer:
    """Single-threaded span recorder.  `spans` holds one tuple per closed
    span: (id, name, parent id or -1, iteration, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.iteration = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name_of_call, note=None):
        tracer = self

        def traced(*args, **kwargs):
            # The speed probe runs from a signal handler, between any two
            # lines here, and opens and closes a span of its own.  So the
            # stack is the same after it, a span is stored by a single
            # append once it has ended, and self_times() places a probe by
            # its interval.
            name = name_of_call(args, kwargs)
            span_id = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, parent, tracer.iteration, start, end))
            if note is not None:
                note(tracer.counters, args, result)
            return result

        return traced

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name; a second call does nothing."""
        if self._restore:
            return
        import importlib

        from k3lab.exact import MultiPolynomial

        for name, sites in TRACED:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = module.__dict__.get(attr)
                if fn is None:  # gone from the program: its metrics read 0
                    continue
                note = _note_load if name == "modular.load_modular_polynomial" else None
                self._replace(module, attr, self._wrap(fn, _fixed(name), note))
        suites = importlib.import_module("k3lab.suites")
        cli = importlib.import_module("k3lab.cli")
        run_suite = self._wrap(suites.run_suite, _suite_span)
        self._replace(suites, "run_suite", run_suite)
        self._replace(cli, "run_suite", run_suite)
        for attr in ("__mul__", "__rmul__"):
            fn = MultiPolynomial.__dict__[attr]
            self._replace(MultiPolynomial, attr,
                          self._wrap(fn, _fixed("exact.mul"), _note_mul))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children.
        A child counts against its nearest ancestor whose interval holds it:
        a probe that fires between a span's bookkeeping lines lies just
        outside that span, in its parent."""
        row = {span[0]: i for i, span in enumerate(self.spans)}
        own = [end - start for *_, start, end in self.spans]
        for _, _, parent, _, start, end in self.spans:
            while parent >= 0:
                _, _, grandparent, _, outer_start, outer_end = self.spans[row[parent]]
                if outer_start <= start and end <= outer_end:
                    own[row[parent]] -= end - start
                    break
                parent = grandparent
        return own

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, iteration, name, start, end."""
        with open(path, "w") as out:
            out.write("id\tparent\titeration\tname\tstart\tend\n")
            for span_id, name, parent, iteration, start, end in self.spans:
                out.write(f"{span_id}\t{parent}\t{iteration}\t{name}\t{start!r}\t{end!r}\n")

    def state(self) -> dict:
        """The spans and counters as plain data, for `absorb()`."""
        return {"spans": self.spans, "counters": dict(self.counters)}

    def absorb(self, state: dict) -> None:
        """Add the spans of another tracer's `state()` to this iteration."""
        ids = {span[0]: next(self._ids) for span in state["spans"]}
        for span_id, name, parent, _, start, end in state["spans"]:
            self.spans.append((ids[span_id], name, ids.get(parent, -1), self.iteration,
                               start, end))
        self.counters.update(state["counters"])

    def layer_metrics(self, metrics, iterations: int) -> dict[str, float]:
        """Per-iteration value of each name in `metrics` that ends in
        ``.calls`` or ``.self_s`` (of the span before it), plus the
        counters; any other name, such as `trace.overhead_s`, is the
        caller's."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (_, name, *_), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        loads = calls["modular.load_modular_polynomial"]
        values = {
            "exact.mul.term_pairs": self.counters["exact.mul.term_pairs"] / iterations,
            "modular.cache.hit_ratio": (self.counters["modular.cache.hits"] / loads
                                        if loads else 0.0),
        }
        for metric in metrics:
            span, kind = metric.rsplit(".", 1)
            if metric not in values and kind in ("calls", "self_s"):
                values[metric] = (calls[span] if kind == "calls" else self_s[span]) / iterations
        return values


def _fixed(name):
    return lambda args, kwargs: name


def _suite_span(args, kwargs):
    suite = args[0] if args else kwargs.get("name")
    return f"suites.{suite}"


def _note_mul(counters, args, result):
    from k3lab.exact import MultiPolynomial

    a, b = args
    if isinstance(a, MultiPolynomial) and isinstance(b, MultiPolynomial):
        counters["exact.mul.term_pairs"] += len(a.terms) * len(b.terms)


def _note_load(counters, args, result):
    if result is not None:
        counters["modular.cache.hits"] += 1
