"""In-memory tracer for the benchmark's traced repetition.

It replaces public module and class attributes of evopareto's layers with
wrappers for the duration of one repetition; no program file changes.  Hot
inner calls (RNG draws, policy forward, environment step, rollout, variation
operators, GD) are only counted.  Coarse boundaries record spans, from which
busy time and self time (busy time minus the time of wrapped children) are
summed per name.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from evopareto import evaluation, harness, indicators, pareto, policy
from evopareto.algorithms import base, moea
from evopareto.environments import Environment
from evopareto.rng import RandomStream


class Tracer:
    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._open: list[list] = []  # [span index, seconds covered by children]
        self._replaced: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else -1
        frame = [len(self.spans), 0.0]
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._open.pop()
        span = self.spans[frame[0]]
        span[3] = end
        duration = end - span[2]
        name = span[0]
        self.counts[name + ".calls"] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - frame[1]
        if self._open:
            self._open[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers ---------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._replaced.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def _timed(self, owner, attr: str, name) -> None:
        """Span per call; ``name`` is a string or a function of the arguments."""
        original = vars(owner)[attr]
        naming = name if callable(name) else (lambda args: name)

        def wrapper(*args, **kwargs):
            frame = self._enter(naming(args))
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(frame)

        self._replace(owner, attr, wrapper)

    def _counted(self, owner, attr: str, name: str, amount=None) -> None:
        """Count per call, or ``amount(args)`` per call."""
        original = vars(owner)[attr]
        counts = self.counts

        if amount is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += amount(args)
                return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        if self._replaced:
            raise RuntimeError("tracer already installed")
        # One raw 64-bit output per next_u64 call, n per uniform_vector call;
        # uniform, below and normal draw through next_u64.
        self._counted(RandomStream, "next_u64", "rng.draws")
        self._counted(RandomStream, "uniform_vector", "rng.draws", lambda args: args[1])
        self._counted(policy, "forward", "policy.forward.calls")
        self._counted(Environment, "step", "environments.step.calls")
        self._counted(evaluation, "rollout", "evaluation.rollout.calls")
        self._counted(base, "sbx_crossover", "algorithms.sbx_crossover.calls")
        self._counted(base, "polynomial_mutation", "algorithms.polynomial_mutation.calls")
        self._counted(indicators, "gd", "indicators.gd.calls")  # igd calls gd too
        self._timed(harness, "evaluate", "evaluation.evaluate")
        self._timed(base.Optimizer, "ask", lambda args: f"algorithms.{args[0].name}.ask")
        self._timed(base.Optimizer, "tell", lambda args: f"algorithms.{args[0].name}.tell")
        self._timed(moea, "hypervolume_contributions", "indicators.hypervolume_contributions")
        self._timed(indicators, "hypervolume_exact", "indicators.hypervolume_exact")
        self._timed(indicators, "indicator_series", "indicators.indicator_series")
        self._timed(pareto, "fast_nondominated_sort", "pareto.fast_nondominated_sort")
        self._timed(pareto, "nondominated_filter", "pareto.nondominated_filter")

    def uninstall(self) -> None:
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """All spans as JSON lines: name, parent span index, start and end seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "parent": parent,
                                         "start": start, "end": end}) + "\n")
