"""Spans around the public functions of each heraldsim layer.

The benchmark records spans from outside the program: it replaces the
names the drivers look up (``heraldsim.experiments.<fn>``, plus the module
globals that ``homodyne`` and ``tomo`` call internally) with wrappers that
time the call, count its work, and return the result untouched.  Spans
stay in memory and are summarised when the run ends.

A name that no longer exists is reported as absent and its layer metrics
read zero; a counter that cannot read a changed signature or result is
reported as broken.  A refactor that renames or removes a function never
crashes the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# a counter adds f(result, bound arguments) to a per-layer metric per call
Counter = Callable[[Any, inspect.BoundArguments], float]


@dataclass(frozen=True)
class Probe:
    """One wrapped name: where it is looked up, its span, its counters."""

    module: str
    attr: str
    span: str
    counters: dict[str, Counter] = field(default_factory=dict)


def _one(result, bound):
    return 1


def _len(result, bound):
    return len(result)


def _rows(result, bound):
    return result.shape[0]


PROBES: tuple[Probe, ...] = (
    Probe("heraldsim.experiments", "synthesize_thermal_field", "clicks.field", {
        "clicks.field_calls": _one,
        "clicks.field_samples": lambda r, b: r.grid.n_samples,
        # complex128 amplitude, computed from the sample count
        "clicks.field_bytes": lambda r, b: 16 * r.grid.n_samples,
    }),
    Probe("heraldsim.experiments", "sample_clicks", "clicks.thinning", {"clicks.clicks": _len}),
    Probe("heraldsim.experiments", "select_coincidences", "clicks.coincidence", {"clicks.pairs": _len}),
    Probe("heraldsim.experiments", "g2_histogram", "clicks.g2_hist"),
    Probe("heraldsim.experiments", "synthesize_trace_batch", "homodyne.trace_synth", {
        "homodyne.traces": lambda r, b: r[0].shape[0],
        "homodyne.trace_chunks": _one,
        # float64 traces x samples, computed from the array shape
        "homodyne.trace_bytes": lambda r, b: 8 * r[0].shape[0] * r[0].shape[1],
    }),
    Probe("heraldsim.homodyne", "joint_sample_two_modes", "homodyne.joint_sampler",
          {"homodyne.joint_sampler_calls": _one}),
    Probe("heraldsim.experiments", "project_trace", "homodyne.project"),
    Probe("heraldsim.experiments", "sample_quadratures", "homodyne.quad_sample",
          {"homodyne.quad_samples": _rows}),
    Probe("heraldsim.experiments", "ml_diagonal", "tomo.ml", {
        "tomo.ml_calls": _one,
        "tomo.em_iterations": lambda r, b: r.iterations,
        "tomo.not_converged": lambda r, b: 0 if r.converged else 1,
    }),
    Probe("heraldsim.experiments", "bootstrap_stderr", "tomo.bootstrap", {
        "tomo.bootstrap_calls": _one,
        "tomo.bootstrap_em_runs": lambda r, b: b.arguments["n_boot"],
    }),
    Probe("heraldsim.tomo", "build_povm", "tomo.povm", {"tomo.povm_builds": _one}),
    Probe("heraldsim.experiments", "build_heralded_state", "fock.build", {"fock.scenes": _one}),
    Probe("heraldsim.experiments", "apply_loss_channel", "fock.loss"),
    Probe("heraldsim.experiments", "reduce_to_mode", "fock.reduce"),
    Probe("heraldsim.experiments", "reduce_to_mode_pair", "fock.reduce"),
    Probe("heraldsim.experiments", "make_trigger_mode", "modes", {"modes.calls": _one}),
    Probe("heraldsim.experiments", "make_symmetric_antisymmetric", "modes", {"modes.calls": _one}),
    Probe("heraldsim.experiments", "extend_orthonormal_basis", "modes", {"modes.calls": _one}),
    Probe("heraldsim.experiments", "overlap", "modes", {"modes.calls": _one}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None at top level


class Tracer:
    """Collects spans and counters in memory for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        # counters that could not read a call; the function's signature or
        # result changed shape
        self.broken: set[str] = set()
        self._open: list[int] = []

    def wrap(self, fn: Callable, span: str, counters: dict[str, Counter] | None = None) -> Callable:
        """Return ``fn`` wrapped in a span; the result is passed through as is."""
        counters = counters or {}
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(span, self.clock(), float("nan"), parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = self.clock()
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, count in counters.items():
                    try:
                        value = count(result, bound)
                    except (AttributeError, KeyError, IndexError, TypeError):
                        self.broken.add(name)
                        continue
                    self.counters[name] = self.counters.get(name, 0) + value
            return result

        return wrapper


def install(tracer: Tracer, probes: tuple[Probe, ...] = PROBES) -> tuple[list[str], Callable[[], None]]:
    """Patch every probe that resolves; return (absent names, undo)."""
    absent = []
    undo = []
    for probe in probes:
        try:
            module = importlib.import_module(probe.module)
        except ImportError:
            module = None
        original = getattr(module, probe.attr, None) if module is not None else None
        if not callable(original):
            absent.append(f"{probe.module}.{probe.attr}")
            continue
        setattr(module, probe.attr, tracer.wrap(original, probe.span, probe.counters))
        undo.append((module, probe.attr, original))

    def restore() -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return absent, restore


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent never overlap (calls nest on one thread), so
    the covered part is the sum of the children's durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Self time summed per span name, and the total of top-level spans."""
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    top = sum(s.end - s.start for s in spans if s.parent is None)
    return totals, top
