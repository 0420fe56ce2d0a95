"""Layer spans recorded from outside the program.

A traced run swaps the module attributes that `qwmark.wmprf` (and the fast
API engine) call through for timing wrappers, and hands every pirate builder
a proxy around the marked circuit.  The library source is untouched: the
wrappers are installed for the traced pass only and removed afterwards.

Each span adds its duration to its parent's child time, so a layer's self
time is its duration minus the time covered by the spans it caused.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from qwmark import api, wmprf
from qwmark.crypto import ggm_eval
from qwmark.pe import pe_dec, pe_enc

# (module, attribute, span name): the names wmprf calls through, plus the
# fast engine's own projector build, which api_fast looks up in `api`.
BOUNDARIES = (
    (wmprf, "wm_gen", "elwm.gen"),
    (wmprf, "wm_mark", "elwm.mark"),
    (wmprf, "build_distribution", "elwm.build_distribution"),
    (wmprf, "distribution_povm", "api.distribution_povm"),
    (api, "distribution_povm", "api.distribution_povm"),
    (wmprf, "projimp", "spectral.projimp"),
    (wmprf, "run_api", "api.run_api"),
)
CLASSICAL_SPANS = ("elwm.circuit_run", "elwm.build_distribution", "elwm.gen", "elwm.mark")
REPLAY_INPUTS = 256


@contextmanager
def patched(module, attr: str, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


@dataclass
class ReplaySample:
    """The first traced circuit, its trial's public tag, and inputs it saw."""

    circuit: object
    tag: object
    inputs: list[str] = field(default_factory=list)


class Tracer:
    """Per-span call counts and self time, plus the counts read off results."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.exact_rounds = 0
        self.sample: ReplaySample | None = None
        self._open: list[float] = []  # child time of each open span
        self._last_tag = None

    def span(self, name: str, fn, after=None):
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.self_s[name] += duration - open_spans.pop()
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_gen(self, args, result):
        self._last_tag = result[1]

    def _after_run_api(self, args, result):
        info = result[2]
        if info["engine"] == "exact":
            self.exact_rounds += args[2].T + info["flush_rounds"]

    def _proxy_builder(self, pirate_builder):
        return lambda circuit: pirate_builder(CircuitProxy(circuit, self))

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        hooks = {"elwm.gen": self._after_gen, "api.run_api": self._after_run_api}
        with ExitStack() as stack:
            for module, attr, name in BOUNDARIES:
                wrapper = self.span(name, getattr(module, attr), hooks.get(name))
                stack.enter_context(patched(module, attr, wrapper))
            trial = self.span("wmprf.run_event_trial", wmprf.run_event_trial)

            def traced_trial(params, pirate_builder, *args, **kwargs):
                return trial(params, self._proxy_builder(pirate_builder), *args, **kwargs)

            stack.enter_context(patched(wmprf, "run_event_trial", traced_trial))
            yield self

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class CircuitProxy:
    """Stands in for the marked circuit handed to a pirate builder."""

    def __init__(self, circuit, tracer: Tracer):
        self._run = tracer.span("elwm.circuit_run", circuit.run)
        self._inputs = None
        if tracer.sample is None:
            tracer.sample = ReplaySample(circuit, tracer._last_tag)
            self._inputs = tracer.sample.inputs

    def run(self, x: str) -> str:
        if self._inputs is not None and len(self._inputs) < REPLAY_INPUTS:
            self._inputs.append(x)
        return self._run(x)


def _us_per_call(call, inputs, passes: int = 5, min_pass_s: float = 0.05) -> float:
    """Median over passes of the mean time per call, in microseconds."""
    if not inputs:
        return 0.0
    start = perf_counter()
    for item in inputs:
        call(item)
    reps = max(1, math.ceil(min_pass_s / max(perf_counter() - start, 1e-9)))
    work = inputs * reps
    per_call = []
    for _ in range(passes):
        start = perf_counter()
        for item in work:
            call(item)
        per_call.append((perf_counter() - start) / len(work))
    return statistics.median(per_call) * 1e6


def replay_primitives(sample: ReplaySample | None) -> dict[str, float]:
    """Time the crypto primitives directly on the inputs the proxy recorded.

    The marked circuit decrypts each input and walks the GGM tree; the
    decrypted plaintexts of the valid ciphertexts are re-encrypted under the
    trial's public tag, which is what Sim does when it builds a query.
    """
    if sample is None:
        return {"crypto.ggm_eval": 0.0, "pe.pe_dec": 0.0, "pe.pe_enc": 0.0}
    marked = sample.circuit.circuit
    plaintexts = [m for m in (pe_dec(marked.pe_dk, x) for x in sample.inputs) if m is not None]
    rng = np.random.default_rng(0)
    return {
        "crypto.ggm_eval": _us_per_call(lambda x: ggm_eval(marked.f_main, x), sample.inputs),
        "pe.pe_dec": _us_per_call(lambda x: pe_dec(marked.pe_dk, x), sample.inputs),
        "pe.pe_enc": _us_per_call(lambda m: pe_enc(sample.tag.pe_ek, m, rng), plaintexts),
    }
