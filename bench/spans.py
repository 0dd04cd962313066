"""In-memory span tracing of genairy's layers, for the traced run only.

``Tracer.install`` replaces functions of the package modules with
wrappers, in every genairy module namespace that holds them, so calls
the library makes internally are seen as well as the benchmark's own.
Each wrapped call records a span ``[name, start, end, parent, request]``;
a few hot functions are only counted.  A layer's self time is the time
of its spans minus the time covered by their child spans.

Spans (layer: functions)
    cli.main                     cli.main
    series.taylor_model          series.taylor_model
    series.eval                  eval_series, eval_derivative_series, riccati_solution
    quadrature.v_pm              v_pm
    quadrature.head_integral     head_integral
    quadrature.tail_integral     tail_integral (includes the Aitken table)
    quadrature.half_period_lumps half_period_lumps (includes _invert_phase)
    asymptotics                  asympt_pos, asympt_neg
    diffpoly.f_n                 f_n (includes apply_lift)
    diffpoly.evaluate            evaluate
    diffpoly.jet                 log_derivative_jet, exp_jet
    diffpoly.verify_cole_hopf    verify_cole_hopf

Counters
    specfun.gamma.calls          gamma, under any name it was imported as
    diffpoly.apply_lift.calls    apply_lift
    quadrature.integrand_evals   OscillatoryIntegrand.__call__
    quadrature.phase_evals       OscillatoryIntegrand.phase inside a
                                 half_period_lumps span, i.e. the phase
                                 inversion (bracketing plus Newton steps)
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer", "LAYER_METRICS"]

_LUMPS = "quadrature.half_period_lumps"

# every metric Tracer.layer_metrics returns, with its unit
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "series.taylor_model.calls": "count",
    "series.taylor_model.self_s": "s",
    "specfun.gamma.calls": "count",
    "series.eval.calls": "count",
    "series.eval.self_s": "s",
    "series.refusals": "count",
    "quadrature.v_pm.calls": "count",
    "quadrature.v_pm.self_s": "s",
    "quadrature.refusals": "count",
    "quadrature.head_integral.self_s": "s",
    "quadrature.integrand_evals": "count",
    "quadrature.tail_integral.self_s": "s",
    "quadrature.half_period_lumps.self_s": "s",
    "quadrature.lumps_computed": "count",
    "quadrature.lump_useful_ratio": "ratio",
    "quadrature.phase_evals": "count",
    "asymptotics.calls": "count",
    "asymptotics.self_s": "s",
    "diffpoly.f_n.calls": "count",
    "diffpoly.apply_lift.calls": "count",
    "diffpoly.f_n.self_s": "s",
    "diffpoly.evaluate.self_s": "s",
    "diffpoly.jet.self_s": "s",
    "diffpoly.verify_cole_hopf.self_s": "s",
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._lumps: list[tuple[int, int]] = []  # (enclosing span, half periods)
        self._refusal_types: tuple = ()

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_request(self, request_id: int, fn, *args):
        """Call fn(*args) inside a root span for one request."""
        self.request = request_id
        idx = self._open("request")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _spanned(self, name: str, fn, refusals: str | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except self._refusal_types:
                if refusals:
                    self.counts[refusals] += 1
                raise
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _phase(self, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == _LUMPS:
                counts["quadrature.phase_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lump_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(f, T, count, *args, **kwargs):
            self._lumps.append((self._stack[-1] if self._stack else -1, count))
            return fn(f, T, count, *args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded genairy module."""
        from genairy import asymptotics, cli, diffpoly, quadrature, series, specfun
        from genairy.common import ConvergenceError, DomainError

        self._refusal_types = (ConvergenceError, DomainError)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "genairy"]

        def replace(orig, new):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)

        spanned = [
            (cli.main, "cli.main", None),
            (series.taylor_model, "series.taylor_model", None),
            (series.eval_series, "series.eval", "series.refusals"),
            (series.eval_derivative_series, "series.eval", "series.refusals"),
            (series.riccati_solution, "series.eval", "series.refusals"),
            (quadrature.v_pm, "quadrature.v_pm", "quadrature.refusals"),
            (quadrature.head_integral, "quadrature.head_integral", None),
            (quadrature.tail_integral, "quadrature.tail_integral", None),
            (asymptotics.asympt_pos, "asymptotics", None),
            (asymptotics.asympt_neg, "asymptotics", None),
            (diffpoly.f_n, "diffpoly.f_n", None),
            (diffpoly.evaluate, "diffpoly.evaluate", None),
            (diffpoly.log_derivative_jet, "diffpoly.jet", None),
            (diffpoly.exp_jet, "diffpoly.jet", None),
            (diffpoly.verify_cole_hopf, "diffpoly.verify_cole_hopf", None),
        ]
        for fn, name, refusals in spanned:
            replace(fn, self._spanned(name, fn, refusals))
        lumps = quadrature.half_period_lumps
        replace(lumps, self._lump_counter(self._spanned(_LUMPS, lumps)))
        replace(specfun.gamma, self._counted("specfun.gamma.calls", specfun.gamma))
        replace(diffpoly.apply_lift, self._counted("diffpoly.apply_lift.calls", diffpoly.apply_lift))
        cls = quadrature.OscillatoryIntegrand
        cls.__call__ = self._counted("quadrature.integrand_evals", cls.__call__)
        cls.phase = self._phase(cls.phase)

    # -- results ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        return self_s, calls

    def under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        hits = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            hits += parent >= 0
        return hits

    def layer_metrics(self) -> dict[str, float]:
        self_s, calls = self.self_times()
        per_tail: dict[int, list[int]] = defaultdict(list)
        for parent, count in self._lumps:
            per_tail[parent].append(count)
        computed = sum(sum(c) for c in per_tail.values())
        useful = sum(c[-1] for c in per_tail.values())
        return {
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_ms": 1e3 * self_s["cli.main"],
            "series.taylor_model.calls": calls["series.taylor_model"],
            "series.taylor_model.self_s": self_s["series.taylor_model"],
            "specfun.gamma.calls": self.counts["specfun.gamma.calls"],
            "series.eval.calls": calls["series.eval"],
            "series.eval.self_s": self_s["series.eval"],
            "series.refusals": self.counts["series.refusals"],
            "quadrature.v_pm.calls": calls["quadrature.v_pm"],
            "quadrature.v_pm.self_s": self_s["quadrature.v_pm"],
            "quadrature.refusals": self.counts["quadrature.refusals"],
            "quadrature.head_integral.self_s": self_s["quadrature.head_integral"],
            "quadrature.integrand_evals": self.counts["quadrature.integrand_evals"],
            "quadrature.tail_integral.self_s": self_s["quadrature.tail_integral"],
            "quadrature.half_period_lumps.self_s": self_s[_LUMPS],
            "quadrature.lumps_computed": computed,
            "quadrature.lump_useful_ratio": useful / computed if computed else 0.0,
            "quadrature.phase_evals": self.counts["quadrature.phase_evals"],
            "asymptotics.calls": calls["asymptotics"],
            "asymptotics.self_s": self_s["asymptotics"],
            "diffpoly.f_n.calls": calls["diffpoly.f_n"],
            "diffpoly.apply_lift.calls": self.counts["diffpoly.apply_lift.calls"],
            "diffpoly.f_n.self_s": self_s["diffpoly.f_n"],
            "diffpoly.evaluate.self_s": self_s["diffpoly.evaluate"],
            "diffpoly.jet.self_s": self_s["diffpoly.jet"],
            "diffpoly.verify_cole_hopf.self_s": self_s["diffpoly.verify_cole_hopf"],
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, request]) + "\n")
