"""Span tracing of hoytsense's layers from outside the package.

hoytsense has no hooks of its own, so the tracer replaces each public
function at every module attribute through which another module calls it.
Several callers bind names at import (``average`` calls its own
``auc_awgn``, ``snr_pdf`` and ``integrate_half_line``; ``montecarlo`` its
own ``sample_snr``), so each binding site is wrapped, under the callee's
name.  The Monte Carlo batch stages are timed through a delegating proxy
around the Generator that ``montecarlo.batch_rng`` returns, and around the
``np`` module that ``montecarlo`` sorts and ranks with; the proxies pass
every call through unchanged, so the draw order, and the CSV, stay the same.

A span is (name, start, end, parent, request id, payload) and lives in
flat arrays until the run ends.  Self time is a span's duration minus the
durations of its direct children; all calls are on one thread, so children
nest and never overlap.
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from operator import attrgetter, itemgetter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

FAILED = -1.0  # payload of a span whose call raised

# (module, attribute, span name, payload taken from the return value)
_terms = attrgetter("terms_used")        # MetricValue
_evals = itemgetter(2)                   # (value, est_error, evaluations)
_trials = attrgetter("trials")           # McEstimate

SITES = (
    ("average", "avg_auc_closed", "average.avg_auc_closed", _terms),
    ("average", "avg_auc_quadrature", "average.avg_auc_quadrature", _terms),
    ("average", "avg_pd_quadrature", "average.avg_pd_quadrature", _terms),
    ("average", "auc_awgn", "detector.auc_awgn", None),
    ("detector", "auc_awgn", "detector.auc_awgn", None),
    ("detector", "threshold_for_pf", "detector.threshold_for_pf", None),
    ("detector", "pf", "detector.pf", None),
    ("average", "snr_pdf", "hoyt.snr_pdf", None),
    ("hoyt", "snr_pdf", "hoyt.snr_pdf", None),
    ("montecarlo", "sample_snr", "hoyt.sample_snr", None),
    ("hoyt", "sample_snr", "hoyt.sample_snr", None),
    ("average", "integrate_half_line", "quadrature.integrate_half_line", _evals),
    ("detector", "integrate_half_line", "quadrature.integrate_half_line", _evals),
    ("validate", "integrate_half_line", "quadrature.integrate_half_line", _evals),
    ("quadrature", "integrate_half_line", "quadrature.integrate_half_line", _evals),
    ("specfun", "marcum_q", "specfun.marcum_q", None),
    ("specfun", "reg_upper_gamma", "specfun.reg_upper_gamma", None),
    ("specfun", "bessel_i", "specfun.bessel_i", None),
    ("montecarlo", "estimate_auc", "montecarlo.estimate_auc", _trials),
    ("montecarlo", "estimate_pd", "montecarlo.estimate_pd", _trials),
)

_RNG_STAGES = {"standard_gamma": "montecarlo.batch.gamma",
               "poisson": "montecarlo.batch.poisson",
               "standard_normal": "montecarlo.batch.normal"}
_NP_STAGES = {"sort": "montecarlo.batch.sort",
              "searchsorted": "montecarlo.batch.rank"}


class Tracer:
    """Records spans in memory while installed; one instance per run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.payload = array("d")
        self._stack: List[int] = []
        self.request_id = -1
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str,
             payload: Optional[Callable] = None) -> Callable:
        nid = self._intern(name)
        stack = self._stack
        spans_name, start, end = self.name, self.start, self.end
        parent, request, pay = self.parent, self.request, self.payload

        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            pay.append(0.0)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                pay[idx] = FAILED
                raise
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if payload is not None:
                pay[idx] = payload(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every binding site; uninstall() puts the originals back."""
        for module, attr, name, payload in SITES:
            target = _module(module)
            self._set(target, attr, self.wrap(getattr(target, attr), name, payload))

        mc = _module("montecarlo")
        make_rng = mc.batch_rng

        def batch_rng(*args, **kwargs):
            return _Proxy(make_rng(*args, **kwargs), self, _RNG_STAGES)

        self._set(mc, "batch_rng", batch_rng)
        self._set(mc, "np", _Proxy(np, self, _NP_STAGES))

        validate = _module("validate")
        for suite in list(validate.SUITES):
            fn = self.wrap(validate.SUITES[suite], f"validate.{suite}", len)
            self._undo.append((validate.SUITES, suite, validate.SUITES[suite]))
            validate.SUITES[suite] = fn
            self._set(validate, f"{suite}_suite", fn)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> array:
        """Per-span self time in ns: duration minus direct children's."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self_s, total_s, payload sum, failed."""
        own = self.self_times()
        out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "payload": 0.0,
                   "failed": 0} for n in self.names}
        for idx, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[idx] * 1e-9
            if self.parent[idx] < 0 or self.name[self.parent[idx]] != nid:
                # recursion (a wrapped function calling itself) counts once
                row["total_s"] += (self.end[idx] - self.start[idx]) * 1e-9
            if self.payload[idx] == FAILED:
                row["failed"] += 1
            else:
                row["payload"] += self.payload[idx]
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start/end ns, parent, request, payload."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, nid in enumerate(self.name):
                fh.write(json.dumps([self.names[nid], self.start[idx],
                                     self.end[idx], self.parent[idx],
                                     self.request[idx], self.payload[idx]]))
                fh.write("\n")


def _module(name: str):
    return importlib.import_module(f"hoytsense.{name}")


class _Proxy:
    """Delegates every attribute; the named methods are traced as spans."""

    def __init__(self, target, tracer: Tracer, stages: Dict[str, str]) -> None:
        self._target = target
        self._traced = {attr: tracer.wrap(getattr(target, attr), name)
                        for attr, name in stages.items()}

    def __getattr__(self, attr):
        traced = self._traced.get(attr)
        return traced if traced is not None else getattr(self._target, attr)
