"""In-memory span tracing of the optomech layers, applied from outside.

The layers are the modules under ``src/optomech``. ``Tracer.install`` wraps
every public function of each layer module and rebinds the wrapper under
every name that refers to the original in any loaded ``optomech`` module.
Rebinding matters because modules import stage functions by name: ``sweep``
calls its own binding of ``solve_lyapunov``, so patching only the attribute
on ``optomech.lyapunov`` would miss every call made by the sweep pipeline.

Each span records its name, its parent span, and start/end times; spans stay
in a list until ``write_spans`` dumps them at the end of a run. A layer's
self time is its span's duration minus the durations of its direct children
(calls nest strictly, so children never overlap).
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time

SWEEP_WRITERS = ("write_csv", "write_grid", "write_json")


def _member_steps(args, kwargs, result):
    cfg = kwargs.get("cfg") or args[-1]  # (a, d, cfg) and (spec, cfg)
    return cfg.n_steps * cfg.n_ensemble


def _stable(args, kwargs, result):
    return 1 if result.stable else 0


def _abscissae(args, kwargs, result):
    return len(args[0])


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# per-span quantity recorded alongside the timing, by span name
_ATTRS = {
    "simulate.estimate_stationary_covariance": _member_steps,
    "simulate.simulate_phase_noise": _member_steps,
    "sweep.evaluate_point": _stable,
    **{f"sweep.SweepResult.{w}": _written_bytes for w in SWEEP_WRITERS},
}


class Tracer:
    """Span recorder; ``spans`` holds ``[name, parent, start_ns, end_ns, attr]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, attr=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if attr is not None:
                    rec[4] = attr(args, kwargs, result)
                return result
            finally:
                stack.pop()
                rec[3] = clock()

        return traced

    def _integrate_adaptive(self, fn):
        """Wrap the adaptive rule so its integrand becomes a child span."""
        def traced_rule(f, *args, **kwargs):
            return fn(self.wrap("quadrature.integrand", f, _abscissae),
                      *args, **kwargs)
        return self.wrap("quadrature.integrate_adaptive",
                         functools.wraps(fn)(traced_rule))

    def install(self):
        """Wrap the layer functions and rebind them wherever they are bound."""
        import numpy
        import optomech

        wrappers = {}
        for info in pkgutil.iter_modules(optomech.__path__):
            short = info.name
            mod = importlib.import_module(f"optomech.{short}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                span_name = f"{short}.{name}"
                if span_name == "quadrature.integrate_adaptive":
                    wrappers[obj] = self._integrate_adaptive(obj)
                else:
                    wrappers[obj] = self.wrap(span_name, obj,
                                              _ATTRS.get(span_name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "optomech"
                                   or mod_name.startswith("optomech.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

        result_cls = importlib.import_module("optomech.sweep").SweepResult
        for method in SWEEP_WRITERS:
            name = f"sweep.SweepResult.{method}"
            self._patch(result_cls, method,
                        self.wrap(name, getattr(result_cls, method), _ATTRS[name]))
        self._patch(numpy.linalg, "eigvals",
                    self.wrap("numpy.linalg.eigvals", numpy.linalg.eigvals))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def summary(self):
        """Per span name: calls, total and self time (ns), and summed attr."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = collections.defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "attr": 0})
        for (name, _, start, end, attr), inner in zip(self.spans, child_ns):
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - inner
            if attr is not None:
                row["attr"] += attr
        return dict(out)

    def write_spans(self, path):
        """One line per span: id, parent id, name, start and end in ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")



def layer_metrics(summary, overhead_pct):
    """The per-layer metrics, ``{name: (value, unit)}``, from ``summary()``.

    Ratios "per point" divide by evaluate_point calls on the point pipeline
    and by cm_spectral_oracle calls on the oracle; a layer a workload never
    reaches reads 0.
    """
    def get(name, key="calls"):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, scale):
        return ratio(get(name, "total_ns"), get(name)) / scale

    def steps_per_s(name):
        return ratio(get(name, "attr"), get(name, "total_ns") / 1e9)

    points = get("sweep.evaluate_point")
    oracle = get("spectral.cm_spectral_oracle")
    sweeps = get("sweep.run_sweep")
    writers = [f"sweep.SweepResult.{w}" for w in SWEEP_WRITERS]
    out = {f"{name}.us_per_call": (per_call(name, 1e3), "us") for name in (
        "parameters.solve_steady_state", "dynamics.build_model",
        "dynamics.stability_margin", "lyapunov.solve_lyapunov",
        "measures.log_negativity", "measures.occupancy",
        "spectral.approx_n_eff")}
    out.update({
        "lyapunov.symplectic_eigenvalues.calls_per_point": (
            ratio(get("lyapunov.symplectic_eigenvalues"), points), "calls/point"),
        "sweep.evaluate_point.self_us": (
            ratio(get("sweep.evaluate_point", "self_ns"), points) / 1e3, "us"),
        "numpy.eigvals_per_point": (
            ratio(get("numpy.linalg.eigvals"), points), "calls/point"),
        "sweep.stable_frac": (
            ratio(get("sweep.evaluate_point", "attr"), points), "fraction"),
        "sweep.write_s": (
            ratio(sum(get(w, "total_ns") for w in writers), sweeps) / 1e9, "s"),
        "sweep.write_bytes": (
            ratio(sum(get(w, "attr") for w in writers), sweeps), "bytes"),
        "spectral.cm_spectral_oracle.ms_per_call": (
            per_call("spectral.cm_spectral_oracle", 1e6), "ms"),
        "quadrature.abscissae_per_point": (
            ratio(get("quadrature.integrand", "attr"), oracle), "count/point"),
        "quadrature.integrate_adaptive.calls_per_point": (
            ratio(get("quadrature.integrate_adaptive"), oracle), "calls/point"),
        "quadrature.integrand_share": (
            ratio(get("quadrature.integrand", "total_ns"),
                  get("quadrature.integrate_adaptive", "total_ns")), "fraction"),
        "simulate.exact_discretization.ms": (
            per_call("simulate.exact_discretization", 1e6), "ms"),
        "simulate.estimate_stationary_covariance.member_steps_per_s": (
            steps_per_s("simulate.estimate_stationary_covariance"), "1/s"),
        "simulate.simulate_phase_noise.member_steps_per_s": (
            steps_per_s("simulate.simulate_phase_noise"), "1/s"),
        "cli.main.s": (per_call("cli.main", 1e9), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out
