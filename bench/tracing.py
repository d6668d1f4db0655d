"""Per-layer spans for the traced benchmark run, kept in the benchmark.

The tracer leaves the program's files untouched.  ``install`` swaps each
traced function for a timing wrapper at every ``magicdist`` module
attribute that holds it, which is where callers look it up at call time
(``montecarlo.haar_block``, ``exact_pdf.quad``, ``exact_pdf.j0``,
``cli.cmd_sample`` ...); ``uninstall`` puts the originals back.  Each call
records a span: name, start, end and the span that was open when it
started.  Spans live in flat arrays until ``layer_metrics`` reduces them:
self time is a span's duration minus the durations of its direct children.
The benchmark runs with one worker thread, so one stack of open spans
describes the nesting exactly.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _arg(index, name):
    def get(args, kwargs):
        return int(args[index]) if len(args) > index else int(kwargs[name])
    return get


def _rows(args, kwargs):
    return int(np.shape(args[0] if args else kwargs["states"])[0])


# (module, attribute, span name, states counted from the call's arguments)
SPANS = (
    ("statevec", "haar_block", "statevec.haar_block", _arg(2, "count")),
    ("pauli_spectrum", "pauli_moment_batch", "pauli_spectrum.pauli_moment_batch", _rows),
    ("pauli_spectrum", "weyl_moment_batch", "pauli_spectrum.weyl_moment_batch", _rows),
    ("pauli_spectrum", "pauli_spectrum_fast", "pauli_spectrum.pauli_spectrum_fast", None),
    ("pauli_spectrum", "magic_report", "pauli_spectrum.magic_report", None),
    ("montecarlo", "histogram_measure", "montecarlo.histogram_measure", _arg(4, "n_samples")),
    ("montecarlo", "measure_mean", "montecarlo.measure_mean", _arg(4, "n_samples")),
    ("montecarlo", "sample_array", "montecarlo.sample_array", _arg(4, "n_samples")),
    ("montecarlo", "fit_log_divergence", "montecarlo.fits", None),
    ("montecarlo", "bootstrap_slope_ci", "montecarlo.fits", None),
    ("montecarlo", "scan_divergence_center", "montecarlo.fits", None),
    ("exact_pdf", "pdf_n2_exact", "exact_pdf.pdf_n2_exact", None),
    ("exact_pdf", "characteristic_function_n2", "exact_pdf.characteristic_function_n2", None),
    ("exact_pdf", "tabulate_pdf", "exact_pdf.tabulate_pdf", None),
    ("exact_pdf", "quad", "exact_pdf.quad", None),
    ("bessel", "j0", "bessel.j0", None),
    ("svgplot", "plot_svg", "svgplot.plot_svg", None),
    ("cli", "main", "cli", None),
    ("cli", "cmd_sample", "cli.cmd_sample", None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))

# sampler calls whose states reach a histogram or a mean
_CONSUMERS = ("montecarlo.histogram_measure", "montecarlo.measure_mean")
_SAMPLERS = _CONSUMERS + ("montecarlo.sample_array",)

# every metric ``layer_metrics`` returns, with its unit
PER_LAYER_UNITS = {
    "statevec.haar_block.self_s": "s",
    "statevec.haar_block.states": "count",
    "statevec.haar_block.states_per_s": "1/s",
    "pauli_spectrum.pauli_moment_batch.self_s": "s",
    "pauli_spectrum.pauli_moment_batch.states": "count",
    "pauli_spectrum.pauli_moment_batch.states_per_s": "1/s",
    "pauli_spectrum.weyl_moment_batch.self_s": "s",
    "pauli_spectrum.weyl_moment_batch.states_per_s": "1/s",
    "pauli_spectrum.pauli_spectrum_fast.self_s": "s",
    "pauli_spectrum.pauli_spectrum_fast.peak_alloc_mib": "MiB",
    "pauli_spectrum.magic_report.self_s": "s",
    "montecarlo.histogram_measure.self_s": "s",
    "montecarlo.measure_mean.self_s": "s",
    "montecarlo.sample_array.states": "count",
    "montecarlo.useful_state_ratio": "ratio",
    "montecarlo.fits.self_s": "s",
    "exact_pdf.pdf_n2_exact.calls": "count",
    "exact_pdf.pdf_n2_exact.self_s": "s",
    "exact_pdf.pdf_n2_exact.evals_per_s": "1/s",
    "exact_pdf.characteristic_function_n2.self_s": "s",
    "exact_pdf.characteristic_function_n2.evals_per_s": "1/s",
    "exact_pdf.tabulate_pdf.calls": "count",
    "exact_pdf.quad.calls": "count",
    "exact_pdf.quad.s": "s",
    "bessel.j0.calls": "count",
    "bessel.j0.s": "s",
    "svgplot.plot_svg.self_s": "s",
    "cli.self_s": "s",
    "cli.cmd_sample.calls": "count",
    "trace.overhead_s": "s",
}


def _call_key(args, kwargs):
    """Hashable identity of a sampler call; arrays (edges) by content."""
    def norm(v):
        return ("ndarray", v.tobytes()) if isinstance(v, np.ndarray) else v
    return (tuple(norm(a) for a in args), tuple(sorted((k, norm(v)) for k, v in kwargs.items())))


class Tracer:
    """Span recorder for one traced unit of work; reset between units."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.states = array("q")
        self.call_keys: dict[int, tuple] = {}
        self._open: list[int] = []

    def _wrap(self, fn, span_name, count_states):
        nid = self._ids[span_name]
        keyed = span_name in _CONSUMERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.states.append(count_states(args, kwargs) if count_states else 0)
            if keyed:
                self.call_keys[idx] = _call_key(args, kwargs)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return wrapper

    def install(self):
        """Swap every traced function at each magicdist attribute holding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "magicdist" or name.startswith("magicdist."))]
        for mod_name, attr, span_name, count_states in SPANS:
            original = getattr(sys.modules[f"magicdist.{mod_name}"], attr)
            wrapper = self._wrap(original, span_name, count_states)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics of one unit.

        ``trace.overhead_s`` and ``peak_alloc_mib`` are measured outside the
        spans and filled in by the caller.
        """
        n_names = len(SPAN_NAMES)
        name_id = np.frombuffer(self.name_id, dtype=np.int32).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        states = np.frombuffer(self.states, dtype=np.int64)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child

        def per_name(weights=None):
            out = np.bincount(name_id, weights=weights, minlength=n_names)
            return {name: out[i] for i, name in enumerate(SPAN_NAMES)}

        calls = per_name()
        total = per_name(dur)
        own = per_name(self_time)
        nstates = per_name(states.astype(float))

        def rate(count, seconds):
            return float(count / seconds) if seconds > 0 else 0.0

        # states the sampler drew, against the states of distinct histogram
        # and mean calls; a repeated identical call adds nothing new
        ids = self._ids
        sampler_ids = [ids[n] for n in _SAMPLERS]
        haar = name_id == ids["statevec.haar_block"]
        from_sampler = haar & nested & np.isin(name_id[np.where(nested, parent, 0)], sampler_ids)
        drawn = int(states[from_sampler].sum())
        seen = set()
        useful = 0
        for idx, key in self.call_keys.items():
            if key not in seen:
                seen.add(key)
                useful += int(states[idx])

        return {
            "statevec.haar_block.self_s": own["statevec.haar_block"],
            "statevec.haar_block.states": nstates["statevec.haar_block"],
            "statevec.haar_block.states_per_s": rate(
                nstates["statevec.haar_block"], total["statevec.haar_block"]),
            "pauli_spectrum.pauli_moment_batch.self_s": own["pauli_spectrum.pauli_moment_batch"],
            "pauli_spectrum.pauli_moment_batch.states": nstates["pauli_spectrum.pauli_moment_batch"],
            "pauli_spectrum.pauli_moment_batch.states_per_s": rate(
                nstates["pauli_spectrum.pauli_moment_batch"],
                total["pauli_spectrum.pauli_moment_batch"]),
            "pauli_spectrum.weyl_moment_batch.self_s": own["pauli_spectrum.weyl_moment_batch"],
            "pauli_spectrum.weyl_moment_batch.states_per_s": rate(
                nstates["pauli_spectrum.weyl_moment_batch"],
                total["pauli_spectrum.weyl_moment_batch"]),
            "pauli_spectrum.pauli_spectrum_fast.self_s": own["pauli_spectrum.pauli_spectrum_fast"],
            "pauli_spectrum.magic_report.self_s": own["pauli_spectrum.magic_report"],
            "montecarlo.histogram_measure.self_s": own["montecarlo.histogram_measure"],
            "montecarlo.measure_mean.self_s": own["montecarlo.measure_mean"],
            "montecarlo.sample_array.states": nstates["montecarlo.sample_array"],
            "montecarlo.useful_state_ratio": useful / drawn if drawn else 1.0,
            "montecarlo.fits.self_s": own["montecarlo.fits"],
            "exact_pdf.pdf_n2_exact.calls": calls["exact_pdf.pdf_n2_exact"],
            "exact_pdf.pdf_n2_exact.self_s": own["exact_pdf.pdf_n2_exact"],
            "exact_pdf.pdf_n2_exact.evals_per_s": rate(
                calls["exact_pdf.pdf_n2_exact"], total["exact_pdf.pdf_n2_exact"]),
            "exact_pdf.characteristic_function_n2.self_s":
                own["exact_pdf.characteristic_function_n2"],
            "exact_pdf.characteristic_function_n2.evals_per_s": rate(
                calls["exact_pdf.characteristic_function_n2"],
                total["exact_pdf.characteristic_function_n2"]),
            "exact_pdf.tabulate_pdf.calls": calls["exact_pdf.tabulate_pdf"],
            "exact_pdf.quad.calls": calls["exact_pdf.quad"],
            "exact_pdf.quad.s": total["exact_pdf.quad"],
            "bessel.j0.calls": calls["bessel.j0"],
            "bessel.j0.s": total["bessel.j0"],
            "svgplot.plot_svg.self_s": own["svgplot.plot_svg"],
            "cli.self_s": own["cli"] + own["cli.cmd_sample"],
            "cli.cmd_sample.calls": calls["cli.cmd_sample"],
        }
