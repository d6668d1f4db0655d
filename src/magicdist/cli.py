"""Command-line front end.

Every command that consumes randomness takes a --seed and is
bit-reproducible: identical CSV/JSON bytes across runs and for every
--threads (default 1).  CSV uses RFC-4180 CRLF records with 17 significant
digits; metadata rides in leading '#' comment lines.  JSON payloads carry
the schema marker "magicdist/1".

One parser serves the process, and ``main`` looks ``cmd_<command>`` up by
name when it runs.  Each ``reproduce-figures`` figure is a ``sample`` command
line, overlaid with its exact curve wherever ``exact_pdf.law`` is closed-form.

Every request is checked in full before its first state is drawn, --threads
and --seed first.  Exit codes: 0 ok, 1 internal error (a sample escaped an
exact support), 2 bad input (a register that is not one included) or an
output path that cannot be written, 3 unsupported parameter (alpha not
finite and > 1, or no exact law with a closed form: ``exact_pdf.law``),
4 resource guard (a cap on threads, register, spectrum, bins or points),
5 statistical insufficiency.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import exact_pdf, montecarlo, svgplot
from .errors import (
    InsufficientData,
    InvalidOrder,
    MissingObservable,
    ResourceLimit,
    SingularPoint,
    SupportViolation,
)
from .pauli_spectrum import _report, canonical_measure, check_order, check_spectrum_size
from .pauli_spectrum import measure_rows, pauli_spectrum_fast
from .statevec import BlochVector, SeededRng, from_bloch, haar_sample, register_shape
from .statevec import state_from_amplitudes

SCHEMA = "magicdist/1"

EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_RESOURCE = 4
EXIT_STATISTICS = 5


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _csv_bytes(comments, header, columns, formats) -> bytes:
    """CSV records of equal-length ``columns``, the j-th written with the
    printf format ``formats[j]`` ("%.17g" for floats, "%d" for counts)."""
    head = "".join(f"# {c}\r\n" for c in comments) + ",".join(header) + "\r\n"
    cols = [np.asarray(col).tolist() for col in columns]
    record = ",".join(formats) + "\r\n"
    body = (record * len(cols[0])) % tuple(itertools.chain.from_iterable(zip(*cols)))
    return (head + body).encode()


def _emit(data: bytes, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(data.decode())
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _json_out(payload: dict, path: str | None):
    _emit((json.dumps({"schema": SCHEMA, **payload}, indent=2) + "\n").encode(), path)


def _floats(text: str, flag: str, count: int | None = None) -> list[float]:
    """The comma-separated finite numbers of a flag, exactly ``count`` of them if given."""
    parts = [float(p) for p in text.split(",")]
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"{flag} needs finite numbers, got {text!r}")
    if count is not None and len(parts) != count:
        raise ValueError(f"{flag} needs {count} comma-separated numbers, got {text!r}")
    return parts


def _measure_name(text: str) -> str:
    """``pauli_spectrum.canonical_measure`` as an argparse type: argparse prints
    the message of an ArgumentTypeError, so the valid names reach stderr."""
    try:
        return canonical_measure(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_state(args):
    """(local_dim, num_sites) of the requested state and a function that
    returns the state; a Haar state is drawn only when it is called."""
    if sum(map(bool, (args.bloch, args.amplitudes, args.haar))) != 1:
        raise ValueError("give exactly one state: --bloch, --amplitudes or --haar")
    if args.bloch:
        state = from_bloch(BlochVector(*_floats(args.bloch, "--bloch", 3)))
    elif args.amplitudes:
        parts = _floats(args.amplitudes, "--amplitudes")
        if len(parts) % 2:
            raise ValueError("--amplitudes needs re,im pairs")
        amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("--amplitudes must not all be zero")
        state = state_from_amplitudes(amps / norm, local_dim=args.local_dim)
    else:
        shape = register_shape(args.dim, args.local_dim)
        return shape, lambda: haar_sample(args.dim, SeededRng(args.seed), local_dim=shape[0])
    return (state.local_dim, state.num_sites), lambda: state


def cmd_measure(args) -> int:
    (local_dim, n_sites), make_state = _parse_state(args)
    # every state source is checked before the draw and the kernel
    check_spectrum_size(local_dim, n_sites)
    check_order(args.alpha)
    state = make_state()
    # the sampler's rows: the batch kernels never hold the state's d^2 values
    n_alpha = float(measure_rows(state.amplitudes[None, :], "n", args.alpha, local_dim)[0])
    # one qubit: the incompatibility reads its three spectrum values
    squares = pauli_spectrum_fast(state).values if state.dim == 2 else None
    report = _report(n_alpha, args.alpha, state.dim, squares, state)
    m_val = report.m_alpha / math.log(2.0) if args.bits else report.m_alpha
    payload = {
        "alpha": report.alpha,
        "n_alpha": report.n_alpha,
        "xi_alpha": report.xi_alpha,
        "m_alpha": m_val,
        "m_alpha_units": "bits" if args.bits else "nats",
        "m_lin": report.m_lin,
        "gamma_alpha": report.gamma_alpha,
        "coherence": report.coherence,
        "dim": state.dim,
    }
    _json_out(payload, args.output)
    return 0


def _curve_csv(curve, tol) -> bytes:
    comments = [
        f"variable={curve.variable} alpha={curve.alpha:g} tol={tol:g}",
        f"support=[{_g17(curve.support[0])},{_g17(curve.support[1])}]",
        "singular=" + ",".join(_g17(c) for c in curve.singular_points),
        f"integral={curve.integral():.6f}",
    ]
    return _csv_bytes(comments, ["abscissa", "density"], [curve.abscissas, curve.densities],
                      ["%.17g", "%.17g"])


def cmd_exact_pdf(args) -> int:
    curve = exact_pdf.tabulate_pdf(
        args.variable, alpha=args.alpha, num_points=args.points, tol=args.tol
    )
    csv_payload = _curve_csv(curve, args.tol)
    if args.format == "csv":
        _emit(csv_payload, args.output)
    else:
        svg = svgplot.plot_svg(
            [(curve.abscissas, curve.densities, "#b03030", "line")],
            title=f"exact density of {curve.variable.upper()} (alpha={curve.alpha:g})",
            xlabel=curve.variable,
            marks=curve.singular_points,
            log_y=args.log_y,
            data_table=csv_payload.decode(),
        )
        _emit(svg.encode(), args.output)
    return 0


def _sample_figure(args):
    """Sample one histogram; return its CSV bytes and a function drawing its SVG."""
    measure = canonical_measure(args.measure)
    overlay = None
    if args.overlay_exact:  # refused before any state is drawn
        exact = exact_pdf.law(measure, args.alpha, args.q, args.sites)
        if exact is None or exact.density is None:
            raise NotImplementedError(f"no closed-form {measure} density at alpha = "
                                      f"{args.alpha!r} for q={args.q}, n={args.sites}")
        overlay = exact_pdf.tabulate_pdf(measure, alpha=args.alpha)
    edges = args.bins  # the sampler picks the range
    if args.window:
        montecarlo.check_bin_count(args.bins)
        edges = np.linspace(*_floats(args.window, "--window", 2), args.bins + 1)
    try:
        hist = montecarlo.histogram_measure(
            measure, args.alpha, args.q, args.sites, args.samples, args.seed, edges,
            threads=args.threads,
        )
    except MissingObservable as exc:
        raise ValueError(f"the command line has no observable input: {exc} "
                         "to histogram_measure(..., observable=...)") from None

    dens = hist.density()
    comments = [
        f"measure={measure} alpha={args.alpha:g} q={args.q} n_sites={args.sites}",
        f"n_samples={args.samples} seed={args.seed} out_of_range={hist.n_below + hist.n_above}",
    ]
    csv_payload = _csv_bytes(comments, ["bin_left", "bin_right", "count", "density"],
                             [hist.edges[:-1], hist.edges[1:], hist.counts, dens],
                             ["%.17g", "%.17g", "%d", "%.17g"])

    def svg() -> bytes:
        series = [(hist.edges, dens, "#3050b0", "step")]
        marks = ()
        if overlay is not None:
            series.append((overlay.abscissas, overlay.densities, "#b03030", "line"))
            marks = overlay.singular_points
        return svgplot.plot_svg(
            series,
            title=f"{measure}/alpha={args.alpha:g}/q={args.q}/n={args.sites}",
            xlabel=measure,
            marks=marks,
            log_y=args.log_y,
            data_table=csv_payload.decode(),
        ).encode()

    return csv_payload, svg


def cmd_sample(args) -> int:
    csv_payload, svg = _sample_figure(args)
    _emit(csv_payload if args.format == "csv" else svg(), args.output)
    return 0


def cmd_fit_divergence(args) -> int:
    window = tuple(_floats(args.window, "--window", 2))
    center = args.center if args.center is not None else exact_pdf.n_critical(args.alpha)
    if args.scan is not None and not 0.0 < args.scan < math.inf:
        raise ValueError(f"--scan must be positive and finite, got {args.scan!r}")
    # both modes refuse what the sampled fit refuses, before any tabulation or draw
    montecarlo.check_fit_window(window, center)
    montecarlo.check_bootstrap_count(args.bootstrap)
    montecarlo.check_bin_count(args.bins_per_side)
    if args.exact:
        if args.scan is not None:
            raise ValueError("--scan searches the centers of a sampled fit; "
                             "--exact fits at --center")
        # the fit reads only the grid points inside its window
        curve = exact_pdf.tabulate_pdf(
            "n", alpha=args.alpha, num_points=800, guard=window[0] / 10,
            keep=lambda x: montecarlo.window_mask(x, center, window, args.side))
        fit = montecarlo.fit_log_divergence(curve, center, window, side=args.side)
        _json_out({"mode": "exact", **dataclasses.asdict(fit)}, args.output)
        return 0
    # geometric bins around the center keep the ln regressor well conditioned
    wings = np.geomspace(window[0] / 2, window[1] * 2, args.bins_per_side + 1)
    edges = np.unique(np.concatenate([center - wings, center + wings]))
    SeededRng(args.seed + 1)  # the bootstrap's stream, refused before the draw
    hist = montecarlo.histogram_measure("n", args.alpha, 2, 1, args.samples, args.seed, edges,
                                        threads=args.threads)
    if args.scan:
        candidates = center + np.linspace(-args.scan, args.scan, 41)
        best_center, fit, _ = montecarlo.scan_divergence_center(hist, candidates, window, args.side)
    else:
        best_center = center
        fit = montecarlo.fit_log_divergence(hist, center, window, side=args.side)
    ci = montecarlo.bootstrap_slope_ci(hist, best_center, window, side=args.side,
                                       n_boot=args.bootstrap, seed=args.seed + 1)
    _json_out({"mode": "monte-carlo", **dataclasses.asdict(fit), "n_samples": args.samples,
               "seed": args.seed, "bootstrap_ci_95": list(ci)}, args.output)
    return 0


def cmd_critical_points(args) -> int:
    points = exact_pdf.critical_points(args.alpha)
    payload = {
        "alpha": args.alpha,
        "points": [
            {
                "bloch": [p.bloch.n1, p.bloch.n2, p.bloch.n3],
                "class": p.class_label,
                "value": p.value,
                "multiplicity": p.multiplicity,
                "projected_gradient_norm": p.grad_norm,
            }
            for p in points
        ],
    }
    _json_out(payload, args.output)
    return 0


def cmd_mean_sre(args) -> int:
    value = exact_pdf.mean_sre_exact(tol=args.tol)
    ln2 = math.log(2.0)
    payload = {"mean_m2_nats": value, "mean_m2_bits": value / ln2, "tol": args.tol}
    if args.mc:
        mean, se = montecarlo.measure_mean("m", 2.0, 2, 1, args.mc, args.seed,
                                           threads=args.threads)
        payload.update({
            "mc_mean_nats": mean, "mc_standard_error_nats": se,
            "mc_mean_bits": mean / ln2, "mc_standard_error_bits": se / ln2,
            "mc_samples": args.mc, "mc_seed": args.seed,
        })
    _json_out(payload, args.output)
    return 0


# name: (the figure's `sample` options, samples at --scale 1)
_FIGURES = {
    "fig1_m2_density": ("--measure m --bins 400", 10_000_000),
    "fig2_n2_density": ("--measure n --bins 400", 10_000_000),
    "fig4_two_qubits": ("--measure n --sites 2 --bins 200", 200_000),
    "fig4_six_qubits": ("--measure n --sites 6 --bins 200", 200_000),
    "fig5_qutrit": ("--measure n --q 3 --bins 200", 400_000),
    "fig5_ququart": ("--measure n --q 4 --bins 200", 400_000),
}


def cmd_reproduce_figures(args) -> int:
    if not 0.0 < args.scale < math.inf:
        raise ValueError(f"--scale must be positive and finite, got {args.scale!r}")
    os.makedirs(args.outdir, exist_ok=True)
    manifest = {"seed": args.seed, "scale": args.scale, "outputs": {}}
    for name, (options, samples) in _FIGURES.items():
        if args.only and name not in args.only:
            continue
        n_samples = max(int(samples * args.scale), 1000)
        fig = build_parser().parse_args(["sample", *options.split(), "--samples", str(n_samples),
                                         "--seed", str(args.seed), "--threads", str(args.threads)])
        exact = exact_pdf.law(fig.measure, fig.alpha, fig.q, fig.sites)
        fig.overlay_exact = exact is not None and exact.density is not None
        csv_payload, svg = _sample_figure(fig)
        _emit(csv_payload, os.path.join(args.outdir, f"{name}.csv"))
        _emit(svg(), os.path.join(args.outdir, f"{name}.svg"))
        manifest["outputs"][name] = {"n_samples": n_samples, "csv": f"{name}.csv",
                                     "svg": f"{name}.svg",
                                     "csv_sha256": hashlib.sha256(csv_payload).hexdigest()}
    _json_out(manifest, os.path.join(args.outdir, "manifest.json"))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="magicdist",
                                description="Haar distributions of stabilizer entropies")
    sub = p.add_subparsers(dest="command", required=True)

    # option groups that several commands share
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o", default=None, help="file path, default stdout")
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--alpha", type=float, default=2.0, help="Renyi order")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=2024)
    seeded.add_argument("--threads", type=int, default=1,
                        help=f"worker threads, 1 to {montecarlo.MAX_THREADS}")

    sp = sub.add_parser("measure", parents=[output, order, seeded],
                        help="magic measures of one state")
    sp.add_argument("--bloch", help="n1,n2,n3")
    sp.add_argument("--amplitudes", help="re,im,re,im,...")
    sp.add_argument("--haar", action="store_true")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--local-dim", type=int, default=2)
    sp.add_argument("--bits", action="store_true", help="report the entropy in bits")

    sp = sub.add_parser("exact-pdf", parents=[output, order], help="tabulate a closed-form density")
    sp.add_argument("--variable", type=_measure_name, required=True)
    sp.add_argument("--points", type=int, default=600)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--format", choices=["csv", "svg"], default="csv")
    sp.add_argument("--log-y", action="store_true")

    sp = sub.add_parser("sample", parents=[output, order, seeded],
                        help="histogram of a sampled measure")
    sp.add_argument("--measure", default="n",
                    help="n, xi, m, mlin, coherence or observable")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--sites", type=int, default=1)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--bins", type=int, default=400)
    sp.add_argument("--window", help="lo,hi histogram range")
    sp.add_argument("--overlay-exact", action="store_true")
    sp.add_argument("--format", choices=["csv", "svg"], default="csv")
    sp.add_argument("--log-y", action="store_true")

    sp = sub.add_parser("fit-divergence", parents=[output, order, seeded],
                        help="logarithmic divergence fit")
    sp.add_argument("--exact", action="store_true", help="fit the exact curve")
    sp.add_argument("--center", type=float, default=None)
    sp.add_argument("--window", default="1e-5,1e-3", help="eps_min,eps_max")
    sp.add_argument("--side", choices=["left", "right", "both"], default="both")
    sp.add_argument("--samples", type=int, default=10_000_000)
    sp.add_argument("--bins-per-side", type=int, default=48)
    sp.add_argument("--bootstrap", type=int, default=100)
    sp.add_argument("--scan", type=float, default=None,
                    help="scan centers within +-SCAN for max r^2")

    sub.add_parser("critical-points", parents=[output, order], help="the 26 critical Bloch vectors")

    sp = sub.add_parser("mean-sre", parents=[output, seeded],
                        help="exact Haar mean of the order-2 entropy")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--mc", type=int, default=0, help="cross-check sample count")

    sp = sub.add_parser("reproduce-figures", parents=[seeded], help="standard density pipelines")
    sp.add_argument("--outdir", required=True)
    sp.add_argument("--scale", type=float, default=1.0,
                    help="multiply the standard sample counts")
    sp.add_argument("--only", nargs="+", choices=list(_FIGURES),
                    help="subset of figure names")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):  # every command that takes --seed takes --threads too
            montecarlo.check_threads(args.threads)
            SeededRng(args.seed)
        # looked up when it runs, so a module attribute swapped in later is what runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (NotImplementedError, InvalidOrder) as exc:
        print(f"unsupported parameter: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceLimit as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InsufficientData, SingularPoint) as exc:
        print(f"statistical insufficiency: {exc}", file=sys.stderr)
        return EXIT_STATISTICS
    except SupportViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ArithmeticError as exc:  # a quadrature or classification that failed its check
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # every input error of the package subclasses it
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # an output path that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
