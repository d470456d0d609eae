"""Command-line front end: generate, simulate, localizability, analyze, cluster, demo.

Each command does its work and returns the files it read, the files it wrote
and its stdout text. :func:`main` owns the rest: it times the command, writes
the one manifest beside the first output (a demo's in its bundle directory),
recording the command, all parameters, the seed, and the library version, and
prints the text unless ``--quiet`` is given and the command wrote files. Timing
lives in its own manifest field so the numeric payloads stay byte-identical
across reruns with the same seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, dynsys, embedding, io, localizability, spectral
from ._linalg import DEFAULT_DISTINCT_TOL, DEFAULT_RANK_TOL


def _err(kind: str, message: str) -> int:
    print(json.dumps({"error": message, "type": kind}), file=sys.stderr)
    return 1


def _write_manifest(path, args, inputs, outputs, started):
    """Record the command, every parsed option, and the time since ``started``.

    The command label is the subcommand and its kind or name ("demo fig2"); the
    seed is ``--seed``, else ``--x0-seed``, else null."""
    options = vars(args)
    label = [args.command, *(options[k] for k in ("kind", "name") if k in options)]
    manifest = {
        "command": " ".join(label),
        "parameters": {k: v for k, v in options.items() if k not in ("func", "quiet")},
        "seed": options.get("seed", options.get("x0_seed")),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "timing": {
            "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
            "duration_seconds": time.time() - started,
        },
    }
    io.write_json(path, manifest)


def _convert(option, kind, text, alternative=""):
    """``kind(text)``, or a ValueError naming ``option`` for a value it rejects."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{option} takes {kind.__name__}s{alternative}, got {text!r}") from None


def _parse_x0(args, n):
    """The initial state; the simulators check its dimension."""
    if args.x0 is not None:
        return np.array([_convert("--x0", float, v) for v in args.x0.split(",")])
    if args.x0_seed is not None:
        return np.random.default_rng(args.x0_seed).standard_normal(n)
    raise ValueError("provide --x0 or --x0-seed")


def tolerance(text: str) -> float:
    """An argparse type: a finite positive float (NaN fails the comparison)."""
    if not 0.0 < (value := float(text)) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


# Options shared by several commands; each command registers those it reads.
_SHARED_OPTIONS = {
    "--out": dict(help="output file path"),
    "--seed": dict(type=int, default=0, help="generator seed"),
    "--tol-rank": dict(type=tolerance, default=DEFAULT_RANK_TOL,
                       help="relative singular-value cutoff for rank decisions"),
    "--tol-distinct": dict(type=tolerance, default=DEFAULT_DISTINCT_TOL,
                           help="eigenvalue distinctness tolerance"),
}


def _add_shared(parser, *flags):
    """Register the named shared options, then ``--quiet``, which :func:`main` applies."""
    for flag in flags:
        parser.add_argument(flag, **_SHARED_OPTIONS[flag])
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout when files are written")


def cmd_generate(args):
    out = Path(args.out) if args.out else Path(f"{args.kind}.json")
    inputs = []
    if args.kind == "sbm":
        sizes = [_convert("--sizes", int, v) for v in args.sizes.split(",")]
        w = dynsys.generate_sbm(
            sizes, args.intra_p, args.inter_p, args.intra_weight, args.inter_weight,
            seed=args.seed,
        )
        io.save_adjacency(out, w)
    elif args.kind == "bipartite":
        io.save_system(out, dynsys.bipartite_fixture())
    elif args.kind == "coupled":
        io.save_system(out, dynsys.coupled_cell_fixture(args.seed))
    elif args.kind == "wave":
        if not args.adjacency:
            raise ValueError("generate wave needs --adjacency")
        inputs.append(args.adjacency)
        w = io.load_adjacency(args.adjacency)
        lap = dynsys.normalized_laplacian(w)
        io.save_system(out, dynsys.build_wave_system(lap, args.wave_speed))
    else:  # random; argparse admits no other kind
        if args.dim < 1:
            raise ValueError(f"--dim must be at least 1, got {args.dim}")
        rng = np.random.default_rng(args.seed)
        a = rng.standard_normal((args.dim, args.dim))
        a /= np.max(np.abs(np.linalg.eigvals(a)))
        io.save_system(out, dynsys.LinearSystem(a))
    return inputs, [out], f"wrote {out}\n"


def cmd_simulate(args):
    system = io.load_system(args.system)
    out = Path(args.out) if args.out else Path("trajectory.csv")
    if isinstance(system, dynsys.CoupledCellSystem):
        x0 = _parse_x0(args, 2 * system.d)
        if args.lift:
            lifted = dynsys.koopman_lift(system)
            traj = dynsys.simulate(lifted, dynsys.lift_state(system, x0), args.steps)
        else:
            traj = dynsys.simulate_coupled(system, x0, args.steps)
    else:
        if args.lift:
            raise ValueError("--lift only applies to coupled systems")
        x0 = _parse_x0(args, system.n)
        traj = dynsys.simulate(system, x0, args.steps)
    io.save_trajectory(out, traj.states)
    rows, n = traj.states.shape
    return [args.system], [out], f"wrote {out} ({rows} states of dimension {n})\n"


def _report(args, source, payload):
    """A report command's result: ``payload`` serialized once, written to
    ``--out`` if given, and returned as the stdout text."""
    text = io.json_text(payload)
    if args.out:
        Path(args.out).write_text(text)  # the text exists before the file
    return [source], [args.out] if args.out else [], text


def cmd_localizability(args):
    system = io.load_system(args.system)
    if isinstance(system, dynsys.CoupledCellSystem):
        system = dynsys.koopman_lift(system)
    if args.vertex is not None:
        report = localizability.is_localizable(system, args.vertex, args.tol_rank)
        payload = {"reports": [report.to_json_dict()]}
    else:
        everywhere, reports = localizability.localizable_everywhere(system, args.tol_rank)
        payload = {"reports": [r.to_json_dict() for r in reports],
                   "localizable_everywhere": everywhere}
    return _report(args, args.system, payload)


def cmd_analyze(args):
    states = io.load_trajectory(args.trajectory)
    n = states.shape[1]
    dynsys.check_vertex(args.vertex, n)
    if args.max_k is not None and not args.gap:
        raise ValueError("--max-k caps the cluster count of --gap; pass --gap with it")
    s = args.delays if args.delays is not None else n
    report = spectral.analyze_vertex(states[:, args.vertex - 1], s, vertex=args.vertex,
                                     svd_tol=args.tol_rank, distinct_tol=args.tol_distinct)
    payload = report.to_json_dict()
    if args.gap:
        payload["cluster_count"] = spectral.detect_cluster_count(report.eigenvalues, args.max_k)
    return _report(args, args.trajectory, payload)


def _analyze(states, vertices, s, svd_tol=DEFAULT_RANK_TOL, distinct_tol=DEFAULT_DISTINCT_TOL):
    """The report of each of ``vertices``, analyzed from its own column of ``states``."""
    return {v: spectral.analyze_vertex(states[:, v - 1], s, vertex=v, svd_tol=svd_tol,
                                       distinct_tol=distinct_tol)
            for v in vertices}


def _cluster(states, s, k="auto", svd_tol=DEFAULT_RANK_TOL, distinct_tol=DEFAULT_DISTINCT_TOL):
    """The ``{"cluster_count", "labels"}`` payload, per-vertex components and spectra
    of :func:`_analyze` over every vertex; ``k="auto"`` takes the consensus count.
    Labels need every vertex's components, so a vertex without them is an error."""
    reports = _analyze(states, range(1, states.shape[1] + 1), s, svd_tol, distinct_tol)
    for v, r in reports.items():
        if r.components is None:
            raise spectral.DegenerateSpectrumError(
                f"vertex {v} has no eigenvector components: two of its estimated "
                f"eigenvalues coincide within {distinct_tol:g}")
    comps = {v: r.components for v, r in reports.items()}
    spectra = {v: r.eigenvalues for v, r in reports.items()}
    if k == "auto":
        k = spectral.consensus_cluster_count(spectra)
    labels = spectral.decentralized_cluster_labels(comps, k)
    payload = {"cluster_count": k,
               "labels": [{"vertex": v, "cluster": c} for v, c in sorted(labels.items())]}
    return payload, comps, spectra


def cmd_cluster(args):
    states = io.load_trajectory(args.trajectory)
    n = states.shape[1]
    s = args.delays if args.delays is not None else n
    k = args.k if args.k == "auto" else _convert("--k", int, args.k, " or 'auto'")
    if k != "auto" and k < 1:
        raise ValueError(f"--k must be at least 1 or 'auto', got {k}")
    payload, comps, _ = _cluster(states, s, k, args.tol_rank, args.tol_distinct)
    labels_out = Path(args.out) if args.out else Path("labels.json")
    io.write_json(labels_out, payload)
    comps_out = Path(args.components_out) if args.components_out else labels_out.with_name(
        labels_out.stem + "_components.csv"
    )
    vertices = sorted(comps)
    io.write_table(  # complex components as interleaved re, im columns
        comps_out,
        ["vertex"] + [f"c{l}_{part}" for l in range(1, s + 1) for part in ("re", "im")],
        vertices,
        np.array([comps[v] for v in vertices], dtype=complex).view(float),
    )
    return ([args.trajectory], [labels_out, comps_out],
            f"{payload['cluster_count']} clusters over {n} vertices -> {labels_out}\n")


def _demo_fig1(seed, outdir):
    """Bipartite benchmark: localizability, local spectra, bipartiteness."""
    outdir.mkdir(parents=True, exist_ok=True)
    system = dynsys.bipartite_fixture()
    io.save_system(outdir / "system.json", system)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(system.n)
    traj = dynsys.simulate(system, x0, 4 * system.n)
    io.save_trajectory(outdir / "trajectory.csv", traj.states)

    everywhere, _ = localizability.localizable_everywhere(system)
    direct = spectral.sort_eigenvalues(np.linalg.eigvals(system.a))
    reports = _analyze(traj.states, (1, 3, 5), system.n)
    # vertex 0 marks the direct global spectrum
    spectra = {0: direct, **{v: r.eigenvalues for v, r in reports.items()}}
    lams = np.concatenate(list(spectra.values()))
    io.write_table(outdir / "eigenvalues.csv", ["vertex", "re", "im"],
                   [v for v, eigs in spectra.items() for _ in eigs],
                   np.column_stack([lams.real, lams.imag]))
    analysis = {
        "localizable_everywhere": everywhere,
        "x0": [float(v) for v in x0],
        "vertices": {str(v): r.to_json_dict() for v, r in reports.items()},
    }
    io.write_json(outdir / "analysis.json", analysis)
    return [outdir / "system.json", outdir / "trajectory.csv",
            outdir / "eigenvalues.csv", outdir / "analysis.json"]


# Fit length for the clustering demo; resolves the three near-1 modes of a
# 15-vertex three-block graph while the weak modes stay excited.
FIG2_STEPS = 150


def _demo_fig2(seed, outdir):
    """Three-cluster SBM: decentralized spectral clustering from local data."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    # weakly coupled three-block graph; resample (bounded) until connected, since a
    # vertex's trajectory carries no information about components it is not attached to
    for _ in range(dynsys.MAX_DRAWS):
        w = dynsys.generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=int(rng.integers(2**63)))
        if localizability.is_strongly_connected(w):  # W is symmetric
            break
    else:
        raise dynsys.GenerationError(f"no connected SBM draw in {dynsys.MAX_DRAWS} draws")
    io.save_adjacency(outdir / "adjacency.json", w)
    n = w.shape[0]
    lap = dynsys.normalized_laplacian(w)
    system = dynsys.LinearSystem(np.eye(n) - 0.5 * lap)
    io.save_system(outdir / "system.json", system)
    x0 = rng.standard_normal(n)
    traj = dynsys.simulate(system, x0, FIG2_STEPS)
    io.save_trajectory(outdir / "trajectory.csv", traj.states)

    payload, comps, spectra = _cluster(traj.states, n)

    mu_true = np.sort(np.linalg.eigvalsh(lap))
    mu_estimated = np.sort(2.0 * (1.0 - spectral.consensus_spectrum(spectra)))
    io.write_table(outdir / "laplacian_spectrum.csv", ["index", "mu_true", "mu_estimated"],
                   range(1, n + 1), np.column_stack([mu_true, mu_estimated]))
    vertices = sorted(comps)
    io.write_table(outdir / "components.csv", ["vertex", "c2_re", "c3_re"], vertices,
                   [comps[v][1:3].real for v in vertices])
    io.write_json(outdir / "labels.json", {**payload, "x0": [float(v) for v in x0]})
    return [outdir / "adjacency.json", outdir / "system.json", outdir / "trajectory.csv",
            outdir / "laplacian_spectrum.csv", outdir / "components.csv",
            outdir / "labels.json"]


def _demo_fig3(seed, outdir):
    """Coupled cells: exact Koopman lift and the locally learned predictor."""
    outdir.mkdir(parents=True, exist_ok=True)
    system = dynsys.coupled_cell_fixture(seed)
    io.save_system(outdir / "coupled_system.json", system)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(2 * system.d)
    n_lift = 3 * system.d
    fit_steps = 4 * n_lift
    total = fit_steps + 50

    traj = dynsys.simulate_coupled(system, x0, total)
    lifted_sys = dynsys.koopman_lift(system)
    lifted = dynsys.simulate(lifted_sys, dynsys.lift_state(system, x0), total)
    lift_dev = float(
        np.max(np.abs(lifted.states[:, 0::3] - traj.states[:, 0::2]))
    )

    u = traj.states[:, 0]  # x_{1,1}
    model = embedding.fit_companion(u[: fit_steps + 1], n_lift)
    localized = embedding.predict(model, u[:n_lift], total + 1 - n_lift)
    io.write_table(outdir / "trajectory.csv", ["k", "x11_nonlinear", "x11_localized"],
                   range(total + 1), np.column_stack([u, localized]))
    run_max = np.maximum.accumulate(np.abs(u))
    max_err = float(np.max(np.abs(localized - u) / np.maximum(run_max, 1e-300)))
    comparison = {
        "x0": [float(v) for v in x0],
        "lift_max_abs_deviation": lift_dev,
        "localized_max_growth_normalized_error": max_err,
        "fit_steps": fit_steps,
        "model": model.to_json_dict(),
    }
    io.write_json(outdir / "comparison.json", comparison)
    return [outdir / "coupled_system.json", outdir / "trajectory.csv",
            outdir / "comparison.json"]


def cmd_demo(args):
    outdir = Path(args.outdir) if args.outdir else Path(f"demo_{args.name}")
    builder = {"fig1": _demo_fig1, "fig2": _demo_fig2, "fig3": _demo_fig3}[args.name]
    return [], builder(args.seed, outdir), f"wrote demo bundle to {outdir}\n"


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localspec",
        description="Recover global spectral properties of networked dynamics "
                    "from single-vertex trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: an option a command lacks (demo --out) is an error,
    # not an abbreviation of one it has (demo --outdir)
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_command("generate", help="write a system or adjacency file")
    p.add_argument("kind", choices=["sbm", "bipartite", "coupled", "wave", "random"])
    p.add_argument("--sizes", default="5,5,5", help="sbm cluster sizes, comma-separated")
    p.add_argument("--intra-p", type=float, default=0.7)
    p.add_argument("--inter-p", type=float, default=0.05)
    p.add_argument("--intra-weight", type=float, default=1.0)
    p.add_argument("--inter-weight", type=float, default=0.2)
    p.add_argument("--adjacency", help="adjacency JSON consumed by kind=wave")
    p.add_argument("--wave-speed", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=6, help="dimension for kind=random")
    _add_shared(p, "--out", "--seed")
    p.set_defaults(func=cmd_generate)

    p = add_command("simulate", help="simulate a system file to a trajectory CSV")
    p.add_argument("system")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--x0", help="comma-separated initial state")
    p.add_argument("--x0-seed", type=int, help="draw x0 from a seeded standard normal")
    p.add_argument("--lift", action="store_true",
                   help="simulate the Koopman-lifted linear system of a coupled file")
    _add_shared(p, "--out")
    p.set_defaults(func=cmd_simulate)

    p = add_command("localizability", help="observability-staircase localizability reports")
    p.add_argument("system")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--vertex", type=int)
    group.add_argument("--all", action="store_true",
                       help="test every vertex (also the default without --vertex)")
    _add_shared(p, "--out", "--tol-rank")
    p.set_defaults(func=cmd_localizability)

    p = add_command("analyze", help="spectral report from one vertex's trajectory")
    p.add_argument("trajectory")
    p.add_argument("--vertex", type=int, default=1)
    p.add_argument("--delays", type=int, help="embedding length (default: state dimension)")
    p.add_argument("--gap", action="store_true", help="detect cluster count from spectral gaps")
    p.add_argument("--max-k", type=int)
    _add_shared(p, "--out", "--tol-rank", "--tol-distinct")
    p.set_defaults(func=cmd_analyze)

    p = add_command("cluster", help="decentralized sign-pattern clustering")
    p.add_argument("trajectory")
    p.add_argument("--k", default="auto", help="cluster count, or 'auto' for gap detection")
    p.add_argument("--delays", type=int)
    p.add_argument("--components-out", help="per-vertex component CSV path")
    _add_shared(p, "--out", "--tol-rank", "--tol-distinct")
    p.set_defaults(func=cmd_cluster)

    p = add_command("demo", help="figure-reproduction data bundles")
    p.add_argument("name", choices=["fig1", "fig2", "fig3"])
    p.add_argument("--outdir")
    _add_shared(p, "--seed")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        inputs, outputs, text = args.func(args)
        if outputs:
            manifest = (outputs[0].parent / "manifest.json" if args.command == "demo"
                        else f"{outputs[0]}.manifest.json")
            _write_manifest(manifest, args, inputs, outputs, started)
        if not (args.quiet and outputs):
            sys.stdout.write(text)
    except (ValueError, OSError, KeyError, dynsys.GenerationError) as exc:
        return _err(type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
