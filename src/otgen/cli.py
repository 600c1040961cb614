"""Command-line harness.

Subcommands: ot-discrete, geodesic, train, generate, baseline, sample-pfode,
synth, run. Exit codes: 0 success, 2 validation error (a failed allocation
included), 3 training divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first `main` call, not at
    import. Parsing keeps no state in it: each call gets a fresh
    namespace, and a value given to one call never reaches the next."""
    # accepted before or after the subcommand; SUPPRESS keeps a late
    # subparser default from clobbering a value parsed globally
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the seed from configs/defaults")
    common.add_argument("--out-dir", default=argparse.SUPPRESS,
                        help="output directory override")
    p = argparse.ArgumentParser(
        prog="otgen", parents=[common],
        description="Transport-based generation of physical data "
                    "distributions across operating conditions.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    d = add_parser("ot-discrete",
                   help="exact assignment between two discrete uniform "
                        "distributions")
    d.add_argument("--src", required=True, help="CSV: position components, mass")
    d.add_argument("--dst", required=True)
    d.add_argument("--time-dependent", action="store_true",
                   help="also print straight-line trajectory knots")

    g = add_parser("geodesic", help="integrate a metric geodesic with RK4")
    g.add_argument("--metric", choices=["euclidean", "lobachevsky"],
                   default="euclidean")
    g.add_argument("--x0", required=True, help="comma-separated start position")
    g.add_argument("--v0", required=True, help="comma-separated start velocity")
    g.add_argument("--t-end", type=float, default=1.0)
    g.add_argument("--steps", type=int, default=1000)
    g.add_argument("--out", default="trajectory.csv")

    t = add_parser("train", help="train a transport model from a run config")
    t.add_argument("--data", required=True)
    t.add_argument("--config", required=True, help="run config JSON")
    t.add_argument("--out", default="model.json")

    ge = add_parser("generate",
                    help="generate mean data at a target condition from a "
                         "trained model")
    ge.add_argument("--model", required=True)
    ge.add_argument("--target", type=float, required=True,
                    help="raw condition value")
    ge.add_argument("--out", default="gen.csv")
    ge.add_argument("--samples", type=int, default=2048)
    ge.add_argument("--plot", default=None, help="optional SVG path")
    ge.add_argument("--reference", default=None,
                    help="optional truth CSV for an NRMSE diagnostic")

    b = add_parser("baseline",
                   help="mode-decomposition + GP regression curve baseline")
    b.add_argument("--data", required=True)
    b.add_argument("--target", type=float, required=True)
    b.add_argument("--out", default="pred.csv")
    b.add_argument("--grid-points", type=int, default=50)

    s = add_parser("sample-pfode",
                   help="reverse probability-flow sampling from a score")
    s.add_argument("--score", required=True,
                   help="'gaussian:<std>': exact score of N(0, std^2 I) data")
    s.add_argument("--n", type=int, default=1000, help="chain count")
    s.add_argument("--dim", type=int, default=1)
    s.add_argument("--steps", type=int, default=100)
    s.add_argument("--sigma-min", type=float, default=0.01)
    s.add_argument("--sigma-max", type=float, default=50.0)
    s.add_argument("--out", default="samples.csv")

    sy = add_parser("synth", help="write a synthetic benchmark dataset")
    sy.add_argument("--kind", choices=["curves", "fields"], required=True)
    sy.add_argument("--taus", default=None,
                    help="comma-separated training conditions in [0,1)")
    sy.add_argument("--params", default=None, help="family params JSON")

    r = add_parser("run", help="full pipeline: ingest, train, generate, score")
    r.add_argument("--config", required=True, help="run config JSON")
    return p


def cmd_ot_discrete(args) -> int:
    from .dataio import ingest_distribution
    from .discrete import solve_monge
    src = ingest_distribution(args.src)
    dst = ingest_distribution(args.dst)
    try:
        tmap, cost = solve_monge(src, dst)
    except ValueError as e:
        raise ValueError(f"{args.src} to {args.dst}: {e}") from e
    # the optimal straight lines' knots are the assignment's endpoints
    pairs = "\n".join(f"  {src.points[i].tolist()} -> {dst.points[j].tolist()}"
                      for i, j in enumerate(tmap.assignment))
    print(f"source -> target assignment:\n{pairs}")
    print(f"total cost: {cost:.12g}")
    if args.time_dependent:
        print(f"straight-line trajectories (t=0 -> t=1):\n{pairs}")
    return EXIT_OK


def _numbers(flag, text) -> list[float]:
    """The comma-separated floats of `text`; ValueError naming `flag` if not."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as e:
        raise ValueError(f"{flag} must be comma-separated numbers: {e}") from e


def cmd_geodesic(args) -> int:
    from .dataio import write_table
    from .geodesic import euclidean_metric, integrate_geodesic, lobachevsky_metric
    x0 = np.array(_numbers("--x0", args.x0))
    v0 = np.array(_numbers("--v0", args.v0))
    metric = (lobachevsky_metric() if args.metric == "lobachevsky"
              else euclidean_metric(len(x0)))
    if metric.dim != len(x0) or len(x0) != len(v0):
        raise ValueError("x0/v0 dimension mismatch with metric")
    traj = integrate_geodesic(metric, x0, v0, args.t_end, args.steps)
    n = metric.dim
    write_table(args.out, ["t"] + [f"x{i+1}" for i in range(n)]
                + [f"v{i+1}" for i in range(n)],
                np.column_stack([traj.times, traj.positions, traj.velocities]))
    status = "complete" if traj.complete else "aborted at domain boundary"
    print(f"wrote {len(traj.times)} states to {args.out} ({status})")
    return EXIT_OK


def _load_run_config(args, data=None):
    """The RunConfig of `--config` with the command-line overrides applied.

    A document that is not a valid config raises DataFormatError.
    """
    from .dataio import format_errors, read_json
    from .experiment import RunConfig
    doc = read_json(args.config, "run config")
    overrides = {"data": data, "seed": getattr(args, "seed", None),
                 "out_dir": getattr(args, "out_dir", None)}
    with format_errors("run config", args.config):
        doc.update((k, v) for k, v in overrides.items() if v is not None)
        return RunConfig.from_dict(doc)


def cmd_train(args) -> int:
    from . import dataio
    from .experiment import fit_model
    config = _load_run_config(args, data=args.data)
    _, model = fit_model(config)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    dataio.save_model(model, args.out)
    print(f"trained model written to {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    from . import dataio
    from .experiment import task_for_model
    from .transport import generate_density, generate_mean, nrmse
    model = dataio.load_model(args.model)
    task = task_for_model(model)
    t = model.normalizer.normalize(args.target)
    seed = getattr(args, "seed", model.config.seed)
    cloud = generate_density(model, t, n=args.samples, seed=seed)
    mean = generate_mean(model, t, cloud=cloud)
    task.write(args.out, args.target, mean)
    diag = {"target_raw": args.target, "t_norm": t,
            "dropped_j_fraction": cloud.dropped_fraction}
    values = task.values(mean)
    series = [("generated", values)]
    if args.reference:
        ref = task.read_reference(args.reference)
        diag["nrmse_vs_reference"] = nrmse(values, ref)
        series.append(("reference", ref))
    if args.plot:
        task.plot(args.plot, series, "generated data")
    sidecar = Path(args.out).with_suffix(".diag.json")
    diag["loss_history"] = [list(row) for row in model.loss_history]
    sidecar.write_text(dataio.pretty_json(diag))
    print(f"generated data written to {args.out} (diagnostics: {sidecar})")
    return EXIT_OK


def cmd_baseline(args) -> int:
    from . import dataio, fpca_gpr
    from .experiment import common_grid
    snapshots = dataio.ingest_curves(args.data)
    grid, curves = common_grid(snapshots, args.grid_points)
    conds = np.array([s.condition_raw for s in snapshots])
    mean, std = fpca_gpr.fit_predict_baseline(curves, conds, args.target)
    dataio.write_table(args.out, ["strain", "mean", "std"], zip(grid, mean, std))
    print(f"baseline prediction written to {args.out}")
    return EXIT_OK


def cmd_sample_pfode(args) -> int:
    from . import dataio
    from .pfode import VeSchedule, gaussian_score, sample_chains
    try:
        schedule = VeSchedule(args.sigma_min, args.sigma_max)
    except ValueError as e:
        raise ValueError(f"{e} (--sigma-min, --sigma-max)") from None
    if not args.score.startswith("gaussian:"):
        raise ValueError(f"--score must be gaussian:<std>, not {args.score!r}")
    text = args.score.removeprefix("gaussian:")
    try:
        score = gaussian_score(float(text), schedule)
    except ValueError as e:
        raise ValueError("--score gaussian:<std> needs a finite positive "
                         f"std, not {text!r}: {e}") from None
    seed = getattr(args, "seed", 0)
    out = sample_chains(score, schedule, args.n, args.dim, seed,
                        n_steps=args.steps)
    dataio.write_table(args.out, [f"x{i+1}" for i in range(args.dim)], out)
    print(f"{args.n} samples written to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from .dataio import DataFormatError
    from .fixtures import synth_fixture
    taus = _numbers("--taus", args.taus) if args.taus else None
    params = None
    if args.params:
        try:
            params = json.loads(args.params)
        except ValueError as e:
            raise DataFormatError(f"--params is not JSON: {e}") from e
    seed = getattr(args, "seed", 0)
    out_dir = getattr(args, "out_dir", "fixtures")
    paths = synth_fixture(args.kind, out_dir, seed=seed, taus=taus,
                          params=params)
    for key, path in paths.items():
        print(f"{key}: {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .dataio import pretty_json
    from .experiment import run_experiment
    config = _load_run_config(args)
    report, _, artifacts = run_experiment(config)
    print(pretty_json(report.to_dict()))
    print(f"artifacts in {config.out_dir}")
    return EXIT_OK


_COMMANDS = {
    "ot-discrete": cmd_ot_discrete,
    "geodesic": cmd_geodesic,
    "train": cmd_train,
    "generate": cmd_generate,
    "baseline": cmd_baseline,
    "sample-pfode": cmd_sample_pfode,
    "synth": cmd_synth,
    "run": cmd_run,
}


def main(argv=None) -> int:
    from .experiment import StageError
    from .transport import TrainingDivergence
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StageError, TrainingDivergence, ValueError, OSError,
            FloatingPointError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        cause = e.cause if isinstance(e, StageError) else e
        if isinstance(cause, TrainingDivergence):
            return EXIT_DIVERGENCE
        if isinstance(cause, OSError):
            return EXIT_IO
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
