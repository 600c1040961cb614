"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the heavy extrapolation criteria share trained models through
session fixtures. Budgets are asserted with wall-clock checks.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from otgen import autodiff as ad
from otgen import nn, rng
from otgen.density import ReducedGaussianDensity
from otgen.discrete import (DiscreteDistribution, solve_monge,
                            solve_monge_time_dependent, trajectory_cost)
from otgen.experiment import RunConfig, run_experiment
from otgen.fixtures import synth_fixture
from otgen.geodesic import (integrate_geodesic, lobachevsky_analytic,
                            lobachevsky_analytic_velocity, lobachevsky_metric)
from otgen.pfode import VeSchedule, gaussian_score, sample_chains
from otgen.transport import (Snapshot, SnapshotDataset, TrainConfig,
                             generate_density, loss)
from tests_support_rigs import rigged_transport_model

pytestmark = pytest.mark.acceptance

N_SEEDS = 5

CURVE_TRAIN = TrainConfig(
    epochs=800, n_samples=256, n_samples_pde=64, n_collocation=11,
    dnn_hidden=(48, 48, 48), dnn_fourier_m=6, fnn_hidden=(48, 48),
    fnn_dropout=0.1, auto_rescale_weights=True)

FIELD_TRAIN = TrainConfig(
    epochs=600, n_samples=192, n_samples_pde=48, n_collocation=11,
    dnn_hidden=(48, 48, 48), dnn_fourier_m=6, fnn_hidden=(48, 48),
    fnn_dropout=0.1, auto_rescale_weights=True)


def _announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}: {detail}")
    assert ok, detail


def curve_config(paths, seed, out_root):
    return RunConfig(
        task="curves", data=paths["train"], reference=paths["target"],
        target_raw=1.0, sigma_frac=0.04, grid_points=40, boundary_anchors=2,
        train=CURVE_TRAIN, baseline=True,
        out_dir=str(Path(out_root) / f"curve_{seed}"), seed=seed)


def field_config(paths, seed, out_root):
    return RunConfig(
        task="fields", data=paths["train"], reference=paths["target"],
        target_raw=1.0, pca_d=6, pca_samples=64, reduced_sigma=0.05,
        field_sigma_frac=0.02, train=FIELD_TRAIN, baseline=False,
        out_dir=str(Path(out_root) / f"field_{seed}"), seed=seed)


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    curves = synth_fixture("curves", root / "curves", seed=0,
                           taus=[0.0, 0.25, 0.5, 0.75])
    fields = synth_fixture("fields", root / "fields", seed=0,
                           taus=[i / 7 for i in range(7)])
    return {"curves": curves, "fields": fields, "root": root}


@pytest.fixture(scope="session")
def curve_runs(fixture_paths):
    t0 = time.perf_counter()
    reports = []
    for seed in range(N_SEEDS):
        cfg = curve_config(fixture_paths["curves"], seed, fixture_paths["root"])
        report, _, _ = run_experiment(cfg)
        reports.append(report)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def field_runs(fixture_paths):
    t0 = time.perf_counter()
    reports = []
    for seed in range(N_SEEDS):
        cfg = field_config(fixture_paths["fields"], seed, fixture_paths["root"])
        report, _, _ = run_experiment(cfg)
        reports.append(report)
    return reports, time.perf_counter() - t0


def test_criterion_1_discrete_ground_truth():
    t0 = time.perf_counter()
    mu = DiscreteDistribution.uniform([[1.0], [2.0], [4.0]])
    nu = DiscreteDistribution.uniform([[1.0], [3.0], [5.0]])
    tmap, cost = solve_monge(mu, nu)
    exact = Fraction(1, 3) * (Fraction(0) + Fraction(1) + Fraction(1))
    ok = (tmap.assignment == (0, 1, 2)
          and abs(cost - float(exact)) < 1e-12
          and exact == Fraction(2, 3))
    traj = solve_monge_time_dependent(mu, nu)
    mid = traj.positions_at(0.5)
    ok = ok and np.allclose(mid, [[1.0], [2.5], [4.5]], atol=1e-12)
    ok = ok and abs(trajectory_cost(traj, mu) - float(exact)) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _announce(1, ok, f"discrete transport cost 2/3, assignment preserved, "
                     f"linear paths ({elapsed:.2f}s)")


def test_criterion_2_lobachevsky_regression():
    t0 = time.perf_counter()
    m = lobachevsky_metric()
    v0 = np.array(lobachevsky_analytic_velocity(0.0, 1.0, 0.0))
    traj = integrate_geodesic(m, [0.0, 1.0], v0, t_end=3.0, steps=1000)
    x1, x2 = lobachevsky_analytic(0.0, 1.0, traj.times)
    sup_err = max(np.max(np.abs(traj.positions[:, 0] - x1)),
                  np.max(np.abs(traj.positions[:, 1] - x2)))
    e = traj.energies(m)
    drift = np.max(np.abs(e - e[0])) / e[0]
    elapsed = time.perf_counter() - t0
    ok = sup_err < 1e-6 and drift < 1e-8 and elapsed < 1.0
    _announce(2, ok, f"geodesic sup error {sup_err:.2e} < 1e-6, energy drift "
                     f"{drift:.2e} < 1e-8 ({elapsed:.2f}s)")


def test_criterion_3_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        gen = rng.stream(9000 + trial)
        sizes = [int(gen.integers(2, 4)), int(gen.integers(3, 7)),
                 int(gen.integers(3, 7)), int(gen.integers(1, 3))]
        act = ["softplus", "selu"][trial % 2]
        net = nn.init_mlp(sizes, act, seed=trial,
                          activation_param=3.0 if act == "softplus" else 0.0)
        x = rng.normal(gen, (5, sizes[0]))
        y = rng.normal(gen, (5, sizes[-1]))

        def loss_fn():
            out = net.forward(x)
            return ad.stable_mean(
                ad.tsum(ad.square(ad.sub(out, ad.constant(y))), axis=-1))

        grads = np.concatenate([g.ravel() for g in
                                nn.param_grad(loss_fn, net.parameters())])
        base = np.concatenate([p.value.ravel() for p in net.parameters()])

        def loss_at(vec):
            i = 0
            for p in net.parameters():
                k = p.value.size
                p.value = vec[i:i + k].reshape(p.value.shape).copy()
                i += k
            with ad.no_grad():
                out = float(loss_fn().value)
            return out

        fd = np.zeros_like(base)
        h = 1e-5
        for i in range(base.size):
            vp = base.copy()
            vp[i] += h
            vm = base.copy()
            vm[i] -= h
            fd[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
        loss_at(base)
        rel = np.abs(grads - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _announce(3, ok, f"20 nets: worst per-component gradient error "
                     f"{worst:.2e} < 1e-4 ({elapsed:.1f}s)")


def test_criterion_4_mass_conservation():
    t0 = time.perf_counter()
    # particle weights sum to one for assorted model states
    sums_ok = True
    states = [
        rigged_transport_model(1, lambda X, t: 0.3 * t * np.ones_like(X)),
        rigged_transport_model(2, lambda X, t: 0.2 * t * X),
        rigged_transport_model(1, lambda X, t: -2.0 * t * X**2),  # partial fold
    ]
    import warnings as _w
    for k, model in enumerate(states):
        model.reference_density = ReducedGaussianDensity(np.zeros(model.displacement.dim), 0.3)
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            cloud = generate_density(model, 1.0, n=777, seed=k)
        sums_ok = sums_ok and abs(cloud.weights.sum() - 1.0) < 1e-12

    # affine-rigged map reproduces the closed-form affine Gaussian image
    a, b, m0, s0 = 1.5, 0.3, 0.2, 0.1
    ref = ReducedGaussianDensity([m0], s0)
    tgt = ReducedGaussianDensity([a * m0 + b], a * s0)
    ds = SnapshotDataset([Snapshot(0.0, ref), Snapshot(1.0, tgt)])
    model = rigged_transport_model(1, lambda X, t: t * ((a - 1.0) * X + b),
                                   w2=0.0, w3=0.0, n_samples=512)
    res = loss(model, ds, model.config)
    elapsed = time.perf_counter() - t0
    ok = sums_ok and res.l1 < 1e-6 and elapsed < 10.0
    _announce(4, ok, f"weights sum to 1 within 1e-12; affine push-forward "
                     f"L1 {res.l1:.2e} < 1e-6 ({elapsed:.1f}s)")


def test_criterion_5_curve_extrapolation(curve_runs):
    reports, elapsed = curve_runs
    nrmses = [r.target_nrmse for r in reports]
    hits = sum(v <= 0.05 for v in nrmses)
    healthy_maps = all(r.dropped_j_fraction <= 0.01 for r in reports)
    ok = hits >= 4 and healthy_maps and elapsed < 600.0
    _announce(5, ok, f"curve NRMSE per seed {[f'{v:.4f}' for v in nrmses]}, "
                     f"{hits}/5 within 5%, J>0 on >=99% of samples "
                     f"({elapsed:.0f}s)")


def test_criterion_6_field_extrapolation(field_runs):
    reports, elapsed = field_runs
    nrmses = [r.target_nrmse for r in reports]
    residuals = [r.pca_target_residual for r in reports]
    hits = sum(v <= 0.03 for v in nrmses)
    healthy_maps = all(r.dropped_j_fraction <= 0.01 for r in reports)
    ok = hits >= 4 and healthy_maps and elapsed < 900.0
    _announce(6, ok, f"field NRMSE per seed {[f'{v:.4f}' for v in nrmses]}, "
                     f"{hits}/5 within 3%; PCA target residuals "
                     f"{[f'{v:.3f}' for v in residuals]}; J>0 on >=99% "
                     f"({elapsed:.0f}s)")


def test_criterion_7_baseline_head_to_head(curve_runs):
    reports, elapsed = curve_runs
    wins = sum(r.target_nrmse <= r.baseline_nrmse for r in reports)
    pairs = [(f"{r.target_nrmse:.4f}", f"{r.baseline_nrmse:.4f}")
             for r in reports]
    ok = wins >= 4 and elapsed < 900.0
    _announce(7, ok, f"transport vs baseline NRMSE {pairs}, wins {wins}/5 "
                     f"({elapsed:.0f}s)")


def test_criterion_8_pfode_sampler():
    t0 = time.perf_counter()
    schedule = VeSchedule(0.01, 50.0, 1.0)
    score = gaussian_score(1.0, schedule)
    out = sample_chains(score, schedule, 10_000, 1, seed=10, n_steps=100)
    ref = sample_chains(score, schedule, 10_000, 1, seed=10, method="euler",
                        n_steps=4000)
    std_err = abs(out.std() - 1.0)
    mean_err = abs(out.mean())
    euler_gap = abs(out.std() - ref.std()) / ref.std()
    elapsed = time.perf_counter() - t0
    ok = (std_err < 0.05 and mean_err < 0.03 and euler_gap < 0.02
          and elapsed < 120.0)
    _announce(8, ok, f"sampler std dev off by {std_err:.3f} (<0.05), mean "
                     f"{mean_err:.3f} (<0.03), Euler gap {euler_gap:.3f} "
                     f"(<0.02) ({elapsed:.0f}s)")


def test_criterion_9_determinism(fixture_paths, curve_runs, field_runs):
    # identical configs, fresh processes of work: reports must match bit for bit
    root = fixture_paths["root"]
    checks = []
    for task, paths, cfg_fn in (("curves", fixture_paths["curves"], curve_config),
                                ("fields", fixture_paths["fields"], field_config)):
        cfg_a = cfg_fn(paths, 0, root)
        first = Path(cfg_a.out_dir) / "report.json"
        original = first.read_bytes()
        cfg_b = cfg_fn(paths, 0, root)
        cfg_b.out_dir = str(Path(root) / f"repeat_{task}")
        run_experiment(cfg_b)
        repeat = (Path(cfg_b.out_dir) / "report.json").read_bytes()
        checks.append(original == repeat)
    ok = all(checks)
    _announce(9, ok, f"bit-identical reports on repeat runs: curves={checks[0]}, "
                     f"fields={checks[1]}")


def test_criterion_10_invariant_suites():
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_properties.py"],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True,
        text=True)
    elapsed = time.perf_counter() - t0
    ok = result.returncode == 0 and elapsed < 600.0
    tail = result.stdout.strip().splitlines()[-1] if result.stdout else ""
    _announce(10, ok, f"randomized invariant suites green ({tail}, "
                      f"{elapsed:.0f}s)")
