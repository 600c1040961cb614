"""Workloads of the otgen benchmark: inputs, request cycles, output checks.

Every request goes through the real entry point, `otgen.cli.main`, in this
process, one at a time (a closed loop with one client). Inputs come from
`otgen.fixtures` and the workload seed. The acceptance configs are those of
tests/test_acceptance.py with fewer epochs.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from otgen import cli, dataio, experiment
from otgen.density import CurveSnapshot
from otgen.fixtures import curve_family, field_family, synth_fixture

TARGET = 1.0
TAUS = {"curves": [0.0, 0.25, 0.5, 0.75], "fields": [i / 7 for i in range(7)]}

CURVE_TRAIN = dict(n_samples=256, n_samples_pde=64, n_collocation=11,
                   dnn_hidden=[48, 48, 48], dnn_fourier_m=6,
                   fnn_hidden=[48, 48], fnn_dropout=0.1,
                   auto_rescale_weights=True)
FIELD_TRAIN = dict(CURVE_TRAIN, n_samples=192, n_samples_pde=48)
# the package-default networks of TrainConfig() on the curve batch sizes
PAPER_TRAIN = dict(n_samples=256, n_samples_pde=64, n_collocation=11,
                   auto_rescale_weights=True)

SMALL_SAMPLES = 2048     # a 48-wide activation fits a 2 MiB per-core L2
LARGE_SAMPLES = 16384    # and spills it here
PFODE_ARGS = ["--score", "gaussian:1.0", "--n", "10000", "--steps", "100"]


def run_config(task, paths, out_dir, seed, epochs, train):
    doc = dict(task=task, data=paths["train"], reference=paths["target"],
               target_raw=TARGET, out_dir=str(out_dir), seed=seed,
               train=dict(train, epochs=epochs))
    if task == "curves":
        doc.update(sigma_frac=0.04, grid_points=40, boundary_anchors=2,
                   baseline=True)
    else:
        doc.update(pca_d=6, pca_samples=64, reduced_sigma=0.05,
                   field_sigma_frac=0.02, baseline=False)
    return doc


def write_json(path, doc):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def all_finite(doc):
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, dict):
        return all(all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(all_finite(v) for v in doc)
    return True


def finite_json(path):
    with open(path) as f:
        return all_finite(json.load(f))


class TrainTimer:
    """One timer around each `transport.train` call made by `otgen run`."""

    def __init__(self):
        self.records = []   # (seconds, epochs run)
        self._original = experiment.train

    def install(self):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            model = self._original(*args, **kwargs)
            self.records.append((perf_counter() - t0, len(model.loss_history)))
            return model

        experiment.train = timed

    def uninstall(self):
        experiment.train = self._original


class Client:
    """Closed loop, one client: a request starts when the previous ends.

    Failed requests and failed output checks are both collected in
    `problems`; any entry fails the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latency = defaultdict(list)   # label -> seconds, untraced cycles
        self.cycle = None                  # None while setting up
        self.tracer = None

    def request(self, label, argv):
        self.attempted += 1
        traced = self.tracer is not None and self.cycle is not None
        span = (self.tracer.request_span(argv[0], self.cycle) if traced
                else nullcontext())
        t0 = perf_counter()
        try:
            with span, redirect_stdout(io.StringIO()):
                rc = cli.main([str(a) for a in argv])
        except Exception as e:  # a raising request is a failed request
            rc = f"{type(e).__name__}: {e}"
        except SystemExit as e:
            rc = f"exit {e.code}"
        elapsed = perf_counter() - t0
        if rc != 0:
            self.failed += 1
            self.problems.append(f"request {label} failed: {rc}")
            return False
        if self.cycle is not None and self.tracer is None:
            self.latency[label].append(elapsed)
        return True

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


class Workload:
    setups = 21          # timed set-ups in a run
    setups_per_slot = 3  # run back to back, before and after each cycle

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.reports = {}   # first report.json bytes per config

    def same_report(self, client, key, path):
        data = Path(path).read_bytes()
        client.check(finite_json(path), f"{key}: non-finite number in {path}")
        first = self.reports.setdefault(key, data)
        client.check(data == first,
                     f"{key}: report.json differs between runs of one seed")

    def finish(self, client):
        """Checks that need the whole run."""

    def generate(self, client, label, model, target, samples, out, reference,
                 expected=None):
        """One `otgen generate` request, its diagnostics and optional bytes."""
        if not client.request(label, [
                "generate", "--model", model, "--target", repr(target),
                "--samples", samples, "--out", out, "--reference", reference]):
            return
        client.check(finite_json(Path(out).with_suffix(".diag.json")),
                     f"{label}: non-finite number in diagnostics")
        if expected is not None:
            client.check(Path(out).read_bytes() == Path(expected).read_bytes(),
                         f"{label}: generate --target {target} differs from "
                         f"the generated.csv of otgen run")


class TrainingWorkload(Workload):
    """`otgen run` on one config, then `otgen generate` from its model."""

    def __init__(self, work, seed, task, epochs, train):
        super().__init__(work, seed)
        self.task = task
        self.epochs = epochs
        self.train = train

    def facts(self):
        return {"task": self.task, "epochs": self.epochs}

    def setup(self, client, i):
        d = self.work / f"setup{i}"
        self.paths = synth_fixture(self.task, d / "fixture", seed=self.seed,
                                   taus=TAUS[self.task])
        self.out = self.work / "run"
        self.config = write_json(d / "run.json", run_config(
            self.task, self.paths, self.out, self.seed, self.epochs,
            self.train))

    def cycle(self, client):
        if not client.request("run", ["run", "--config", self.config]):
            return
        self.same_report(client, "run", self.out / "report.json")
        self.generate(client, f"generate-{self.task}-{SMALL_SAMPLES}",
                      self.out / "model.json", TARGET, SMALL_SAMPLES,
                      self.work / "gen.csv", self.paths["target"],
                      expected=self.out / "generated.csv")

    def accuracy(self):
        if "run" not in self.reports:
            return {}
        doc = json.loads(self.reports["run"])
        out = {"target_nrmse": (doc["target_nrmse"], "1"),
               "dropped_j_fraction": (doc["dropped_j_fraction"], "fraction")}
        if doc["baseline_nrmse"] is not None:
            out["baseline_nrmse"] = (doc["baseline_nrmse"], "1")
        return out


class GenerateWorkload(Workload):
    """Serve a trained curve model and field model, plus the PF-ODE sampler.

    Set-up trains and saves both models through `otgen run`. A cycle is
    one sweep of requests in a seeded order: 2048-sample generate requests
    at every sweep target for both tasks, one 16384-sample request per
    task, and two `sample-pfode` requests.
    """

    setups = 3           # each one trains both served models
    setups_per_slot = 1
    epochs = {"curves": 10, "fields": 6}
    train = {"curves": CURVE_TRAIN, "fields": FIELD_TRAIN}

    def __init__(self, work, seed):
        super().__init__(work, seed)
        gen = random.Random(seed)
        self.targets = sorted(round(gen.uniform(0.05, 0.95), 4)
                              for _ in range(3)) + [TARGET]
        sweep = [("small", task, t) for task in ("curves", "fields")
                 for t in self.targets]
        sweep += [("large", task, TARGET) for task in ("curves", "fields")]
        sweep += [("pfode", None, None)] * 2
        gen.shuffle(sweep)
        self.sweep = sweep
        self.pfode_runs = 0
        self.pfode_sum = 0.0
        self.pfode_count = 0

    def facts(self):
        return {"served_epochs": self.epochs, "targets": self.targets,
                "sweep": [f"{kind}:{task}:{t}" for kind, task, t in self.sweep]}

    def setup(self, client, i):
        d = self.work / f"setup{i}"
        self.models = {}
        self.references = {}
        for task in ("curves", "fields"):
            paths = synth_fixture(task, d / f"fixture_{task}", seed=self.seed,
                                  taus=TAUS[task])
            cfg = write_json(d / f"{task}.json", run_config(
                task, paths, d / task, self.seed, self.epochs[task],
                self.train[task]))
            if not client.request(f"train-{task}", ["run", "--config", cfg]):
                continue
            self.same_report(client, task, d / task / "report.json")
            self.models[task] = d / task
            for t in self.targets:
                self.references[task, t] = (
                    paths["target"] if t == TARGET
                    else self._reference(task, t, d / f"ref_{task}_{t}.csv"))

    def _reference(self, task, t, path):
        if task == "curves":
            dataio.write_curves(path, [CurveSnapshot(t, curve_family(t))])
        else:
            dataio.write_fields(path, [t],
                                field_family(t, seed=self.seed)[None, :])
        return path

    def _send(self, client, item):
        kind, task, t = item
        if kind == "pfode":
            self._pfode(client)
            return
        samples = SMALL_SAMPLES if kind == "small" else LARGE_SAMPLES
        model = self.models.get(task)
        if model is None:
            return
        expected = (model / "generated.csv"
                    if t == TARGET and samples == SMALL_SAMPLES else None)
        self.generate(client, f"generate-{task}-{samples}",
                      model / "model.json", t, samples,
                      self.work / f"gen_{task}_{samples}.csv",
                      self.references[task, t], expected=expected)

    def _pfode(self, client):
        out = self.work / "pfode.csv"
        seed = self.seed * 100_003 + self.pfode_runs
        self.pfode_runs += 1
        if not client.request("pfode", ["sample-pfode", *PFODE_ARGS,
                                      "--out", out, "--seed", seed]):
            return
        x = np.loadtxt(out, delimiter=",", skiprows=1)
        ok = x.size == 10_000 and bool(np.all(np.isfinite(x)))
        client.check(ok, "pfode: wrong count or non-finite samples")
        if ok:
            client.check(abs(x.std() - 1.0) < 0.05,
                         f"pfode: sample std {x.std():.4f} not within 0.05 of 1")
            self.pfode_sum += float(x.sum())
            self.pfode_count += x.size

    def cycle(self, client):
        for item in self.sweep:
            self._send(client, item)

    def finish(self, client):
        # criterion 8's mean bound, applied to all samples of the run: at
        # 10k samples per request a 0.03 bound is a 3-sigma test that a
        # correct sampler fails on about 0.3% of seeds
        mean = self.pfode_sum / max(self.pfode_count, 1)
        client.check(self.pfode_count > 0 and abs(mean) < 0.03,
                     f"pfode: pooled sample mean {mean:.4f} not within 0.03")

    def accuracy(self):
        out = {}
        for task, data in self.reports.items():
            doc = json.loads(data)
            out[f"target_nrmse.{task}"] = (doc["target_nrmse"], "1")
            out[f"dropped_j_fraction.{task}"] = (doc["dropped_j_fraction"],
                                                 "fraction")
            if doc["baseline_nrmse"] is not None:
                out[f"baseline_nrmse.{task}"] = (doc["baseline_nrmse"], "1")
        return out


def make(name, work, seed):
    if name == "curves":
        return TrainingWorkload(work, seed, "curves", 30, CURVE_TRAIN)
    if name == "fields":
        return TrainingWorkload(work, seed, "fields", 20, FIELD_TRAIN)
    if name == "paper-nets":
        return TrainingWorkload(work, seed, "curves", 10, PAPER_TRAIN)
    if name == "generate":
        return GenerateWorkload(work, seed)
    raise ValueError(f"unknown workload {name!r}")
