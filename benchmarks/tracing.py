"""Span tracing of otgen's layers, installed from outside the package.

Each public function of a layer is replaced, at the name its caller looks
up, by a wrapper that records a span: name, start, end, parent span,
request id and training epoch. Spans stay in memory and are written out
when the run ends; layer metrics and self times are computed from them.
`uninstall()` puts every original function back, so the same process can
run untraced afterwards.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# autodiff primitives reported one by one
PRIMITIVES = ("softplus", "selu", "matmul", "det", "concat", "stack_last",
              "sin", "cos", "add", "mul", "sub", "getitem", "stable_mean")

# span record fields
NAME, START, END, PARENT, REQUEST, EPOCH, EXTRA = range(7)


def _rows(x):
    shape = getattr(getattr(x, "value", x), "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _matmul_cost(args, kwargs, out):
    # computed from the forward call's shapes, not measured
    a, b = (getattr(x, "value", x) for x in args[:2])
    k = a.shape[-1]
    flop = 2 * out.value.size * k
    nbytes = 8 * (a.size + b.size + out.value.size)
    return (flop, nbytes)


def _u_extra(args, kwargs, out):
    t = args[2] if len(args) > 2 else kwargs["t"]
    scalar_t = getattr(t, "ndim", 0) == 0
    return (_rows(args[1]), scalar_t)


def _cloud_extra(args, kwargs, out):
    n = args[2] if len(args) > 2 else kwargs.get("n", 2048)
    return (int(n), int(out.points.shape[0]))


def _file_size(args, kwargs, out):
    return os.path.getsize(args[1])


class Tracer:
    """Spans of one run; `install()` and `uninstall()` may alternate."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.request = None
        self.request_kind = {}
        self.request_cycle = {}
        self.epoch = None

    # -- installation ---------------------------------------------------------

    def _wrap(self, owner, attr, name, extra=None, enter=None, leave=None):
        original = owner.__dict__[attr]
        tracer = self
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.request, tracer.epoch, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if leave is not None:
                    leave()
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        from otgen import (autodiff, dataio, density, experiment, fpca_gpr, nn,
                           pfode, rng, transport)

        def train_enter(args):
            self.epoch = 0

        def train_leave():
            self.epoch = None

        def next_epoch():
            self.epoch += 1

        def count_tape(args):
            self.spans.append(["autodiff.tape_nodes", 0.0, 0.0,
                               self._stack[-1] if self._stack else -1,
                               self.request, self.epoch,
                               _count_tape(args[0])])

        w = self._wrap
        w(experiment, "train", "transport.train", enter=train_enter,
          leave=train_leave)
        w(experiment, "prepare_curve_dataset", "experiment.prepare")
        w(experiment, "prepare_field_dataset", "experiment.prepare")
        w(experiment, "fit_pca", "pca.fit_pca")
        w(experiment, "generate_density", "transport.generate_density",
          extra=_cloud_extra)
        w(transport, "generate_density", "transport.generate_density",
          extra=_cloud_extra)
        w(dataio, "ingest_curves", "dataio.ingest")
        w(dataio, "ingest_fields", "dataio.ingest")
        w(dataio, "save_model", "dataio.save_model", extra=_file_size)
        w(dataio, "load_model", "dataio.load_model")
        w(fpca_gpr, "fit_predict_baseline", "fpca_gpr.baseline")
        w(transport, "compute_loss", "transport.compute_loss")
        w(transport, "spatial_jacobian_t", "transport.spatial_jacobian_t")
        w(transport, "eom_residual_t", "transport.eom_residual_t")
        w(transport.DisplacementField, "u", "transport.u", extra=_u_extra)
        w(transport.BodyForceField, "force", "transport.force",
          extra=lambda a, k, out: _rows(a[1]))
        w(density.GaussianCurveDensity, "pdf_t", "density.pdf_t")
        w(density.ReducedGaussianDensity, "pdf_t", "density.pdf_t")
        w(nn.Mlp, "forward", "nn.mlp_forward")
        w(nn.FourierFeatureEmbedding, "apply", "nn.embedding")
        w(nn, "adam_step_tensors", "nn.adam", leave=next_epoch)
        w(autodiff.Tensor, "backward", "autodiff.backward", enter=count_tape)
        for prim in PRIMITIVES:
            w(autodiff, prim, f"autodiff.{prim}",
              extra=_matmul_cost if prim == "matmul" else None)
        w(rng, "stream", "rng.stream")
        w(rng, "uniform", "rng.draw")
        w(rng, "normal", "rng.draw")
        w(pfode, "sample_chains", "pfode.sample_chains")
        w(pfode, "pf_velocity", "pfode.pf_velocity")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def request_span(self, kind, cycle):
        """Mark one CLI request; spans inside it carry its id."""
        rid = len(self.request_kind)
        self.request_kind[rid] = kind
        self.request_cycle[rid] = cycle
        self.request = rid
        rec = [f"request.{kind}", 0.0, 0.0, -1, rid, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            self.request = None

    # -- output -----------------------------------------------------------------

    def self_times(self):
        """Total self time per span name: duration minus covered child time."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(float)
        for i, rec in enumerate(self.spans):
            out[rec[NAME]] += rec[END] - rec[START] - child[i]
        return dict(out)

    def write(self, path):
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                           "request", "epoch", "extra"],
                                "requests": self.request_kind}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _count_tape(root):
    """Nodes reachable from the loss, i.e. the nodes backward() visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _median(values):
    return statistics.median(values) if values else 0.0


def _counted(rec):
    """(counter, amount) pairs of the exact work a span records in EXTRA."""
    name, extra = rec[NAME], rec[EXTRA]
    if name == "transport.u":
        return (("u_rows", extra[0]),)
    if name == "transport.force":
        return (("force_rows", extra),)
    if name == "autodiff.matmul":
        return (("matmul_flop", extra[0]), ("matmul_bytes", extra[1]))
    if name == "autodiff.tape_nodes":
        return (("tape_nodes", extra),)
    if name == "dataio.save_model":
        return (("model_bytes", extra),)
    if name == "transport.generate_density":
        return (("drawn", extra[0]), ("kept", extra[1]))
    return ()


def layer_metrics(tracer: Tracer):
    """Per-layer metrics and the exact counts that must repeat per cycle.

    One pass over the spans sums time and counts per (request, epoch)
    group, per cycle, and lists durations per call. Per-epoch values are
    medians over the epoch groups. When the traced phase trains nothing
    (generate), they fall back to per-cycle groups, so backward and tape
    metrics read zero there.
    Returns (metrics: name -> (value, unit), counts_per_cycle).
    """
    spans = tracer.spans
    cycles = sorted(set(tracer.request_cycle.values()))
    per_epoch = any(rec[EPOCH] is not None for rec in spans)

    group_ms = defaultdict(lambda: defaultdict(float))
    group_n = defaultdict(lambda: defaultdict(int))
    cycle_s = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(list)                         # name -> durations, s
    counts = defaultdict(lambda: defaultdict(int))    # cycle -> counter -> n
    for rec in spans:
        name = rec[NAME]
        cycle = tracer.request_cycle.get(rec[REQUEST])
        if cycle is None:
            continue
        dur = rec[END] - rec[START]
        calls[name].append(dur)
        cycle_s[name][cycle] += dur
        counted = _counted(rec)
        counts[cycle][name] += 1
        for counter, amount in counted:
            counts[cycle][counter] += amount
        if per_epoch:
            if rec[EPOCH] is None:
                continue
            key = (rec[REQUEST], rec[EPOCH])
        else:
            key = cycle
        group_ms[name][key] += 1000.0 * dur
        group_n[name][key] += 1
        for counter, amount in counted:
            group_n[counter][key] += amount
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        if parent != "transport.compute_loss":
            continue
        if name == "transport.spatial_jacobian_t":
            group_ms["stencil"][key] += 1000.0 * dur
        elif name == "transport.eom_residual_t":
            group_ms["dynamics"][key] += 1000.0 * dur
        elif name == "transport.u" and rec[EXTRA][1]:
            group_ms["boundary"][key] += 1000.0 * dur
    keys = sorted({k for group in group_n.values() for k in group})

    def ms(name):
        return _median([group_ms[name].get(k, 0.0) for k in keys])

    def count(name):
        return _median([group_n[name].get(k, 0) for k in keys])

    def per_call(name):
        return _median(calls[name])

    def per_cycle(name, table=cycle_s):
        return _median([table[name].get(c, 0) for c in cycles])

    total = defaultdict(int)
    for c in counts.values():
        for counter, n in c.items():
            total[counter] += n

    m = {}
    m["dataio.ingest_s"] = (per_cycle("dataio.ingest"), "s")
    m["experiment.prepare_s"] = (per_cycle("experiment.prepare"), "s")
    m["pca.fit_pca_s"] = (per_cycle("pca.fit_pca"), "s")
    m["dataio.save_model_s"] = (per_cycle("dataio.save_model"), "s")
    m["dataio.model_bytes"] = (
        total["model_bytes"] // total["dataio.save_model"]
        if total["dataio.save_model"] else 0, "bytes")
    m["dataio.load_model_s"] = (per_call("dataio.load_model"), "s")

    m["transport.train_s"] = (per_call("transport.train"), "s")
    m["transport.loss_forward_ms"] = (
        1000.0 * per_call("transport.compute_loss"), "ms")
    losses = group_n["transport.compute_loss"]
    m["transport.loss_evals_per_epoch"] = (
        sum(losses.values()) / len(keys) if per_epoch else 0.0, "count")
    m["transport.density_stencil_ms"] = (ms("stencil"), "ms")
    m["transport.u_calls_per_epoch"] = (count("transport.u"), "count")
    m["transport.u_rows_per_epoch"] = (count("u_rows"), "count")
    m["density.pdf_t_ms"] = (ms("density.pdf_t"), "ms")
    m["transport.boundary_ms"] = (ms("boundary"), "ms")
    m["transport.dynamics_ms"] = (ms("dynamics"), "ms")
    m["transport.body_force_rows_per_epoch"] = (count("force_rows"), "count")

    m["transport.generate_density_s"] = (
        per_cycle("transport.generate_density"), "s")
    gen_requests = [rid for rid, kind in tracer.request_kind.items()
                    if kind == "generate"]
    in_generate = sum(1 for rec in spans
                      if rec[NAME] == "transport.generate_density"
                      and tracer.request_kind.get(rec[REQUEST]) == "generate")
    m["transport.generate_density_calls_per_request"] = (
        in_generate / len(gen_requests) if gen_requests else 0.0, "count")
    m["transport.kept_fraction"] = (
        total["kept"] / total["drawn"] if total["drawn"] else 0.0, "fraction")

    m["autodiff.backward_ms"] = (ms("autodiff.backward"), "ms")
    m["autodiff.tape_nodes_per_epoch"] = (count("tape_nodes"), "count")
    for prim in PRIMITIVES:
        m[f"autodiff.{prim}_ms"] = (ms(f"autodiff.{prim}"), "ms")
        m[f"autodiff.{prim}_calls"] = (count(f"autodiff.{prim}"), "count")
    m["autodiff.matmul_gflop_per_epoch"] = (count("matmul_flop") / 1e9,
                                            "GFLOP_computed")
    m["autodiff.matmul_gb_per_epoch"] = (count("matmul_bytes") / 1e9,
                                         "GB_computed")

    m["nn.mlp_forward_ms"] = (ms("nn.mlp_forward"), "ms")
    m["nn.embedding_ms"] = (ms("nn.embedding"), "ms")
    m["nn.adam_ms"] = (ms("nn.adam"), "ms")
    m["rng.stream_calls_per_epoch"] = (count("rng.stream"), "count")
    m["rng.stream_ms"] = (ms("rng.stream") + ms("rng.draw"), "ms")

    m["fpca_gpr.baseline_s"] = (per_call("fpca_gpr.baseline"), "s")
    m["pfode.sample_chains_ms"] = (1000.0 * per_call("pfode.sample_chains"),
                                   "ms")
    chains = total["pfode.sample_chains"]
    m["pfode.pf_velocity_calls"] = (
        total["pfode.pf_velocity"] / chains if chains else 0.0, "count")
    return m, {c: dict(sorted(n.items())) for c, n in counts.items()}
