"""otgen benchmark: training and generation through the `otgen` CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload curves --seed 1 --seconds 15 --trace 0

Workloads: curves, fields, paper-nets, generate (see benchmarks/NOTES.md).
Set-up (a fresh import of otgen, fixtures, configs, and on generate the
served models) runs several times, before the first cycle and between
cycles, and its 10 % trimmed mean is reported. The first cycle is an untimed
warm-up; then request cycles run in a closed loop until --seconds of
cycles have passed (at least two cycles).

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 it holds per-layer metrics from the traced cycles, which
alternate with untraced ones that give the tracing overhead. Earlier
stdout lines hold run facts and the remaining metrics. A failed request
or output check makes the run print "correct": false and exit with code 1.
Without the package sources next to it, the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
MIN_CYCLES = 2

# ROADMAP.md table: single runs on a 2-core machine, numpy 2.4
ROADMAP = {
    "curves": [
        ("end to end, ms/epoch (100-epoch run)", 77.0, "run_ms_per_epoch"),
        ("loss forward, ms", 31.0, "transport.loss_forward_ms"),
        ("Jacobian stencil, ms", 16.0, "transport.density_stencil_ms"),
        ("dynamics term, ms", 10.0, "transport.dynamics_ms"),
        ("forward+backward, ms", 53.0, "forward_backward_ms"),
        ("GP-baseline fit, s", 0.35, "fpca_gpr.baseline_s"),
    ],
    "fields": [
        ("end to end, ms/epoch", 149.0, "run_ms_per_epoch"),
        ("loss forward, ms", 86.0, "transport.loss_forward_ms"),
        ("Jacobian stencil, ms", 77.0, "transport.density_stencil_ms"),
        ("forward+backward, ms", 136.0, "forward_backward_ms"),
    ],
    "paper-nets": [
        ("default nets forward+backward, ms/epoch", 453.0,
         "forward_backward_ms"),
        ("GP-baseline fit, s", 0.35, "fpca_gpr.baseline_s"),
    ],
    "generate": [
        ("PF-ODE 10k chains x 100 steps, s", 0.06, "pfode_s"),
    ],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_package():
    """Import otgen from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import otgen
        import workloads
        import tracing
    except ImportError as e:
        fail(f"cannot import otgen from {src}: {e}")
    if not Path(otgen.__file__).resolve().is_relative_to(src):
        fail(f"otgen resolved outside {src}")
    return workloads, tracing


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def run_facts(args, workload):
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "clients": 1, "loop": "closed",
    }
    facts.update(_cpu_facts())
    facts.update(workload.facts())
    return facts


def _cpu_facts():
    out = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    out["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip().lower()
            out[f"cache_L{level}_{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def trimmed_mean(values, share=0.1):
    """Mean without the lowest and the highest `share` of the values."""
    ordered = sorted(values)
    k = int(len(ordered) * share)
    return statistics.mean(ordered[k:len(ordered) - k])


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(workload, client, import_s, setups, cycles, measured_train):
    import workloads
    if measured_train:
        per_epoch = [1000.0 * s / e for s, e in measured_train if e]
    else:   # generate: only the set-ups train (its served models)
        per_epoch = [1000.0 * sum(s for s, _ in recs) / sum(e for _, e in recs)
                     for recs in setups["train"] if sum(e for _, e in recs)]
    metrics = {
        # set-up times fall into the host's fast and slow spells; a median
        # of them jumps between the two, a trimmed mean moves smoothly
        "setup_s": (trimmed_mean(setups["seconds"]), "s"),
        "run_s": (statistics.median(cycles), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {}
    if per_epoch:
        info["train_ms_per_epoch"] = (statistics.median(per_epoch), "ms")
    lat = client.latency
    small = [v for k, vs in lat.items() if k.startswith("generate-")
             and k.endswith(f"-{workloads.SMALL_SAMPLES}") for v in vs]
    if small:
        info["generate_ms_p50"] = (1000 * statistics.median(small), "ms")
        info["generate_ms_p90"] = (1000 * quantile(small, 0.9), "ms")
        info["generate_samples"] = (len(small), "count")
        for key, vs in sorted(lat.items()):
            if key.startswith("generate-"):
                info[f"{key}_ms_p50"] = (1000 * statistics.median(vs), "ms")
    large = [(k, vs) for k, vs in lat.items()
             if k.endswith(f"-{workloads.LARGE_SAMPLES}")]
    if large:
        n = sum(len(vs) for _, vs in large)
        info["generate_large_particles_per_s"] = (
            n * workloads.LARGE_SAMPLES / sum(sum(vs) for _, vs in large),
            "1/s")
    if lat.get("pfode"):
        info["pfode_ms_p50"] = (1000 * statistics.median(lat["pfode"]), "ms")
    if lat.get("run"):
        run = lat["run"]
        info["run_request_s_p50"] = (statistics.median(run), "s")
        info["run_ms_per_epoch"] = (
            1000 * statistics.median(run) / workload.epochs, "ms")
    info.update(workload.accuracy())
    info["fail_fraction"] = (client.failed / client.attempted, "fraction")
    info["cycles"] = (len(cycles), "count")
    info["cycle_s"] = ([round(c, 4) for c in cycles], "s")
    info["setup_each_s"] = ([round(x, 4) for x in setups["seconds"]], "s")
    info["import_s"] = (import_s, "s")
    return metrics, info


def roadmap_rows(name, layer, info):
    values = {k: v for k, (v, _) in layer.items()}
    values.update({k: v for k, (v, _) in info.items()})
    values["forward_backward_ms"] = (values["transport.loss_forward_ms"]
                                     + values["autodiff.backward_ms"])
    values["pfode_s"] = values["pfode.sample_chains_ms"] / 1000.0
    rows = []
    for label, theirs, key in ROADMAP[name]:
        ours = values.get(key)
        rows.append({"path": label, "roadmap": theirs, "measured": ours,
                     "ratio": ours / theirs if ours else None, "from": key})
    return rows


def as_output(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    t0 = perf_counter()
    workloads, tracing = import_package()
    import_s = perf_counter() - t0

    work = (ROOT / ".bench_out"
            / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        workload = workloads.make(args.workload, work, args.seed)
    except ValueError as e:
        fail(str(e))
    facts = run_facts(args, workload)
    try:
        return measure(args, workloads, tracing, workload, import_s, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def reimport_package():
    """Import otgen afresh in this process, as every `otgen` command does.

    The package's modules leave `sys.modules` for the import and are put
    back afterwards, so the workload keeps the modules it already holds.
    numpy and the standard library stay loaded: interpreter start-up is
    not part of set-up.
    """
    def ours(name):
        return name == "otgen" or name.startswith("otgen.")

    held = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in held:
        del sys.modules[name]
    try:
        import otgen.cli
        import otgen.experiment  # noqa: F401
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(held)


def run_cycles(workload, client, timer, seconds, tracer, between):
    """Closed loop of cycles until `seconds` of cycles have passed.

    With a tracer, even cycles are traced and odd ones are not, so that
    the tracing overhead compares neighbouring cycles. `between()` runs
    after each cycle and does not count towards `seconds`. Returns the
    cycle times keyed by traced or not, and the train timings of untraced
    cycles.
    """
    times = {False: [], True: []}
    train = []
    minimum = MIN_CYCLES * (2 if tracer else 1)
    start = perf_counter()
    k = 0
    while k < minimum or perf_counter() - start < seconds:
        traced = tracer is not None and k % 2 == 0
        if traced:
            tracer.install()
            client.tracer = tracer
        client.cycle = k
        before = len(timer.records)
        t = perf_counter()
        workload.cycle(client)
        times[traced].append(perf_counter() - t)
        if traced:
            tracer.uninstall()
            client.tracer = None
        else:
            train += timer.records[before:]
        client.cycle = None
        k += 1
        t = perf_counter()
        between()
        start += perf_counter() - t
    return times, train


def measure(args, workloads, tracing, workload, import_s, facts):
    client = workloads.Client()
    timer = workloads.TrainTimer()
    timer.install()
    setups = {"seconds": [], "train": []}

    def set_up():
        """One slot of timed set-ups, until the workload has had all of its own."""
        for _ in range(workload.setups_per_slot):
            i = len(setups["seconds"])
            if i == workload.setups:
                return
            before = len(timer.records)
            t = perf_counter()
            reimport_package()
            workload.setup(client, i)
            setups["seconds"].append(perf_counter() - t)
            setups["train"].append(timer.records[before:])

    # The set-ups are spread over the run, one slot before the first cycle
    # and one after each cycle, so that their median does not hang on one
    # of the host's speed spells, which last seconds.
    set_up()
    # one untimed cycle lets lazy loading and allocator growth finish
    t = perf_counter()
    workload.cycle(client)
    warmup_s = perf_counter() - t
    set_up()

    tracer = tracing.Tracer() if args.trace else None
    times, train = run_cycles(workload, client, timer, args.seconds, tracer,
                              set_up)
    cycles, traced = times[False], times[True]
    while len(setups["seconds"]) < workload.setups:
        set_up()
    workload.finish(client)
    timer.uninstall()

    print(json.dumps({"facts": facts}))
    metrics, info = end_to_end(workload, client, import_s, setups, cycles,
                               train)
    info["warmup_cycle_s"] = (warmup_s, "s")
    if tracer is not None:
        info.update(metrics)
        info["traced_cycle_s"] = ([round(c, 4) for c in traced], "s")
        metrics, counts = tracing.layer_metrics(tracer)
        metrics["tracing.overhead_s"] = (
            statistics.median(traced) - statistics.median(cycles), "s")
        client.check(all(c == counts[0] for c in counts.values()),
                     "exact counts differ between cycles of one seed")
        one_cycle = json.dumps(counts.get(0, {}), sort_keys=True).encode()
        info["count_digest"] = (hashlib.sha256(one_cycle).hexdigest()[:16],
                                "sha256")
        top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:15]
        print(json.dumps({"self_time_s": dict(top)}))
        print(json.dumps({"roadmap": roadmap_rows(args.workload, metrics,
                                                  info)}))
        path = ROOT / ".bench_out" / f"trace-{args.workload}-s{args.seed}.jsonl.gz"
        tracer.write(path)
        info["trace_file"] = (str(path.relative_to(ROOT)), "path")
    print(json.dumps({"info": as_output(info)}))
    for problem in client.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not client.problems
    print(json.dumps({"correct": correct, "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": as_output(metrics)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
