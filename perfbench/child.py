"""One pass of a workload in a fresh interpreter.

``run.py`` starts this script once per pass, from the repository root,
with ``PYTHONPATH=src`` and BLAS pinned to one thread.  The pass imports
``rbgroups`` and ``rbgroups.cli``, builds every input group (set-up is
then over), runs the workload's tasks with their reference checks and
prints one JSON line.  It samples the host's speed with
``probe.Sampler`` from its start, and reports set-up and the tasks in
CPU seconds scaled to the probes' reference speed, next to the raw
times.  With ``--trace`` the pass also wraps the traced functions
before set-up, records spans, writes them to ``--spans`` and adds the
per-layer values; span times include the probes, about 2 %.  With
``--setup-only`` it stops after set-up.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time

import probe
import spans
import workloads
from inputs import build_inputs

SAMPLER = probe.Sampler()


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_seconds():
    """User plus system CPU time of this process so far, start-up included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2 ** 20,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    SAMPLER.start()     # before the package is imported
    try:
        print(json.dumps(run_pass(args)))
    finally:
        SAMPLER.stop()


def run_pass(args):
    import numpy as np
    import rbgroups as rb
    import rbgroups.cli  # noqa: F401  (part of what a CLI user pays at start-up)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(rb.__file__).startswith(src + os.sep):
        sys.exit(f"rbgroups imported from {rb.__file__}, not from {src}")

    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        spans.install(tracer)

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with span("setup"):
        groups = build_inputs(rb, workloads.input_ids(args.workload), args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"ready": ready}
    samples = SAMPLER.take()
    out["setup_cpu_s"] = cpu_seconds() - probe.probe_seconds(samples)
    out["setup_speed"] = probe.speed(samples)
    out["setup_s"] = out["setup_cpu_s"] * out["setup_speed"]
    if not args.setup_only:
        check = workloads.Checker()
        t0 = time.perf_counter()
        c0 = time.process_time()
        summaries = workloads.run_tasks(rb, args.workload, groups, check,
                                        lambda label: span("task " + label))
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
        samples = SAMPLER.take()
        spent = probe.probe_seconds(samples)
        out["wall_s"] = wall - spent
        out["cpu_s"] = cpu - spent
        out["speed"] = probe.speed(samples)
        out["probes"] = len(samples)
        out["probe_share"] = spent / cpu
        out["probe_median_s"] = probe.medians(samples)
        out["norm_cpu_s"] = out["cpu_s"] * out["speed"]
        out["task_s"] = {label: s["seconds"] for label, s in summaries.items()}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"] = check.attempted
        out["failures"] = check.failures
        out["env"] = environment(np)
        if tracer is not None:
            out["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
            tracer.write(args.spans)
    return out


if __name__ == "__main__":
    main()
