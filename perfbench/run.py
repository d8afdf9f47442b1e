"""rbgroups benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 46 --trace 0

Run from the repository root.  Every pass is a fresh interpreter
(``child.py``): it imports the package, builds the seeded inputs and
runs the workload's tasks with their reference checks, one after
another in a closed loop on one thread.  Passes start until the next
one would end past ``--seconds``; there is always at least one, and
with ``--trace 1`` at least one untraced and one traced pass.  Set-up
is then timed in further set-up-only interpreters, up to
``SETUP_SAMPLES``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, from
untraced passes: ``norm_cpu_s``, the median over passes of the tasks'
CPU seconds scaled to the reference host speed that ``probe.py``
samples through each pass; ``setup_s``, the median set-up CPU seconds
(interpreter start, imports, inputs) scaled the same way; and
``peak_rss_mb``.  Raw wall and CPU seconds per pass are printed too.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: medians of the traced passes' times, their counts
(which must repeat exactly) and the tracing overhead, the difference
of the two kinds' median ``norm_cpu_s``.  Each pass's checks add to ``attempted`` and ``failed``.  The
last line of standard output is the result as JSON; the full record,
with the run environment, goes to ``.perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170


def git_sha():
    """The checked-out commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class ChildFailed(Exception):
    pass


def run_child(args, deadline, *extra):
    """Run one pass in a fresh interpreter; its JSON plus the set-up time."""
    # A fixed mmap threshold returns every large array to the system when
    # it is freed, so peak RSS follows live arrays; with glibc's adaptive
    # threshold it also follows heap fragmentation, which changes by a
    # third from one input labelling to the next.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"pass exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0:
        raise ChildFailed(f"pass exited with {proc.returncode}:\n{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    return result


def layer_values(traced, untraced):
    """Per-layer metrics: median times, counts that must repeat, ratios."""
    layers = [p["layers"] for p in traced]
    out = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if isinstance(values[0], float):
            out[key] = statistics.median(values)
        else:
            out[key] = values[0]

    def ratio(num, den):
        return out.get(num, 0) / out[den] if out.get(den) else 0.0

    out["enumeration.nonsplitting_obstruction.survivor_ratio"] = ratio(
        "enumeration.nonsplitting_obstruction.survivors",
        "enumeration.nonsplitting_obstruction.covering_pairs")
    out["enumeration.brute_force_rb.hit_ratio"] = ratio(
        "enumeration.brute_force_rb.hits", "enumeration.brute_force_rb.maps_scanned")
    out["constructions.rb_ratio"] = ratio(
        "constructions.extension_rb", "constructions.extension_construct.calls")
    out["trace.overhead_s"] = (statistics.median(p["norm_cpu_s"] for p in traced)
                               - statistics.median(p["norm_cpu_s"] for p in untraced))
    return out


def tail_percentile(samples):
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"{n} samples: no percentile has ten samples above it"
    k = n - 10
    return f"p{100 * k // n} = {sorted(samples)[k - 1]:.3f} s over {n} samples"


def counts_repeat(traced):
    """Whether every count is the same in all traced passes."""
    first = traced[0]["layers"]
    return all(p["layers"][k] == v for p in traced for k, v in first.items()
               if not isinstance(v, float))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rbgroups" / "__init__.py").is_file():
        sys.exit(f"no rbgroups sources under {ROOT / 'src'}: "
                 "run from a checkout of the repository")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    passes = []
    try:
        while True:
            trace_pass = bool(args.trace) and len(passes) % 2 == 1
            extra = ["--trace", "--spans", str(OUT / f"spans-{tag}.jsonl")] if trace_pass else []
            p = run_child(args, limit, *extra)
            p["traced"] = trace_pass
            p["duration_s"] = p["setup_wall_s"] + p["wall_s"]
            passes.append(p)
            kinds = {q["traced"] for q in passes}
            longest = max(q["duration_s"] for q in passes)
            if len(kinds) == 1 + args.trace and \
                    time.monotonic() + longest > start + args.seconds:
                break
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        setups = [p["setup_s"] for p in untraced]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_child(args, limit, "--setup-only")["setup_s"])
    except ChildFailed as exc:
        sys.exit(f"benchmark run failed: {exc}")

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if traced and not counts_repeat(traced):
        attempted += 1
        failures.append("per-layer counts differ between traced passes")
    walls = [p["wall_s"] for p in untraced]
    if args.trace:
        values = layer_values(traced, untraced)
        specs = bench["per_layer"]
    else:
        values = {"norm_cpu_s": statistics.median(p["norm_cpu_s"] for p in untraced),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced)}
        specs = bench["end_to_end"]
    # a count that no call incremented is 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in specs}

    env = dict(passes[0]["env"], git_sha=git_sha(), seed=args.seed,
               workload=args.workload, seconds=args.seconds, trace=args.trace)
    record = {"env": env, "metrics": metrics, "attempted": attempted,
              "failures": failures, "passes": passes, "setup_samples": setups}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print("env: " + json.dumps(env))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"set-up samples: {len(setups)}")
    print(f"wall_s per untraced pass: {', '.join(f'{w:.3f}' for w in walls)}; "
          f"median {statistics.median(walls):.3f} s; " + tail_percentile(walls))
    if not args.trace:
        print("cpu_s per pass: " + ", ".join(f"{p['cpu_s']:.3f}" for p in untraced)
              + "; host speed: " + ", ".join(f"{p['speed']:.3f}" for p in untraced)
              + f"; probes took {max(p['probe_share'] for p in untraced):.1%} "
              "of a pass at most")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} checks)")
    for f in failures[:20]:
        print("FAILED " + f)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
