#!/usr/bin/env python3
"""The repository benchmark: runs one workload campaign cold, several
times, checks its results and prints its metrics.

    python3 perfbench/run.py --workload characterize-ref \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, both modes

Run it from the repository root. It builds perfbench/ (the spec17
libraries from src/ plus the harness) into .bench_build/ first; the
first build takes about a minute on four cores.

Each campaign is a fresh harness process with a fresh journal
directory, so every campaign starts cold. The k-th campaign of a run
uses the k-th seed derived from --seed (rep_seed). With --trace 0 the
run repeats the untraced campaign until --seconds have passed (at
least three times) and reports the median of each timing and the mean
of model_sse. With --trace 1 it alternates untraced and traced
campaigns and reports the per-layer self times of the traced ones, the
exact counts, and the tracing overhead. The last line of stdout is one
JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it
records the host class. perfbench/README.md lists every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "spec17_perfbench"
WORKLOADS = ("characterize-ref", "explore-cross", "corun-partition")
# RunnerOptions::seed, the default --seed.
SHIPPED_SEED = 0x5BEC17
MIN_REPS = 3
# Extra set-up-only processes after each campaign: set-up takes about
# 2 ms, so its median needs more samples than there are campaigns.
SETUP_PROBES = 5
# perfbench/digests.json holds one digest per campaign seed (rep_seed)
# of the shipped seed, so a run makes at most this many campaigns.
MAX_REPS = 8
REP_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "campaign_s": "s",
    "sim_mops_per_s": "Mops/s",
    "results_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "model_sse": "pp2",
}
# Per-layer self times, from the traced campaigns' spans.
SPAN_LAYERS = (
    "workloads.build", "trace.capture", "trace.gen", "suite.fanout",
    "suite.journal.commit", "suite.journal.load", "sim.setup", "sim.step",
    "sim.multicore", "core.analysis", "stats.pca", "cluster.agglomerate",
    "explore.plan", "explore.score", "corun.solo", "corun.group",
    "corun.analysis",
)
# Exact counts from the harness; (name, unit, taken from the untraced
# campaign rather than the traced one).
COUNTS = (
    ("trace.captured_mib", "MiB", False),
    ("suite.arena.captures", "count", True),
    ("suite.arena.hits", "count", True),
    ("suite.arena.evictions", "count", True),
    ("suite.arena.resident_mib", "MiB", True),
    ("suite.journal.commits", "count", True),
    ("suite.journal.bytes", "bytes", True),
    ("sim.ipc_mean", "IPC", False),
    ("sim.l1d_miss_pct", "%", False),
    ("sim.l3_miss_pct", "%", False),
    ("sim.mispredict_pct", "%", False),
    ("corun.l3_evictions_suffered", "count", False),
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; exits 1 when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"error: no spec17 sources at {ROOT / 'src'}; run from a "
            "repository checkout")
        sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "spec17_perfbench",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("error: building the benchmark failed:", " ".join(step))
            sys.exit(1)


def run_rep(workload, seed, mode, tag):
    """One cold campaign in a fresh harness process; `mode` is "",
    "--traced" or "--setup-only" (stop at the first simulated op).
    Returns the harness record plus setup_s and peak_rss_mib, or None
    on a crash."""
    work = BUILD / "runs" / f"{workload}-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = [str(HARNESS), "--workload", workload, "--seed", str(seed),
            "--dir", str(work)] + ([mode] if mode else [])
    try:
        with open(work.parent / f"{work.name}.stderr", "w") as err:
            start_ns = time.monotonic_ns()
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
            timer.daemon = True
            timer.start()
            out = proc.stdout.read().decode()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        if proc.returncode != 0:
            log(f"error: {workload} rep {tag} exited {proc.returncode}:")
            log((work.parent / f"{work.name}.stderr").read_text()[-2000:])
            return None
        try:
            rep = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            log(f"error: {workload} rep {tag} printed no result")
            return None
        rep["setup_s"] = (rep["first_op_ns"] - start_ns) * 1e-9
        rep["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # KiB on Linux
        if mode != "--setup-only":
            log(f"{workload} campaign {tag}: "
                f"campaign_s={rep['campaign_s']:.4f} "
                f"setup_s={rep['setup_s']:.5f} digest={rep['digest']}")
        return rep
    finally:
        shutil.rmtree(work, ignore_errors=True)
        (work.parent / f"{work.name}.stderr").unlink(missing_ok=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds (src/, perfbench/)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_class(reps, seed):
    host = dict(reps[0].get("host", {})) if reps else {}
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    host.update({"nproc": os.cpu_count(),
                 "cpus_allowed": len(os.sched_getaffinity(0)),
                 "commit": commit, "source_digest": source_digest(),
                 "root_seed": seed})
    return host


def rep_seed(seed, k):
    """Root seed of a run's k-th campaign: the run's seed, then seeds
    derived from it. A run thus averages over several input sets, and
    the same --seed always gives the same inputs."""
    return (seed + k * 0x9E3779B97F4A7C15) % 2**64


def check(workload, seed, reps):
    """Correctness gates over one run's campaigns, given as (k, traced,
    record or None). Returns (attempted, failed, problems). A crashed
    campaign or one failing a gate fails all of its operations;
    runtime-errored pairs or groups fail alone."""
    shipped = None
    if seed == SHIPPED_SEED:
        shipped = json.loads((BENCH / "digests.json").read_text())[workload]
    untraced = {k: rep["digest"] for k, traced, rep in reps
                if rep is not None and not traced}
    attempted = failed = 0
    problems = []
    for k, traced, rep in reps:
        name = f"campaign {k}{' (traced)' if traced else ''}"
        if rep is None:
            attempted, failed = attempted + 1, failed + 1
            problems.append(f"{name} crashed")
            continue
        bad = list(rep["check_failures"])
        if shipped is not None and rep["digest"] != shipped[k]:
            bad.append(f"digest {rep['digest']} != shipped {shipped[k]}")
        if traced and rep["digest"] != untraced.get(k):
            bad.append(f"traced digest {rep['digest']} != untraced "
                       f"{untraced.get(k)}")
        if rep["replayed"] or rep["spill_loads"]:
            bad.append(f"cold-start guard: {rep['replayed']} replayed "
                       f"results, {rep['spill_loads']} spill loads")
        attempted += rep["operations"]
        failed += rep["operations"] if bad else rep["runtime_errored"]
        problems += [f"{name}: {b}" for b in bad]
    return attempted, failed, problems


def end_to_end(reps, setups):
    values = {name: [] for name in END_TO_END}
    values["setup_s"] = list(setups)
    for rep in reps:
        values["campaign_s"].append(rep["campaign_s"])
        values["sim_mops_per_s"].append(rep["sim_ops"] / 1e6 / rep["sweep_s"])
        values["results_per_s"].append(rep["operations"] / rep["sweep_s"])
        values["setup_s"].append(rep["setup_s"])
        values["peak_rss_mib"].append(rep["peak_rss_mib"])
        values["model_sse"].append(rep["model_sse"])
    # model_sse is exact per input set: the run's estimate is the mean
    # over its campaigns' seeds. The rest are timings: the median.
    return {name: {"value": (statistics.fmean(v) if name == "model_sse"
                             else statistics.median(v)),
                   "unit": END_TO_END[name]}
            for name, v in values.items()}


def per_layer(untraced, traced):
    med = statistics.median
    layers = [benchlib.self_times(rep["spans"]) for rep in traced]
    metrics = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}_s"] = (
            med([t.get(layer, 0) for t in layers]) * 1e-9, "s")
    for name, unit, from_untraced in COUNTS:
        source = untraced if from_untraced else traced
        metrics[name] = (med([r["counts"].get(name, 0) for r in source]),
                         unit)
    sim_ops = traced[0]["sim_ops"]
    captured = traced[0]["counts"]["trace.captured_ops"]
    gen = metrics["trace.gen_s"][0]
    simulating = sum(metrics[f"{n}_s"][0]
                     for n in ("sim.step", "sim.multicore", "suite.fanout"))
    metrics["trace.capture_over_gen"] = (
        metrics["trace.capture_s"][0] / gen if gen else 0.0, "ratio")
    metrics["trace.reuse"] = (sim_ops / captured if captured else 0.0,
                              "ratio")
    metrics["sim.ops"] = (sim_ops, "count")
    metrics["sim.ns_per_op"] = (simulating * 1e9 / sim_ops, "ns")
    traced_s = med([r["campaign_s"] for r in traced])
    metrics["tracing.campaign_s"] = (traced_s, "s")
    metrics["tracing.overhead_s"] = (
        traced_s - med([r["campaign_s"] for r in untraced]), "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def save_spans(workload, seed, traced):
    out = BUILD / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([rep["spans"] for rep in traced]))


def run_workload(workload, seed, seconds, trace):
    """Repeats the campaign for `seconds` and returns (host, result)."""
    start = time.monotonic()
    reps = []
    setups = []
    for k in range(MAX_REPS):
        for mode in ("", "--traced") if trace else ("",):
            tag = f"{k}{'t' if mode else ''}"
            reps.append((k, bool(mode), run_rep(workload, rep_seed(seed, k),
                                                mode, tag)))
        if not trace:
            for probe in range(SETUP_PROBES):
                rep = run_rep(workload, rep_seed(seed, k), "--setup-only",
                              f"{k}s{probe}")
                if rep is not None:
                    setups.append(rep["setup_s"])
        enough = trace or k + 1 >= MIN_REPS
        if enough and time.monotonic() - start >= seconds:
            break
    attempted, failed, problems = check(workload, seed, reps)
    for problem in problems:
        log(f"{workload}: {problem}")
    untraced = [rep for _, traced, rep in reps if rep and not traced]
    traced = [rep for _, traced, rep in reps if rep and traced]
    if not untraced or (trace and not traced):
        log(f"error: no {workload} campaign completed")
        sys.exit(1)
    if trace:
        save_spans(workload, seed, traced)
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setups)
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return host_class(untraced, seed), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()
    if args.workload != "all":
        host, result = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        print("host " + json.dumps(host, sort_keys=True))
        print(json.dumps(result), flush=True)
        return
    for workload in WORKLOADS:
        for trace in (0, 1):
            host, result = run_workload(workload, args.seed, args.seconds,
                                        trace)
            print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                  f"correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:32s} {metric['value']:>16.6g} "
                      f"{metric['unit']}")
    print("host " + json.dumps(host, sort_keys=True))


if __name__ == "__main__":
    main()
