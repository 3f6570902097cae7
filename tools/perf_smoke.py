#!/usr/bin/env python3
"""Perf-smoke gate: fail when hot-path microbenchmarks or memory regress.

Compares a fresh google-benchmark JSON report against the checked-in
baseline (bench/perf_baseline.json) and fails when any selected benchmark's
real_time exceeds the baseline by more than --max-ratio. Absolute numbers
vary across machines, so the gate is a coarse regression tripwire (default
2x), not a precise budget.

    perf_smoke.py current.json baseline.json [--max-ratio 2.0] [name ...]
    perf_smoke.py current.json baseline.json --tight BM_DenseCampaignSeed=1.5
    perf_smoke.py current.json baseline.json --cli build/tools/byterobust

--tight NAME=RATIO (repeatable) overrides --max-ratio for one benchmark:
use it where the coarse 2x tripwire is too loose — e.g. the disabled-path
observability overhead budget on the campaign hot loop, which must stay
within 1.5x of the pre-instrumentation baseline.

Benchmark selection, in priority order: names given on the command line; the
baseline's "gated" list (so the set of gated benchmarks is versioned next to
the numbers themselves); otherwise every benchmark present in both files.

With --cli, the baseline's "rss_gates" are also enforced: the given
byterobust binary runs each recorded streaming-campaign command with
--trace, and the CLI's own peak RSS must stay under that gate's max_rss_mb.
The CLI measures itself: its trace footer carries VmHWM from
/proc/self/status as the "process.peak_rss_kb" counter. (The parent's
RUSAGE_CHILDREN high-water would not do: exec carries this script's own
peak into the child's.) This is what keeps campaign memory O(window) — an
accidental return to O(steps) metric growth or O(seeds) run buffering trips
it just like a speed regression.

--cli also enforces the baseline's "cpu_scaling_gates": each runs one
command at two --jobs values and compares the user+sys CPU the child
burned. Work shared between threads (a contended cache line, a lock) shows
up as extra CPU at the higher --jobs value, so the ratio must stay under
max_ratio. Each side is measured CPU_GATE_REPEATS times, alternating, and
its cheapest run counts. A gate skips on a host with fewer CPUs than its
largest --jobs value, where threads would only time-slice.

Stdlib-only, like every Python tool in CI — tools/ci_python_requirements.txt
is the shared (deliberately package-free) requirements file CI installs for
this script, the determinism lint, and the clang-tidy runner.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# Host noise only ever adds CPU, so the cheapest of a few runs is the
# steadiest reading of each side of a CPU-scaling gate.
CPU_GATE_REPEATS = 3
# Trace-footer counter holding the CLI's peak RSS (VmHWM) in KiB.
PEAK_RSS_COUNTER = "process.peak_rss_kb"


def load_report(path):
    """Returns ({name: real_time_ns}, full_json)."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        unit = _UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None:
            raise SystemExit(f"{path}: unknown time_unit in {bench['name']}")
        times[bench["name"]] = bench["real_time"] * unit
    return times, data


def check_rss_gate(cli, gate):
    """Runs the gated campaign command and checks the CLI's own peak RSS."""
    cmd = [cli] + gate["args"]
    limit_mb = gate["max_rss_mb"]
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        proc = subprocess.run(cmd + ["--trace", trace], stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"rss gate: {' '.join(cmd)} exited {proc.returncode}", file=sys.stderr)
            return False
        with open(trace) as f:
            peaks_kb = [event["args"]["v"] for event in json.load(f)
                        if event.get("name") == PEAK_RSS_COUNTER]
    if not peaks_kb or peaks_kb[0] <= 0:
        print(f"rss gate: {' '.join(cmd)} wrote no {PEAK_RSS_COUNTER} reading",
              file=sys.stderr)
        return False
    peak_mb = peaks_kb[0] / 1024.0
    verdict = "OK" if peak_mb <= limit_mb else "REGRESSION"
    print(f"rss gate ({' '.join(gate['args'])}): peak {peak_mb:.1f} MB, "
          f"limit {limit_mb:.1f} MB [{verdict}]")
    return peak_mb <= limit_mb


def child_cpu_seconds(cmd):
    """Runs cmd; returns (exit code, user+sys CPU seconds it burned)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, cpu


def check_cpu_scaling_gate(cli, gate):
    """Compares the CPU a command burns at two --jobs values."""
    base_jobs, wide_jobs = gate["jobs"]
    label = f"cpu scaling gate ({' '.join(gate['args'])}, --jobs {wide_jobs} vs {base_jobs})"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if nproc < wide_jobs:
        print(f"{label}: skipped, {nproc} CPUs < {wide_jobs}")
        return True
    cheapest = {}
    for _ in range(CPU_GATE_REPEATS):
        for jobs in (base_jobs, wide_jobs):
            cmd = [cli] + gate["args"] + ["--jobs", str(jobs)]
            code, cpu = child_cpu_seconds(cmd)
            if code != 0:
                print(f"{label}: {' '.join(cmd)} exited {code}", file=sys.stderr)
                return False
            cheapest[jobs] = min(cheapest.get(jobs, cpu), cpu)
    ratio = cheapest[wide_jobs] / cheapest[base_jobs]
    limit = gate["max_ratio"]
    verdict = "OK" if ratio <= limit else "REGRESSION"
    print(f"{label}: {cheapest[base_jobs]:.2f} s -> {cheapest[wide_jobs]:.2f} s CPU, "
          f"ratio {ratio:.2f}x (limit {limit:.2f}x) [{verdict}]")
    return ratio <= limit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--max-ratio", type=float, default=2.0)
    parser.add_argument("--tight", action="append", default=[], metavar="NAME=RATIO",
                        help="per-benchmark ratio tighter than --max-ratio (repeatable)")
    parser.add_argument("--cli", help="byterobust binary; enables the baseline's RSS and "
                        "CPU-scaling gates")
    args = parser.parse_intermixed_args()

    tight = {}
    for spec in args.tight:
        name, sep, ratio = spec.rpartition("=")
        if not sep or not name:
            raise SystemExit(f"error: --tight expects NAME=RATIO, got {spec!r}")
        try:
            tight[name] = float(ratio)
        except ValueError:
            raise SystemExit(f"error: --tight ratio is not a number in {spec!r}")

    current, _ = load_report(args.current)
    baseline, baseline_data = load_report(args.baseline)
    gated = baseline_data.get("gated")
    names = args.names or gated or sorted(current.keys() & baseline.keys())

    failures = []
    for name in names:
        if name not in baseline:
            raise SystemExit(f"error: {name} missing from baseline {args.baseline}")
        if name not in current:
            raise SystemExit(f"error: {name} missing from current run {args.current}")
        ratio = current[name] / baseline[name]
        limit = tight.get(name, args.max_ratio)
        verdict = "OK" if ratio <= limit else "REGRESSION"
        print(f"{name}: baseline {baseline[name] / 1e6:.3f} ms, "
              f"current {current[name] / 1e6:.3f} ms, ratio {ratio:.2f}x "
              f"(limit {limit:.2f}x) [{verdict}]")
        if ratio > limit:
            failures.append(name)

    rss_gates = baseline_data.get("rss_gates") or []
    cpu_gates = baseline_data.get("cpu_scaling_gates") or []
    if args.cli:
        for i, gate in enumerate(rss_gates):
            if not check_rss_gate(args.cli, gate):
                failures.append(f"rss_gate[{i}]")
        for i, gate in enumerate(cpu_gates):
            if not check_cpu_scaling_gate(args.cli, gate):
                failures.append(f"cpu_scaling_gate[{i}]")

    if failures:
        print(f"perf smoke FAILED: {', '.join(failures)} regressed more than "
              f"the gated budget", file=sys.stderr)
        return 1
    print(f"perf smoke passed ({len(names)} benchmarks within {args.max_ratio:.1f}x"
          + (f", {len(rss_gates)} rss gate(s) ok" if args.cli and rss_gates else "")
          + (f", {len(cpu_gates)} cpu scaling gate(s) ok" if args.cli and cpu_gates else "")
          + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
