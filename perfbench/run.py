#!/usr/bin/env python3
"""ByteRobust reproduction benchmark.

Runs one workload against the shipped `byterobust` binary and prints one
JSON result as the last line of stdout:

    python3 perfbench/run.py --workload dense-month --seed 42 --seconds 20 --trace 0

Workloads (perfbench/README.md gives the reasons and the layers each loads):

  dense-month  `campaign --scenario dense-month --jobs 3`, default spill+merge
               output. Month-long 9,600-GPU seeds: step loop, tracer/analyzer
               and controller do nearly all the work.
  fleet-mixed  `fleet --scenario fleet-mixed --jobs 3 --stream --journal F`.
               Cheap 52-machine fleet seeds: fixed per-seed costs, render,
               ordered direct commit and journal append.
  serve-mix    one `serve --workers 2 --jobs 1` daemon under a closed loop of
               3 client connections sending a seeded mix of small requests.

--trace 0 measures the end-to-end metrics from untraced runs of the CLI or
daemon. --trace 1 measures the per-layer metrics: traced runs of the same
binary (their spans and counters), perfbench_probe's timings of each layer's
public functions, and the traced/untraced wall ratio.

Every document the program produces is checked: its SHA-256 must equal the
digest committed in perfbench/reference_digests.json for the same command and
seeds, or, for seeds it does not cover, that of a reference produced by the
single-worker CLI path (`--jobs 1`). A non-zero exit, a quarantined seed, a
shed or error response, or a digest mismatch counts as a failed operation.

The benchmark builds the program from the checkout it runs in, into
.bench_build/perfbench (Release), and keeps its scratch files under
.bench_build/run.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TMP = ROOT / ".bench_build" / "run"
CLI = BUILD / "tools" / "byterobust"
PROBE = BUILD / "perfbench_probe"

NPROC = os.cpu_count() or 1
# --jobs 3 rather than 4 leaves a core of a 4-core host to this process, which
# keeps run-to-run spread low; never more threads than the host has.
JOBS = min(3, NPROC)

# Seeds per CLI invocation, the number of distinct seed sets a run cycles
# through (sample j runs base seeds seed + (j % SETS) * seeds ...), the seeds
# perfbench_probe times per thread in the traced run, and the fixed quantile
# of invocation wall reported as latency_p99_ms. The quantile leaves about ten
# of a 20 s run's invocations beyond it (about 45 dense-month, 230
# fleet-mixed); being fixed, it reads the same level on both sides of a
# comparison whatever their speed.
CLI_WORKLOADS = {
    "dense-month": {"command": "campaign", "scenario": "dense-month", "days": 30.0,
                    "seeds": 12, "sets": 12, "probe_seeds": 6, "tail": 0.75,
                    "stream": False, "journal": False},
    "fleet-mixed": {"command": "fleet", "scenario": "fleet-mixed", "days": 0.5,
                    "seeds": 48, "sets": 3, "probe_seeds": 48, "tail": 0.95,
                    "stream": True, "journal": True},
}
# Committed SHA-256 digests of the documents the references produce, by
# workload and base seed ("kind:base" for serve-mix); see README.md.
DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"
SETUP_DAYS = "0.001"  # minimal --days for the set-up invocations
# setup_s is the median over SETUP_BLOCKS blocks of the fastest of
# SETUP_BLOCK set-ups each. Other load on a shared host only adds time to a
# set-up of a few ms, so a block's fastest is its steadiest reading; the CLI
# workloads spread the blocks evenly over the measured window.
SETUP_BLOCKS = 7
SETUP_BLOCK = 3

# serve-mix request kinds: (op, scenario, seeds, days or None for the
# scenario default, default days the probe needs). Status ops are a sixth
# kind. Each request draws its kind and a base seed in seed..seed+15.
SERVE_KINDS = [
    ("campaign", "quickstart", 4, None, 0.5),
    ("campaign", "job-hang", 4, None, 0.5),
    ("campaign", "spine-flap", 4, None, 0.5),
    ("fleet", "fleet-mixed", 1, None, 0.5),
    ("campaign", "dense", 1, 1.0, 1.0),
]
SERVE_BASES = 16
# One client more than executors, so one request is always queued and none is
# shed. Two executors plus this process leave a core of a 4-core host to other
# load: at three executors and four clients, latency_p99_ms spread 0.22-0.31
# (quartile distance over median) across ten seeds on a shared host.
SERVE_WORKERS = min(2, NPROC)
CLIENTS = min(SERVE_WORKERS + 1, NPROC)
# The serve-mix window is cut into this many equal parts; each end-to-end
# figure is the median over the parts, so one burst of host noise moves at
# most one of them.
SERVE_WINDOWS = 5


class BenchError(Exception):
    """A failure that leaves no result to report (build, daemon, probe)."""


# ---------------------------------------------------------------------------
# Build and host facts.
# ---------------------------------------------------------------------------
def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir() \
            or not (ROOT / "tools" / "byterobust_cli.cc").is_file():
        raise BenchError(f"no byterobust sources under {ROOT}: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.log", "ab") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(NPROC)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see {out.name})")


def source_revision():
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return "git " + rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # Not a git checkout: fingerprint the sources that make the binaries.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "sources sha256:" + h.hexdigest()[:12]


def host_facts():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = "unknown"
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    except OSError:
        pass
    return {"nproc": NPROC, "cpu_model": model, "build_type": build_type,
            "revision": source_revision()}


# ---------------------------------------------------------------------------
# Running the CLI.
# ---------------------------------------------------------------------------
def clean_env():
    """Environment for reference runs: no injected harness faults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("BYTEROBUST_")}


def run_cli(args, out_path):
    """Runs the CLI with stdout to out_path; returns (wall_s, cpu_s, rss_mb, exit)."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([str(CLI)] + args, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_references(commands):
    """Runs (args, out_path) CLI commands JOBS at a time, from a fault-free
    environment; raises unless every one exits 0."""
    for i in range(0, len(commands), JOBS):
        procs = []
        for args, out_path in commands[i:i + JOBS]:
            with open(out_path, "wb") as out:
                procs.append(subprocess.Popen([str(CLI)] + args, stdout=out,
                                              stderr=subprocess.DEVNULL, env=clean_env()))
        for proc in procs:
            proc.wait()
        for (args, _), proc in zip(commands[i:i + JOBS], procs):
            if proc.returncode != 0:
                raise BenchError(f"reference run {' '.join(args)} exited {proc.returncode}")


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_elements(path):
    """The per-seed "runs" elements of one document, or None if unreadable."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except ValueError:
        return None
    return [json.dumps(r, sort_keys=True) for r in doc.get("runs", [])]


def committed_digests(workload):
    """The committed reference digests of one workload, by key."""
    return json.loads(DIGESTS.read_text())[workload]


def failed_seeds(out_path, exit_code, ref, seeds):
    """Seeds of one invocation that failed: every seed when the process failed
    outright, else the seeds whose element is missing or differs from the
    reference. A wrong document with every element intact fails them all, and
    so does any wrong document when the reference itself departs from its
    committed digest (its elements are then no yardstick)."""
    if exit_code not in (0, 20):
        return seeds
    if sha256_file(out_path) == ref["digest"]:
        return 0
    if not ref["trusted"]:
        return seeds
    got = run_elements(out_path)
    want = run_elements(ref["path"])
    if got is None or want is None:
        return seeds
    got_set = set(got)
    bad = sum(1 for w in want if w not in got_set)
    return bad if bad else seeds


class CliWorkload:
    def __init__(self, name, seed):
        self.name = name
        self.cfg = CLI_WORKLOADS[name]
        self.seed = seed
        self.journal = TMP / "journal.bin"

    def args(self, base, seeds, jobs, days=None, trace=None, journal=True):
        c = self.cfg
        args = [c["command"], "--scenario", c["scenario"], "--seeds", str(seeds),
                "--base-seed", str(base), "--jobs", str(jobs)]
        if days is not None:
            args += ["--days", days]
        if c["stream"]:
            args.append("--stream")
        if c["journal"] and journal:
            args += ["--journal", str(self.journal)]
        if trace is not None:
            args += ["--trace", str(trace)]
        return args

    def base(self, index):
        return self.seed + (index % self.cfg["sets"]) * self.cfg["seeds"]

    def references(self, report, sets=None):
        """Single-worker (--jobs 1, no journal) documents for the given seed
        sets (default all), by base seed: {"path", "digest", "trusted"}. The
        digest is the committed one where the base seed has one; "trusted"
        says the document made here matches it."""
        sets = range(self.cfg["sets"]) if sets is None else sets
        paths = {self.base(s): TMP / f"ref{s}.json" for s in sets}
        run_references([(self.args(base, self.cfg["seeds"], 1, journal=False), path)
                        for base, path in paths.items()])
        committed = committed_digests(self.name)
        refs = {}
        for base, path in paths.items():
            made = sha256_file(path)
            digest = committed.get(str(base), made)
            refs[base] = {"path": path, "digest": digest, "trusted": made == digest}
            if made != digest:
                report.note(f"reference for base seed {base} differs from its committed digest")
        return refs

    def invoke(self, index, refs, trace=None):
        """One measured invocation; returns a sample dict."""
        base = self.base(index)
        out = TMP / "out.json"
        self.journal.unlink(missing_ok=True)
        wall, cpu, rss, code = run_cli(self.args(base, self.cfg["seeds"], JOBS, trace=trace),
                                       out)
        failed = failed_seeds(out, code, refs[base], self.cfg["seeds"])
        return {"wall": wall, "cpu": cpu, "rss": rss, "failed": failed}

    def setup_block(self):
        """Wall seconds of the fastest of SETUP_BLOCK set-up invocations."""
        times = []
        for _ in range(SETUP_BLOCK):
            self.journal.unlink(missing_ok=True)
            wall, _, _, code = run_cli(self.args(self.seed, 1, JOBS, days=SETUP_DAYS),
                                       TMP / "setup.json")
            if code != 0:
                raise BenchError(f"set-up invocation exited {code}")
            times.append(wall)
        return min(times)


def quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1])."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_cli(wl, seconds, report):
    refs = wl.references(report)
    k = wl.cfg["seeds"]
    # One untimed (but checked) invocation first, so caches are warm.
    warmup = wl.invoke(0, refs)
    report.attempted += k
    report.failed += warmup["failed"]
    samples = []
    setup = []
    start = time.perf_counter()
    while (time.perf_counter() < start + seconds or len(samples) < 3
           or len(setup) < SETUP_BLOCKS):
        due = start + len(setup) * seconds / SETUP_BLOCKS
        if len(setup) < SETUP_BLOCKS and time.perf_counter() >= due:
            setup.append(wl.setup_block())
        else:
            samples.append(wl.invoke(len(samples), refs))
    walls = [s["wall"] for s in samples]
    n = len(samples)
    report.metric("seeds_per_s", statistics.median(k / w for w in walls), n)
    report.metric("cpu_ms_per_seed", statistics.median(s["cpu"] / k * 1e3 for s in samples), n)
    report.metric("requests_per_s", statistics.median(1.0 / w for w in walls), n)
    report.metric("latency_p50_ms", statistics.median(walls) * 1e3, n)
    tail = wl.cfg["tail"]
    report.metric("latency_p99_ms", quantile(walls, tail) * 1e3, n)
    report.metric("peak_rss_mb", statistics.median(s["rss"] for s in samples), n)
    report.metric("setup_s", statistics.median(setup), len(setup) * SETUP_BLOCK)
    report.attempted += n * k
    report.failed += sum(s["failed"] for s in samples)
    report.note(f"{n} invocations of {k} seeds, {wl.cfg['sets']} seed sets from base "
                f"seed {wl.seed}, --jobs {JOBS}; a request is one invocation, and "
                f"latency_p99_ms is its fixed p{tail * 100:.0f} "
                f"({n * (1 - tail):.1f} samples beyond)")


# ---------------------------------------------------------------------------
# Traces.
# ---------------------------------------------------------------------------
def parse_trace(path):
    """Span durations (us) by name, per-seed-index spans by name, counters."""
    events = json.loads(Path(path).read_text())
    spans = {}
    indexed = {}
    counters = {}
    open_spans = {}
    for ev in events:
        ph = ev.get("ph")
        name = ev.get("name")
        if ph == "B":
            open_spans.setdefault(ev["tid"], []).append(ev)
        elif ph == "E":
            begin = open_spans[ev["tid"]].pop()
            dur = ev["ts"] - begin["ts"]
            spans.setdefault(begin["name"], []).append(dur)
            if "args" in begin:
                indexed.setdefault(begin["name"], {})[begin["args"]["v"]] = dur
        elif ph == "X":
            spans.setdefault(name, []).append(ev["dur"])
        elif ph == "C":
            counters[name] = ev["args"]["v"]
    return spans, indexed, counters


def seed_occupancy(spans):
    """Worker time spent on seeds: "seed" spans from the engine's worker pool;
    a single-worker engine runs seeds inline, so there "seed_attempt"."""
    return spans.get("seed") or spans.get("seed_attempt", [])


def mean_or_zero(xs):
    return statistics.fmean(xs) if xs else 0.0


def run_probe(args):
    proc = subprocess.run([str(PROBE)] + args, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"probe {' '.join(args[:1])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def attempt_overhead_us(engine_result, out_dir):
    """Mean over seeds of the engine's per-seed span minus the timed run_seed."""
    overheads = []
    for k, job in enumerate(engine_result):
        _, indexed, _ = parse_trace(out_dir / f"{k}.trace.json")
        seed_spans = indexed.get("seed") or indexed.get("seed_attempt", {})
        for i, us in enumerate(job["run_seed_us"]):
            if i in seed_spans:
                overheads.append(seed_spans[i] - us)
    return mean_or_zero(overheads), len(overheads)


def harness_anomalies(counters, seeds, cap):
    """Operations to count as failed when the harness counters of a traced run
    show a retry or an attempt count other than one per seed although every
    document checked out: max(retries, |attempts - seeds|), at most cap."""
    attempts = counters.get("harness.attempts", 0)
    retries = counters.get("harness.retries", 0)
    return min(cap, max(retries, abs(attempts - seeds)))


def report_probe_layers(report, layers):
    n = layers["seeds"]
    reps = layers["reps"]
    report.metric("core.seed_ms", layers["seed_ms"], n)
    report.metric("core.seed_contention", layers["seed_contended_ms"] / layers["seed_ms"], n)
    report.metric("sim.events_per_seed", layers["events_per_seed"], layers["sim_count_seeds"])
    report.metric("training.steps_per_seed", layers["steps_per_seed"],
                  layers["sim_count_seeds"])
    report.metric("training.restarts_per_seed", layers["restarts_per_seed"], n)
    report.metric("controller.incidents_per_seed", layers["incidents_per_seed"], n)
    report.metric("controller.evictions_per_seed", layers["evictions_per_seed"], n)
    report.metric("training.quiet_step_ns", layers["quiet_step_ns"], layers["quiet_runs"])
    report.metric("tracer.pod_synth_ms", layers["pod_synth_ms"], reps)
    report.metric("tracer.pod_synth_contended_ms", layers["pod_synth_contended_ms"],
                  reps * JOBS)
    report.metric("analyzer.aggregate_ms", layers["aggregate_ms"], reps)
    report.metric("analyzer.aggregate_contended_ms", layers["aggregate_contended_ms"],
                  reps * JOBS)
    report.metric("campaign.render_us_per_seed", layers["render_us_per_seed"], n)
    report.metric("campaign.element_bytes_per_seed", layers["element_bytes_per_seed"], n)
    if not (layers["mirror_ok"] and layers["analyzer_ok"]):
        report.correct = False
        report.note("probe consistency check failed (mirror_ok/analyzer_ok)")


def trace_cli(wl, seconds, report):
    refs = wl.references(report, sets=[0])
    k = wl.cfg["seeds"]
    deadline = time.perf_counter() + seconds * 0.5
    plain, traced = [], []
    spans, counters = {}, {}
    pair = 0
    while pair < 2 or time.perf_counter() < deadline:
        trace_path = TMP / "cli.trace.json"
        order = (False, True) if pair % 2 == 0 else (True, False)
        for with_trace in order:
            sample = wl.invoke(0, refs, trace=trace_path if with_trace else None)
            report.attempted += k
            report.failed += sample["failed"]
            (traced if with_trace else plain).append(sample)
        sp, _, cn = parse_trace(trace_path)
        if traced[-1]["failed"] == 0:
            report.failed += harness_anomalies(cn, k, k)
        for name, durs in sp.items():
            spans.setdefault(name, []).extend(durs)
        for name, v in cn.items():
            counters.setdefault(name, []).append(v)
        pair += 1

    layers = run_probe(["layers", "--jobs", str(JOBS),
                        f"{wl.cfg['command']}:{wl.cfg['scenario']}:{wl.cfg['days']}:"
                        f"{wl.seed}:{wl.cfg['probe_seeds']}"])
    out_dir = TMP / "engine"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    job = f"{wl.cfg['command']}:{wl.cfg['scenario']}:{wl.cfg['days']}:{wl.seed}:{k}"
    if wl.cfg["stream"]:
        job += ":stream"
        if wl.cfg["journal"]:
            job += f":{out_dir / 'journal.bin'}"
    engine = run_probe(["engine", "--jobs", str(JOBS), "--out-dir", str(out_dir), job])
    report.attempted += k
    report.failed += failed_seeds(out_dir / "0.doc", engine[0]["exit"], refs[wl.seed], k)

    report_probe_layers(report, layers)
    walls_plain = [s["wall"] for s in plain]
    walls_traced = [s["wall"] for s in traced]
    seeds_per_s = statistics.median(k / w for w in walls_plain)
    report.metric("campaign.parallel_efficiency",
                  seeds_per_s / (JOBS * 1000.0 / layers["seed_ms"]), len(plain))
    busy = seed_occupancy(spans)
    report.metric("campaign.worker_busy_share", sum(busy) / 1e6 / (JOBS * sum(walls_traced)),
                  len(busy))
    report.metric("campaign.commit_wait_ms", mean_or_zero(spans.get("commit_wait", [])) / 1e3,
                  len(spans.get("commit_wait", [])))
    report.metric("campaign.spill_merge_ms", mean_or_zero(spans.get("spill_merge", [])) / 1e3,
                  len(spans.get("spill_merge", [])))
    overhead, n_over = attempt_overhead_us(engine, out_dir)
    report.metric("harness.attempt_overhead_us", overhead, n_over)
    report.metric("harness.attempts",
                  mean_or_zero(counters.get("harness.attempts", [])) / k, len(traced))
    report.metric("harness.retries",
                  mean_or_zero(counters.get("harness.retries", [])) / k, len(traced))
    report.metric("harness.journal_commit_us",
                  mean_or_zero(spans.get("journal_commit", [])),
                  len(spans.get("journal_commit", [])))
    # No daemon runs in a CLI workload: these read 0 with n=0 (README.md,
    # "Per-layer metrics", says which metrics may read 0 and why).
    for name in ("serve.queue_wait_ms", "serve.execute_ms", "serve.overhead_ms",
                 "serve.status_ms"):
        report.metric(name, 0.0, 0)
    report.metric("obs.trace_overhead",
                  statistics.median(walls_traced) / statistics.median(walls_plain),
                  len(traced))
    report.note(f"{len(plain)} untraced / {len(traced)} traced invocations of {k} seeds; "
                f"serve.* metrics do not apply to this workload (0)")


# ---------------------------------------------------------------------------
# serve-mix.
# ---------------------------------------------------------------------------
def serve_body(kind, base):
    op, scenario, seeds, days, _ = SERVE_KINDS[kind]
    body = {"op": op, "scenario": scenario, "seeds": seeds, "base_seed": base}
    if days is not None:
        body["days"] = days
    return json.dumps(body, separators=(",", ":"))


def serve_references(seed):
    """Digests of the CLI --stream documents (what serve must return) for
    every kind x base seed: the committed digest where there is one, else
    that of a CLI reference run made here."""
    committed = committed_digests("serve-mix")
    digests = {}
    commands = {}
    for kind, (op, scenario, seeds, days, _) in enumerate(SERVE_KINDS):
        for base in range(seed, seed + SERVE_BASES):
            if f"{kind}:{base}" in committed:
                digests[(kind, base)] = committed[f"{kind}:{base}"]
                continue
            args = [op, "--scenario", scenario, "--seeds", str(seeds),
                    "--base-seed", str(base), "--stream"]
            if days is not None:
                args += ["--days", str(days)]
            commands[(kind, base)] = (args, TMP / f"serve_ref_{kind}_{base}.json")
    run_references(list(commands.values()))
    digests.update({key: sha256_file(path) for key, (_, path) in commands.items()})
    return digests


class Daemon:
    """One `byterobust serve` process on a socket under .bench_build/run."""

    def __init__(self, tag, trace=None):
        # A relative socket path keeps sun_path short whatever the checkout path.
        self.sock_path = os.path.relpath(TMP / f"{tag}.sock")
        Path(self.sock_path).unlink(missing_ok=True)
        args = [str(CLI), "serve", "--socket", self.sock_path,
                "--workers", str(SERVE_WORKERS), "--jobs", "1"]
        if trace is not None:
            args += ["--trace", str(trace)]
        self.log = open(TMP / f"{tag}.log", "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout=20.0):
        """Seconds from spawn to the first status reply."""
        deadline = self.start + timeout
        while True:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.sock_path)
                    s.sendall(b'{"op":"status"}\n')
                    buf = b""
                    while not buf.endswith(b"\n"):
                        chunk = s.recv(65536)
                        if not chunk:
                            break
                        buf += chunk
                    if b'"status":"ok"' in buf:
                        return time.perf_counter() - self.start
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("serve daemon did not come up")
            time.sleep(0.0005)

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, graceful=True):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        Path(self.sock_path).unlink(missing_ok=True)
        return self.proc.returncode


def closed_loop(daemon, seconds, rng, refs, windows=1, warmup=0.0):
    """CLIENTS connections, each sending its next request when its reply lands,
    for `warmup` + `seconds`. Returns per-request records ("t": completion
    time from the end of the warm-up), (time, daemon CPU seconds) read at
    each of the `windows` equal window boundaries after it, and the time until
    the last reply."""
    sel = selectors.DefaultSelector()
    clients = []
    for _ in range(CLIENTS):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(daemon.sock_path)
        s.setblocking(False)
        c = {"sock": s, "buf": bytearray(), "kind": 0, "base": 0, "t0": 0.0}
        clients.append(c)
        sel.register(s, selectors.EVENT_READ, c)
    verdicts = {}  # response-line digest -> ok; campaign responses repeat exactly
    records = []
    seed_base = min(base for _, base in refs)

    def send(c):
        c["kind"] = rng.randrange(len(SERVE_KINDS) + 1)
        c["base"] = seed_base + rng.randrange(SERVE_BASES)
        line = b'{"op":"status"}\n' if c["kind"] == len(SERVE_KINDS) else \
            (serve_body(c["kind"], c["base"]) + "\n").encode()
        c["t0"] = time.perf_counter()
        c["sock"].sendall(line)

    cpu_marks = []
    begin = time.perf_counter()
    start = begin + warmup
    deadline = start + seconds
    for c in clients:
        send(c)
    outstanding = len(clients)
    while outstanding:
        ready = sel.select(timeout=30)
        if not ready:
            raise BenchError("serve daemon stopped answering")
        for key, _ in ready:
            c = key.data
            chunk = c["sock"].recv(1 << 20)
            if not chunk:
                raise BenchError("serve daemon closed a client connection")
            c["buf"] += chunk
            nl = c["buf"].find(b"\n")
            if nl < 0:
                continue
            now = time.perf_counter()
            line = bytes(c["buf"][:nl])
            del c["buf"][:nl + 1]
            status = c["kind"] == len(SERVE_KINDS)
            if status:
                ok = json.loads(line).get("status") == "ok"
            else:
                digest = hashlib.sha1(line).digest()
                ok = verdicts.get(digest)
                if ok is None:
                    resp = json.loads(line)
                    body = resp.get("body", "").encode()
                    ok = (resp.get("status") == "ok" and
                          hashlib.sha256(body).hexdigest() == refs[(c["kind"], c["base"])])
                    verdicts[digest] = ok
            seeds = 0 if status else SERVE_KINDS[c["kind"]][2]
            records.append({"status": status, "lat": now - c["t0"], "ok": ok,
                            "seeds": seeds, "t": now - start})
            if now < deadline:
                send(c)
            else:
                outstanding -= 1
        now = time.perf_counter()
        while len(cpu_marks) <= windows and now >= start + len(cpu_marks) * seconds / windows:
            cpu_marks.append((now - start, daemon.cpu_s()))
    elapsed = time.perf_counter() - begin
    for c in clients:
        sel.unregister(c["sock"])
        c["sock"].close()
    return records, cpu_marks, elapsed


def serve_window(tag, seconds, seed, refs, trace=None, windows=1, warmup=0.0):
    daemon = Daemon(tag, trace)
    try:
        daemon.wait_ready()
        records, cpu_marks, elapsed = closed_loop(daemon, seconds, random.Random(seed), refs,
                                                  windows, warmup)
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    if code != 30:
        raise BenchError(f"serve daemon exited {code} after SIGTERM (expected 30)")
    return records, cpu_marks, elapsed, rss


def measure_serve(seed, seconds, report):
    setup = []
    for block in range(SETUP_BLOCKS):
        times = []
        for i in range(SETUP_BLOCK):
            daemon = Daemon(f"setup{block}_{i}")
            try:
                times.append(daemon.wait_ready())
            finally:
                daemon.stop(graceful=False)
        setup.append(min(times))
    refs = serve_references(seed)
    records, cpu_marks, _, rss = serve_window("mix", seconds, seed, refs,
                                              windows=SERVE_WINDOWS, warmup=1.0)
    per_window = {name: [] for name in ("seeds_per_s", "cpu_ms_per_seed", "requests_per_s",
                                        "latency_p50_ms", "latency_p99_ms")}
    counted = 0
    for w in range(SERVE_WINDOWS):
        (t0, cpu0), (t1, cpu1) = cpu_marks[w], cpu_marks[w + 1]
        work = [r for r in records if not r["status"] and t0 <= r["t"] < t1]
        lat = [r["lat"] for r in work]
        seeds = sum(r["seeds"] for r in work)
        counted += len(work)
        per_window["seeds_per_s"].append(seeds / (t1 - t0))
        per_window["cpu_ms_per_seed"].append((cpu1 - cpu0) * 1e3 / seeds)
        per_window["requests_per_s"].append(len(work) / (t1 - t0))
        per_window["latency_p50_ms"].append(quantile(lat, 0.5) * 1e3)
        per_window["latency_p99_ms"].append(quantile(lat, 0.99) * 1e3)
        if len(lat) < 1000:
            report.note(f"window {w}: only {len(lat)} latency samples, so fewer than 10 "
                        f"lie beyond its p99")
    for name, values in per_window.items():
        report.metric(name, statistics.median(values), counted)
    report.metric("peak_rss_mb", rss, 1)
    report.metric("setup_s", statistics.median(setup), len(setup) * SETUP_BLOCK)
    report.attempted += len(records)
    report.failed += sum(1 for r in records if not r["ok"])
    report.note(f"closed loop: {CLIENTS} clients, serve --workers {SERVE_WORKERS} --jobs 1, "
                f"{len(records)} requests ({sum(r['status'] for r in records)} status); "
                f"medians over {SERVE_WINDOWS} windows of {seconds / SERVE_WINDOWS:.2f} s")


def trace_serve(seed, seconds, report):
    refs = serve_references(seed)
    plain, _, plain_window, _ = serve_window("plain", seconds * 0.3, seed, refs)
    trace_path = TMP / "serve.trace.json"
    traced, _, traced_window, _ = serve_window("traced", seconds * 0.3, seed, refs,
                                               trace=trace_path)
    for recs in (plain, traced):
        report.attempted += len(recs)
        report.failed += sum(1 for r in recs if not r["ok"])
    spans, _, counters = parse_trace(trace_path)
    traced_work = [r for r in traced if not r["status"]]
    traced_seeds = sum(r["seeds"] for r in traced_work)
    if all(r["ok"] for r in traced):
        report.failed += harness_anomalies(counters, traced_seeds, len(traced_work))

    jobs = []
    for op, scenario, seeds, days, default_days in SERVE_KINDS:
        jobs.append(f"{op}:{scenario}:{days or default_days}:{seed}:{seeds}")
    layers = run_probe(["layers", "--jobs", str(JOBS)] + jobs)
    out_dir = TMP / "engine"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    engine = run_probe(["engine", "--jobs", "1", "--out-dir", str(out_dir)] +
                       [j + ":stream" for j in jobs])
    for k, job in enumerate(engine):
        report.attempted += 1
        if job["exit"] != 0 or sha256_file(out_dir / f"{k}.doc") != refs[(k, seed)]:
            report.failed += 1
            report.correct = False

    report_probe_layers(report, layers)
    plain_work = [r for r in plain if not r["status"]]
    capacity = SERVE_WORKERS  # executors x --jobs 1
    seeds_per_s = sum(r["seeds"] for r in plain_work) / plain_window
    report.metric("campaign.parallel_efficiency",
                  seeds_per_s / (capacity * 1000.0 / layers["seed_ms"]), len(plain_work))
    busy = seed_occupancy(spans)
    report.metric("campaign.worker_busy_share", sum(busy) / 1e6 / (capacity * traced_window),
                  len(busy))
    report.metric("campaign.commit_wait_ms", mean_or_zero(spans.get("commit_wait", [])) / 1e3,
                  len(spans.get("commit_wait", [])))
    report.metric("campaign.spill_merge_ms", mean_or_zero(spans.get("spill_merge", [])) / 1e3,
                  len(spans.get("spill_merge", [])))
    overhead, n_over = attempt_overhead_us(engine, out_dir)
    report.metric("harness.attempt_overhead_us", overhead, n_over)
    report.metric("harness.attempts", counters.get("harness.attempts", 0) / traced_seeds,
                  traced_seeds)
    report.metric("harness.retries", counters.get("harness.retries", 0) / traced_seeds,
                  traced_seeds)
    report.metric("harness.journal_commit_us", mean_or_zero(spans.get("journal_commit", [])),
                  len(spans.get("journal_commit", [])))
    queue_ms = mean_or_zero(spans.get("queue_wait", [])) / 1e3
    execute_ms = mean_or_zero(spans.get("execute", [])) / 1e3
    report.metric("serve.queue_wait_ms", queue_ms, len(spans.get("queue_wait", [])))
    report.metric("serve.execute_ms", execute_ms, len(spans.get("execute", [])))
    client_ms = mean_or_zero([r["lat"] for r in traced_work]) * 1e3
    report.metric("serve.overhead_ms", client_ms - queue_ms - execute_ms, len(traced_work))
    status = [r["lat"] * 1e3 for r in plain if r["status"]]
    report.metric("serve.status_ms", statistics.median(status), len(status))
    report.metric("obs.trace_overhead",
                  (traced_window / len(traced_work)) / (plain_window / len(plain_work)),
                  len(traced_work))
    report.note(f"{len(plain)} untraced / {len(traced)} traced requests; probe over the "
                f"mix's {layers['seeds']} seeds (event/step counts over the "
                f"{layers['sim_count_seeds']} dense/fleet seeds)")


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------
class Report:
    def __init__(self, metrics):
        self.units = {m["name"]: m["unit"] for m in metrics}
        self.values = {}
        self.samples = {}
        self.notes = []
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def metric(self, name, value, samples):
        self.values[name] = float(value)
        self.samples[name] = samples

    def note(self, text):
        self.notes.append(text)

    def emit(self, workload, seed, trace, facts, load_before):
        facts = dict(facts, loadavg_before=load_before,
                     loadavg_after=[round(x, 2) for x in os.getloadavg()])
        print(f"# perfbench workload={workload} seed={seed} trace={trace}")
        print("# host " + json.dumps(facts))
        for text in self.notes:
            print(f"# {text}")
        for name, unit in self.units.items():
            print(f"{name:34s} {self.values[name]:14.6g} {unit:6s} n={self.samples[name]}")
        fraction = self.failed / self.attempted if self.attempted else 1.0
        print(f"{'failed_fraction':34s} {fraction:14.6g} {'ratio':6s} n={self.attempted}")
        correct = self.correct and self.failed == 0
        result = {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.values[name], "unit": unit}
                        for name, unit in self.units.items()},
        }
        print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CLI_WORKLOADS) + ["serve-mix"])
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed: --base-seed of the CLI runs and the "
                             "serve-mix request RNG (default 42)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
        shutil.rmtree(TMP, ignore_errors=True)
        TMP.mkdir(parents=True)
        facts = host_facts()
        load_before = [round(x, 2) for x in os.getloadavg()]
        # Metric names and units come from BENCHMARK.json, in its order.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report = Report(spec["per_layer" if opts.trace else "end_to_end"])
        if opts.workload == "serve-mix":
            (trace_serve if opts.trace else measure_serve)(opts.seed, opts.seconds, report)
        else:
            wl = CliWorkload(opts.workload, opts.seed)
            (trace_cli if opts.trace else measure_cli)(wl, opts.seconds, report)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    report.emit(opts.workload, opts.seed, opts.trace, facts, load_before)
    return 0


if __name__ == "__main__":
    sys.exit(main())
