#!/usr/bin/env python3
"""CATI benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload serve_heavy|infer_light|train_stream \
        --seed N --seconds S --trace 0|1 [--out DIR]

Builds `cati` and the traced harness from source (into
$CARGO_TARGET_DIR, default .bench_build), makes every input from
--seed, measures for --seconds, checks every output byte for byte,
writes a full report (with the revision it measured) under --out and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with --trace 1 they are the
per-layer metrics, from the in-process harness (perfbench/harness) and
from the daemon's own /metrics and /proc. perfbench/metrics.json maps
each metric to what it measures on each workload.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import loadgen  # noqa: E402
from cati_cli import Cati, CliError, Daemon, accuracy, cpu_seconds, proc_status  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("serve_heavy", "infer_light", "train_stream")
# The synthetic corpus (cati build-corpus --scale medium --seed 2020, the
# CLI default seed) is the same for every run; --seed orders the
# requests. A corpus drawn from --seed moved p90 latency by up to 40%
# and variable accuracy by 5% between seeds, more than the bounds.
CORPUS_SEED = 2020
# Phase-A open-loop rate of serve_heavy: about 30% of the closed-loop
# capacity (phase B, 13-16 req/s on an idle 2-vCPU machine) at the
# commit that defined the benchmark. The shared machine's speed drifted
# by a quarter over minutes; at 8.5 req/s (60%) a slow spell saturated
# the daemon and p50 grew fivefold, and at 6.5 req/s queueing still
# stretched p50's spread over ten runs to 27%.
SERVE_RATE = 4.0
# Share of --seconds spent in phase A; phase B gets the rest.
SERVE_PHASE_A_SHARE = 0.7
# Training binaries behind the medium-width serve model, and behind
# each train_stream training run: the full split of 96 takes ~45 s, and
# one training run varied by up to 15% on an idle machine, so a run
# takes the median of several short ones.
SERVE_TRAIN_BINARIES = 4
TRAIN_STREAM_BINARIES = 4
# Set-up is repeated and its median reported.
SETUP_REPEATS = 3
# The traced run's daemon phases are this share of --seconds each.
TRACE_SERVE_SHARE = 0.25


def steal_seconds():
    """CPU time the hypervisor took from this machine so far (all CPUs).
    Recorded with each run: other tenants' load shows up here."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Builds the `cati` binary and the harness; returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "cati-cli"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 str(HERE / "harness" / "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
        if r.returncode != 0:
            raise CliError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "cati", target / "release" / "perfbench-harness"


def provenance():
    """Git revision and dirty flag of the tree the benchmark runs in, or
    nulls when that tree is not itself a git work tree."""
    def git(*args):
        try:
            r = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                               text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"git_rev": None, "dirty": None}
    return {"git_rev": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


class Setup:
    """One workload's inputs: corpus, request bodies, model, daemon."""

    def __init__(self, cati, work, workload, start_daemon):
        t0 = time.perf_counter()
        self.work = work
        self.corpus = work / "corpus"
        self.bodies = work / "bodies"
        self.bodies.mkdir(parents=True)
        train, self.test = cati.build_corpus(self.corpus, CORPUS_SEED)
        for e in self.test:
            cati.strip(self.corpus / e["file"], self.bodies / e["file"])
        self.model = None
        self.daemon = None
        if workload == "serve_heavy":
            self.use_training_binaries(train[:SERVE_TRAIN_BINARIES])
            self.model = work / "model.cati"
            cati.train(self.corpus, self.model, "medium")
        elif workload == "infer_light":
            self.model = work / "model.cati"
            cati.train(self.corpus, self.model, "small")
        else:
            self.use_training_binaries(train[:TRAIN_STREAM_BINARIES])
        if start_daemon:
            self.daemon = Daemon(cati, self.model, work)
        self.seconds = time.perf_counter() - t0

    def use_training_binaries(self, train):
        (self.corpus / "manifest.json").write_text(json.dumps(train + self.test))

    def body_paths(self):
        return [self.bodies / e["file"] for e in self.test]

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


def set_up(cati, out, workload, start_daemon):
    """Sets up SETUP_REPEATS times; keeps the last, returns it and the
    median set-up seconds."""
    times = []
    setup = None
    for i in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
            shutil.rmtree(setup.work)
        setup = Setup(cati, out / f"setup{i}", workload, start_daemon)
        times.append(setup.seconds)
    return setup, statistics.median(times), times


def expected_outputs(cati, setup, model):
    """`cati infer --json` of every request body, and the variable
    accuracy of those answers against the unstripped twins' DWARF."""
    outs = [cati.infer_json(model, p) for p in setup.body_paths()]
    labels = [cati.labels(setup.corpus / e["file"]) for e in setup.test]
    acc = accuracy([json.loads(o) for o in outs], labels)
    vucs = [sum(v["vuc_count"] for v in json.loads(o)) for o in outs]
    return outs, vucs, acc


def finite_ms(seconds):
    return seconds * 1e3 if math.isfinite(seconds) else 1e9


def shuffled_cycles(rng, n, count):
    """`count` indices into n items: seeded shuffles of all n, end to end,
    so every item is drawn equally often."""
    order = []
    while len(order) < count:
        cycle = list(range(n))
        rng.shuffle(cycle)
        order += cycle
    return order[:count]


def serve_session(setup, outs, seed, seconds_a, seconds_b, pid=None):
    """Warm-up pass, phase A (open loop) and phase B (closed loop)."""
    daemon = setup.daemon
    n = loadgen.nproc()
    bodies = [p.read_bytes() for p in setup.body_paths()]
    # The served body is the CLI's --json output without its newline.
    expect = [o[:-1] if o.endswith(b"\n") else o for o in outs]
    rng = random.Random(seed)
    warm = loadgen.sequential(daemon.addr, list(zip(bodies, expect)), pid)
    order = shuffled_cycles(rng, len(bodies), 4096)
    order_a = order[:max(1, int(SERVE_RATE * seconds_a))]
    rss_before = proc_status(daemon.pid)["VmRSS"]
    cpu_before = cpu_seconds(daemon.pid)
    phase_a = loadgen.open_loop(daemon.addr, [(bodies[i], expect[i]) for i in order_a],
                                SERVE_RATE, n, pid)
    metrics_a = daemon.metrics()
    order_b = order[len(order_a):]
    phase_b = loadgen.closed_loop(daemon.addr, [(bodies[i], expect[i]) for i in order_b],
                                  seconds_b, n, pid)
    metrics_b = daemon.metrics()
    status = proc_status(daemon.pid)
    cpu_ms = (cpu_seconds(daemon.pid) - cpu_before) * 1e3
    lag_p90 = loadgen.quantile(phase_a.lags, 0.9) if phase_a.lags else 0.0
    generator = {
        "threads": n, "max_connections": n,
        "lag_p50_ms": loadgen.quantile(phase_a.lags, 0.5) * 1e3 if phase_a.lags else 0.0,
        "lag_p90_ms": lag_p90 * 1e3,
        "lag_max_ms": max(phase_a.lags, default=0.0) * 1e3,
        "idle_at_due": len(phase_a.lags),
        "requests": phase_a.attempted,
        "valid": lag_p90 <= loadgen.MAX_GENERATOR_LAG_P90_S,
    }
    return {
        "phases": {"warmup": warm.summary(), "A": phase_a.summary(), "B": phase_b.summary()},
        "attempted": warm.attempted + phase_a.attempted + phase_b.attempted,
        "failed": warm.failed + phase_a.failed + phase_b.failed,
        "p50_ms": finite_ms(loadgen.quantile(phase_a.latencies, 0.5)),
        "p90_ms": finite_ms(loadgen.quantile(phase_a.latencies, 0.9)),
        "rps": phase_b.rate,
        "cpu_ms_per_request": cpu_ms / max(1, phase_a.attempted + phase_b.attempted),
        "peak_rss_mb": status["VmHWM"] / 2**20,
        "rss_bytes_per_request": (status["VmRSS"] - rss_before)
        / max(1, phase_a.attempted + phase_b.attempted),
        "threads_peak": max(warm.threads_peak, phase_a.threads_peak, phase_b.threads_peak),
        "generator": generator,
        "daemon_metrics": {"after_A": metrics_a, "after_B": metrics_b},
    }


def daemon_histograms(snapshot):
    """Means of the daemon's own phase histograms. Their buckets are too
    coarse for a quantile (leaf times all land in 50-250 ms), but count
    and sum are exact."""
    by_name = {h["name"]: h for h in snapshot["histograms"]}

    def mean(name):
        h = by_name.get(name, {})
        return h["sum"] / h["count"] if h.get("count") else 0.0

    return {
        "serve.queue_wait_ms_mean": mean("serve.phase.queue_wait_ms"),
        "serve.batch_wait_ms_mean": mean("serve.phase.batch_wait_ms"),
        "serve.leaf_ms_mean": mean("serve.phase.leaf_ms"),
        "serve.embed_ms_mean": mean("serve.phase.embed_ms"),
        "serve.batch_size_mean": mean("serve.batch_size"),
    }


def run_serve_heavy(cati, setup, args):
    outs, _, acc = expected_outputs(cati, setup, setup.model)
    s = serve_session(setup, outs, args.seed, args.seconds * SERVE_PHASE_A_SHARE,
                      args.seconds * (1 - SERVE_PHASE_A_SHARE))
    if not s["generator"]["valid"]:
        raise InvalidRun(f"load generator ran late: {s['generator']}")
    metrics = {"p50_ms": s["p50_ms"], "p90_ms": s["p90_ms"], "throughput_per_s": s["rps"],
               "cpu_ms_per_op": s["cpu_ms_per_request"], "peak_rss_mb": s["peak_rss_mb"],
               "var_accuracy": acc}
    named = {"serve_p50_ms": s["p50_ms"], "serve_p90_ms": s["p90_ms"], "serve_rps": s["rps"],
             "serve_peak_rss_mb": s["peak_rss_mb"]}
    return metrics, named, s["attempted"], s["failed"], s


def run_infer_light(cati, setup, args):
    outs, vucs, acc = expected_outputs(cati, setup, setup.model)
    paths = setup.body_paths()
    rng = random.Random(args.seed)
    walls, rss, cycle_rates, cpu = [], [], [], []
    typed = attempted = failed = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds:
        cycle_typed = cycle_wall = 0
        for i in shuffled_cycles(rng, len(paths), len(paths)):
            t0 = time.perf_counter()
            proc = subprocess.Popen([cati.exe, "infer", "--model", str(setup.model),
                                     str(paths[i]), "--json"],
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            walls.append(time.perf_counter() - t0)
            rss.append(usage.ru_maxrss * 1024)
            cpu.append(usage.ru_utime + usage.ru_stime)
            ok = os.waitstatus_to_exitcode(status) == 0 and out == outs[i]
            attempted += 1
            failed += not ok
            typed += vucs[i] if ok else 0
            cycle_typed += vucs[i] if ok else 0
            cycle_wall += walls[-1]
            if time.perf_counter() - t_start >= args.seconds:
                break
        else:
            cycle_rates.append(cycle_typed / cycle_wall)
    p50 = statistics.median(walls) * 1e3
    metrics = {"p50_ms": p50, "p90_ms": loadgen.quantile(walls, 0.9) * 1e3,
               # Median over whole passes through the 30 binaries, so a
               # burst of load from outside moves it less than a total.
               "throughput_per_s": statistics.median(cycle_rates or [typed / sum(walls)]),
               "cpu_ms_per_op": statistics.median(cpu) * 1e3,
               "peak_rss_mb": statistics.median(rss) / 2**20, "var_accuracy": acc}
    named = {"infer_p50_ms": p50, "infer_vucs_per_s": metrics["throughput_per_s"]}
    return metrics, named, attempted, failed, {"invocations": attempted,
                                               "cycle_rates": cycle_rates}


def train_once(cati, setup, k):
    model = setup.work / f"trained{k}.cati"
    ckpt = setup.work / f"ckpt{k}"
    wall, peak, cpu = cati.train(setup.corpus, model, "medium", checkpoint_dir=ckpt)
    shutil.rmtree(ckpt)
    return model, wall, peak, cpu


def run_train_stream(cati, setup, args):
    walls, peaks, cpus, models = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    # Start another run only if it should end within --seconds.
    while not walls or time.perf_counter() - t_start + walls[-1] <= args.seconds:
        model, wall, peak, cpu = train_once(cati, setup, len(walls))
        walls.append(wall)
        peaks.append(peak)
        cpus.append(cpu)
        models.append(model)
        attempted += 1
        # Training is deterministic: every run must save the same bytes.
        failed += model.read_bytes() != models[0].read_bytes()
    _, _, acc = expected_outputs(cati, setup, models[0])
    # Rows trained: the VUCs of every labelled variable of the training split.
    manifest = json.loads((setup.corpus / "manifest.json").read_text())
    rows = sum(vucs for e in manifest if e["split"] == "train"
               for _, _, cls, vucs in cati.vars_table(setup.corpus / e["file"]) if cls)
    p50 = statistics.median(walls)
    metrics = {"p50_ms": p50 * 1e3, "p90_ms": loadgen.quantile(walls, 0.9) * 1e3,
               "throughput_per_s": rows / p50, "cpu_ms_per_op": statistics.median(cpus) * 1e3,
               "peak_rss_mb": statistics.median(peaks) / 2**20, "var_accuracy": acc}
    named = {"train_s": p50, "train_peak_rss_mb": metrics["peak_rss_mb"]}
    return metrics, named, attempted, failed, {"trainings_s": walls, "rows": rows}


def run_traced(cati, harness, setup, args, out):
    """Per-layer metrics: the in-process harness on the workload's model,
    then a short daemon session scraped through /metrics and /proc."""
    if setup.model is None:
        setup.model = train_once(cati, setup, 0)[0]
    outs, _, _ = expected_outputs(cati, setup, setup.model)
    r = subprocess.run([str(harness), "--model", str(setup.model), "--bodies",
                        str(setup.bodies), "--seed", str(CORPUS_SEED), "--out",
                        str(out / "harness")],
                       stdout=subprocess.PIPE, stderr=sys.stderr, timeout=170)
    if r.returncode != 0:
        raise CliError(f"harness exit {r.returncode}")
    harness_out = json.loads(r.stdout.decode().strip().splitlines()[-1])
    if setup.daemon is None:
        setup.daemon = Daemon(cati, setup.model, setup.work)
    s = serve_session(setup, outs, args.seed, args.seconds * TRACE_SERVE_SHARE,
                      args.seconds * TRACE_SERVE_SHARE, pid=setup.daemon.pid)
    metrics = dict(harness_out["metrics"])
    metrics.update(daemon_histograms(s["daemon_metrics"]["after_B"]))
    metrics["serve.rss_bytes_per_request"] = s["rss_bytes_per_request"]
    metrics["serve.threads_peak"] = s["threads_peak"]
    attempted = harness_out["attempted"] + s["attempted"]
    failed = harness_out["failed"] + s["failed"]
    detail = {"harness": {k: v for k, v in harness_out.items() if k != "metrics"},
              "serve": s}
    return metrics, attempted, failed, detail


class InvalidRun(RuntimeError):
    pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="perfbench/out",
                    help="directory for the work files and the report")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe, harness = build()
    cati = Cati(exe)
    out = Path(args.out).resolve() / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": loadgen.nproc(), **provenance()}
    setup = None
    try:
        serve = args.workload == "serve_heavy"
        setup, setup_s, setup_all = set_up(cati, out, args.workload,
                                           start_daemon=serve)
        report["setup_s_all"] = setup_all
        steal0, wall0 = steal_seconds(), time.perf_counter()
        if args.trace:
            metrics, attempted, failed, detail = run_traced(cati, harness, setup, args, out)
            declared = spec["per_layer"]
        else:
            run = {"serve_heavy": run_serve_heavy, "infer_light": run_infer_light,
                   "train_stream": run_train_stream}[args.workload]
            metrics, named, attempted, failed, detail = run(cati, setup, args)
            metrics["setup_s"] = setup_s
            # The workload's own names for its metrics (perfbench/metrics.json).
            report["named_metrics"] = {**named, "setup_s": setup_s,
                                       "var_accuracy": metrics["var_accuracy"]}
            report["metrics"] = metrics
            declared = spec["end_to_end"]
        report["detail"] = detail
        report["steal_share"] = ((steal_seconds() - steal0)
                                 / ((time.perf_counter() - wall0) * loadgen.nproc()))
    finally:
        if setup is not None:
            setup.close()
            shutil.rmtree(setup.work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise CliError(f"metrics not measured: {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    report["result"] = result
    (out / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except InvalidRun as e:
        log("invalid run, not recorded:", e)
        sys.exit(3)
    except (CliError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("error:", e)
        sys.exit(2)
