"""Load generator for `cati serve`: one process, at most `nproc`
threads (the calling thread plus nproc - 1 more) and at most one open
connection per thread."""

import os
import threading
import time

from cati_cli import http, proc_status

# A phase-A run is invalid when the generator itself woke this late
# (90th percentile, over requests whose connection was idle at their
# due time): then the generator, not the daemon, limited the load.
MAX_GENERATOR_LAG_P90_S = 0.005


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(xs)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Phase:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # open loop only, seconds; a failed request counts as inf
        self.lags = []  # open loop only: generator wake-up lateness, seconds
        self.threads_peak = 0

    def summary(self):
        return {"attempted": self.attempted, "succeeded": self.attempted - self.failed,
                "failed": self.failed}


def _one(addr, body, expected, phase, lock, pid):
    try:
        status, payload = http(addr, "POST", "/infer", body)
        ok = status == 200 and payload == expected
    except OSError:
        ok = False
    threads = proc_status(pid)["Threads"] if pid else 0
    with lock:
        phase.attempted += 1
        phase.failed += not ok
        phase.threads_peak = max(phase.threads_peak, threads)
    return ok


def _run_workers(nworkers, work):
    threads = [threading.Thread(target=work) for _ in range(nworkers - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()


def sequential(addr, requests, pid=None):
    """Sends each request once, one at a time."""
    phase = Phase()
    lock = threading.Lock()
    for body, expected in requests:
        _one(addr, body, expected, phase, lock, pid)
    return phase


def open_loop(addr, requests, rate, nworkers, pid=None):
    """Sends `requests` [(body, expected)] at `rate` per second on a
    fixed schedule; latency is timed from each request's due time."""
    phase = Phase()
    lock = threading.Lock()
    nxt = iter(range(len(requests)))
    t0 = time.perf_counter() + 0.05

    def work():
        while True:
            with lock:
                k = next(nxt, None)
            if k is None:
                return
            due = t0 + k / rate
            now = time.perf_counter()
            idle = now < due
            if idle:
                time.sleep(due - now)
                woke = time.perf_counter()
            body, expected = requests[k]
            ok = _one(addr, body, expected, phase, lock, pid)
            done = time.perf_counter()
            with lock:
                phase.latencies.append(done - due if ok else float("inf"))
                if idle:
                    phase.lags.append(woke - due)

    _run_workers(nworkers, work)
    return phase


def closed_loop(addr, requests, seconds, nworkers, pid=None):
    """`nworkers` clients, each sending its next request as soon as the
    previous answer arrives, until `seconds` have passed. `rate` is
    correct answers per second."""
    phase = Phase()
    lock = threading.Lock()
    counter = [0]
    t0 = time.perf_counter()
    stop = t0 + seconds
    finished = []

    def work():
        while time.perf_counter() < stop:
            with lock:
                k = counter[0] % len(requests)
                counter[0] += 1
            body, expected = requests[k]
            ok = _one(addr, body, expected, phase, lock, pid)
            done = time.perf_counter()
            if ok:
                with lock:
                    finished.append(done)

    _run_workers(nworkers, work)
    phase.rate = len(finished) / (max(finished, default=stop) - t0)
    return phase


def nproc():
    return len(os.sched_getaffinity(0))
