"""Drives the built `cati` binary through its CLI and HTTP surfaces only."""

import json
import os
import socket
import subprocess
import time
from pathlib import Path

# `cati vars` prints TypeClass's Display names; `cati infer --json`
# prints the serde variant names.
CLASS_BY_DISPLAY = {
    "bool": "Bool", "struct": "Struct", "char": "Char",
    "unsigned char": "UnsignedChar", "float": "Float", "double": "Double",
    "long double": "LongDouble", "enum": "Enum", "int": "Int",
    "short int": "ShortInt", "long int": "LongInt",
    "long long int": "LongLongInt", "unsigned int": "UnsignedInt",
    "short unsigned int": "ShortUnsignedInt",
    "long unsigned int": "LongUnsignedInt",
    "long long unsigned int": "LongLongUnsignedInt",
    "void*": "PtrVoid", "struct*": "PtrStruct", "arith*": "PtrArith",
}


class CliError(RuntimeError):
    pass


class Cati:
    def __init__(self, exe):
        self.exe = str(exe)

    def run(self, *args, timeout=120):
        r = subprocess.run([self.exe, *map(str, args)], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=timeout)
        if r.returncode != 0:
            raise CliError(f"cati {' '.join(map(str, args))}: exit {r.returncode}: "
                           f"{r.stderr.decode(errors='replace')[-400:]}")
        return r.stdout

    def build_corpus(self, out, seed):
        self.run("build-corpus", "--out", out, "--scale", "medium", "--seed", seed)
        manifest = json.loads((Path(out) / "manifest.json").read_text())
        train = [e for e in manifest if e["split"] == "train"]
        test = [e for e in manifest if e["split"] == "test"]
        return train, test

    def strip(self, src, dst):
        self.run("strip", src, "--out", dst)

    def train(self, corpus, out, scale, checkpoint_dir=None, timeout=170):
        """Trains a model; returns (wall seconds, peak RSS bytes, CPU seconds)."""
        args = [self.exe, "train", "--corpus", str(corpus), "--out", str(out),
                "--scale", scale]
        if checkpoint_dir is not None:
            args += ["--checkpoint-dir", str(checkpoint_dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        deadline = t0 + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise CliError("cati train timed out")
            time.sleep(0.005)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise CliError(f"cati train: exit {proc.returncode}")
        return wall, usage.ru_maxrss * 1024, usage.ru_utime + usage.ru_stime

    def infer_json(self, model, binary):
        return self.run("infer", "--model", model, binary, "--json")

    def vars_table(self, binary):
        """`cati vars` rows: (func, offset, class or None, VUC count)."""
        rows = []
        for line in self.run("vars", binary).decode().splitlines()[1:-1]:
            parts = line.split()
            name = " ".join(parts[2:-1])
            rows.append((int(parts[0]), int(parts[1], 16),
                         None if name == "?" else CLASS_BY_DISPLAY[name], int(parts[-1])))
        return rows

    def labels(self, binary):
        """Ground-truth classes of an unstripped binary, keyed by (func, offset)."""
        return {(f, o): cls for f, o, cls, _ in self.vars_table(binary) if cls}


def accuracy(predictions, labels):
    """Share of labelled variables whose inferred class matches; a
    labelled variable the inference missed counts as wrong."""
    total = correct = 0
    for pred, lab in zip(predictions, labels):
        by_key = {(v["key"]["func"], v["key"]["offset"]): v["class"] for v in pred}
        for key, cls in lab.items():
            total += 1
            correct += by_key.get(key) == cls
    return correct / total if total else 0.0


def proc_status(pid):
    """VmHWM / VmRSS in bytes and the thread count of a live process."""
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                out[key] = int(value.split()[0]) * 1024
            elif key == "Threads":
                out[key] = int(value)
    return out


def cpu_seconds(pid):
    """User plus system CPU time a live process has used."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def http(addr, method, path, body=b"", timeout=60):
    """One HTTP/1.1 exchange on its own connection (the daemon closes
    every connection after one response). Returns (status, body)."""
    host, port = addr
    with socket.create_connection((host, port), timeout=timeout) as s:
        s.sendall(f"{method} {path} HTTP/1.1\r\nhost: {host}\r\n"
                  f"content-length: {len(body)}\r\n\r\n".encode() + body)
        chunks = []
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"{method} {path}: no HTTP status line in the answer")
    return int(parts[1]), payload


class Daemon:
    """`cati serve` with CLI defaults on an ephemeral loopback port."""

    def __init__(self, cati, model, workdir):
        self.log_path = Path(workdir) / "serve.log"
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [cati.exe, "serve", "--model", str(model), "--addr", "127.0.0.1:0"],
            stdout=subprocess.DEVNULL, stderr=self.log)
        self.addr = None
        deadline = time.perf_counter() + 60
        try:
            while self.addr is None:
                if self.proc.poll() is not None:
                    raise CliError("cati serve exited during start-up")
                if time.perf_counter() > deadline:
                    raise CliError("cati serve did not start")
                for line in self.log_path.read_text(errors="replace").splitlines():
                    if line.startswith("serving on http://"):
                        host, port = line.split()[2][len("http://"):].rsplit(":", 1)
                        self.addr = (host, int(port))
                time.sleep(0.002)
            while True:
                try:
                    if http(self.addr, "GET", "/health", timeout=5)[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise CliError("cati serve /health never answered")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self):
        return self.proc.pid

    def metrics(self):
        status, body = http(self.addr, "GET", "/metrics")
        if status != 200:
            raise CliError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self):
        if self.proc.poll() is None and self.addr is not None:
            try:
                http(self.addr, "POST", "/admin/shutdown", timeout=5)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
