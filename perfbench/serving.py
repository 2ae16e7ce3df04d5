"""The ``serve_run`` plumbing: a ``repro serve`` subprocess and its clients.

The server always starts through :mod:`serve_launcher`, which runs the
real ``repro serve`` command line in its own process and samples that
process's speed; in a traced run the launcher first installs the layer
wrappers and, when the server is interrupted, writes their ledger to a
JSON file.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


class ServerProcess:
    """One ``repro serve`` child with a private cache directory."""

    def __init__(self, src: Path, workdir: Path, *,
                 ledger_path: Path | None = None) -> None:
        self.workdir = workdir
        self.ledger_path = ledger_path
        workdir.mkdir(parents=True, exist_ok=True)
        self.probe_path = workdir / "probe.json"
        #: the server's speed samples (see calib.py), once it stopped
        self.probe_samples: list[tuple[float, float]] = []
        command = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--src", str(src), "--probe", str(self.probe_path)]
        if ledger_path is not None:
            command += ["--ledger", str(ledger_path)]
        command += ["--", "--host", "127.0.0.1", "--port", "0",
                    "--workers", "2", "--queue-limit", "8",
                    "--cache-dir", str(workdir / "cache"),
                    "--flight-capacity", "4096"]
        self._stderr = open(workdir / "server.stderr", "w")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving"):
                return int(line.split("http://", 1)[1].split()[0]
                           .rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not start: "
                           + (self.workdir / "server.stderr").read_text())

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> dict | None:
        """Interrupt the server, wait for it, keep its speed samples and
        return its ledger."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        if self.probe_path.exists():
            self.probe_samples = [tuple(sample) for sample in
                                  json.loads(self.probe_path.read_text())]
        if self.ledger_path is not None and self.ledger_path.exists():
            ledger = json.loads(self.ledger_path.read_text())
            self.ledger_path.unlink()
            return ledger
        return None


def counter_total(metricsz: dict, name: str) -> int:
    """Sum of a counter family in a ``/metricsz`` JSON document."""
    total = 0
    for series, value in metricsz.get("counters", {}).items():
        if series == name or series.startswith(name + "{"):
            total += value
    return total


class Client(threading.Thread):
    """A closed-loop keep-alive client: one request in flight at a time.

    With a ``probe``, the client times one calibration unit before its
    first request and after every response.
    """

    def __init__(self, port: int, plan: list[dict], probe=None) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.plan = plan
        self.probe = probe
        self.results: list[dict] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            if self.probe is not None:
                self.probe.sample()
            for step in self.plan:
                body = json.dumps({"source": step["source"]})
                start = time.perf_counter()
                try:
                    conn.request("POST", "/v1/run", body=body,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    raw = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                      timeout=120)
                    raw, status = str(exc).encode(), 0
                self.results.append({"program": step["program"],
                                     "kind": step["kind"],
                                     "status": status,
                                     "start": start,
                                     "end": time.perf_counter(),
                                     "body": raw})
                if self.probe is not None:
                    self.probe.sample()
        except BaseException as exc:  # reported by the caller
            self.error = exc
        finally:
            conn.close()


def run_clients(port: int, plans: list[list[dict]],
                probe=None) -> tuple[float, float, list[dict]]:
    """Drive every plan concurrently; (start, end, all results)."""
    clients = [Client(port, plan, probe) for plan in plans]
    start = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=170)
        if client.is_alive():
            raise RuntimeError("a client did not finish its plan")
        if client.error is not None:
            raise client.error
    end = time.perf_counter()
    return start, end, [r for client in clients for r in client.results]


def stage_means_ms(debugz: dict) -> dict[str, float]:
    """Mean per-request serve stage times from ``/debugz`` records."""
    totals: dict[str, float] = {}
    records = [r for r in debugz.get("records", [])
               if r.get("endpoint") == "run"]
    for record in records:
        stages = record.get("stages", {})
        work = sum(v for k, v in stages.items() if k.startswith("work:"))
        execute = stages.get("execute", 0.0)
        parts = {
            "admission": stages.get("admission", 0.0),
            "parse": stages.get("parse", 0.0),
            "prepare": stages.get("prepare", 0.0),
            "queue": max(execute - work, 0.0),
            "execute": work,
        }
        for key, value in parts.items():
            totals[key] = totals.get(key, 0.0) + value
    count = max(len(records), 1)
    return {key: value / count for key, value in totals.items()}

