"""The three closed-loop workloads: daemon-jobs, engine-mix, sweep-fleet.

Each workload follows one life cycle, driven by ``run.py``:
``setup`` (timed as ``setup_s``, possibly several times), ``warm_up``
(untimed), ``run`` (the measured closed loop), ``teardown``, and
``check`` (the oracle, after the timed window).  ``run`` takes an
optional span recorder; the traced run passes one.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import inputs
from common import HERE, Phase, Verdict, own_peak_rss_mb
from oracle import Answer, Oracle, SweepSample, check_sweep
from spans import (
    CLIENT_TARGETS,
    ENGINE_TARGETS,
    Span,
    SpanSet,
    load_spans,
    request_of,
)

from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.server import read_endpoint_file
from repro.gpu.arch import quadro_fx_5600
from repro.gpu.registry import arch_ids
from repro.harness.context import ExperimentContext
from repro.pcie.presets import pcie_gen1_bus
from repro.service import jobs
from repro.service.cache import ProjectionCache
from repro.service.engine import ProjectionEngine
from repro.surrogate.dataset import generate_training_set
from repro.surrogate.engine import SurrogateEngine
from repro.surrogate.model import train_surrogate
from repro.surrogate.store import save_model
from repro.sweep import SweepEngine
from repro.transform.space import TransformationSpace

#: How long a daemon may take to come up or drain before it is killed.
DAEMON_DEADLINE_S = 60.0


def _train_surrogate(engine_arch, engine_space):
    """The set-up's surrogate model, for the serving engine's arch/space."""
    training = generate_training_set(engine_arch, engine_space)
    return train_surrogate(training, engine_arch, engine_space)


def mix_shares(served) -> dict[str, float]:
    """Percent of answers that were exact cache hits, exact misses and
    surrogate answers, and of requests for PathFinder and for inline
    skeletons, from ``(record, path, cached)`` triples."""
    counts = dict.fromkeys(
        ("exact_hit", "exact_miss", "surrogate", "pathfinder", "skeleton"), 0
    )
    total = 0
    for record, path, cached in served:
        total += 1
        if path == "surrogate":
            counts["surrogate"] += 1
        else:
            counts["exact_hit" if cached else "exact_miss"] += 1
        if record.get("workload") == "PathFinder":
            counts["pathfinder"] += 1
        if "skeleton" in record:
            counts["skeleton"] += 1
    return {k: 100.0 * v / max(1, total) for k, v in counts.items()}


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: Span wrappers installed in this process for the traced run.
    targets: tuple = ENGINE_TARGETS

    def __init__(self, seed: int, spec: dict[str, Any], workdir: Path) -> None:
        self.seed = seed
        self.spec = spec
        self.mix = spec["mix"]
        self.workdir = workdir

    def setup(self, traced: bool = False) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, recorder=None) -> Phase:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` built (idempotent)."""

    def check(self, phase: Phase) -> Verdict:
        raise NotImplementedError

    def peak_rss_mb(self, phase: Phase) -> float:
        """Peak resident set of the process that served ``phase``."""
        return phase.rss_mb

    def shares(self, phase: Phase) -> dict[str, float]:
        """Percent of the timed answers of each traffic kind."""
        return {}

    def server_spans(self, phase: Phase) -> list[Span]:
        """Spans recorded outside this process for ``phase``."""
        return []

    def layer_extras(self, phase: Phase, spans: SpanSet) -> dict[str, float]:
        """Per-layer metrics that need more than the spans."""
        return {}


# daemon-jobs ---------------------------------------------------------------
class DaemonJobs(Workload):
    name = "daemon-jobs"
    targets = CLIENT_TARGETS

    def __init__(self, seed, spec, workdir) -> None:
        super().__init__(seed, spec, workdir)
        self.population = inputs.daemon_population(seed, self.mix)
        self._proc: subprocess.Popen | None = None
        self._log = None
        self._setups = 0
        self.state: Path | None = None
        self.url = ""
        self.rss_mb = 0.0

    def setup(self, traced: bool = False) -> None:
        self._setups += 1
        state = self.workdir / f"daemon-{self._setups}"
        state.mkdir(parents=True)
        arch = quadro_fx_5600()
        model_path = save_model(
            _train_surrogate(arch, TransformationSpace.default()),
            state / "surrogate.npz",
        )
        self._log = open(state / "host.log", "w", encoding="utf-8")
        command = [
            sys.executable,
            str(HERE / "daemon_host.py"),
            "--state-dir",
            str(state),
            "--surrogate-model",
            str(model_path),
            "--seed",
            str(self.seed),
        ]
        if traced:
            command.append("--trace")
        self._proc = subprocess.Popen(
            command,
            cwd=state,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.state = state
        deadline = time.monotonic() + DAEMON_DEADLINE_S
        while True:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited during start-up: "
                    + (state / "host.log").read_text(encoding="utf-8")
                )
            record = read_endpoint_file(state)
            if record and DaemonClient(base_url=record["url"]).healthy():
                self.url = record["url"]
                return
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become healthy in time")
            time.sleep(0.01)

    def teardown(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=DAEMON_DEADLINE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            rss = self.state / "rss.json"
            if rss.is_file():
                self.rss_mb = json.loads(rss.read_text())["peak_rss_mb"]
        if self._log is not None:
            self._log.close()
            self._log = None

    def _serve(self, client: DaemonClient, payload, name, recorder=None):
        """Submit one job and poll its result; the terminal body."""
        job_id = client.submit("projection", payload, client=name)["id"]
        if recorder is not None:
            recorder.set_request(job_id)
        poll = self.spec["poll_interval_s"]
        while True:
            try:
                return job_id, client.result(job_id)
            except DaemonError as exc:
                if exc.status != 409:
                    raise
            started = time.perf_counter()
            time.sleep(poll)
            if recorder is not None:
                recorder.record(
                    "daemon.client.poll_wait", started, time.perf_counter()
                )

    def warm_up(self) -> None:
        client = DaemonClient(base_url=self.url, timeout=30.0)
        for entry in self.population:
            self._serve(client, {**entry, "mode": "exact"}, "perfbench-warm")

    def run(self, seconds: float, recorder=None) -> Phase:
        phase = Phase()
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds

        def client_loop(index: int) -> None:
            client = DaemonClient(base_url=self.url, timeout=30.0)
            name = f"perfbench-{index}"
            stream = inputs.daemon_jobs(
                self.population, self.seed, index, self.mix["auto_share"]
            )
            with lock:
                phase.threads.append(threading.get_ident())
            while time.perf_counter() < deadline:
                payload = next(stream)
                began = time.perf_counter()
                try:
                    job_id, body = self._serve(client, payload, name, recorder)
                except (DaemonError, ConnectionError, OSError):
                    with lock:
                        phase.attempted += 1
                        phase.errors += 1
                    continue
                latency = time.perf_counter() - began
                record = (body.get("result") or {}).get("record") or {}
                ok = body.get("state") == "done" and record.get("ok")
                with lock:
                    phase.attempted += 1
                    if not ok:
                        phase.errors += 1
                        continue
                    phase.latencies.append(latency)
                    phase.work += 1
                    phase.answers.append((job_id, payload, record))

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(self.spec["clients"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall = time.perf_counter() - start
        return phase

    def check(self, phase: Phase) -> Verdict:
        oracle = Oracle(
            quadro_fx_5600(), ExperimentContext(seed=self.seed).bus_model
        )
        answers: list[Answer] = []
        verdict = Verdict()
        for _job_id, payload, record in phase.answers:
            path = str(record.get("path"))
            if payload["mode"] == "exact" and path != "exact":
                verdict.answers += 1
                verdict.mismatches += 1
                verdict.notes.append("exact-mode job served by the surrogate")
                continue
            answers.append(
                Answer(
                    payload,
                    path,
                    summary=record.get("projection"),
                    total_seconds=record.get("total_seconds"),
                    mappings=record.get("mappings"),
                )
            )
        verdict.merge(oracle.check(answers))
        return verdict

    def shares(self, phase: Phase) -> dict[str, float]:
        return mix_shares(
            (payload, str(record.get("path")), bool(record.get("cached")))
            for _job_id, payload, record in phase.answers
        )

    def peak_rss_mb(self, phase: Phase) -> float:
        return self.rss_mb

    def server_spans(self, phase: Phase) -> list[Span]:
        path = self.state / "spans.json"
        if not path.is_file():
            return []
        jobs_seen = {job_id for job_id, _payload, _record in phase.answers}
        return [s for s in load_spans(path) if request_of(s) in jobs_seen]

    def layer_extras(self, phase: Phase, spans: SpanSet) -> dict[str, float]:
        jobs_done = max(1, phase.work)
        submitted: dict[str, float] = {}
        dwell: list[float] = []
        lines = 0
        seen = {job_id for job_id, _payload, _record in phase.answers}
        with open(self.state / "journal.jsonl", encoding="utf-8") as fh:
            for line in fh:
                lines += 1
                record = json.loads(line)
                if record["event"] == "submit":
                    submitted[record["job"]["id"]] = record["at"]
                elif record["event"] == "start":
                    job_id = record["job_id"]
                    if job_id in seen and job_id in submitted:
                        dwell.append(record["at"] - submitted[job_id])
        return {
            "daemon.client.polls_per_job": (
                spans.count("daemon.client.result") / jobs_done
            ),
            "daemon.queue_dwell_ms": (
                1e3 * sum(dwell) / len(dwell) if dwell else 0.0
            ),
            "daemon.queue.journal_lines_per_job": (
                lines / len(submitted) if submitted else 0.0
            ),
            "obs.events.emits_per_job": (
                spans.count("obs.events.emit") / jobs_done
            ),
        }


# engine-mix ----------------------------------------------------------------
class EngineMix(Workload):
    name = "engine-mix"

    def setup(self, traced: bool = False) -> None:
        self.engine = ProjectionEngine(cache=ProjectionCache())
        model = _train_surrogate(self.engine.arch, self.engine.space)
        self.surrogate = SurrogateEngine(model, self.engine)
        self.stream = inputs.engine_requests(self.seed, self.mix)
        self._index = 0

    def _one(self) -> tuple[tuple, float]:
        """Parse and serve the next request: (answer, seconds).

        The answer keeps the record and what the oracle compares, not
        the parsed request, so the benchmark's own memory stays small:
        ``(record, path, cached, served, total_seconds)`` with the
        served summary of an exact answer or the surrogate's estimate.
        """
        record, via_surrogate = next(self.stream)
        self._index += 1
        started = time.perf_counter()
        request = jobs.parse_request(record, self._index, HERE)
        if via_surrogate:
            response = self.surrogate.project(request, "auto")
        else:
            response = self.engine.project(request)
        elapsed = time.perf_counter() - started
        if getattr(response, "estimate", None) is not None:
            answer = (record, response.path, False, response.estimate, None)
            return answer, elapsed
        path = "exact"
        if getattr(response, "response", None) is not None:
            path, response = response.path, response.response
        return (
            record,
            path,
            response.cached,
            response.summary,
            response.total_seconds,
        ), elapsed

    def warm_up(self) -> None:
        for _ in range(self.mix["warmup_requests"]):
            self._one()

    def run(self, seconds: float, recorder=None) -> Phase:
        phase = Phase(threads=[threading.get_ident()])
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            if recorder is not None:
                recorder.set_request(self._index + 1)
            phase.attempted += 1
            try:
                answer, latency = self._one()
            except Exception:  # noqa: BLE001 - one failed request, counted
                phase.errors += 1
                continue
            phase.latencies.append(latency)
            phase.work += 1
            phase.answers.append(answer)
        phase.wall = time.perf_counter() - start
        phase.rss_mb = own_peak_rss_mb()
        return phase

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()

    def check(self, phase: Phase) -> Verdict:
        oracle = Oracle(self.engine.arch, self.engine.bus, self.engine.space)
        answers = []
        for record, path, _cached, served, total in phase.answers:
            if total is not None:
                answers.append(
                    Answer(
                        record,
                        path,
                        summary=served.to_dict(),
                        total_seconds=total,
                    )
                )
            else:
                answers.append(
                    Answer(record, path, mappings=dict(served.mappings))
                )
        return oracle.check(answers)

    def shares(self, phase: Phase) -> dict[str, float]:
        return mix_shares(
            (record, path, cached)
            for record, path, cached, _served, _total in phase.answers
        )


# sweep-fleet ---------------------------------------------------------------
class SweepFleet(Workload):
    name = "sweep-fleet"

    def setup(self, traced: bool = False) -> None:
        self.engine = SweepEngine(quadro_fx_5600(), pcie_gen1_bus())
        self.grids = [
            (name, sizes, *inputs.sweep_programs(name, sizes))
            for name, sizes in inputs.sweep_axes(self.seed, self.mix)
        ]
        self._next = 0
        self._rng = random.Random(f"sweep-fleet/{self.seed}/samples")

    def _grid(self):
        _name, sizes, programs, hints = self.grids[
            self._next % len(self.grids)
        ]
        self._next += 1
        rows = self.engine.sweep_arch_grid(
            programs, arch_ids(), hints=hints, sizes=sizes, buses="paired"
        )
        return rows, programs, hints

    def warm_up(self) -> None:
        for _ in range(len(self.mix["size_ranges"])):
            self._grid()

    def run(self, seconds: float, recorder=None) -> Phase:
        """Rotations of one grid per workload; a rotation is one sample."""
        phase = Phase(threads=[threading.get_ident()])
        per_rotation = len(self.mix["size_ranges"])
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            began = time.perf_counter()
            for _ in range(per_rotation):
                rows, programs, hints = self._grid()
                points = len(rows) * len(programs)
                phase.attempted += points
                phase.work += points
                # Keep one seeded point per grid for the per-point oracle.
                row = self._rng.choice(rows)
                point = self._rng.randrange(len(programs))
                phase.answers.append(
                    SweepSample(
                        programs[point],
                        hints[point],
                        row.arch,
                        row.bus,
                        row.projections[point],
                    )
                )
            phase.latencies.append(time.perf_counter() - began)
        phase.wall = time.perf_counter() - start
        phase.rss_mb = own_peak_rss_mb()
        return phase

    def check(self, phase: Phase) -> Verdict:
        return check_sweep(
            phase.answers, self.mix["oracle_points"], self.seed
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DaemonJobs, EngineMix, SweepFleet)
}
