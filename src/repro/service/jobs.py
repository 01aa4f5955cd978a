"""JSONL batch runner: N request records in, N result records out.

Request records are one JSON object per line.  Exactly one skeleton
source is required:

- ``{"workload": "SRAD", "dataset": "503 x 458"}`` — a registry
  workload (``dataset`` optional: defaults to the largest); the
  workload's own analysis hints apply;
- ``{"skeleton_file": "examples/skeletons/jacobi2d.skel"}`` — a text
  skeleton on disk (relative paths resolve against the requests file);
- ``{"skeleton": "program p\\n..."}`` — an inline text skeleton.

Optional fields: ``id`` (echoed in the result; defaults to the line
number), ``iterations``, ``cpu_ms`` (enables a speedup verdict),
``arch`` (any :mod:`repro.gpu.registry` id — ``python -m repro arch
list`` shows the fleet),
``pcie_gen`` (1 | 2 | 3 — an analytic bus preset instead of the
engine's calibrated bus), ``batched_transfers``, ``temporaries`` (extra
temporary-array hints), and ``sparse_extents`` (array name -> referenced
element count).

Every request is isolated: a malformed line, an unknown workload, an
unparsable skeleton, or a timeout produces an *error record* in the
output — never an aborted batch.  Parse failures carry a structured
``{error, field, hint}`` form (see :class:`BadRequestError`) that the
CLI prints on stderr and the daemon returns as HTTP 400 bodies, so
every surface reports the same diagnosis.  Results are written in input
order.

The parsing/projection halves are exposed separately
(:func:`parse_jsonl` / :func:`parse_objects` and
:func:`project_parsed`) so the long-running daemon
(:mod:`repro.daemon`) can serve the exact record shapes this module
writes without going through a file.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import Future, TimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.datausage.hints import AnalysisHints, SparseExtentHint
from repro.gpu.registry import (
    UnknownArchitectureError,
    get_arch,
)
from repro.obs.metrics import nearest_rank
from repro.pcie.presets import bus_for_generation
from repro.service.engine import (
    ProjectionEngine,
    ProjectionRequest,
    ProjectionResponse,
)
from repro.service.parallel import shared_pool
from repro.skeleton.parser import parse_skeleton, parse_skeleton_file
from repro.skeleton.program import ProgramSkeleton
from repro.workloads.registry import get_workload

_SOURCE_FIELDS = ("workload", "skeleton_file", "skeleton")

#: (lower-cased workload name, dataset label or None) -> the interned
#: (skeleton, hints) pair of that registry record.  Only lookups that
#: resolve are stored, so the memo holds at most one entry per registry
#: dataset (plus one per workload for the default dataset).
_REGISTRY_INPUTS: dict[
    tuple[str, str | None], tuple[ProgramSkeleton, AnalysisHints]
] = {}


class BadRequestError(ValueError):
    """A single malformed batch record (isolated, never fatal).

    Carries the offending ``field`` (when one is identifiable) and a
    remediation ``hint`` alongside the message; :meth:`to_dict` is the
    shared ``{error, field, hint}`` JSON form that batch error records,
    CLI stderr, and daemon 400 responses all print.
    """

    def __init__(
        self,
        message: str,
        *,
        field: str | None = None,
        hint: str | None = None,
    ) -> None:
        super().__init__(message)
        self.field = field
        self.hint = hint

    def to_dict(self) -> dict[str, str]:
        """The structured ``{error, field, hint}`` form (Nones omitted)."""
        record = {"error": str(self)}
        if self.field is not None:
            record["field"] = self.field
        if self.hint is not None:
            record["hint"] = self.hint
        return record


@dataclass(frozen=True)
class ParsedRecord:
    """One request record after parsing: a request or its diagnosis."""

    request_id: str
    request: ProjectionRequest | None = None
    error: BadRequestError | None = None


@dataclass(frozen=True)
class BatchRecord:
    """One output row: a response or an isolated error."""

    request_id: str
    ok: bool
    response: ProjectionResponse | None = None
    error: str = ""
    field: str | None = None
    hint: str | None = None

    def to_dict(self) -> dict[str, Any]:
        if self.ok:
            assert self.response is not None
            return self.response.to_dict()
        record: dict[str, Any] = {
            "id": self.request_id,
            "ok": False,
            "error": self.error,
        }
        if self.field is not None:
            record["field"] = self.field
        if self.hint is not None:
            record["hint"] = self.hint
        return record

    @classmethod
    def from_bad_request(
        cls, request_id: str, exc: BadRequestError
    ) -> "BatchRecord":
        return cls(
            request_id,
            False,
            error=str(exc),
            field=exc.field,
            hint=exc.hint,
        )


def summary_lines(
    total: int,
    ok: int,
    errors: int,
    hits: int,
    p95_seconds: float | None,
    elapsed: float | None = None,
) -> list[str]:
    """The shared batch/daemon summary block (counts + cache + p95).

    ``python -m repro batch`` and ``python -m repro daemon status``
    print exactly these lines, so operators read one format everywhere.
    """
    line = f"  ok {ok}, errors {errors}, cache hits {hits}/{total}"
    if ok:
        line += f" ({hits / ok:.1%} hit rate)"
    lines = [line]
    timing = ""
    if elapsed is not None:
        timing = f"  wall time {elapsed:.3f}s"
    if p95_seconds is not None:
        timing += ("," if timing else " ") + (
            f" p95 per-request {p95_seconds * 1e3:.2f} ms"
        )
    if timing:
        lines.append(timing)
    return lines


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch run."""

    records: tuple[BatchRecord, ...]
    elapsed: float
    metrics: dict[str, Any]
    output_path: str

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def error_count(self) -> int:
        return len(self.records) - self.ok_count

    @property
    def hit_count(self) -> int:
        return sum(
            1 for r in self.records if r.ok and r.response.cached
        )

    def p95_seconds(self) -> float | None:
        """p95 serving latency over the ok records (None without any)."""
        seconds = [
            r.response.seconds for r in self.records if r.ok
        ]
        if not seconds:
            return None
        return nearest_rank(seconds, 0.95)

    def report(self) -> str:
        """One-paragraph human summary of the run."""
        lines = [
            f"batch: {len(self.records)} request(s) -> {self.output_path}",
            *summary_lines(
                len(self.records),
                self.ok_count,
                self.error_count,
                self.hit_count,
                self.p95_seconds(),
                self.elapsed,
            ),
        ]
        for record in self.records:
            if not record.ok:
                lines.append(f"  error [{record.request_id}]: {record.error}")
        return "\n".join(lines)


def _registry_input(
    name: str, label: Any
) -> tuple[ProgramSkeleton, AnalysisHints]:
    """The skeleton and hints of one registry ``{workload, dataset}``.

    Built once, then the same objects are returned: they are immutable
    all the way down, and reusing them lets every later request reuse
    their memoized fingerprints (and the surrogate's prepared template)
    instead of rebuilding and re-hashing the skeleton.  Raises the
    lookup's ``KeyError`` or a ``dataset`` :class:`BadRequestError`.
    """
    key = (name.lower(), None if label is None else str(label))
    found = _REGISTRY_INPUTS.get(key)
    if found is not None:
        return found
    workload = get_workload(name)
    try:
        dataset = (
            workload.dataset(key[1])
            if key[1] is not None
            else max(workload.datasets(), key=lambda d: d.size)
        )
    except (KeyError, ValueError) as exc:
        raise BadRequestError(
            str(exc.args[0] if exc.args else exc),
            field="dataset",
            hint="`python -m repro list` shows each workload's datasets",
        ) from exc
    # The default dataset shares its entry with the explicit label.
    labelled = (key[0], dataset.label)
    found = _REGISTRY_INPUTS.get(labelled)
    if found is None:
        found = (workload.skeleton(dataset), workload.hints(dataset))
        _REGISTRY_INPUTS[labelled] = found
    _REGISTRY_INPUTS[key] = found
    return found


def parse_request(
    data: Any, index: int, base_dir: Path
) -> ProjectionRequest:
    """Turn one decoded JSONL record into a :class:`ProjectionRequest`.

    Raises :class:`BadRequestError` — with the offending field and a
    hint where identifiable — on any malformed record; the caller
    converts that into an error record (or a daemon 400 response).
    """
    if not isinstance(data, dict):
        raise BadRequestError(
            f"record must be a JSON object, got {type(data).__name__}",
            hint="write one {...} request per line",
        )
    request_id = str(data.get("id") or f"request-{index + 1}")
    sources = [f for f in _SOURCE_FIELDS if f in data]
    if len(sources) != 1:
        raise BadRequestError(
            "need exactly one of 'workload', 'skeleton_file', 'skeleton'"
            f" (got {sources or 'none'})",
            hint="pick a registry workload, a skeleton file, or an "
            "inline skeleton — not several, not none",
        )

    hints: AnalysisHints | None = None
    source = sources[0]
    try:
        if source == "workload":
            program, hints = _registry_input(
                str(data["workload"]), data.get("dataset")
            )
        elif source == "skeleton_file":
            path = Path(str(data["skeleton_file"]))
            if not path.is_absolute():
                path = base_dir / path
            program = parse_skeleton_file(str(path))
        else:
            program = parse_skeleton(str(data["skeleton"]))
    except BadRequestError:
        raise
    except (KeyError, OSError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        hint = None
        if source == "workload":
            hint = "`python -m repro list` shows the registry"
        raise BadRequestError(
            str(message), field=source, hint=hint
        ) from exc

    extra_temporaries = data.get("temporaries", ())
    sparse_extents = data.get("sparse_extents", {})
    if extra_temporaries or sparse_extents:
        base = hints or AnalysisHints.none()
        try:
            hints = AnalysisHints(
                extra_temporaries=base.extra_temporaries
                | frozenset(str(n) for n in extra_temporaries),
                sparse_extents=base.sparse_extents
                + tuple(
                    SparseExtentHint(str(name), int(count))
                    for name, count in dict(sparse_extents).items()
                ),
            )
        except (TypeError, ValueError) as exc:
            raise BadRequestError(
                f"bad hints: {exc}",
                field="sparse_extents" if sparse_extents else "temporaries",
                hint="sparse_extents maps array name -> element count; "
                "temporaries is a list of array names",
            ) from exc

    arch = None
    if "arch" in data:
        try:
            arch = get_arch(str(data["arch"]).lower())
        except UnknownArchitectureError as exc:
            raise BadRequestError(
                str(exc), field="arch", hint=exc.hint
            ) from exc
    bus = None
    if "pcie_gen" in data:
        try:
            bus = bus_for_generation(int(data["pcie_gen"]))
        except (TypeError, ValueError) as exc:
            raise BadRequestError(
                str(exc), field="pcie_gen", hint="1, 2, or 3"
            ) from exc

    try:
        iterations = int(data.get("iterations", 1))
        cpu_ms = data.get("cpu_ms")
        cpu_seconds = float(cpu_ms) * 1e-3 if cpu_ms is not None else None
        return ProjectionRequest(
            program=program,
            hints=hints,
            arch=arch,
            bus=bus,
            batched_transfers=bool(data.get("batched_transfers", False)),
            iterations=iterations,
            cpu_seconds=cpu_seconds,
            request_id=request_id,
        )
    except (TypeError, ValueError) as exc:
        message = str(exc.args[0] if exc.args else exc)
        field = "cpu_ms" if "cpu_seconds" in message else "iterations"
        raise BadRequestError(
            message,
            field=field,
            hint="iterations is a positive integer; cpu_ms a positive "
            "number of milliseconds",
        ) from exc


def parse_objects(
    objects: Iterable[Any], base_dir: Path
) -> list[ParsedRecord]:
    """Parse decoded request objects; failures become diagnoses."""
    parsed: list[ParsedRecord] = []
    for index, data in enumerate(objects):
        try:
            request = parse_request(data, index, base_dir)
        except BadRequestError as exc:
            request_id = (
                str(data.get("id") or f"request-{index + 1}")
                if isinstance(data, dict)
                else f"request-{index + 1}"
            )
            parsed.append(ParsedRecord(request_id, error=exc))
            continue
        parsed.append(ParsedRecord(request.request_id, request=request))
    return parsed


def parse_jsonl(
    lines: Iterable[str], base_dir: Path
) -> list[ParsedRecord]:
    """Decode + parse JSONL request lines (blank lines skipped)."""
    parsed: list[ParsedRecord] = []
    index = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            parsed.append(
                ParsedRecord(
                    f"request-{index + 1}",
                    error=BadRequestError(
                        f"bad JSON: {exc}",
                        hint="each line must be one JSON object",
                    ),
                )
            )
            index += 1
            continue
        try:
            request = parse_request(data, index, base_dir)
        except BadRequestError as exc:
            request_id = (
                str(data.get("id") or f"request-{index + 1}")
                if isinstance(data, dict)
                else f"request-{index + 1}"
            )
            parsed.append(ParsedRecord(request_id, error=exc))
        else:
            parsed.append(
                ParsedRecord(request.request_id, request=request)
            )
        index += 1
    return parsed


def project_parsed(
    parsed: Sequence[ParsedRecord],
    engine: ProjectionEngine,
    max_workers: int = 1,
    timeout: float | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> tuple[BatchRecord, ...]:
    """Project parsed records with bounded concurrency, in input order.

    Parse diagnoses pass straight through as error records; projection
    failures and timeouts are isolated per record.  ``should_stop`` is
    polled before each *submission* — when it turns true the remaining
    records become ``cancelled`` error records (the daemon's
    cooperative job cancellation; a one-shot batch never passes it).

    Work fans out through the module-level shared pool
    (:func:`repro.service.parallel.shared_pool`), so successive batches
    — and the daemon scheduler between them — reuse one warm executor
    instead of paying pool construction per call.  With no pool
    available (or ``max_workers <= 1``) requests run serially inline.
    """
    records: list[BatchRecord | None] = [None] * len(parsed)
    pending: list[tuple[int, Future[ProjectionResponse]]] = []
    pool = shared_pool(max(1, max_workers)) if max_workers > 1 else None

    def _serial(request: ProjectionRequest) -> Future:
        future: Future = Future()
        try:
            future.set_result(engine.project(request))
        except BaseException as exc:  # noqa: BLE001 - isolated per record
            future.set_exception(exc)
        return future

    try:
        for slot, item in enumerate(parsed):
            if item.error is not None:
                records[slot] = BatchRecord.from_bad_request(
                    item.request_id, item.error
                )
            elif should_stop is not None and should_stop():
                records[slot] = BatchRecord(
                    item.request_id, False, error="cancelled"
                )
            elif pool is None:
                pending.append((slot, _serial(item.request)))
            else:
                try:
                    future = pool.submit(engine.project, item.request)
                except RuntimeError:  # raced an explicit shutdown_pool()
                    pool = None
                    future = _serial(item.request)
                pending.append((slot, future))
        for slot, future in pending:
            request_id = parsed[slot].request_id
            try:
                response = future.result(timeout=timeout)
                records[slot] = BatchRecord(
                    request_id, True, response=response
                )
            except TimeoutError:
                future.cancel()
                records[slot] = BatchRecord(
                    request_id,
                    False,
                    error=f"timed out after {timeout:g}s",
                )
                engine.metrics.incr("timeouts")
            except Exception as exc:  # noqa: BLE001 - per-request isolation
                message = str(exc.args[0] if exc.args else exc)
                records[slot] = BatchRecord(
                    request_id,
                    False,
                    error=message.splitlines()[0] if message else repr(exc),
                )
                engine.metrics.incr("errors")
    finally:
        # The pool is shared and stays up; just make sure nothing this
        # batch queued keeps running after we've already written its
        # record (a worker that outlived its timeout finishes in the
        # background — the record already says "timed out").
        for _slot, future in pending:
            if not future.done():
                future.cancel()

    return tuple(r for r in records if r is not None)


def run_batch(
    requests_path: str | Path,
    output_path: str | Path | None = None,
    engine: ProjectionEngine | None = None,
    max_workers: int = 4,
    timeout: float | None = None,
) -> BatchResult:
    """Project every record of a JSONL file with bounded concurrency.

    ``timeout`` (seconds) bounds each request's wall time; a request
    that exceeds it yields an error record while the rest of the batch
    completes.  The output file (default: ``<input>.results.jsonl``)
    receives one JSON line per input record, in input order.
    """
    requests_path = Path(requests_path)
    if output_path is None:
        output_path = requests_path.with_suffix(
            requests_path.suffix + ".results.jsonl"
        )
    output_path = Path(output_path)
    engine = engine or ProjectionEngine(max_workers=max_workers)

    start = time.perf_counter()
    with open(requests_path, encoding="utf-8") as fh:
        lines = fh.readlines()

    parsed = parse_jsonl(lines, requests_path.parent)
    records = project_parsed(
        parsed, engine, max_workers=max_workers, timeout=timeout
    )
    with open(output_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    return BatchResult(
        records=records,
        elapsed=time.perf_counter() - start,
        metrics=engine.metrics.snapshot(),
        output_path=str(output_path),
    )
