"""Host the projection daemon in its own process for ``daemon-jobs``.

Serves ``run_daemon`` with its default settings until SIGTERM; the only
options passed are the state directory, the surrogate model path and
the seed.  With ``--trace`` the span wrappers are installed in this
process first, so the daemon's own layers (HTTP submit, journaled
queue, event log, service, surrogate) are recorded; the spans are
written to ``<state-dir>/spans.json`` after the drain.  The peak
resident set goes to ``<state-dir>/rss.json`` either way.

    python3 perfbench/daemon_host.py --state-dir DIR --surrogate-model M.npz
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from common import own_peak_rss_mb, use_source_tree


def _stop_with_parent(parent: int) -> None:
    """Drain (as on SIGTERM) once the benchmark process is gone."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os.kill(os.getpid(), signal.SIGTERM)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True, type=Path)
    parser.add_argument("--surrogate-model", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    use_source_tree()

    from repro.daemon.server import run_daemon

    threading.Thread(
        target=_stop_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    recorder = installation = None
    if args.trace:
        from spans import (
            ENGINE_TARGETS,
            SERVER_TARGETS,
            SpanRecorder,
            dump_spans,
            install,
        )

        recorder = SpanRecorder()
        installation = install(recorder, ENGINE_TARGETS + SERVER_TARGETS)
        recorder.active = True
    try:
        code = run_daemon(
            args.state_dir,
            out=lambda line: print(line, file=sys.stderr, flush=True),
            surrogate_model=args.surrogate_model,
            seed=args.seed,
        )
    finally:
        if recorder is not None:
            recorder.active = False
            installation.remove()
            dump_spans(recorder.spans, args.state_dir / "spans.json")
        (args.state_dir / "rss.json").write_text(
            json.dumps({"peak_rss_mb": own_peak_rss_mb()}), encoding="utf-8"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
