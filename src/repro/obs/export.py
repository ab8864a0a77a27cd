"""OpenMetrics text exposition of the metrics surface.

Two consumers, one format:

* ``--metrics-out FILE`` writes a final snapshot after the run;
* ``--metrics-port N`` serves ``/metrics`` and ``/healthz`` over a
  stdlib :class:`~http.server.ThreadingHTTPServer` for the duration of
  the run -- the first externally consumable surface of the
  analysis-as-a-service daemon on the roadmap.

The exposition maps the registry's dotted names onto Prometheus
conventions: ``datalog.fixpoint_ms`` becomes ``repro_datalog_fixpoint_ms``,
histogram summaries expand into one series per statistic
(``..._p50``, ``..._max``, ...), and every series is declared a gauge --
the registry snapshot is a point-in-time state dump, not a monotone
counter contract we could promise across process restarts.  Non-numeric
gauges (e.g. a ``run.mode`` string) are skipped: OpenMetrics sample
values must be numbers.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional

from ..util.errors import InputError

__all__ = [
    "metric_name",
    "to_openmetrics",
    "write_metrics_file",
    "MetricsServer",
]

#: Content type for the /metrics endpoint (OpenMetrics text format).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_HISTOGRAM_STATS = ("count", "min", "mean", "p50", "p90", "p99", "max", "sum")


def metric_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted registry name onto a Prometheus-legal series name.

    Every non-alphanumeric run collapses to ``_`` and the ``repro_``
    namespace prefix is prepended: ``datalog.fixpoint_ms`` →
    ``repro_datalog_fixpoint_ms``.
    """
    cleaned = []
    for ch in name:
        cleaned.append(ch if ch.isalnum() else "_")
    flat = "".join(cleaned).strip("_")
    while "__" in flat:
        flat = flat.replace("__", "_")
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return prefix + flat


def _numeric(value: Any) -> Optional[float]:
    """The sample value, or None when it can't go on the wire."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(round(float(value), 9))


def to_openmetrics(
    metrics: Mapping[str, Any], prefix: str = "repro_"
) -> str:
    """Render a flat metrics dict as OpenMetrics exposition text.

    Histogram summary dicts (the registry's ``{count, min, mean, p50,
    p90, p99, max}`` shape) expand into one series per statistic;
    string-valued gauges are skipped.  The output is sorted, each series
    preceded by its ``# TYPE`` declaration, and terminated by ``# EOF``
    as the OpenMetrics spec requires.
    """
    series: Dict[str, float] = {}
    for name, value in metrics.items():
        if isinstance(value, Mapping):
            for stat in _HISTOGRAM_STATS:
                if stat not in value:
                    continue
                stat_value = _numeric(value[stat])
                if stat_value is not None:
                    series[metric_name(f"{name}.{stat}", prefix)] = stat_value
            continue
        sample = _numeric(value)
        if sample is not None:
            series[metric_name(name, prefix)] = sample
    lines = []
    for name in sorted(series):
        short = name[len(prefix):] if name.startswith(prefix) else name
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"# HELP {name} repro metric {short}")
        lines.append(f"{name} {_format_value(series[name])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics_file(path: str, metrics: Mapping[str, Any]) -> None:
    """Write one OpenMetrics snapshot to ``path`` (textfile-collector shape)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_openmetrics(metrics))


class _Handler(BaseHTTPRequestHandler):
    """Serves /metrics (OpenMetrics) and /healthz (JSON liveness)."""

    server_version = "regionwiz"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            provider = self.server.metrics_provider  # type: ignore[attr-defined]
            try:
                body = to_openmetrics(provider()).encode("utf-8")
            except Exception as exc:  # pragma: no cover - defensive
                self._send(500, "text/plain; charset=utf-8",
                           f"metrics provider failed: {exc}\n".encode())
                return
            self._send(200, OPENMETRICS_CONTENT_TYPE, body)
        elif path == "/healthz":
            payload = {
                "status": "ok",
                "run_id": self.server.run_id,  # type: ignore[attr-defined]
                "uptime_s": round(
                    time.perf_counter()
                    - self.server.started_at,  # type: ignore[attr-defined]
                    3,
                ),
            }
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            self._send(200, "application/json; charset=utf-8", body)
        else:
            self._send(404, "text/plain; charset=utf-8", b"not found\n")

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:
        """Scrapes are routine; keep them out of the CLI's stderr."""


class MetricsServer:
    """A run-scoped /metrics + /healthz endpoint on a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction (the CLI prints it to stderr before analysis starts so
    a scraper can attach immediately).  A port already in use surfaces
    as :class:`InputError` -- an operator mistake, not a crash.
    """

    def __init__(
        self,
        port: int,
        provider: Callable[[], Mapping[str, Any]],
        run_id: Optional[str] = None,
        host: str = "127.0.0.1",
    ) -> None:
        try:
            self._server = ThreadingHTTPServer((host, port), _Handler)
        except OSError as exc:
            raise InputError(
                f"--metrics-port {port}: cannot bind on {host}: {exc}"
            ) from exc
        self._server.daemon_threads = True
        self._server.metrics_provider = provider  # type: ignore[attr-defined]
        self._server.run_id = run_id  # type: ignore[attr-defined]
        self._server.started_at = time.perf_counter()  # type: ignore[attr-defined]
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="regionwiz-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        # shutdown() blocks until serve_forever() exits, so it must only
        # run when the serving thread was actually started.
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
