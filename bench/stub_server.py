"""Chat-completions stub for the http-stub-1k workload, run in its own process.

Every POST is answered through the package's public mock gateway
(`complete(ChatRequest(...), GatewayConfig(backend="mock"))`), after a fixed
delay standing in for model latency, in the OpenAI-compatible wire format
with a `usage` block. So an http bootstrap must write the same taxonomy and
labels as a mock one. `GET /stats` returns the counters: requests served,
request-body bytes, non-200 replies, summed server-side milliseconds and
the process's CPU seconds so far.

    PYTHONPATH=src python3 bench/stub_server.py --delay-ms 5

prints `port N` once it listens on 127.0.0.1:N, and serves until killed.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from reportguide.errors import PipelineError
from reportguide.gateway import ChatRequest, GatewayConfig, complete


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.stats = {"requests": 0, "request_bytes": 0, "non_200": 0, "server_ms": 0.0}

    def record(self, body_bytes: int, status: int, server_ms: float) -> None:
        with self.lock:
            self.stats["requests"] += 1
            self.stats["request_bytes"] += body_bytes
            self.stats["non_200"] += status != 200
            self.stats["server_ms"] += server_ms


class _Handler(BaseHTTPRequestHandler):
    server: StubServer

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _reply(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        with self.server.lock:
            stats = dict(self.server.stats)
        stats["cpu_s"] = time.process_time()
        self._reply(200 if self.path == "/stats" else 404, stats)

    def do_POST(self):
        started = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            payload = json.loads(raw)
            messages = {m["role"]: m["content"] for m in payload["messages"]}
            request = ChatRequest(
                system=messages["system"],
                user=messages["user"],
                temperature=payload.get("temperature", 0.0),
                max_tokens=payload.get("max_tokens", 2048),
            )
            response = complete(request, GatewayConfig(backend="mock"))
        except (ValueError, LookupError, TypeError, PipelineError) as exc:
            status, doc = 400, {"error": {"message": str(exc)}}
        else:
            time.sleep(self.server.delay_s)
            status = 200
            doc = {
                "object": "chat.completion",
                "model": payload.get("model", ""),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": response.text},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": response.input_tokens,
                    "completion_tokens": response.output_tokens,
                    "total_tokens": response.input_tokens + response.output_tokens,
                },
            }
        # Counted before the reply goes out, so a client that has its answer
        # never reads stats that miss it.
        self.server.record(len(raw), status, (time.perf_counter() - started) * 1000.0)
        self._reply(status, doc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chat-completions stub over the mock gateway")
    parser.add_argument("--delay-ms", type=float, default=5.0)
    args = parser.parse_args(argv)
    server = StubServer(args.delay_ms / 1000.0)
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
