"""Shared fixtures: the bundled synthetic corpus, gateway configs, and a
scriptable chat-completions stub server for exercising the http backend."""

from __future__ import annotations

import json
import struct
import threading
import time
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import strategies as st

from reportguide.gateway import GatewayConfig
from reportguide.synthetic import build_synthetic_corpus, write_synthetic_corpus


# JSON that `json.loads` refuses without a JSONDecodeError: an array nested
# past the recursion limit (RecursionError; 3.11 fails at 1,000 levels, 3.13
# parses 5,000), and an integer literal longer than
# `sys.get_int_max_str_digits()` (a plain ValueError).
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT = "9" * 5_000


def sections_footer(blob: bytes) -> tuple[dict, int]:
    """The footer line of the sections file `blob`, decoded, and its offset:
    the sections fill the bytes before it."""
    (length,) = struct.unpack(">I", blob[-4:])
    return json.loads(blob[-4 - length:-4]), len(blob) - 4 - length


def with_sections_footer(blob: bytes, footer: bytes) -> bytes:
    """The sections file `blob` with `footer` as its footer line."""
    line = footer + b"\n"
    return blob[: sections_footer(blob)[1]] + line + struct.pack(">I", len(line))


# Characters that JSON string writers get wrong: a quote, a backslash,
# control characters, DEL, U+2028/U+2029, and non-ASCII text of two, three
# and four UTF-8 bytes.
_JSON_SPECIAL_CHARACTERS = (
    '"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "肺", "😀"
)


def json_strings(min_size: int = 0) -> st.SearchStrategy[str]:
    """Text that exercises every way a JSON string writer can go wrong:
    quotes, backslashes, control characters, non-ASCII text, U+2028/U+2029
    and lone surrogates, among any other characters.

    A string is a run of any characters but surrogates, a run of the special
    characters and a run of lone surrogates, at most 20 in all. Each run is
    one draw of a character set, which costs a fraction of drawing each
    character from a choice of sets."""
    return st.tuples(
        st.text(st.characters(), min_size=min_size, max_size=10),
        st.text(_JSON_SPECIAL_CHARACTERS, max_size=5),
        st.text(st.characters(categories=["Cs"]), max_size=5),  # lone surrogates
    ).map("".join)


# One pass/fail line per acceptance criterion, echoed after the test summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def synth():
    """The in-memory synthetic corpus (records, features, ground truth)."""
    return build_synthetic_corpus()


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    """The synthetic corpus materialized as pipeline input files."""
    out = tmp_path_factory.mktemp("synth")
    write_synthetic_corpus(out)
    return out


@pytest.fixture()
def mock_gateway():
    return GatewayConfig(backend="mock")


class StubChatServer:
    """Minimal scriptable OpenAI-style chat-completions endpoint.

    `script` is a list of HTTP status codes consumed one per request; once
    exhausted every request succeeds with status 200 and a fixed reply, or
    with the raw bytes of `body` in place of the whole reply when given.
    A callable `reply` is called with each request document and returns
    that request's reply text.
    Records request payloads and targets, counts the connections it accepts
    and closes, and tracks the maximum number of requests that were in
    flight simultaneously.

    By default it speaks HTTP/1.0 and closes every connection after one
    reply. `keep_alive=True` speaks HTTP/1.1 with persistent connections
    (error replies then carry Content-Length too), and `idle_timeout` closes
    a connection that waits that many seconds for its next request.
    """

    def __init__(
        self,
        script=None,
        reply: str | Callable[[dict], str] = "stub-reply",
        body: bytes | None = None,
        delay: float = 0.0,
        keep_alive: bool = False,
        idle_timeout: float | None = None,
    ):
        self.script = list(script or [])
        self.reply = reply
        self.body = body
        self.delay = delay
        self.requests: list[dict] = []
        self.targets: list[str] = []
        self.connections = 0
        self.closed = 0
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            timeout = idle_timeout

            def log_message(self, *args):  # keep test output quiet
                pass

            def setup(self):
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def do_POST(self):
                with stub._lock:
                    stub._in_flight += 1
                    stub.max_in_flight = max(stub.max_in_flight, stub._in_flight)
                try:
                    if stub.delay:
                        time.sleep(stub.delay)
                    length = int(self.headers.get("Content-Length", "0"))
                    body = self.rfile.read(length)
                    with stub._lock:
                        request = json.loads(body)
                        stub.requests.append(request)
                        stub.targets.append(self.path)
                        status = stub.script.pop(0) if stub.script else 200
                    if status != 200:
                        error = b'{"error": "scripted failure"}'
                        self.send_response(status)
                        self.send_header("Content-Type", "application/json")
                        if keep_alive:
                            self.send_header("Content-Length", str(len(error)))
                        self.end_headers()
                        self.wfile.write(error)
                        return
                    reply = stub.reply(request) if callable(stub.reply) else stub.reply
                    doc = {
                        "choices": [{"message": {"content": reply}}],
                        "usage": {"prompt_tokens": 5, "completion_tokens": 7},
                    }
                    payload = stub.body or json.dumps(doc).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                finally:
                    with stub._lock:
                        stub._in_flight -= 1

        class Server(ThreadingHTTPServer):
            def shutdown_request(self, request):
                super().shutdown_request(request)
                with stub._lock:
                    stub.closed += 1

        self._httpd = Server(("127.0.0.1", 0), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._httpd.shutdown()
        self._httpd.server_close()
        return False


@pytest.fixture()
def stub_server_factory():
    """Yields a factory for stub servers that are all torn down afterwards."""
    servers: list[StubChatServer] = []

    def make(**kwargs) -> StubChatServer:
        server = StubChatServer(**kwargs)
        server.__enter__()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.__exit__(None, None, None)
