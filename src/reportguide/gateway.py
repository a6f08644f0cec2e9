"""LLM gateway: one entry point for chat-completion calls.

Two backends share the `complete()` interface. The `http` backend speaks the
OpenAI-compatible chat-completions wire format over pooled keep-alive
connections, with bounded retries, a parallelism cap, and request-rate
spacing; a request already answered in the call log gets the logged reply
instead of being sent again. The `mock` backend is a pure function of the
request, routed by a sentinel tag embedded in the system prompt, so every
pipeline stage can run offline and byte-reproducibly. `schema` declares
`GatewayConfig`, the settings of a call.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from typing import NamedTuple
from urllib.parse import unquote, urlsplit

from . import __version__
from .errors import ConfigError, DataError, GatewayError, LLMOutputError
from .fileio import lone_surrogate, read_text
from .schema import GatewayConfig
from .textnorm import CJK_CLASS, alias_key, match_key

logger = logging.getLogger(__name__)

# Retryable HTTP statuses: rate limiting and server-side failures.
_RETRY_STATUSES = frozenset({429, 500, 502, 503, 504})

# Seconds before the first retry; each further retry doubles it.
RETRY_BASE_DELAY = 0.25

# Appended to the user message of the one reprompt after unparseable output.
REPROMPT_SUFFIX = "\n\nReturn only the JSON array. No prose, no code fences."


class ChatRequest(NamedTuple):
    """A single chat-completion call: one system prompt, one user message."""

    system: str
    user: str
    temperature: float = 0.0
    max_tokens: int = 2048


class ChatResponse(NamedTuple):
    text: str
    input_tokens: int
    output_tokens: int
    latency_ms: float = 0.0


_CJK_CHAR = f"[{CJK_CLASS}]"


def estimate_tokens(text: str) -> int:
    """Deterministic token-count heuristic used for prompt budgeting.

    One token per CJK ideograph plus one per four remaining characters,
    rounded up. Monotone under concatenation; never returns a negative.
    """
    cjk = 0 if text.isascii() else len(re.compile(_CJK_CHAR).findall(text))
    latin = len(text) - cjk
    return math.ceil(latin / 4) + cjk


# ---------------------------------------------------------------------------
# Tolerant output parsing
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n?|```")


def strip_code_fences(text: str) -> str:
    return _FENCE_RE.sub("", text)


def _find_json_span(text: str, open_ch: str, close_ch: str) -> str | None:
    start = text.find(open_ch)
    end = text.rfind(close_ch)
    if start == -1 or end == -1 or end <= start:
        return None
    return text[start : end + 1]


def _parse_array(text: str, invalid: str) -> list:
    """The JSON array in possibly noisy LLM output, ignoring code fences and
    prose around it; else LLMOutputError carrying the raw text. An array
    whose string escapes decode to a lone surrogate is unparseable too: no
    artifact could hold a label or entity made from it."""
    span = _find_json_span(strip_code_fences(text), "[", "]")
    if span is None:
        raise LLMOutputError("no JSON array found in LLM output")
    try:
        data = json.loads(span)
    except (ValueError, RecursionError) as exc:
        raise LLMOutputError(f"{invalid}: {exc}") from exc
    # Only a `\uD...` escape decodes to a lone surrogate.
    if ("\\ud" in span or "\\uD" in span) and (
        char := lone_surrogate(json.dumps(data, ensure_ascii=False))
    ):
        raise LLMOutputError(f"{invalid}: a string escape decodes to the lone surrogate {char!r}")
    return data


def parse_string_list(text: str) -> list[str]:
    """Parse a JSON array of strings out of possibly noisy LLM output."""
    data = _parse_array(text, "invalid JSON array in LLM output")
    if not all(isinstance(x, str) for x in data):
        raise LLMOutputError("LLM output is not an array of strings")
    return data


def parse_string_groups(text: str) -> list[list[str]]:
    """Parse a JSON array of arrays of strings (synonym groups)."""
    data = _parse_array(text, "invalid JSON in LLM output")
    for item in data:
        if not isinstance(item, list) or not item or not all(isinstance(x, str) for x in item):
            raise LLMOutputError("LLM output group is not a non-empty string array")
    return data


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------

# Sentinel tags routing mock behavior. Prompt files embed exactly one of these.
SENTINEL_EXTRACT = "[task:extract]"
SENTINEL_MERGE = "[task:merge]"
SENTINEL_ANNOTATE = "[task:annotate]"
SENTINEL_ENTITIES = "[task:entities]"

# Keyword -> canonical finding name. Scanning is case-insensitive substring
# matching, so keywords for different findings must never contain each other.
# The lowercased canonical name itself is always an implicit keyword, which
# keeps generated phrases ("X is present.") extractable back to X.
MOCK_LEXICON: tuple[tuple[str, str], ...] = (
    ("pulmonary tuberculosis", "Pulmonary tuberculosis"),
    ("tuberculosis", "Pulmonary tuberculosis"),
    ("pulmonary cavitation", "Pulmonary cavitation"),
    ("cavitation", "Pulmonary cavitation"),
    ("cavity", "Pulmonary cavitation"),
    ("pleural effusion", "Pleural effusion"),
    ("pulmonary infiltrates", "Pulmonary infiltrates"),
    ("infiltrates", "Pulmonary infiltrates"),
    ("pulmonary fibrosis", "Pulmonary fibrosis"),
    ("fibrotic streaking", "Pulmonary fibrosis"),
    ("lymphadenopathy", "Lymphadenopathy"),
    ("enlarged lymph nodes", "Lymphadenopathy"),
    ("pleural thickening", "Pleural thickening"),
    ("thickened pleura", "Pleural thickening"),
    ("calcified granuloma", "Calcified granuloma"),
    ("calcification", "Calcified granuloma"),
    ("consolidation", "Consolidation"),
    ("airspace opacity", "Consolidation"),
    ("atelectasis", "Atelectasis"),
    ("volume loss", "Atelectasis"),
    ("pneumothorax", "Pneumothorax"),
    ("cardiomegaly", "Cardiomegaly"),
    ("enlarged cardiac silhouette", "Cardiomegaly"),
    ("miliary nodules", "Miliary nodules"),
    ("miliary pattern", "Miliary nodules"),
    ("hilar prominence", "Hilar prominence"),
    ("prominent hilum", "Hilar prominence"),
    ("bronchiectasis", "Bronchiectasis"),
    ("apical scarring", "Apical scarring"),
    ("apical scar", "Apical scarring"),
    ("secondary ptb", "secondary PTB"),
    ("right upper field", "right upper field"),
)

# Synonym classes for the mock merge step: variant key -> canonical key.
# Keys are alias_key() forms. The canonical surface is chosen among the
# input labels, so the mock never invents labels that were not offered.
MOCK_SYNONYMS: dict[str, str] = {
    "tb": "pulmonary tuberculosis",
    "tuberculosis": "pulmonary tuberculosis",
    "ptb": "pulmonary tuberculosis",
    "lung cavity": "pulmonary cavitation",
    "cavitation": "pulmonary cavitation",
    "effusion of the pleura": "pleural effusion",
    "infiltrate": "pulmonary infiltrates",
    "infiltrates": "pulmonary infiltrates",
    "fibrosis": "pulmonary fibrosis",
    "enlarged lymph nodes": "lymphadenopathy",
}


def _group_keywords(lexicon: tuple[tuple[str, str], ...]) -> dict[str, list[str]]:
    """The lexicon's keywords grouped, in lexicon order, by the match_key of
    their canonical name; the groups are keyed in first-appearance order."""
    grouped: dict[str, list[str]] = {}
    for keyword, canonical in lexicon:
        grouped.setdefault(match_key(canonical), []).append(keyword)
    return grouped


_MOCK_KEYWORDS = _group_keywords(MOCK_LEXICON)


def _mock_extract_entities(user_text: str) -> list[str]:
    text = user_text.casefold()
    found: list[str] = []
    for keyword, canonical in MOCK_LEXICON:
        if keyword in text and canonical not in found:
            found.append(canonical)
    return found


def _mock_merge(user_text: str) -> list[list[str]]:
    sets = parse_string_groups(user_text)
    order: list[str] = []  # class keys in first-appearance order
    members: dict[str, list[str]] = {}
    for label_set in sets:
        for label in label_set:
            key = alias_key(label)
            cls = MOCK_SYNONYMS.get(key, key)
            if cls not in members:
                members[cls] = []
                order.append(cls)
            members[cls].append(label)
    groups: list[list[str]] = []
    for cls in order:
        surfaces = members[cls]
        # Prefer the surface whose normalized form names the class; fall back
        # to the first-seen surface so output stays within the input labels.
        canonical = next((s for s in surfaces if alias_key(s) == cls), surfaces[0])
        seen = {alias_key(canonical)}
        group = [canonical]
        for s in surfaces:
            k = alias_key(s)
            if k not in seen:
                seen.add(k)
                group.append(s)
        groups.append(group)
    return groups


def _mock_annotate(user_text: str) -> list[str]:
    span = _find_json_span(user_text, "{", "}")
    if span is None:
        raise GatewayError("annotate request carries no JSON payload")
    try:
        payload = json.loads(span)
    except json.JSONDecodeError as exc:
        raise GatewayError(f"annotate request payload is not valid JSON: {exc}") from exc
    report = payload.get("report", "")
    labels = payload.get("labels", [])
    aliases = payload.get("aliases", {})
    text = str(report).casefold()
    hits: list[str] = []
    for name in labels:
        keywords = [str(name).casefold()]
        keywords += _MOCK_KEYWORDS.get(match_key(str(name)), [])
        keywords += [str(a).casefold() for a, n in aliases.items() if n == name]
        if any(kw in text for kw in keywords):
            hits.append(str(name))
    return hits


def _mock_complete(request: ChatRequest) -> str:
    if SENTINEL_EXTRACT in request.system or SENTINEL_ENTITIES in request.system:
        return json.dumps(_mock_extract_entities(request.user), ensure_ascii=False)
    if SENTINEL_MERGE in request.system:
        return json.dumps(_mock_merge(request.user), ensure_ascii=False)
    if SENTINEL_ANNOTATE in request.system:
        return json.dumps(_mock_annotate(request.user), ensure_ascii=False)
    raise GatewayError(
        "mock backend received a system prompt without a recognized task sentinel"
    )


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------


# Seconds a connect, send or read may block before the attempt fails.
HTTP_TIMEOUT = 120


class _Route(NamedTuple):
    """Where an endpoint's requests go: straight to its host, or through the
    environment's proxy (absolute-form targets for http, a CONNECT tunnel for
    https)."""

    scheme: str
    host: str
    port: int
    target: str
    proxy: tuple[str, int] | None = None
    proxy_auth: str | None = None

    def connect(self):
        """A new, not yet connected, keep-alive connection for this route."""
        import http.client

        host, port = self.proxy or (self.host, self.port)
        if self.scheme == "http":
            return http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT)
        conn = http.client.HTTPSConnection(
            host, port, timeout=HTTP_TIMEOUT, context=_tls_context()
        )
        if self.proxy:
            auth = {"Proxy-Authorization": self.proxy_auth} if self.proxy_auth else None
            conn.set_tunnel(self.host, self.port, headers=auth)
        return conn


@functools.cache
def _tls_context():
    # Hostname checking and CERT_REQUIRED against the system trust store
    # (SSL_CERT_FILE / SSL_CERT_DIR override it); there is no way to turn
    # verification off.
    import ssl

    return ssl.create_default_context()


# The environment variables a route depends on; urllib ignores HTTP_PROXY
# when REQUEST_METHOD says the process is a CGI script.
_PROXY_VARS = (
    "http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY",
    "REQUEST_METHOD",
)


def _route(endpoint: str) -> _Route:
    """Resolve the endpoint against the proxy environment variables. Reading
    them all through urllib costs more than the rest of a call, so a route is
    resolved once per endpoint and value of those variables."""
    return _resolve_route(endpoint, tuple(map(os.environ.get, _PROXY_VARS)))


@functools.lru_cache(maxsize=64)
def _resolve_route(endpoint: str, proxy_env: tuple) -> _Route:
    # `proxy_env` only keys the cache; urllib reads the variables itself.
    from urllib.request import getproxies, proxy_bypass

    parts = urlsplit(endpoint)
    port = parts.port or (443 if parts.scheme == "https" else 80)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    proxy = getproxies().get(parts.scheme)
    if not proxy or proxy_bypass(parts.hostname):
        return _Route(parts.scheme, parts.hostname, port, target)
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        via_port = via.port or 80
    except ValueError:  # not a number, or out of range
        via_port = None
    if via.scheme != "http" or not via.hostname or via_port is None:
        raise ConfigError(
            f"the {parts.scheme} proxy must be an http:// URL with a host and a valid port"
        )
    auth = None
    if via.username is not None:
        import base64

        user_pass = f"{unquote(via.username)}:{unquote(via.password or '')}"
        auth = "Basic " + base64.b64encode(user_pass.encode("utf-8")).decode("ascii")
    if parts.scheme == "http":
        target = f"http://{parts.netloc.rpartition('@')[2]}{target}"
    return _Route(parts.scheme, parts.hostname, port, target, (via.hostname, via_port), auth)


def _peer_closed(sock) -> bool:
    """An idle keep-alive socket that is readable has been closed by its
    peer (or holds bytes nobody asked for); either way it cannot be reused."""
    import select

    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _Limiter:
    """Shared per-endpoint concurrency cap, request-rate spacing and pool of
    idle keep-alive connections.

    A caller takes a connection only while it holds `semaphore`, so an
    endpoint never has more than `parallelism` connections open.
    """

    def __init__(self, parallelism: int, requests_per_minute: int):
        self.semaphore = threading.BoundedSemaphore(parallelism)
        self.min_interval = 60.0 / requests_per_minute
        self._lock = threading.Lock()
        self._next_start = 0.0
        self._idle: list[tuple[_Route, object]] = []  # most recently used last

    def wait_turn(self) -> None:
        with self._lock:
            now = time.monotonic()
            start_at = max(now, self._next_start)
            self._next_start = start_at + self.min_interval
        delay = start_at - now
        if delay > 0:
            time.sleep(delay)

    def checkout(self, route: _Route):
        """The most recently used idle connection on `route` that its peer
        has not closed, else a new one. Stale connections are discarded
        before a request is sent on them, never after."""
        while True:
            try:
                held_route, conn = self._idle.pop()
            except IndexError:
                return route.connect()
            if held_route == route and not _peer_closed(conn.sock):
                return conn
            conn.close()

    def checkin(self, route: _Route, conn) -> None:
        self._idle.append((route, conn))

    def close(self) -> None:
        """Close the idle connections; runs at interpreter exit."""
        while self._idle:
            self._idle.pop()[1].close()


_LIMITERS: dict[tuple, _Limiter] = {}
_LIMITERS_LOCK = threading.Lock()


def _limiter_for(config: GatewayConfig) -> _Limiter:
    key = (config.endpoint, config.parallelism, config.requests_per_minute)
    with _LIMITERS_LOCK:
        limiter = _LIMITERS.get(key)
        if limiter is None:
            limiter = _Limiter(config.parallelism, config.requests_per_minute)
            _LIMITERS[key] = limiter
            atexit.register(limiter.close)
        return limiter


def _api_key(config: GatewayConfig) -> str:
    key = os.environ.get(config.api_key_env, "")
    if not key:
        raise ConfigError(
            f"API key environment variable {config.api_key_env!r} is not set"
        )
    return key


class _CallLog:
    """One call log as this process knows it: reply text and token counts by
    request key, as read from the file whose (device, inode) is `file_id`.
    `torn` says that file ends inside a line, which the next append closes."""

    def __init__(self, path: str):
        self.path = path
        self.lock = threading.Lock()
        self.file_id: tuple[int, int] | None = None
        self.replies: dict[str, tuple[str, int, int]] = {}
        self.torn = False

    def sync(self) -> None:
        """Match the table to the file, under `lock`: empty once the file is
        gone, read anew when another file has taken its place."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            self.file_id, self.replies, self.torn = None, {}, False
            return
        except OSError as exc:
            raise DataError(f"cannot read gateway call log {self.path}: {exc}") from exc
        if (st.st_dev, st.st_ino) != self.file_id:
            text = read_text(self.path, DataError, f"gateway call log {self.path}")
            self.file_id = (st.st_dev, st.st_ino)
            self.replies = _parse_call_log(text)
            self.torn = not text.endswith("\n") and text != ""


def _parse_call_log(text: str) -> dict[str, tuple[str, int, int]]:
    """Replies by request key. A line that is not a complete entry, such as
    the torn tail of a killed run or a line written before replies were
    logged, is skipped. Lines end at newlines only: reply text may hold a
    raw U+2028."""
    replies: dict[str, tuple[str, int, int]] = {}
    for line in text.split("\n"):
        try:
            entry = json.loads(line)
            reply = (entry["text"], entry["input_tokens"], entry["output_tokens"])
            key = entry["request_sha256"]
        except (ValueError, LookupError, TypeError, RecursionError):
            continue
        # A reply holding a lone surrogate was never logged by a call
        # (`_http_complete` rejects it) and could not be written out.
        if (isinstance(key, str) and isinstance(reply[0], str) and not lone_surrogate(reply[0])
                and all(type(n) is int and n >= 0 for n in reply[1:])):
            replies.setdefault(key, reply)
    return replies


_CALL_LOGS: dict[str, _CallLog] = {}
_CALL_LOGS_LOCK = threading.Lock()


def _call_log_for(config: GatewayConfig) -> _CallLog | None:
    if not config.call_log_path:
        return None
    with _CALL_LOGS_LOCK:
        log = _CALL_LOGS.get(config.call_log_path)
        if log is None:
            log = _CALL_LOGS[config.call_log_path] = _CallLog(config.call_log_path)
        return log


def _replay(log: _CallLog | None, key: str) -> ChatResponse | None:
    """The logged reply to the request `key`, if the log holds one."""
    if log is None:
        return None
    with log.lock:
        log.sync()
        hit = log.replies.get(key)
    return None if hit is None else ChatResponse(*hit, 0.0)


def _log_call(log: _CallLog | None, key: str, model: str, response: ChatResponse) -> None:
    """Append one line for a billed call and add its reply to the table. The
    line can take more than one write(), so appends are serialized."""
    if log is None:
        return
    entry = {
        "request_sha256": key,
        "model": model,
        "input_tokens": response.input_tokens,
        "output_tokens": response.output_tokens,
        "latency_ms": round(response.latency_ms, 3),
        "timestamp": time.time(),
        "text": response.text,
    }
    line = json.dumps(entry, ensure_ascii=False) + "\n"
    with log.lock:
        log.sync()
        try:
            with open(log.path, "a", encoding="utf-8") as fh:
                fh.write("\n" + line if log.torn else line)
                st = os.fstat(fh.fileno())
        except OSError as exc:
            raise DataError(f"cannot write gateway call log {log.path}: {exc}") from exc
        log.file_id, log.torn = (st.st_dev, st.st_ino), False
        log.replies.setdefault(key, (response.text, response.input_tokens, response.output_tokens))


def _usage_count(usage: dict, key: str, text: str) -> int:
    """The reply's token count under `key` if `_parse_call_log` can replay it
    (an int >= 0), else, where usage lacks it or gives another finite number,
    an estimate from `text`. Any other value raises ValueError, or TypeError
    from `math.isfinite` if it is no number at all."""
    count = usage.get(key)
    if type(count) is int and count >= 0:
        return count
    if key in usage and not isinstance(count, int) and not math.isfinite(count):
        raise ValueError(f"usage {key} must be a finite number, got {count!r}")
    return estimate_tokens(text)


def _http_complete(request: ChatRequest, config: GatewayConfig) -> ChatResponse:
    api_key = _api_key(config)
    payload = {
        "model": config.model,
        "messages": [
            {"role": "system", "content": request.system},
            {"role": "user", "content": request.user},
        ],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    # The body names the model and every sampling parameter, so equal keys
    # mean the same request to the same endpoint.
    key = hashlib.sha256(config.endpoint.encode("utf-8") + b"\x00" + body).hexdigest()
    log = _call_log_for(config)
    replayed = _replay(log, key)
    if replayed is not None:
        return replayed
    # Imported here so that only calls that go out pay for loading the HTTP
    # stack; the mock pipeline and replayed calls never need it.
    import http.client

    limiter = _limiter_for(config)
    route = _route(config.endpoint)
    headers = {
        "Authorization": f"Bearer {api_key}",
        "Content-Type": "application/json",
        "User-Agent": f"reportguide/{__version__}",
    }
    if route.proxy_auth and route.scheme == "http":
        headers["Proxy-Authorization"] = route.proxy_auth
    last_error = "no attempt made"
    with limiter.semaphore:
        # max_retries counts retries, so the total attempt budget is one
        # initial try plus max_retries more.
        for attempt in range(config.max_retries + 1):
            if attempt > 0:
                time.sleep(RETRY_BASE_DELAY * (2 ** (attempt - 1)))
            limiter.wait_turn()
            started = time.monotonic()
            conn = limiter.checkout(route)
            try:
                conn.request("POST", route.target, body, headers)
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_error = f"transport failure: {exc}"
                logger.warning("gateway attempt %d failed: %s", attempt + 1, last_error)
                continue
            latency_ms = (time.monotonic() - started) * 1000.0
            if resp.will_close:
                conn.close()
            else:
                limiter.checkin(route, conn)
            if resp.status in _RETRY_STATUSES:
                last_error = f"retryable HTTP status {resp.status}"
                logger.warning("gateway attempt %d failed: %s", attempt + 1, last_error)
                continue
            if resp.status != 200:
                raise GatewayError(
                    f"gateway request failed with HTTP {resp.status}: "
                    f"{data.decode('utf-8', 'replace')[:500]}"
                )
            try:
                doc = json.loads(data)
                text = doc["choices"][0]["message"]["content"]
                usage = doc.get("usage") or {}
                if not (isinstance(text, str) and isinstance(usage, dict)):
                    raise TypeError("content must be a string and usage an object")
                if char := lone_surrogate(text):
                    raise ValueError(f"content holds the lone surrogate {char!r}")
                input_tokens = _usage_count(usage, "prompt_tokens", request.system + request.user)
                output_tokens = _usage_count(usage, "completion_tokens", text)
            except (ValueError, LookupError, TypeError, RecursionError) as exc:
                raise GatewayError(f"malformed chat-completion response: {exc}") from exc
            response = ChatResponse(text, input_tokens, output_tokens, latency_ms)
            _log_call(log, key, config.model, response)
            return response
    raise GatewayError(
        f"gateway gave up after {config.max_retries + 1} attempts; last error: {last_error}"
    )


def complete(request: ChatRequest, config: GatewayConfig) -> ChatResponse:
    """Run one chat call against the configured backend.

    The mock backend is referentially transparent: the same request always
    yields the same response, which is what makes full pipeline runs
    byte-reproducible.
    """
    if config.backend == "mock":
        text = _mock_complete(request)
        return ChatResponse(
            text=text,
            input_tokens=estimate_tokens(request.system + request.user),
            output_tokens=estimate_tokens(text),
            latency_ms=0.0,
        )
    return _http_complete(request, config)


def complete_with_reprompt(request: ChatRequest, config: GatewayConfig, parser):
    """Run a call and parse its text; on a parse failure, reprompt exactly once.

    The reprompt repeats the request with REPROMPT_SUFFIX appended to the
    user message. A second parse failure propagates its LLMOutputError.
    """
    text = complete(request, config).text
    try:
        return parser(text)
    except LLMOutputError:
        nudged = request._replace(user=request.user + REPROMPT_SUFFIX)
        return parser(complete(nudged, config).text)


def map_calls(fn, items, config: GatewayConfig) -> list:
    """`[fn(item) for item in items]`, for an `fn` that makes gateway calls.

    Over http the calls run on `config.parallelism` threads, which overlap
    their waits. The mock backend does no I/O, so its calls run in the
    calling thread, where a pool would only hand the interpreter lock back
    and forth.
    """
    if config.backend == "mock":
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # here, so a mock process never loads it

    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        return list(pool.map(fn, items))


def map_distinct_texts(fn, texts, config: GatewayConfig) -> dict:
    """Call `fn` once for each distinct text (`map_calls`).

    Returns text -> result in first-seen order, so thread completion order
    cannot change what a caller derives from it. A text whose call raises
    LLMOutputError maps to that error; every other error propagates.
    """
    distinct = list(dict.fromkeys(texts))

    def call(text: str):
        try:
            return fn(text)
        except LLMOutputError as exc:
            return exc

    return dict(zip(distinct, map_calls(call, distinct, config)))
