"""Chat-completion backends: a real HTTP client and a scripted offline mock.

Both backends expose complete(prompt) returning a Completion, an
``in_flight`` window and an ``end_batch()`` hook.  The HTTP client speaks
the usual chat-completions shape (messages array, single user turn),
retries transient failures with exponential backoff, and keeps up to
18 requests in flight, halving that window when the endpoint pushes back
(429 or 5xx); each window thread reuses one keep-alive connection.  The
mock replays the replies it is given, keyed on the sha256 digest of the
prompt, one prompt at a time, and can record the prompts it has no
reply for so a script can be built offline.  This module writes the
record file and reads no file; the pipeline reads mock scripts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

logger = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "MUTKIT_API_KEY"

RETRYABLE_STATUS = frozenset([429, 500, 502, 503, 504])


class BackendError(Exception):
    """Base error for completion backends."""


class AuthError(BackendError):
    """Authentication failure; never retried."""


class RetryExhaustedError(BackendError):
    """All retries failed; carries the last status seen."""

    def __init__(self, message: str, last_status: int | None):
        super().__init__(message)
        self.last_status = last_status


@dataclass
class BackendConfig:
    """Connection and batching settings for a completion backend."""

    endpoint: str = ""
    model: str = ""
    temperature: float | None = None
    max_tokens: int | None = None
    timeout: float = 60.0
    max_retries: int = 3
    api_key_env: str = DEFAULT_API_KEY_ENV
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise BackendError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 < self.timeout < math.inf:
            raise BackendError(f"timeout must be finite and > 0, got {self.timeout}")
        if not 0 <= self.backoff_base < math.inf:
            raise BackendError(
                f"backoff_base must be finite and >= 0, got {self.backoff_base}")


@dataclass
class Completion:
    """One model reply plus its token usage and retry count."""

    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    retries: int = 0


def prompt_digest(prompt: str) -> str:
    """Stable sha256 hex digest used to key scripted mock replies."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class _Window:
    """How many requests may be in flight at once, at most ``cap``.

    A retryable reply (429 or 5xx) halves the limit, once per round: a
    request sent before the last halving does not halve it again.  Each
    ``cap`` 200 replies since the last change raise it by one, back
    towards ``cap``; growing that slowly keeps an endpoint that takes one
    request at a time from refusing every other one.
    """

    def __init__(self, cap: int):
        self.cap = self.limit = cap
        self.active = self.successes = self.round = 0
        self._cond = threading.Condition()

    def acquire(self) -> int:
        """Wait for a free place; return the round the request is sent in."""
        with self._cond:
            self._cond.wait_for(lambda: self.active < self.limit)
            self.active += 1
            return self.round

    def release(self, sent_in: int, status: int | None) -> None:
        """Free the place and adjust the limit to the request's ``status``."""
        with self._cond:
            self.active -= 1
            if status in RETRYABLE_STATUS:
                if sent_in == self.round:
                    self.limit = max(1, self.limit // 2)
                    self.round += 1
                    self.successes = 0
            elif status == 200 and self.limit < self.cap:
                self.successes += 1
                if self.successes >= self.cap:
                    self.limit += 1
                    self.successes = 0
            self._cond.notify_all()


class HttpChatBackend:
    """Chat-completions HTTP client with bounded retries.

    ``transport`` is injectable for tests: a callable
    (url, payload, headers, timeout) -> (status_code, body_text).  The
    default transport gives each thread one ``requests.Session``, so a
    thread sends all its prompts over one keep-alive connection;
    ``end_batch`` closes them.  The in-flight limit a batch learns from
    429 and 5xx replies carries over to the backend's next batch.
    """

    # Requests wait on the network, not the CPU, so their window is wider
    # than the compile and suite workers'.  18 is the widest window a
    # benchmark has measured (eval-toyrunner's batches are 18 prompts);
    # an endpoint that takes fewer pushes back and the window halves.
    in_flight = 18

    def __init__(self, config: BackendConfig, transport=None, sleep=time.sleep):
        if not config.endpoint:
            raise BackendError("endpoint is required for the HTTP backend")
        self.config = config
        self._transport = transport or self._http_post
        self._sleep = sleep
        self._window = _Window(self.in_flight)
        self._local = threading.local()
        self._sessions = []
        self._lock = threading.Lock()

    def _http_post(self, url: str, payload: dict, headers: dict, timeout: float):
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
            with self._lock:
                self._sessions.append(session)
        reply = session.post(url, json=payload, headers=headers, timeout=timeout)
        return reply.status_code, reply.text

    def end_batch(self) -> None:
        """Close the keep-alive sessions the batch's threads opened."""
        with self._lock:
            sessions, self._sessions = self._sessions, []
            self._local = threading.local()
        for session in sessions:
            session.close()

    def _payload(self, prompt: str) -> dict:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        if self.config.temperature is not None:
            payload["temperature"] = self.config.temperature
        if self.config.max_tokens is not None:
            payload["max_tokens"] = self.config.max_tokens
        return payload

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, prompt: str) -> Completion:
        """Send one prompt; retry 429/5xx and connection errors with backoff.

        The request waits for a place in the backend's in-flight window,
        which it gives up before any backoff sleep.
        """
        config = self.config
        last_status: int | None = None
        for attempt in range(config.max_retries + 1):
            if attempt:
                self._sleep(config.backoff_base * (2 ** (attempt - 1)))
            sent_in = self._window.acquire()
            status = None
            try:
                status, body = self._transport(
                    config.endpoint, self._payload(prompt), self._headers(),
                    config.timeout)
            except ValueError as exc:
                # requests' URL errors (an endpoint with no scheme, say) are
                # also OSErrors, but no retry can mend them.
                raise BackendError(
                    f"cannot send a request to {config.endpoint!r}: {exc}") from exc
            except OSError as exc:
                last_status = None
                logger.warning("request failed (attempt %d): %s", attempt + 1, exc)
                continue
            finally:
                self._window.release(sent_in, status)
            if status in (401, 403):
                raise AuthError(f"authentication failed (HTTP {status})")
            if status in RETRYABLE_STATUS:
                last_status = status
                logger.warning("retryable HTTP %d (attempt %d)", status, attempt + 1)
                continue
            if status != 200:
                raise BackendError(f"unexpected HTTP {status}: {body[:200]}")
            return self._parse_body(body, retries=attempt)
        raise RetryExhaustedError(
            f"gave up after {config.max_retries} retries "
            f"(last status: {last_status})", last_status)

    @staticmethod
    def _parse_body(body: str, retries: int) -> Completion:
        try:
            parsed = json.loads(body)
            text = parsed["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {text!r:.80}, not a string")
            usage = parsed.get("usage") or {}
            if not isinstance(usage, dict):
                raise TypeError(f"usage is {usage!r:.80}, not an object")
            prompt_tokens = int(usage.get("prompt_tokens", 0))
            completion_tokens = int(usage.get("completion_tokens", 0))
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise BackendError(f"malformed server reply: {exc}") from exc
        return Completion(text=text, prompt_tokens=prompt_tokens,
                          completion_tokens=completion_tokens, retries=retries)


class MockBackend:
    """Deterministic scripted backend keyed on prompt digests.

    ``replies`` maps the sha256 digest of a prompt to its Completion;
    ``pipeline.make_backend`` reads them from a mock script file.  When
    ``record_path`` is set, each prompt with no scripted reply is kept in
    memory before the error is raised, and ``end_batch`` writes them to
    that file (digest plus full prompt), one line per digest in digest
    order, replacing whatever the file held.  That is how scripts are
    authored offline: a recorded batch writes the same bytes whatever
    order its prompts were answered in, and a batch the script answers in
    full leaves the file alone.  The backend never reads the file.
    """

    # Each reply is in-process CPU work; more threads only add hand-offs.
    in_flight = 1

    def __init__(self, replies: dict[str, Completion], record_path: str | None = None):
        self._replies = replies
        self.record_path = record_path
        self._unscripted: dict[str, str] = {}

    def complete(self, prompt: str) -> Completion:
        digest = prompt_digest(prompt)
        reply = self._replies.get(digest)
        if reply is not None:
            return Completion(text=reply.text, prompt_tokens=reply.prompt_tokens,
                              completion_tokens=reply.completion_tokens)
        if self.record_path:
            self._unscripted[digest] = prompt
        raise BackendError(f"no scripted reply for digest {digest[:12]}...")

    def end_batch(self) -> None:
        """Write the batch's unscripted prompts to the record file, if any."""
        if not self._unscripted:
            return
        unscripted, self._unscripted = self._unscripted, {}
        with open(self.record_path, "w", encoding="utf-8") as handle:
            handle.writelines(
                json.dumps({"prompt_digest": digest, "prompt": unscripted[digest]}) + "\n"
                for digest in sorted(unscripted))


def complete_batch(backend, prompts: list[tuple[str, str]]
                   ) -> list[tuple[str, Completion | BackendError]]:
    """Run many prompts with up to ``backend.in_flight`` of them in flight.

    Args:
        backend: an object with complete(prompt) -> Completion, an
            ``in_flight`` window and an ``end_batch()`` hook, which runs
            once the batch is done, even when it fails.
        prompts: (prompt_id, prompt) tuples.

    Returns:
        (prompt_id, Completion-or-BackendError) in input order, whatever
        order the replies came in; failures are isolated per item.
    """

    def run_one(prompt: str):
        try:
            return backend.complete(prompt)
        except BackendError as exc:
            return exc

    window = max(1, min(len(prompts), backend.in_flight))
    try:
        with ThreadPoolExecutor(max_workers=window) as pool:
            results = list(pool.map(run_one, [p for _, p in prompts]))
    finally:
        backend.end_batch()
    return [(prompt_id, result) for (prompt_id, _), result in zip(prompts, results)]


def aggregate_usage(results) -> dict:
    """Total token usage over batch results (errors contribute zero)."""
    prompt_tokens = 0
    completion_tokens = 0
    for _, result in results:
        if isinstance(result, Completion):
            prompt_tokens += result.prompt_tokens
            completion_tokens += result.completion_tokens
    return {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens}
