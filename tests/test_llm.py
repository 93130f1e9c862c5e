"""Tests for the HTTP chat backend and the scripted mock."""

import gc
import json
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
import requests

from mutkit import cli, pipeline
from mutkit.llm import (
    AuthError,
    BackendConfig,
    BackendError,
    Completion,
    HttpChatBackend,
    MockBackend,
    RetryExhaustedError,
    aggregate_usage,
    complete_batch,
    prompt_digest,
)
from test_pipeline import CLAMP_FIXED, SUM_FIXED, craft_response, read_tree


def ok_body(text="hello", prompt_tokens=10, completion_tokens=5):
    return json.dumps({
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    })


class ScriptedTransport:
    """Replays a fixed sequence of (status, body) replies."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.payloads = []

    def __call__(self, url, payload, headers, timeout):
        self.payloads.append(payload)
        reply = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        if isinstance(reply, Exception):
            raise reply
        return reply


def make_backend(replies, **overrides):
    config = BackendConfig(endpoint="http://llm/v1/chat", model="test-model",
                           backoff_base=0.01, **overrides)
    transport = ScriptedTransport(replies)
    backend = HttpChatBackend(config, transport=transport, sleep=lambda s: None)
    return backend, transport


class TestHttpChatBackend:
    def test_success_parses_text_and_usage(self):
        backend, transport = make_backend([(200, ok_body("reply text"))])
        completion = backend.complete("a prompt")
        assert completion.text == "reply text"
        assert completion.prompt_tokens == 10
        assert completion.completion_tokens == 5
        assert completion.retries == 0
        assert transport.payloads[0]["messages"] == [
            {"role": "user", "content": "a prompt"}]

    def test_429_twice_then_200_succeeds_after_two_retries(self):
        backend, transport = make_backend([
            (429, "slow down"), (429, "slow down"), (200, ok_body())])
        completion = backend.complete("p")
        assert completion.retries == 2
        assert transport.calls == 3

    def test_retries_exhausted_carries_last_status(self):
        backend, transport = make_backend([(503, "down")], max_retries=2)
        with pytest.raises(RetryExhaustedError) as err:
            backend.complete("p")
        assert err.value.last_status == 503
        assert transport.calls == 3

    def test_auth_failure_not_retried(self):
        backend, transport = make_backend([(401, "no key")])
        with pytest.raises(AuthError):
            backend.complete("p")
        assert transport.calls == 1

    def test_connection_errors_are_retried(self):
        backend, transport = make_backend([
            ConnectionError("refused"), (200, ok_body())])
        completion = backend.complete("p")
        assert completion.retries == 1

    def test_a_transport_error_that_is_not_an_os_error_is_not_retried(self):
        backend, transport = make_backend([TypeError("bad payload"), (200, ok_body())])
        with pytest.raises(TypeError, match="bad payload"):
            backend.complete("p")
        assert transport.calls == 1

    def test_malformed_reply_rejected(self):
        backend, _ = make_backend([(200, '{"weird": true}')])
        with pytest.raises(BackendError, match="malformed"):
            backend.complete("p")

    @pytest.mark.parametrize("reply", [
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": ["text"]}}]},
        {"choices": [{"message": {"content": "x"}}], "usage": [3, 2]},
        {"choices": [{"message": {"content": "x"}}],
         "usage": {"prompt_tokens": None, "completion_tokens": 2}},
        {"choices": [{"message": {"content": "x"}}],
         "usage": {"prompt_tokens": 3, "completion_tokens": "many"}},
        {"choices": [{"message": {"content": "x"}}],
         "usage": {"prompt_tokens": {}, "completion_tokens": 2}},
    ])
    def test_a_malformed_reply_is_that_prompts_error(self, monkeypatch, reply):
        monkeypatch.setattr(HttpChatBackend, "in_flight", 1)
        backend, transport = make_backend([(200, json.dumps(reply)), (200, ok_body("ok"))])
        results = complete_batch(backend, [("bad", "p1"), ("good", "p2")])
        (_, bad), (_, good) = results
        assert isinstance(bad, BackendError)
        assert str(bad).startswith("malformed server reply: ")
        assert good.text == "ok"
        assert transport.calls == 2

    def test_an_endpoint_requests_cannot_use_fails_at_once(self, monkeypatch):
        posts, sleeps = [], []

        def post(session, url, **kwargs):
            posts.append(url)
            raise requests.exceptions.InvalidSchema(
                f"No connection adapters were found for {url!r}")

        monkeypatch.setattr(requests.Session, "post", post)
        config = BackendConfig(endpoint="localhost:8000/v1/chat")
        backend = HttpChatBackend(config, sleep=sleeps.append)
        with pytest.raises(BackendError) as caught:
            backend.complete("p")
        assert not isinstance(caught.value, RetryExhaustedError)
        assert "'localhost:8000/v1/chat'" in str(caught.value)
        assert (posts, sleeps) == (["localhost:8000/v1/chat"], [])

    def test_temperature_omitted_by_default(self):
        backend, transport = make_backend([(200, ok_body())])
        backend.complete("p")
        assert "temperature" not in transport.payloads[0]

    def test_temperature_and_max_tokens_are_sent_when_set(self):
        backend, transport = make_backend([(200, ok_body())], temperature=0.0, max_tokens=256)
        backend.complete("p")
        assert (transport.payloads[0]["temperature"], transport.payloads[0]["max_tokens"]) \
            == (0.0, 256)

    def test_an_empty_endpoint_is_rejected(self):
        with pytest.raises(BackendError, match="endpoint is required"):
            HttpChatBackend(BackendConfig(model="m"))

    def test_an_unexpected_status_fails_without_a_retry(self):
        backend, transport = make_backend([(404, "no such model"), (200, ok_body())])
        with pytest.raises(BackendError, match="unexpected HTTP 404: no such model") as caught:
            backend.complete("p")
        assert not isinstance(caught.value, RetryExhaustedError)
        assert transport.calls == 1

    def test_api_key_header_from_env(self, monkeypatch):
        monkeypatch.setenv("MUTKIT_API_KEY", "sk-test")
        seen = {}

        def transport(url, payload, headers, timeout):
            seen.update(headers)
            return 200, ok_body()

        config = BackendConfig(endpoint="http://llm/v1/chat")
        HttpChatBackend(config, transport=transport).complete("p")
        assert seen["Authorization"] == "Bearer sk-test"

    def test_config_validation(self):
        with pytest.raises(BackendError):
            BackendConfig(max_retries=-1)


class TestMockBackend:
    def test_scripted_reply_verbatim(self):
        prompt = "generate 3 mutants"
        backend = MockBackend({prompt_digest(prompt): Completion(
            text="<json>[]</json>", prompt_tokens=7, completion_tokens=3)})
        completion = backend.complete(prompt)
        assert completion.text == "<json>[]</json>"
        assert completion.prompt_tokens == 7

    def test_bit_reproducible(self, tmp_path):
        prompts = [f"prompt {i}" for i in range(5)]
        path = tmp_path / "script.jsonl"
        path.write_text("".join(json.dumps({
            "prompt_digest": prompt_digest(p),
            "response_text": f"reply {i}",
            "prompt_tokens": i,
            "completion_tokens": i,
        }) + "\n" for i, p in enumerate(prompts)))
        config = pipeline.PipelineConfig(backend={"mode": "mock", "script": str(path)})
        first = [pipeline.make_backend(config).complete(p).text for p in prompts]
        second = [pipeline.make_backend(config).complete(p).text for p in prompts]
        assert first == second == [f"reply {i}" for i in range(5)]

    def test_unscripted_prompt_fails_and_records(self, tmp_path):
        record_path = tmp_path / "unmatched.jsonl"
        backend = MockBackend({}, record_path=str(record_path))
        with pytest.raises(BackendError, match="no scripted reply"):
            backend.complete("novel prompt")
        backend.end_batch()
        recorded = json.loads(record_path.read_text().strip())
        assert recorded["prompt"] == "novel prompt"
        assert recorded["prompt_digest"] == prompt_digest("novel prompt")

    def test_recorded_batches_write_the_same_bytes(self, tmp_path, monkeypatch):
        # Two threads, so the record is appended to in interleaved order.
        monkeypatch.setattr(MockBackend, "in_flight", 2)
        prompts = [(f"p{i}", f"prompt number {i}") for i in range(40)]
        prompts.append(("again", "prompt number 3"))
        paths = [tmp_path / f"record-{run}.jsonl" for run in range(2)]
        for path in paths:
            results = complete_batch(MockBackend({}, record_path=str(path)), prompts)
            assert all(isinstance(result, BackendError) for _, result in results)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        recorded = [json.loads(line) for line in
                    paths[0].read_text(encoding="utf-8").splitlines()]
        digests = [record["prompt_digest"] for record in recorded]
        assert digests == sorted({prompt_digest(p) for _, p in prompts})

    def test_a_batch_the_script_answers_leaves_the_record_file_alone(self, tmp_path):
        record_path = tmp_path / "record.jsonl"
        record_path.write_bytes(b"not json\n\xff")
        replies = {prompt_digest(f"p{i}"): Completion(text=f"r{i}") for i in range(3)}
        backend = MockBackend(replies, record_path=str(record_path))
        results = complete_batch(backend, [(f"id{i}", f"p{i}") for i in range(3)])
        assert [result.text for _, result in results] == ["r0", "r1", "r2"]
        assert record_path.read_bytes() == b"not json\n\xff"

    def test_a_record_file_that_is_not_json_is_replaced_not_read(self, tmp_path, capsys):
        (tmp_path / "targets.jsonl").write_text(json.dumps(
            {"bug_id": "Clamp-1", "method": CLAMP_FIXED}) + "\n", encoding="utf-8")

        def generate(record_path):
            config = tmp_path / "run.json"
            config.write_text(json.dumps({
                "output_dir": str(tmp_path / "out"), "retrieval": False,
                "backend": {"mode": "mock", "record": str(record_path)}}))
            code = cli.main(["generate", "--config", str(config),
                             "--targets", str(tmp_path / "targets.jsonl")])
            assert "Traceback" not in capsys.readouterr().err
            return code

        fresh, stale = tmp_path / "fresh.jsonl", tmp_path / "stale.jsonl"
        stale.write_bytes(b'not json\n{"prompt_digest": 7}\n\xff\n')
        assert generate(stale) == generate(fresh)
        assert stale.read_bytes() == fresh.read_bytes()
        digests = [json.loads(line)["prompt_digest"]
                   for line in fresh.read_text(encoding="utf-8").splitlines()]
        assert digests and digests == sorted(set(digests))


class TestCompleteBatch:
    @staticmethod
    def backend_for(replies: dict) -> MockBackend:
        return MockBackend({prompt_digest(k): Completion(
            text=v, prompt_tokens=len(k), completion_tokens=len(v))
            for k, v in replies.items()})

    def test_sequential_order_preserved_with_limit_one(self):
        assert MockBackend.in_flight == 1
        backend = self.backend_for({"a": "ra", "b": "rb", "c": "rc"})
        results = complete_batch(backend, [("i1", "a"), ("i2", "b"), ("i3", "c")])
        assert [(pid, r.text) for pid, r in results] == [
            ("i1", "ra"), ("i2", "rb"), ("i3", "rc")]

    def test_failures_isolated_per_item(self, monkeypatch):
        monkeypatch.setattr(MockBackend, "in_flight", 2)
        backend = self.backend_for({"a": "ra", "c": "rc"})
        results = complete_batch(backend, [("i1", "a"), ("i2", "missing"), ("i3", "c")])
        assert results[0][1].text == "ra"
        assert isinstance(results[1][1], BackendError)
        assert results[2][1].text == "rc"

    def test_token_accounting_matches_scripted_sum(self, monkeypatch):
        monkeypatch.setattr(MockBackend, "in_flight", 3)
        replies = {"aa": "x", "bbb": "yy", "c": "zzz"}
        backend = self.backend_for(replies)
        results = complete_batch(backend, [(k, k) for k in replies])
        usage = aggregate_usage(results)
        assert usage == {"prompt_tokens": 2 + 3 + 1, "completion_tokens": 1 + 2 + 3}

    def test_empty_batch_returns_nothing(self):
        assert complete_batch(MockBackend({}), []) == []


def eighteen_targets() -> list[pipeline.TargetSpec]:
    """Six targets that, without retrieval, send 18 prompts."""
    return [pipeline.TargetSpec(bug_id=f"{name}-{i}", method=method)
            for name, method in (("Clamp", CLAMP_FIXED), ("Sum", SUM_FIXED))
            for i in (1, 2, 3)]


def chat_reply(payload: dict) -> str:
    """The reply body the e2e fixtures expect for a chat payload."""
    return ok_body(craft_response(payload["messages"][0]["content"]))


def generate_over(transport, output_dir) -> pipeline.GenerateOutcome:
    """Run generate on the 18-prompt targets over an HTTP backend with ``transport``."""
    config = pipeline.PipelineConfig(output_dir=str(output_dir), retrieval=False, workers=1)
    backend = HttpChatBackend(BackendConfig(endpoint="http://llm/v1/chat"),
                              transport=transport)
    return pipeline.run_generate(config, eighteen_targets(), backend=backend)


class PeakTransport:
    """Answers with ``reply(payload)`` and records the peak number of calls
    in flight.

    Each call waits, up to two seconds, until ``gather`` calls have
    started, so a window that admits that many shows them all at once.
    """

    def __init__(self, gather: int = 1, reply=chat_reply):
        self.gather = gather
        self.reply = reply
        self.started = self.active = self.peak = 0
        self.cond = threading.Condition()

    def __call__(self, url, payload, headers, timeout):
        with self.cond:
            self.started += 1
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.cond.notify_all()
            self.cond.wait_for(lambda: self.started >= self.gather, timeout=2.0)
        try:
            return 200, self.reply(payload)
        finally:
            with self.cond:
                self.active -= 1


class ReverseTransport:
    """Holds each call until the call that arrived after it has finished,
    so ``count`` calls in flight at once finish in reverse arrival order."""

    def __init__(self, count: int):
        self.count = count
        self.arrived = 0
        self.finished: list[int] = []
        self.done = [threading.Event() for _ in range(count)]
        self.lock = threading.Lock()

    def __call__(self, url, payload, headers, timeout):
        with self.lock:
            index, self.arrived = self.arrived, self.arrived + 1
        if index + 1 < self.count:
            self.done[index + 1].wait(timeout=5.0)
        with self.lock:
            self.finished.append(index)
        self.done[index].set()
        return 200, chat_reply(payload)


class CapacityTransport:
    """An endpoint that takes ``capacity`` calls at once, holding each for
    ``hold`` seconds, and answers 429 at once to any call beyond that."""

    def __init__(self, capacity: int, hold: float = 0.01):
        self.capacity = capacity
        self.hold = hold
        self.active = self.peak = self.rejected = 0
        self.lock = threading.Lock()

    def __call__(self, url, payload, headers, timeout):
        with self.lock:
            if self.active >= self.capacity:
                self.rejected += 1
                return 429, "too many requests"
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(self.hold)
        with self.lock:
            self.active -= 1
        return 200, ok_body()


class TestInFlightWindow:
    def test_an_endpoint_that_takes_fewer_calls_still_answers_every_prompt(self):
        # Backoffs of 5, 10 and 20 ms against calls held 20 ms: like a real
        # endpoint, whose replies take longer than the first backoffs.
        transport = CapacityTransport(capacity=2, hold=0.02)
        backend = HttpChatBackend(
            BackendConfig(endpoint="http://llm/v1/chat", backoff_base=0.005),
            transport=transport)
        prompts = [(f"p{i}", f"prompt {i}") for i in range(40)]
        results = complete_batch(backend, prompts)
        assert [result for _, result in results if not isinstance(result, Completion)] == []
        assert transport.rejected > 0
        assert transport.peak == 2
        # The next batch starts from what this one learned.
        assert backend._window.limit < HttpChatBackend.in_flight

    def test_pushback_halves_the_window_once_per_round(self):
        backend = HttpChatBackend(BackendConfig(endpoint="http://llm/v1/chat"),
                                  transport=lambda *args: (200, ok_body()))
        window = backend._window
        early = [window.acquire() for _ in range(3)]
        window.release(early[0], 429)
        assert window.limit == HttpChatBackend.in_flight // 2
        window.release(early[1], 503)
        assert window.limit == HttpChatBackend.in_flight // 2
        late = window.acquire()
        window.release(late, 429)
        assert window.limit == HttpChatBackend.in_flight // 4
        # It grows by one after each ``in_flight`` 200 replies.
        window.release(early[2], 200)
        for _ in range(HttpChatBackend.in_flight - 2):
            window.release(window.acquire(), 200)
        assert window.limit == HttpChatBackend.in_flight // 4
        window.release(window.acquire(), 200)
        assert window.limit == HttpChatBackend.in_flight // 4 + 1
        assert window.active == 0

    def test_every_prompt_is_in_flight_at_once_with_one_worker(self, tmp_path):
        transport = PeakTransport(gather=18)
        outcome = generate_over(transport, tmp_path / "out")
        assert len(outcome.prompts) == 18
        assert (outcome.succeeded, outcome.failed) == (6, 0)
        assert transport.peak == 18

    def test_a_batch_never_exceeds_the_window(self, monkeypatch):
        monkeypatch.setattr(HttpChatBackend, "in_flight", 8)
        transport = PeakTransport(gather=8, reply=lambda payload: ok_body())
        backend = HttpChatBackend(BackendConfig(endpoint="http://llm/v1/chat"),
                                  transport=transport)
        prompts = [(f"p{i}", f"prompt {i}") for i in range(40)]
        results = complete_batch(backend, prompts)
        assert [prompt_id for prompt_id, _ in results] == [p for p, _ in prompts]
        assert all(isinstance(result, Completion) for _, result in results)
        assert (transport.started, transport.peak) == (40, 8)

    def test_reverse_completion_writes_the_in_order_bytes(self, tmp_path, monkeypatch):
        reverse = ReverseTransport(18)
        generate_over(reverse, tmp_path / "reverse")
        assert reverse.finished == list(range(17, -1, -1))
        monkeypatch.setattr(HttpChatBackend, "in_flight", 1)
        generate_over(PeakTransport(), tmp_path / "in-order")
        reversed_tree = read_tree(tmp_path / "reverse")
        assert {"prompts.jsonl", "manifest.jsonl", "summary.json"} <= set(reversed_tree)
        assert reversed_tree == read_tree(tmp_path / "in-order")


class ChatHandler(BaseHTTPRequestHandler):
    """Chat-completions endpoint answering like the e2e fixtures."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = chat_reply(payload).encode("utf-8")
        head = (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        # Head and body in one send: a second small write would wait out
        # the client's delayed ACK (about 40 ms on Linux).
        self.wfile.write(head + body)

    def log_message(self, format, *args):
        pass


class CountingServer(ThreadingHTTPServer):
    """Loopback server that counts the connections it accepts and the ones
    still open."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.connections = self.open = 0
        self.cond = threading.Condition()

    def process_request(self, request, client_address):
        with self.cond:
            self.connections += 1
            self.open += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.cond:
            self.open -= 1
            self.cond.notify_all()

    def all_closed(self) -> bool:
        """Whether every connection is closed within two seconds."""
        with self.cond:
            return self.cond.wait_for(lambda: self.open == 0, timeout=2.0)


@pytest.fixture
def loopback():
    server = CountingServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


class TestRequestsTransport:
    def test_generate_over_requests_writes_the_injected_transport_bytes(
            self, tmp_path, monkeypatch, loopback):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        monkeypatch.setattr(HttpChatBackend, "in_flight", 2)
        endpoint = f"http://127.0.0.1:{loopback.server_address[1]}/v1/chat"
        config = BackendConfig(endpoint=endpoint, model="test-model")
        trees = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name, transport in (("real", None),
                                    ("injected", lambda *args: (200, chat_reply(args[1])))):
                output = tmp_path / name
                outcome = pipeline.run_generate(
                    pipeline.PipelineConfig(output_dir=str(output), retrieval=False),
                    eighteen_targets(), backend=HttpChatBackend(config, transport=transport))
                assert len(outcome.prompts) == 18
                assert not any(row["error"] for row in outcome.prompts)
                # The batch closes its keep-alive connections as it ends.
                assert loopback.all_closed()
                trees[name] = read_tree(output)
            gc.collect()
        assert trees["real"] == trees["injected"]
        assert 1 <= loopback.connections <= 2
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_every_thread_session_is_closed_when_the_batch_ends(self, monkeypatch):
        made = []

        class CountingSession:
            def __init__(self):
                self.posts = 0
                self.closed = False
                made.append(self)

            def post(self, url, **kwargs):
                self.posts += 1
                time.sleep(0.001)
                return SimpleNamespace(status_code=200, text=ok_body())

            def close(self):
                self.closed = True

        monkeypatch.setattr(requests, "Session", CountingSession)
        backend = HttpChatBackend(BackendConfig(endpoint="http://llm/v1/chat"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = complete_batch(backend, [(f"p{i}", f"prompt {i}") for i in range(200)])
        finally:
            sys.setswitchinterval(interval)
        assert all(isinstance(result, Completion) for _, result in results)
        assert 1 <= len(made) <= HttpChatBackend.in_flight
        assert sum(session.posts for session in made) == 200
        assert all(session.closed for session in made)
