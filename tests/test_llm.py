"""Tests for the HTTP chat backend and the scripted mock."""

import json

import pytest
import requests

from mutkit import pipeline
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
    def test_a_malformed_reply_is_that_prompts_error(self, reply):
        backend, transport = make_backend([(200, json.dumps(reply)), (200, ok_body("ok"))])
        results = complete_batch(backend, [("bad", "p1"), ("good", "p2")], concurrency=1)
        (_, bad), (_, good) = results
        assert isinstance(bad, BackendError)
        assert str(bad).startswith("malformed server reply: ")
        assert good.text == "ok"
        assert transport.calls == 2

    def test_an_endpoint_requests_cannot_use_fails_at_once(self, monkeypatch):
        posts, sleeps = [], []

        def post(url, **kwargs):
            posts.append(url)
            raise requests.exceptions.InvalidSchema(
                f"No connection adapters were found for {url!r}")

        monkeypatch.setattr(requests, "post", post)
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
        recorded = json.loads(record_path.read_text().strip())
        assert recorded["prompt"] == "novel prompt"
        assert recorded["prompt_digest"] == prompt_digest("novel prompt")

    def test_recorded_batches_write_the_same_bytes(self, tmp_path):
        prompts = [(f"p{i}", f"prompt number {i}") for i in range(40)]
        prompts.append(("again", "prompt number 3"))
        paths = [tmp_path / f"record-{run}.jsonl" for run in range(2)]
        for path in paths:
            results = complete_batch(MockBackend({}, record_path=str(path)), prompts,
                                     concurrency=2)
            assert all(isinstance(result, BackendError) for _, result in results)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        recorded = [json.loads(line) for line in
                    paths[0].read_text(encoding="utf-8").splitlines()]
        digests = [record["prompt_digest"] for record in recorded]
        assert digests == sorted({prompt_digest(p) for _, p in prompts})


class TestCompleteBatch:
    @staticmethod
    def backend_for(replies: dict) -> MockBackend:
        return MockBackend({prompt_digest(k): Completion(
            text=v, prompt_tokens=len(k), completion_tokens=len(v))
            for k, v in replies.items()})

    def test_sequential_order_preserved_with_limit_one(self):
        backend = self.backend_for({"a": "ra", "b": "rb", "c": "rc"})
        results = complete_batch(backend, [("i1", "a"), ("i2", "b"), ("i3", "c")],
                                 concurrency=1)
        assert [(pid, r.text) for pid, r in results] == [
            ("i1", "ra"), ("i2", "rb"), ("i3", "rc")]

    def test_failures_isolated_per_item(self):
        backend = self.backend_for({"a": "ra", "c": "rc"})
        results = complete_batch(backend, [("i1", "a"), ("i2", "missing"), ("i3", "c")],
                                 concurrency=2)
        assert results[0][1].text == "ra"
        assert isinstance(results[1][1], BackendError)
        assert results[2][1].text == "rc"

    def test_token_accounting_matches_scripted_sum(self):
        replies = {"aa": "x", "bbb": "yy", "c": "zzz"}
        backend = self.backend_for(replies)
        results = complete_batch(backend, [(k, k) for k in replies], concurrency=3)
        usage = aggregate_usage(results)
        assert usage == {"prompt_tokens": 2 + 3 + 1, "completion_tokens": 1 + 2 + 3}

    def test_empty_batch_rejected(self):
        with pytest.raises(BackendError):
            complete_batch(MockBackend({}), [], concurrency=1)
