"""Unit tests for the resilience layer: policy, faults, campaign fingerprints."""

import pytest

from repro.expdb.store import fingerprint_of
from repro.resilience import faultpoints
from repro.resilience.faultpoints import FaultSpec, InjectedFault
from repro.resilience.policy import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    BACKOFF_FACTOR,
    RetryPolicy,
    TaskFailure,
)


@pytest.fixture(autouse=True)
def _clean_state():
    faultpoints.install(None)
    yield
    faultpoints.install(None)


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        assert (BACKOFF_BASE_S, BACKOFF_FACTOR, BACKOFF_CAP_S) == (0.05, 2.0, 2.0)
        p = RetryPolicy()
        assert p.backoff_s(0) == pytest.approx(BACKOFF_BASE_S)
        assert p.backoff_s(1) == pytest.approx(BACKOFF_BASE_S * BACKOFF_FACTOR)
        assert p.backoff_s(2) == pytest.approx(BACKOFF_BASE_S * BACKOFF_FACTOR**2)
        assert p.backoff_s(10) == BACKOFF_CAP_S  # capped
        assert [p.backoff_s(i) for i in range(4)] == [
            p.backoff_s(i) for i in range(4)
        ]

    def test_failure_describe(self):
        f = TaskFailure(key="t/x", kind="timeout", message="m", attempts=3)
        assert f.describe() == "FAILED: timeout after 3 tries"
        one = TaskFailure(key="t/x", kind="crash", message="m", attempts=1)
        assert one.describe() == "FAILED: crash after 1 try"


class TestFaultpoints:
    def test_parse_triples(self):
        specs = faultpoints.parse("runner.task:s298:crash_once, a:b:flaky3")
        assert specs == [
            FaultSpec(point="runner.task", key="s298", mode="crash_once"),
            FaultSpec(point="a", key="b", mode="flaky3"),
        ]

    def test_parse_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="nocolons"):
            faultpoints.parse("nocolons")

    def test_parse_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="explode"):
            faultpoints.parse("runner.task:s298:explode")
        with pytest.raises(ValueError, match="'drop'"):
            faultpoints.parse("net:worker.reply:drop")

    def test_error_mode_raises_every_attempt(self):
        faultpoints.install("p:key:error")
        for attempt in (0, 1, 5):
            with pytest.raises(InjectedFault):
                faultpoints.check("p", "task/key", attempt)

    def test_once_modes_fire_only_on_first_attempt(self):
        faultpoints.install("p:key:error_once")
        with pytest.raises(InjectedFault):
            faultpoints.check("p", "task/key", 0)
        faultpoints.check("p", "task/key", 1)  # retry succeeds

    def test_flaky_fires_first_n_attempts(self):
        faultpoints.install("p:key:flaky2")
        for attempt in (0, 1):
            with pytest.raises(InjectedFault):
                faultpoints.check("p", "task/key", attempt)
        faultpoints.check("p", "task/key", 2)

    def test_point_and_key_must_match(self):
        faultpoints.install("p:s298:error")
        faultpoints.check("other.point", "s298", 0)
        faultpoints.check("p", "s344", 0)
        with pytest.raises(InjectedFault):
            faultpoints.check("p", "table4.3/s298", 0)

    def test_inline_crash_raises_instead_of_exiting(self):
        faultpoints.install("p:key:crash")
        with pytest.raises(InjectedFault):
            faultpoints.check("p", "key", 0, in_worker=False)

    def test_install_none_disarms(self):
        faultpoints.install("p:key:error")
        faultpoints.install(None)
        faultpoints.check("p", "key", 0)
        assert faultpoints.active_spec() is None

    def test_active_spec_round_trips(self):
        faultpoints.install("p:key:flaky2,q:r:hang_once")
        assert faultpoints.parse(faultpoints.active_spec()) == faultpoints.parse(
            "p:key:flaky2,q:r:hang_once"
        )


class TestFingerprint:
    def test_stable_across_dict_ordering(self):
        a = fingerprint_of({"targets": ("s27",), "config": {"x": 1, "y": 2}})
        b = fingerprint_of({"config": {"y": 2, "x": 1}, "targets": ("s27",)})
        assert a == b

    def test_distinct_across_params(self):
        a = fingerprint_of({"targets": ("s27",)})
        b = fingerprint_of({"targets": ("s298",)})
        assert a != b

    def test_handles_dataclasses(self):
        assert fingerprint_of(RetryPolicy()) == fingerprint_of(RetryPolicy())
        assert fingerprint_of(RetryPolicy()) != fingerprint_of(
            RetryPolicy(max_retries=9)
        )
