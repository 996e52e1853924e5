"""Unit tests for the resilience layer: failure records, campaign fingerprints."""

from repro.expdb.store import fingerprint_of
from repro.resilience.pool import TaskFailure


class TestTaskFailure:
    def test_failure_describe(self):
        assert TaskFailure(key="t/x", kind="timeout", message="m").describe() == (
            "FAILED: timeout"
        )
        assert TaskFailure(key="t/x", kind="crash", message="m").describe() == (
            "FAILED: crash"
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
        crash = TaskFailure(key="t/x", kind="crash", message="m")
        assert fingerprint_of(crash) == fingerprint_of(TaskFailure("t/x", "crash", "m"))
        assert fingerprint_of(crash) != fingerprint_of(TaskFailure("t/x", "timeout", "m"))
