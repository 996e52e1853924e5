"""Table campaigns: a failed row degrades in place, and a rerun is the retry.

Every Table 4.3 row is a pure function of its task kwargs (each target
builds its own generator from ``config.rng_seed``), so a row that fails
fails the same way when run again, and running a table again -- or just
its failed targets -- reproduces the rows exactly.  There is no other
retry.
"""

from repro.core.builtin_gen import BuiltinGenConfig
from repro.experiments import tables4
from repro.experiments.tables4 import render_table_4_3, run_table_4_3
from repro.resilience.pool import TaskFailure

TINY_43 = dict(
    targets=("s27", "s298"),
    drivers=("s953",),
    config=BuiltinGenConfig(
        segment_length=40, time_limit=None, rng_seed=2,
        q_limit=1, r_limit=2, max_sequences=2,
    ),
    n_sequences=2,
    func_length=30,
)

_TARGET = tables4._table_4_3_target


def _s27_raises(target_name, **kwargs):
    """``_table_4_3_target``, except that the s27 row raises."""
    if target_name == "s27":
        raise RuntimeError("netlist failed to load")
    return _TARGET(target_name=target_name, **kwargs)


class TestTableCampaigns:
    def test_rerun_of_one_target_reproduces_its_rows(self):
        """Running s298 alone gives exactly its rows of the s27 + s298 run."""
        both = run_table_4_3(jobs=1, **TINY_43)
        alone = run_table_4_3(jobs=1, **{**TINY_43, "targets": ("s298",)})
        assert alone == [case for case in both if case.target == "s298"]
        assert alone

    def test_table_4_3_failed_row_renders_degraded(self, monkeypatch):
        monkeypatch.setattr(tables4, "_table_4_3_target", _s27_raises)
        cases = run_table_4_3(jobs=1, **TINY_43)
        assert cases[0] == TaskFailure(
            key="table4.3/s27", kind="error", message="RuntimeError: netlist failed to load"
        )
        out = render_table_4_3(cases)
        assert "!! s27: FAILED: error\n" in out
        assert "s298" in out  # the healthy row still renders
