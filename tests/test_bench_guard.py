"""Benchmark guard: the names the benchmark looks up in ``promptpress``
still exist, so a refactor cannot quietly turn a per-layer metric to 0 or
break the timing of set-up.

``bench/tracing.Tracer`` wraps each layer under the module global or
method its caller looks it up by, and ``bench/workloads`` ends set-up at
the first call of a ``promptpress.cli`` global.
"""

from pathlib import Path

import pytest

from promptpress import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Places the tracer still lists for code that is already gone: the critic,
# the unpacked per-step gradients, reference generation in the trainer, and
# tokenizing outside ``text``. Nothing may join them.
STALE = {
    "promptpress.trainer:critic_loss_and_grads",
    "promptpress.trainer:value_forward",
    "promptpress.trainer:action_log_prob_and_grad",
    "promptpress.trainer:value_and_grad",
    "promptpress.trainer:generate_reference",
    *(f"promptpress.{m}:tokenize" for m in ("cli", "trainer", "evaluation", "scoring")),
}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_misses_only_the_stale_places(bench):
    tracing, _ = bench
    with tracing.Tracer() as tracer:
        pass
    assert sorted(tracer.missing) == sorted(STALE)


def test_every_first_unit_is_a_cli_global(bench):
    _, workloads = bench
    for workload in workloads.WORKLOADS.values():
        assert callable(cli.__dict__.get(workload.first_unit)), workload.name
