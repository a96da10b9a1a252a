"""``replay``'s invariant checks against the two-pass checker they replaced.

The corpus is :mod:`tests.obs.test_replay_reference`'s: every registry
policy under ET/RT commands, cancellations and decision records, and
again under pset and job faults with a retry backoff.  Each trace must
give no findings on either side, and every mutation of it (records
dropped, duplicated, swapped or reversed, a ``num`` perturbed, an ECC
outcome or origin flipped) the same findings in the same order and the
same peak occupancy; one with no findings must replay as the
record-at-a-time loop of :mod:`tests.obs.replay_reference`.  The oracle
then refuses a trace that breaks an invariant even when its metrics
match the run's.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.runner import simulate
from repro.obs.analytics import (
    TraceOracleError,
    cross_validate,
    replay,
    validate_trace_file,
)
from repro.obs.trace_io import read_trace
from repro.sim.trace import TraceRecord
from tests.obs.check_reference import _check, check_differences
from tests.obs.replay_reference import reference_replay, replay_differences
from tests.obs.test_replay_reference import SCENARIOS, _workload

#: ECC outcomes a flip draws from: applied and not.
OUTCOMES = (
    "applied-queued", "applied-running", "terminated-job",
    "dropped-finished", "rejected-cap", "rejected-resource",
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``(algorithm/scenario, records, meta)`` for every policy and scenario."""
    workloads = {"dedicated": _workload(0.3), "batch": _workload(0.0)}
    out = []
    root = tmp_path_factory.mktemp("check-corpus")
    for algorithm in sorted(ALGORITHMS):
        scheduler = make_scheduler(algorithm)
        workload = workloads["dedicated" if scheduler.handles_dedicated else "batch"]
        for name, options in SCENARIOS.items():
            path = root / f"{algorithm}.{name}.jsonl"
            simulate(workload, make_scheduler(algorithm), trace_out=path, **options)
            trace = read_trace(path)
            out.append((f"{algorithm}/{name}", trace.records, trace.meta))
    return out


def test_corpus_checks_clean_on_both_sides(corpus):
    for label, records, meta in corpus:
        assert _check(records, meta["machine_size"]).findings == [], label
        assert check_differences(records, meta) == [], label
        assert replay(records, meta).findings == [], label


@st.composite
def mutations(draw, records):
    """``records`` with one to three mutations applied, in order."""
    records = list(records)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(
            ("drop", "duplicate", "swap", "reverse", "num", "outcome", "origin")
        ))
        if action == "reverse":
            records.reverse()
            continue
        if action in ("num", "outcome", "origin"):
            kinds = ("start", "finish", "ecc") if action == "num" else ("ecc",)
            targets = [
                i for i, r in enumerate(records)
                if r.kind in kinds and (action != "num" or "num" in r.data)
            ]
            if not targets:
                continue
            index = draw(st.sampled_from(targets))
            record = records[index]
            data = dict(record.data)
            if action == "num":
                data["num"] = int(data["num"]) + draw(
                    st.integers(-16, 16).filter(lambda d: d != 0)
                )
            elif action == "outcome":
                data["outcome"] = draw(st.sampled_from(OUTCOMES))
            elif data.pop("origin", None) is None:
                data["origin"] = "scheduler"
            records[index] = TraceRecord(record.time, record.kind, data)
            continue
        last = len(records) - (2 if action == "swap" else 1)
        if last < 0:
            continue
        index = draw(st.integers(0, last))
        if action == "drop":
            del records[index]
        elif action == "duplicate":
            records.insert(index, records[index])
        else:
            records[index], records[index + 1] = records[index + 1], records[index]
    return records


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_traces_check_as_the_reference(corpus, data):
    label, records, meta = data.draw(st.sampled_from(corpus))
    mutated = data.draw(mutations(records))
    assert check_differences(mutated, meta) == [], label
    result = replay(mutated, meta)
    if not result.findings:
        # A mutation the checks accept is rebuilt as the old loop did.
        assert replay_differences(result, reference_replay(mutated, meta)) == [], label


def test_oracle_refuses_a_broken_trace_with_matching_metrics(tmp_path):
    """A second ``arrive`` changes no metric, but breaks the lifecycle."""
    path = tmp_path / "run.jsonl"
    metrics = simulate(_workload(0.0), make_scheduler("EASY"), trace_out=path)
    validate_trace_file(path, metrics)

    lines = path.read_text().splitlines()
    first_arrive = next(
        i for i, line in enumerate(lines[1:], 1) if json.loads(line)["kind"] == "arrive"
    )
    lines.insert(first_arrive + 1, lines[first_arrive])
    path.write_text("\n".join(lines) + "\n")

    trace = read_trace(path)
    assert cross_validate(replay(trace.records, trace.meta), metrics) == [
        f"job {trace.records[first_arrive - 1].data['job']}: 'arrive' at "
        f"t={trace.records[first_arrive - 1].time:g} but job was already seen"
    ]
    with pytest.raises(TraceOracleError, match="already seen"):
        validate_trace_file(path, metrics)
