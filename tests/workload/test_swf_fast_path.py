"""The fast SWF reader and the reorder heap vs. the per-record reference.

:func:`repro.workload.archive._swf_jobs` converts most lines straight
from ``float()`` and builds each job once.
``tests/workload/swf_reference.py`` keeps the path it replaced.  On
generated logs, dirty ones included, both must yield the same jobs
field by field, tally the same :class:`LoadReport`, warn the same
warnings and fail with the same exception at the same point.
"""

from __future__ import annotations

import dataclasses
import gzip
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.workload.archive import LoadReport, _swf_jobs
from repro.workload.job import Job
from repro.workload.streaming import _reorder
from tests.workload.swf_reference import heap_reorder, reference_swf_jobs

#: Machine size the generated logs are loaded onto.
MACHINE = 128

#: Line shapes of a generated log.  ``ok`` records are plain usable
#: jobs; the rest exercise one conversion rule or one failure each.
SHAPES = ("ok",) * 10 + (
    "float", "ranged", "ranged", "wide", "cancelled",
    "no-runtime", "no-procs", "allocated-only", "oversized", "short",
    "comment", "blank", "non-numeric", "non-finite", "too-many",
    "negative-submit", "duplicate", "late",
)


def _token(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


@st.composite
def swf_logs(draw):
    """The text of a dirty archive-shaped SWF log."""
    lines = []
    submit = draw(st.integers(1, 500))
    previous = None
    for job_id in range(1, draw(st.integers(0, 30)) + 1):
        submit += draw(st.integers(0, 200))
        procs = draw(st.integers(1, MACHINE))
        runtime = draw(st.integers(1, 3000))
        fields = [job_id, submit, -1, runtime, procs, -1, -1, procs, runtime, -1, 1]
        fields += [-1] * 7
        shape = draw(st.sampled_from(SHAPES))
        if shape == "float":
            fields[1] = submit + draw(st.floats(0, 1, exclude_max=True))
            fields[3] = fields[8] = runtime + draw(st.sampled_from([0.25, 0.5, 0.75]))
            fields[7] = procs + draw(st.sampled_from([0.0, 0.5]))
        elif shape == "ranged":
            low = draw(st.integers(-1, procs))
            high = draw(st.integers(procs - 2, 2 * MACHINE))
            # low may exceed high (a malformed range): pref then sits at low.
            pref = draw(st.just(-1) | st.integers(max(low, 1), max(high, low, 1)))
            fields += [low, pref, high][: draw(st.integers(1, 3))]
        elif shape == "wide":
            fields += [-1] * draw(st.integers(1, 3))
        elif shape == "cancelled":
            fields[10] = 5
            fields[3] = draw(st.sampled_from([-1, 0]))
            fields[2] = draw(st.just(-1) | st.integers(0, 600))  # -1: wait unknown
            fields[8] = draw(st.sampled_from([-1, runtime]))
        elif shape == "no-runtime":
            fields[3] = fields[8] = -1
        elif shape == "no-procs":
            fields[4] = fields[7] = -1
        elif shape == "allocated-only":
            fields[7] = -1
        elif shape == "oversized":
            fields[4] = fields[7] = draw(st.integers(MACHINE + 1, 4 * MACHINE))
        elif shape == "negative-submit":
            fields[1] = -draw(st.integers(1, 100))
        elif shape == "duplicate" and previous is not None:
            fields[0], fields[1] = previous[0], previous[1]
        elif shape == "late":
            fields[1] = max(0, submit - draw(st.integers(1, 3000)))
        line = " ".join(_token(value) for value in fields)
        tokens = line.split()
        if shape == "short":
            line = " ".join(tokens[: draw(st.integers(1, 17))])
        elif shape == "comment":
            line = draw(st.sampled_from(["; MaxProcs: 128", "  ; a note", ";"]))
        elif shape == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        elif shape == "non-numeric":
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(["x", "1.2.3", "--", "0x10"]))
            line = " ".join(tokens)
        elif shape == "non-finite":
            at = draw(st.integers(0, 20))
            tokens += ["-1"] * (at + 1 - len(tokens))
            tokens[at] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400"]))
            line = " ".join(tokens)
        elif shape == "too-many":
            line = " ".join(tokens + ["-1"] * draw(st.integers(22 - len(tokens), 24)))
        lines.append(line)
        previous = fields
    for i in draw(st.lists(st.integers(0, max(len(lines) - 2, 0)), max_size=6)):
        if i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


def _fields(job: Job) -> tuple:
    return tuple(getattr(job, f.name) for f in dataclasses.fields(job))


def _drain(jobs, report: LoadReport):
    """Everything observable about a load: jobs, failure, report and warnings."""
    out = []
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for job in jobs:
                out.append(_fields(job))
        except Exception as exc:  # any failure: compared, not handled
            error = (type(exc), str(exc), getattr(exc, "line", None))
    warned = [(w.category, str(w.message)) for w in caught]
    return out, error, dataclasses.asdict(report), warned


class TestFastReaderMatchesReference:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        text=swf_logs(),
        gz=st.booleans(),
        strict=st.booleans(),
        granularity=st.sampled_from([1, 2, 32]),
        max_jobs=st.none() | st.integers(1, 12),
        rebase_time=st.booleans(),
        lookahead=st.sampled_from([None, 1, 2, 3, 8, 512]),
    )
    @example(  # read unsorted, the second job lands before the origin
        text="1 50 -1 60 8 -1 -1 8 60 -1 1\n2 10 -1 60 8 -1 -1 8 60 -1 1\n",
        gz=False, strict=True, granularity=1, max_jobs=None, rebase_time=True,
        lookahead=None,
    )
    def test_same_jobs_report_warnings_and_errors(
        self, tmp_path: Path, text, gz, strict, granularity, max_jobs, rebase_time,
        lookahead,
    ) -> None:
        path = tmp_path / ("log.swf.gz" if gz else "log.swf")
        if gz:
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                fh.write(text)
        else:
            path.write_text(text, encoding="utf-8")
        args = (MACHINE, granularity, max_jobs, rebase_time, strict, lookahead)
        fast, expected = LoadReport(), LoadReport()
        assert _drain(_swf_jobs(path, fast, *args), fast) == _drain(
            reference_swf_jobs(path, expected, *args), expected
        )


@st.composite
def near_sorted_keys(draw):
    """``(submit, job_id)`` keys, mostly rising, with swaps, repeats and stragglers."""
    keys = []
    submit = 0
    for _ in range(draw(st.integers(0, 60))):
        step = draw(st.sampled_from(["rise", "rise", "rise", "same", "back", "far"]))
        if step == "rise":
            submit += draw(st.integers(1, 5))
        elif step == "back":
            submit = max(0, submit - draw(st.integers(1, 3)))
        elif step == "far":
            submit = max(0, submit - draw(st.integers(4, 40)))
        keys.append((float(submit), draw(st.integers(1, 4))))
    return keys


class TestReorderMatchesHeap:
    @settings(max_examples=400, deadline=None)
    @given(
        keys=near_sorted_keys(),
        lookahead=st.sampled_from([None, 1, 2, 3, 4, 8, 64]),
    )
    def test_same_order_and_same_failure(self, keys, lookahead) -> None:
        def run(reorder):
            entries = ((submit, job_id, seq, seq) for seq, (submit, job_id) in enumerate(keys))
            out = []
            try:
                for entry in reorder(entries, lookahead, "keys"):
                    out.append(entry)
            except Exception as exc:  # any failure: compared, not handled
                return out, (type(exc), str(exc))
            return out, None

        assert run(_reorder) == run(heap_reorder)
