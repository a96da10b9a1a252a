#!/usr/bin/env python3
"""Keep docs/observability.md's telemetry catalog in sync with the code.

Scans every module under ``src/repro`` for the names it emits into run
telemetry — ``bump(...)`` / ``Telemetry.count(...)`` counters,
``add_time(...)`` / ``timeit(...)`` timers, ``series_handle(...)``
timeseries, direct ``counters[...] =`` writes — expands the dynamic
families (``span_<phase>`` / ``span_<phase>_s`` / ``span_<phase>_self_s``
from :data:`repro.obs.spans.PHASES`, ``<series>_samples_dropped`` per
registered series) and verifies each concrete name appears, backtick
quoted, somewhere in docs/observability.md.  Every decision-provenance
reason code in :data:`repro.core.base.DECISION_REASONS` must appear
there too, as a whole backtick-quoted code:

    python tools/check_counter_catalog.py            # report
    python tools/check_counter_catalog.py --check    # exit 1 on drift

CI runs the ``--check`` form next to ``gen_api_doc.py --check``: adding
a counter without cataloguing it fails the build, so the doc can never
silently drift from the instrumentation.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"

#: Emission sites: regex -> what the captured name is.  ``\s*`` spans
#: newlines, so multi-line calls (the name literal on its own line)
#: still match.  f-string names deliberately do NOT match — dynamic
#: families are expanded explicitly below.
_EMITTERS = [
    (re.compile(r"\bbump\(\s*\"([a-z0-9_]+)\""), "counter"),
    (re.compile(r"\.count\(\s*\"([a-z0-9_]+)\""), "counter"),
    (re.compile(r"\bcounters\[\s*\"([a-z0-9_]+)\"\]\s*="), "counter"),
    (re.compile(r"\.add_time\(\s*\"([a-z0-9_]+)\""), "timer"),
    (re.compile(r"\.timeit\(\s*\"([a-z0-9_]+)\""), "timer"),
    (re.compile(r"\.series_handle\(\s*\"([a-z0-9_]+)\""), "series"),
]

#: Files whose string literals are examples, not emissions.
_SKIP = {"obs/telemetry.py"}  # doctest examples reuse real names anyway


def emitted_names() -> Dict[str, str]:
    """name -> kind for every telemetry name the code can emit."""
    names: Dict[str, str] = {}
    series: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        if str(path.relative_to(SRC)) in _SKIP:
            continue
        text = path.read_text(encoding="utf-8")
        for pattern, kind in _EMITTERS:
            for name in pattern.findall(text):
                names[name] = kind
                if kind == "series":
                    series.add(name)
    # Dynamic family 1: the span profiler folds one counter and two
    # timers per phase into telemetry (repro.obs.spans.fold_into).
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.spans import PHASES

    for phase in PHASES:
        names[f"span_{phase}"] = "counter"
        names[f"span_{phase}_s"] = "timer"
        names[f"span_{phase}_self_s"] = "timer"
    # Dynamic family 2: every bounded series synthesizes a
    # ``<name>_samples_dropped`` counter when it decimates
    # (repro.obs.telemetry.Telemetry.snapshot).
    for name in series:
        names[f"{name}_samples_dropped"] = "counter"
    return names


def decision_reasons() -> Tuple[str, ...]:
    """Every reason code a policy or the runner may report."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.base import DECISION_REASONS

    return DECISION_REASONS


def documented_code() -> Tuple[Set[str], Set[str]]:
    """The catalog doc's backtick spans: (identifier tokens, whole spans)."""
    text = DOC.read_text(encoding="utf-8")
    tokens: Set[str] = set()
    # Fenced code blocks count as documentation too (usage examples),
    # and must be cut before inline-code extraction or their ``` fences
    # break the single-backtick pairing for the rest of the file.
    def _eat_fence(match: "re.Match[str]") -> str:
        tokens.update(re.findall(r"[A-Za-z0-9_]+", match.group(1)))
        return " "

    text = re.sub(r"```[a-z]*\n(.*?)```", _eat_fence, text, flags=re.S)
    spans = set(re.findall(r"`([^`]+)`", text))
    for span in spans:
        tokens.update(re.findall(r"[A-Za-z0-9_]+", span))
    return tokens, spans


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when an emitted name is missing from the catalog",
    )
    args = parser.parse_args(argv)

    names = emitted_names()
    reasons = decision_reasons()
    tokens, spans = documented_code()
    missing = sorted(name for name in names if name not in tokens)
    missing_reasons = sorted(reason for reason in reasons if reason not in spans)
    print(
        f"{len(names)} telemetry names emitted by src/repro "
        f"({sum(1 for k in names.values() if k == 'counter')} counters, "
        f"{sum(1 for k in names.values() if k == 'timer')} timers, "
        f"{sum(1 for k in names.values() if k == 'series')} series), "
        f"{len(reasons)} decision reasons"
    )
    if missing or missing_reasons:
        print(f"\nmissing from {DOC.relative_to(ROOT)}:")
        for name in missing:
            print(f"  {name}  ({names[name]})")
        for reason in missing_reasons:
            print(f"  {reason}  (decision reason)")
        if args.check:
            print("\ncatalog drift: document the names above (backtick-quoted)")
            return 1
    else:
        print(f"all catalogued in {DOC.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
