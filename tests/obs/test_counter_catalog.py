"""The counter-catalog checker: docs/observability.md never drifts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def checker():
    path = (
        Path(__file__).resolve().parents[2] / "tools" / "check_counter_catalog.py"
    )
    spec = importlib.util.spec_from_file_location("check_counter_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCatalog:
    def test_repo_catalog_is_in_sync(self, checker, capsys):
        """The committed docs must catalog every emitted name."""
        assert checker.main(["--check"]) == 0
        assert "all catalogued" in capsys.readouterr().out

    def test_span_families_expanded_from_phases(self, checker):
        from repro.obs.spans import PHASES

        names = checker.emitted_names()
        for phase in PHASES:
            assert names[f"span_{phase}"] == "counter"
            assert names[f"span_{phase}_s"] == "timer"
            assert names[f"span_{phase}_self_s"] == "timer"
        assert names.get("decisions_recorded") == "counter"

    def test_uncatalogued_name_is_flagged(self, checker, monkeypatch, capsys):
        def with_rogue():
            names = dict(real())
            names["totally_undocumented_counter"] = "counter"
            return names

        real = checker.emitted_names
        monkeypatch.setattr(checker, "emitted_names", with_rogue)
        assert checker.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "totally_undocumented_counter" in out
        assert "catalog drift" in out

    def test_decision_reasons_are_cross_checked(self, checker):
        from repro.core.base import DECISION_REASONS

        assert checker.decision_reasons() == DECISION_REASONS

    def test_missing_decision_reason_is_flagged(self, checker, monkeypatch, capsys):
        real = checker.decision_reasons
        monkeypatch.setattr(
            checker, "decision_reasons", lambda: (*real(), "totally-undocumented-reason")
        )
        assert checker.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "totally-undocumented-reason  (decision reason)" in out
        assert "catalog drift" in out

    def test_reason_must_be_a_whole_code(self, checker, monkeypatch):
        # "dp-excluded" is catalogued, and so are its tokens "dp" and
        # "excluded"; a code made of documented words is still missing.
        monkeypatch.setattr(checker, "decision_reasons", lambda: ("excluded-dp",))
        assert checker.main(["--check"]) == 1

    def test_report_mode_never_fails(self, checker, monkeypatch):
        def with_rogue():
            names = dict(real())
            names["totally_undocumented_counter"] = "counter"
            return names

        real = checker.emitted_names
        monkeypatch.setattr(checker, "emitted_names", with_rogue)
        assert checker.main([]) == 0


class TestSpanPhases:
    def test_every_phase_has_an_emission_site(self, checker):
        from repro.obs.spans import PHASES

        sites = checker.span_sites()
        assert set(sites) == set(PHASES)
        assert sites["event"] == ["experiments/runner.py"]
        assert sites["schedule_cycle"] == ["experiments/runner.py"]

    def test_site_forms_are_recognised(self, checker):
        text = (
            'a = begin("one")\n'
            'b = _span_begin(\n    "two")\n'
            'c = recorder.begin("three")\n'
            'recorder.add_bulk("four", 1, 0.0, 0.0)\n'
            'timers.add_time("not_a_phase", 1.0)\n'
            'x = span_begin_other("nope")\n'
        )
        assert checker._SPAN_SITES.findall(text) == ["one", "two", "three", "four"]

    def test_phase_outside_catalog_is_flagged(self, checker, monkeypatch, capsys):
        real = checker.span_sites

        def with_rogue():
            sites = dict(real())
            sites["rogue_phase"] = ["core/rogue.py"]
            return sites

        monkeypatch.setattr(checker, "span_sites", with_rogue)
        assert checker.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "rogue_phase  (opened in core/rogue.py, not in PHASES)" in out
        assert "phase drift" in out

    def test_phase_without_site_is_flagged(self, checker, monkeypatch, capsys):
        real = checker.span_phases
        monkeypatch.setattr(checker, "span_phases", lambda: (*real(), "orphan_phase"))
        assert checker.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "orphan_phase  (in PHASES, no emission site)" in out

    def test_report_mode_lists_phase_drift_without_failing(self, checker, monkeypatch, capsys):
        real = checker.span_phases
        monkeypatch.setattr(checker, "span_phases", lambda: (*real(), "orphan_phase"))
        assert checker.main([]) == 0
        assert "orphan_phase" in capsys.readouterr().out
