"""Diagnostic vocabulary: stable codes, severities, report semantics."""

import re

import pytest

from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceLocation,
    describe_code,
    sort_diagnostics,
)


class TestCodeRegistry:
    def test_codes_are_rp_three_digits(self):
        for code in CODES:
            assert re.fullmatch(r"RP\d{3}", code), code

    def test_band_matches_family(self):
        # The hundreds digit is the family band — append-only contract.
        bands = {
            "0": "structure", "1": "races", "2": "arena",
            "3": "precision", "4": "halo", "5": "determinism",
            "6": "partition", "7": "differential",
        }
        for code, (family, _) in CODES.items():
            assert family == bands[code[2]], code

    def test_every_code_has_a_description(self):
        for code, (_, text) in CODES.items():
            assert text
            assert code in describe_code(code)

    def test_core_checker_codes_present(self):
        # The race, arena, precision, halo and determinism checkers
        # each own at least one code.
        for code in ("RP101", "RP201", "RP301", "RP401", "RP501"):
            assert code in CODES


class TestDiagnostic:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic("RP999", Severity.ERROR, "nope")

    def test_checker_autofilled_from_family(self):
        d = Diagnostic("RP201", Severity.ERROR, "slabs collide")
        assert d.checker == "arena"

    def test_render_carries_code_and_location(self):
        d = Diagnostic(
            "RP103",
            Severity.ERROR,
            "order is not a permutation",
            location=SourceLocation(phase="forward", kernel=3),
        )
        assert "RP103" in d.render()
        assert "forward" in d.render()
        assert "kernel 3" in d.render()

    def test_location_str_forms(self):
        assert str(SourceLocation()) == "<artifact>"
        assert "f.py:7" in str(SourceLocation(file="f.py", line=7))
        loc = SourceLocation(phase="backward", kernel=1, kernel2=4)
        assert "kernel 1<->4" in str(loc)


class TestAnalysisReport:
    def _diag(self, code, severity=Severity.ERROR):
        return Diagnostic(code, severity, "x")

    def test_ok_gates_on_errors_only(self):
        r = AnalysisReport("t", [self._diag("RP501", Severity.WARNING)])
        assert r.ok
        r.diagnostics.append(self._diag("RP101"))
        assert not r.ok
        assert [d.code for d in r.errors] == ["RP101"]

    def test_by_code_and_codes(self):
        r = AnalysisReport(
            "t", [self._diag("RP201"), self._diag("RP201"), self._diag("RP101")]
        )
        assert len(r.by_code("RP201")) == 2
        assert r.codes() == ["RP101", "RP201"]

    def test_summary_counts(self):
        r = AnalysisReport(
            "m/s/d",
            [self._diag("RP101"), self._diag("RP502", Severity.WARNING)],
            checkers_run=["races", "determinism"],
        )
        head = r.summary().splitlines()[0]
        assert "m/s/d: 1 error(s), 1 warning(s) from 2 checker(s)" == head

    def test_sort_is_severity_then_code(self):
        diags = [
            self._diag("RP401", Severity.WARNING),
            self._diag("RP301"),
            self._diag("RP101"),
        ]
        assert [d.code for d in sort_diagnostics(diags)] == [
            "RP101", "RP301", "RP401",
        ]
