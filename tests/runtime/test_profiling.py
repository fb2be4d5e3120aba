"""Tests for the cProfile wrapper behind the CLIs' ``--profile`` flag."""

import pytest

from repro.telemetry.profiling import run_profiled


class TestRunProfiled:
    def test_returns_result_and_writes_report(self, tmp_path):
        report = tmp_path / "profile.txt"
        result = run_profiled(lambda: sorted([3, 1, 2]), str(report))
        assert result == [1, 2, 3]
        text = report.read_text()
        assert "cumulative" in text
        assert "function calls" in text

    def test_report_written_even_when_fn_raises(self, tmp_path):
        report = tmp_path / "profile.txt"

        def _boom():
            raise ValueError("deliberate")

        with pytest.raises(ValueError, match="deliberate"):
            run_profiled(_boom, str(report))
        assert "function calls" in report.read_text()


class TestMatrixCliProfileFlag:
    def test_profile_flag_writes_report_next_to_out(self, tmp_path, capsys):
        from repro.experiments import matrix

        report = tmp_path / "matrix_profile.txt"
        code = matrix.main(
            [
                "--run",
                "standalone",
                "--duration",
                "0.4",
                "--warmup",
                "0.1",
                "--seed",
                "9",
                "--workers",
                "0",
                "--out",
                "json",
                "--profile",
                str(report),
            ]
        )
        assert code == 0
        assert "run_scenario" in report.read_text()
        assert "standalone" in capsys.readouterr().out
