"""Tests for the structured logger."""

import logging

from repro.telemetry.log import _HANDLER_FLAG, format_fields, get_logger


class TestFormatFields:
    def test_plain_values_unquoted(self):
        assert format_fields({"level": "info", "count": 3}) == "level=info count=3"

    def test_values_with_spaces_quoted(self):
        assert format_fields({"event": "command failed"}) == 'event="command failed"'

    def test_quotes_and_newlines_escaped(self):
        assert format_fields({"v": 'say "hi"\n'}) == 'v="say \\"hi\\"\\n"'

    def test_empty_value_quoted(self):
        assert format_fields({"v": ""}) == 'v=""'

    def test_equals_sign_quoted(self):
        assert format_fields({"v": "a=b"}) == 'v="a=b"'


class TestGetLogger:
    def test_emits_logfmt_line_to_stderr(self, capsys):
        get_logger("repro.test-emit").error("command failed", error="bad spec")
        err = capsys.readouterr().err
        assert "level=error" in err
        assert "logger=repro.test-emit" in err
        assert 'event="command failed"' in err
        assert 'error="bad spec"' in err

    def test_handler_installed_once(self):
        get_logger("repro.a")
        get_logger("repro.b")
        root = logging.getLogger("repro")
        flagged = [h for h in root.handlers if getattr(h, _HANDLER_FLAG, False)]
        assert len(flagged) == 1

    def test_debug_suppressed_at_default_level(self, capsys):
        logger = get_logger("repro.test-level")
        logger.debug("noisy detail", k=1)
        assert capsys.readouterr().err == ""
