"""Unit tests for SMTP reply parsing and rendering."""

import pytest

from repro.smtp.replies import (
    Reply,
    ReplyParseError,
    ehlo_response,
    parse_reply,
    service_ready,
)


class TestReply:
    def test_text_joins_lines(self):
        reply = Reply(code=250, lines=("a", "b"))
        assert reply.text == "a\nb"
        assert reply.first_line == "a"

    def test_implausible_code_rejected(self):
        with pytest.raises(ReplyParseError):
            Reply(code=600, lines=("x",))
        with pytest.raises(ReplyParseError):
            Reply(code=199, lines=("x",))

    def test_empty_lines_rejected(self):
        with pytest.raises(ReplyParseError):
            Reply(code=250, lines=())


class TestRender:
    def test_single_line(self):
        assert service_ready("mx.example.com ESMTP").render() == (
            "220 mx.example.com ESMTP\r\n"
        )

    def test_multi_line_continuation(self):
        rendered = ehlo_response("mx.example.com", ("PIPELINING", "STARTTLS")).render()
        assert rendered == (
            "250-mx.example.com\r\n250-PIPELINING\r\n250 STARTTLS\r\n"
        )


class TestParse:
    def test_round_trip_single(self):
        original = service_ready("mx.example.com ESMTP ready")
        assert parse_reply(original.render()) == original

    def test_round_trip_multi(self):
        original = ehlo_response("mx.example.com", ("PIPELINING", "SIZE 1000", "STARTTLS"))
        assert parse_reply(original.render()) == original

    def test_bare_lf_tolerated(self):
        reply = parse_reply("250-a\n250 b\n")
        assert reply.lines == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ReplyParseError):
            parse_reply("")

    def test_non_numeric_rejected(self):
        with pytest.raises(ReplyParseError):
            parse_reply("hello world\r\n")

    def test_inconsistent_codes_rejected(self):
        with pytest.raises(ReplyParseError):
            parse_reply("250-a\r\n220 b\r\n")

    def test_trailing_continuation_rejected(self):
        with pytest.raises(ReplyParseError):
            parse_reply("250-a\r\n250-b\r\n")

    def test_code_only_line(self):
        reply = parse_reply("220\r\n")
        assert reply.code == 220
        assert reply.lines == ("",)
