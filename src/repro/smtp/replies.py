"""SMTP reply lines (RFC 5321 section 4.2).

Models just enough of the wire format for a scanning client to parse
single- and multi-line replies, extract reply codes, and recover the
free-text portion (which is where banner/EHLO identity information lives).
"""

from __future__ import annotations

from dataclasses import dataclass


class ReplyParseError(ValueError):
    """Raised when text cannot be parsed as an SMTP reply."""


@dataclass(frozen=True)
class Reply:
    """A parsed SMTP reply: a 3-digit code and one or more text lines."""

    code: int
    lines: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 200 <= self.code <= 599:
            raise ReplyParseError(f"implausible SMTP reply code: {self.code}")
        if not self.lines:
            raise ReplyParseError("reply must carry at least one line")

    @property
    def text(self) -> str:
        """All text lines joined — the free-text payload of the reply."""
        return "\n".join(self.lines)

    @property
    def first_line(self) -> str:
        return self.lines[0]

    def render(self) -> str:
        """Render to wire format (``-`` continuation on all but the last)."""
        out = []
        for index, line in enumerate(self.lines):
            separator = " " if index == len(self.lines) - 1 else "-"
            out.append(f"{self.code}{separator}{line}")
        return "\r\n".join(out) + "\r\n"


def parse_reply(raw: str) -> Reply:
    """Parse wire-format reply text into a :class:`Reply`.

    Tolerates bare-LF line endings (seen in scan data) and enforces that
    every line of a multi-line reply carries the same code.
    """
    lines = [line for line in raw.replace("\r\n", "\n").split("\n") if line]
    if not lines:
        raise ReplyParseError("empty reply")
    code: int | None = None
    texts: list[str] = []
    for index, line in enumerate(lines):
        if len(line) < 3 or not line[:3].isdigit():
            raise ReplyParseError(f"malformed reply line: {line!r}")
        line_code = int(line[:3])
        if code is None:
            code = line_code
        elif line_code != code:
            raise ReplyParseError(f"inconsistent codes {code} vs {line_code}")
        separator = line[3:4]
        if separator not in ("", " ", "-"):
            raise ReplyParseError(f"bad separator in reply line: {line!r}")
        is_last = index == len(lines) - 1
        if separator == "-" and is_last:
            raise ReplyParseError("reply ends with a continuation line")
        texts.append(line[4:])
    assert code is not None
    return Reply(code=code, lines=tuple(texts))


# Frequently used replies.
def service_ready(banner_text: str) -> Reply:
    return Reply(code=220, lines=(banner_text,))


def ehlo_response(identity: str, extensions: tuple[str, ...]) -> Reply:
    return Reply(code=250, lines=(identity, *extensions))
