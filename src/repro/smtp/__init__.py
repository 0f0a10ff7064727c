"""SMTP substrate: replies, banner semantics, simulated MTAs, probe sessions."""

from .banner import (
    BannerStyle,
    MessageIdentity,
    consistent_identity,
    identity_from_message,
    render_banner,
    render_ehlo_identity,
)
from .replies import Reply, ReplyParseError, parse_reply
from .server import (
    SMTP_RELAY_PORT,
    SMTPS_PORT,
    SUBMISSION_PORT,
    SMTPHostTable,
    SMTPServerConfig,
)
from .session import SessionOutcome, SessionResult, SMTPClient

__all__ = [
    "BannerStyle",
    "MessageIdentity",
    "Reply",
    "ReplyParseError",
    "SMTPClient",
    "SMTPHostTable",
    "SMTPServerConfig",
    "SMTP_RELAY_PORT",
    "SMTPS_PORT",
    "SUBMISSION_PORT",
    "SessionOutcome",
    "SessionResult",
    "consistent_identity",
    "identity_from_message",
    "parse_reply",
    "render_banner",
    "render_ehlo_identity",
]
