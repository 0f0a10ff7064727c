"""Domain-name model: parsing, validation, and normalization.

DNS names in this library are represented as plain lowercase strings without
a trailing dot (``"mx1.example.com"``).  This module centralizes the syntax
rules (RFC 1035 preferred name syntax, relaxed per RFC 2181 where the
measurement reality demands it) so every other layer can rely on a single
notion of "valid hostname".

The paper's methodology repeatedly asks one question of free-form text found
in SMTP banners and EHLO messages: *does this look like a valid fully
qualified domain name?* (Section 3.1.3).  :func:`is_valid_fqdn` implements
that check, and :func:`extract_fqdn` pulls candidate names out of arbitrary
banner text.
"""

from __future__ import annotations

import re
from typing import Iterator

MAX_NAME_LENGTH = 253

# An LDH (letters-digits-hyphen) label: starts and ends alphanumeric.
_LABEL_RE = re.compile(r"^(?!-)[a-z0-9-]{1,63}(?<!-)$")

# Candidate FQDN tokens inside free text (used for banner parsing).
_FQDN_TOKEN_RE = re.compile(
    r"\b([a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?"
    r"(?:\.[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?)+)\b",
    re.IGNORECASE,
)

# Labels that frequently appear in misconfigured banners but never denote a
# usable public name.  ``localhost`` and friends are the poster children the
# paper calls out ("poorly configured servers with Banner/EHLO messages
# containing strings like localhost").
_BOGUS_NAMES = frozenset(
    {
        "localhost",
        "localhost.localdomain",
        "localdomain",
        "example.com",
        "example.net",
        "example.org",
        "mail.local",
        "local",
    }
)


class NameError_(ValueError):
    """Raised when a string cannot be interpreted as a DNS name."""


def normalize(name: str) -> str:
    """Normalize a DNS name: lowercase, strip one trailing dot and whitespace.

    Raises :class:`NameError_` if the result is empty.
    """
    name = name.strip().lower()
    if name.endswith("."):
        name = name[:-1]
    if not name:
        raise NameError_("empty DNS name")
    return name


def labels(name: str) -> list[str]:
    """Split a normalized name into its labels, left to right."""
    return normalize(name).split(".")


def is_valid_hostname(name: str) -> bool:
    """Return True if *name* is syntactically a valid DNS hostname.

    Accepts single-label names (``localhost``); use :func:`is_valid_fqdn`
    when at least two labels are required.
    """
    try:
        name = normalize(name)
    except NameError_:
        return False
    if len(name) > MAX_NAME_LENGTH:
        return False
    parts = name.split(".")
    return all(_LABEL_RE.match(part) for part in parts)


def is_valid_fqdn(name: str) -> bool:
    """Return True if *name* is a plausible fully qualified domain name.

    A plausible FQDN, for the purposes of provider inference, must:

    * be syntactically valid,
    * contain at least two labels (a bare host like ``mailserver`` carries
      no provider information),
    * have an alphabetic top-level label (rules out embedded IPv4 addresses
      such as ``1.2.3.4`` and decorated reverse names like ``IP-1-2-3-4``
      whose final token is numeric),
    * not be a well-known bogus name (``localhost`` et al.).
    """
    if not is_valid_hostname(name):
        return False
    name = normalize(name)
    if name in _BOGUS_NAMES:
        return False
    parts = name.split(".")
    if len(parts) < 2:
        return False
    tld = parts[-1]
    if not tld.isalpha():
        return False
    return True


def iter_fqdn_candidates(text: str) -> Iterator[str]:
    """Yield candidate FQDNs embedded in arbitrary text, in order.

    Candidates are syntactic matches only; callers should filter with
    :func:`is_valid_fqdn`.
    """
    for match in _FQDN_TOKEN_RE.finditer(text):
        yield match.group(1).lower()


def extract_fqdn(text: str) -> str | None:
    """Extract the first valid FQDN from free-form text, or None.

    This is the primitive used to interpret SMTP banner and EHLO messages:
    ``"220 mx.google.com ESMTP ready"`` yields ``"mx.google.com"``, while
    ``"220 IP-1-2-3-4"`` and ``"220 localhost ESMTP"`` yield ``None``.
    """
    for candidate in iter_fqdn_candidates(text):
        if is_valid_fqdn(candidate):
            return candidate
    return None


def is_subdomain_of(name: str, ancestor: str) -> bool:
    """Return True if *name* equals or is a subdomain of *ancestor*."""
    name = normalize(name)
    ancestor = normalize(ancestor)
    return name == ancestor or name.endswith("." + ancestor)


def parent(name: str) -> str | None:
    """Return the immediate parent of *name*, or None for a TLD."""
    parts = labels(name)
    if len(parts) <= 1:
        return None
    return ".".join(parts[1:])
