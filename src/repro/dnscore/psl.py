"""Public Suffix List: registered-domain extraction.

The methodology extracts "the registered domain part" of FQDNs at several
points (certificate grouping, banner interpretation, MX fallback).  The paper
uses the Mozilla Public Suffix List [21]; we implement the full PSL
algorithm — normal rules, wildcard rules (``*.ck``) and exception rules
(``!www.ck``) — over an embedded snapshot of the suffixes relevant to our
synthetic world plus the common real-world entries that appear in the paper
(gTLDs, the fifteen ccTLDs of Section 5.4, and layered suffixes like
``co.uk`` and ``com.cn``).

The algorithm follows https://publicsuffix.org/list/:

1. Match domain labels against all rules; among matching rules, exception
   rules beat all others, otherwise the longest (most labels) rule wins.
   Rules are keyed by their label tuples, so matching probes each suffix
   of the name (and its ``*`` variant) instead of testing every rule; a
   wildcard is therefore only accepted as a rule's leftmost label.
2. If no rule matches, the prevailing rule is ``*`` (TLD is public).
3. The public suffix is the matched rule's span; the registered domain is
   the public suffix plus one more label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .names import NameError_, normalize

# Embedded PSL snapshot.  Multi-label entries reproduce the structures that
# matter for mail-provider inference: second-level ccTLD registrations and a
# few provider-owned private suffixes.
DEFAULT_SUFFIXES: tuple[str, ...] = (
    # Generic TLDs.
    "com", "net", "org", "edu", "gov", "mil", "int", "info", "biz", "io",
    "co", "me", "tv", "cc", "app", "dev", "cloud", "online", "site", "email",
    "goog", "xyz", "us",
    # ccTLDs from Section 5.4 and their common second-level registries.
    "br", "com.br", "net.br", "org.br", "gov.br",
    "ar", "com.ar", "org.ar",
    "uk", "co.uk", "org.uk", "ac.uk", "gov.uk", "net.uk",
    "fr", "de", "it", "es", "ro",
    "ca", "au", "com.au", "net.au", "org.au", "gov.au",
    "ru", "com.ru", "org.ru",
    "cn", "com.cn", "net.cn", "org.cn", "gov.cn",
    "jp", "co.jp", "ne.jp", "or.jp", "ac.jp",
    "in", "co.in", "net.in", "org.in", "gov.in",
    "sg", "com.sg", "net.sg", "org.sg", "gov.sg",
    "ua", "com.ua", "net.ua",
    "nl", "se", "ch", "at", "be", "pl", "cz", "tw", "com.tw", "kr", "co.kr",
    "mx", "com.mx", "nz", "co.nz", "za", "co.za",
    # Wildcard + exception structure (exercise rules 2 and 3).
    "*.ck", "!www.ck",
    "*.bd", "*.kawasaki.jp", "!city.kawasaki.jp",
)


@dataclass(frozen=True)
class _Rule:
    labels: tuple[str, ...]
    is_exception: bool

    @property
    def depth(self) -> int:
        return len(self.labels)


_MISS = object()  # cache sentinel: None is a legitimate cached value


@dataclass
class PublicSuffixList:
    """PSL matcher over a rule set.

    Extraction results are memoized per instance (the same MX names,
    banner FQDNs, and certificate names recur across an entire corpus);
    ``set_cache(False)`` restores uncached rule scans.

    >>> psl = PublicSuffixList.default()
    >>> psl.registered_domain("mx1.provider.com")
    'provider.com'
    >>> psl.registered_domain("foo.bar.co.uk")
    'bar.co.uk'
    """

    rules: dict[tuple[str, ...], _Rule] = field(default_factory=dict)
    _suffix_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _registered_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _cache_enabled: bool = field(default=True, repr=False, compare=False)

    def set_cache(self, enabled: bool) -> None:
        """Enable/disable extraction memoization (flushes on any change)."""
        self._cache_enabled = enabled
        self.cache_clear()

    def cache_clear(self) -> None:
        self._suffix_cache.clear()
        self._registered_cache.clear()

    @classmethod
    def from_suffixes(cls, suffixes: tuple[str, ...] | list[str]) -> "PublicSuffixList":
        psl = cls()
        for entry in suffixes:
            psl.add_rule(entry)
        return psl

    @classmethod
    def default(cls) -> "PublicSuffixList":
        return cls.from_suffixes(DEFAULT_SUFFIXES)

    def add_rule(self, entry: str) -> None:
        """Add one PSL entry (possibly ``*.``-wildcard or ``!``-exception)."""
        entry = entry.strip().lower()
        if not entry:
            raise ValueError("empty PSL entry")
        is_exception = entry.startswith("!")
        if is_exception:
            entry = entry[1:]
        key = tuple(entry.split("."))
        if "*" in key[1:]:
            raise ValueError(f"PSL wildcard must be the leftmost label: {entry!r}")
        self.rules[key] = _Rule(labels=key, is_exception=is_exception)
        self.cache_clear()

    def _matching_rule(self, parts: list[str]) -> _Rule | None:
        """Find the prevailing rule for a label sequence (leftmost first).

        Each suffix of *parts*, shortest first, is two dict probes: the
        literal rule and its leftmost-``*`` variant.  An exception rule
        beats every other match; otherwise, and among exceptions, the
        longest rule wins.
        """
        rules = self.rules
        best: _Rule | None = None
        exception: _Rule | None = None
        for start in range(len(parts) - 1, -1, -1):
            suffix = tuple(parts[start:])
            for rule in (rules.get(suffix), rules.get(("*",) + suffix[1:])):
                if rule is None:
                    continue
                if rule.is_exception:
                    exception = rule
                else:
                    best = rule
        return exception or best

    def public_suffix(self, name: str) -> str:
        """Return the public suffix of *name* (always non-empty)."""
        if self._cache_enabled:
            cached = self._suffix_cache.get(name, _MISS)
            if cached is not _MISS:
                return cached
            suffix = self._public_suffix_uncached(name)
            self._suffix_cache[name] = suffix
            return suffix
        return self._public_suffix_uncached(name)

    def _public_suffix_uncached(self, name: str) -> str:
        parts = normalize(name).split(".")
        rule = self._matching_rule(parts)
        if rule is None:
            # Prevailing rule is '*': the TLD alone is public.
            return parts[-1]
        if rule.is_exception:
            # Exception rules: the public suffix is the rule minus its
            # leftmost label.
            depth = rule.depth - 1
        else:
            depth = rule.depth
        depth = min(depth, len(parts))
        return ".".join(parts[-depth:]) if depth else parts[-1]

    def registered_domain(self, name: str) -> str | None:
        """Return the registered (registrable) domain of *name*.

        None when *name* is itself a public suffix (e.g. ``"com"``) —
        such names cannot identify a provider.
        """
        if self._cache_enabled:
            cached = self._registered_cache.get(name, _MISS)
            if cached is not _MISS:
                return cached
            registered = self._registered_domain_uncached(name)
            self._registered_cache[name] = registered
            return registered
        return self._registered_domain_uncached(name)

    def _registered_domain_uncached(self, name: str) -> str | None:
        try:
            name = normalize(name)
        except NameError_:
            return None
        suffix = self.public_suffix(name)
        if name == suffix:
            return None
        parts = name.split(".")
        suffix_depth = len(suffix.split("."))
        return ".".join(parts[-(suffix_depth + 1):])

    def is_public_suffix(self, name: str) -> bool:
        return self.public_suffix(name) == normalize(name)


_DEFAULT: PublicSuffixList | None = None


def default_psl() -> PublicSuffixList:
    """Process-wide shared default PSL instance."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList.default()
    return _DEFAULT


def registered_domain(name: str) -> str | None:
    """Shorthand for ``default_psl().registered_domain(name)``."""
    return default_psl().registered_domain(name)
