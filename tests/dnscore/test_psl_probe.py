"""The suffix-dict PSL probe against a linear scan over every rule.

``PublicSuffixList._matching_rule`` probes ``rules`` by label tuple, one
suffix of the name at a time.  The reference below tests every rule
against the name, as the matcher did before, and states the precedence
the probe must keep: an exception rule beats every other match, and
otherwise (and among exceptions) the rule with the most labels wins.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.psl import DEFAULT_SUFFIXES, PublicSuffixList


def reference_rule(psl, parts):
    """The prevailing rule by a linear scan, as (depth, is_exception)."""
    matches = [
        rule
        for labels, rule in psl.rules.items()
        if len(labels) <= len(parts)
        and all(
            label == "*" or label == part
            for label, part in zip(reversed(labels), reversed(parts))
        )
    ]
    exceptions = [rule for rule in matches if rule.is_exception]
    prevailing = max(exceptions or matches, key=lambda rule: rule.depth, default=None)
    return None if prevailing is None else (prevailing.depth, prevailing.is_exception)


def probed_rule(psl, parts):
    rule = psl._matching_rule(parts)
    return None if rule is None else (rule.depth, rule.is_exception)


def reference_public_suffix(psl, parts):
    found = reference_rule(psl, parts)
    if found is None:
        return parts[-1]
    depth, is_exception = found
    depth = min(depth - 1 if is_exception else depth, len(parts))
    return ".".join(parts[-depth:]) if depth else parts[-1]


def assert_agrees(psl, parts):
    assert probed_rule(psl, parts) == reference_rule(psl, parts)
    name = ".".join(parts)
    assert psl.public_suffix(name) == reference_public_suffix(psl, parts)


# Labels of the embedded list, so drawn names hit its layered, wildcard
# and exception rules, plus a few that no rule names.
EMBEDDED_LABELS = sorted(
    {label for entry in DEFAULT_SUFFIXES for label in entry.lstrip("!").split(".")}
    - {"*"}
) + ["www", "city", "foo", "mx1"]

# A tiny alphabet for random rule sets: rules and names collide often, and
# rules nest (``!a.b.c`` under ``!b.c`` under ``*.c``).
SMALL_LABELS = ["a", "b", "c", "d"]


def names(labels):
    return st.lists(st.sampled_from(labels), min_size=1, max_size=6)


@st.composite
def rule_entries(draw):
    labels = draw(st.lists(st.sampled_from(SMALL_LABELS), min_size=1, max_size=4))
    entry = ".".join(labels)
    if draw(st.booleans()):
        entry = "*." + entry
    if draw(st.booleans()):
        entry = "!" + entry
    return entry


class TestProbeMatchesLinearScan:
    @settings(max_examples=300)
    @given(names(EMBEDDED_LABELS))
    def test_embedded_list(self, parts):
        psl = PublicSuffixList.default()
        psl.set_cache(False)
        assert_agrees(psl, parts)

    @settings(max_examples=300)
    @given(st.lists(rule_entries(), min_size=1, max_size=12), names(SMALL_LABELS))
    def test_random_rule_sets(self, entries, parts):
        psl = PublicSuffixList.from_suffixes(entries)
        psl.set_cache(False)
        assert_agrees(psl, parts)

    def test_nested_exceptions_longest_wins(self):
        psl = PublicSuffixList.from_suffixes(["*.c", "!b.c", "!a.b.c"])
        assert probed_rule(psl, ["x", "a", "b", "c"]) == (3, True)
        assert psl.public_suffix("x.a.b.c") == "b.c"
        assert psl.public_suffix("x.b.c") == "c"
        assert psl.public_suffix("x.d.c") == "d.c"


class TestRuleShapes:
    @pytest.mark.parametrize("entry", ["a.*.b", "*.*.b", "!a.*.b", "a.b.*"])
    def test_non_leftmost_wildcard_rejected(self, entry):
        psl = PublicSuffixList()
        with pytest.raises(ValueError, match="leftmost"):
            psl.add_rule(entry)
        assert psl.rules == {}

    @pytest.mark.parametrize("entry", ["*", "*.b", "!*.b", "a*b.c"])
    def test_leftmost_wildcard_accepted(self, entry):
        psl = PublicSuffixList()
        psl.add_rule(entry)
        assert len(psl.rules) == 1
