"""Property-based tests for names and the PSL."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.names import (
    extract_fqdn,
    is_valid_fqdn,
    is_valid_hostname,
    normalize,
)
from repro.dnscore.psl import default_psl

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=10).filter(
    lambda s: not s.startswith("-") and not s.endswith("-")
)
hostname = st.lists(label, min_size=1, max_size=5).map(".".join)
arbitrary_text = st.text(max_size=120)


class TestNameProperties:
    @given(hostname)
    def test_normalize_idempotent(self, name):
        assert normalize(normalize(name)) == normalize(name)

    @given(hostname)
    def test_normalize_strips_trailing_dot(self, name):
        assert normalize(name + ".") == normalize(name)

    @given(hostname)
    def test_fqdn_implies_hostname(self, name):
        if is_valid_fqdn(name):
            assert is_valid_hostname(name)

    @given(hostname)
    def test_case_insensitivity(self, name):
        assert is_valid_hostname(name) == is_valid_hostname(name.upper())

    @given(arbitrary_text)
    def test_extract_never_crashes_and_returns_valid(self, text):
        result = extract_fqdn(text)
        assert result is None or is_valid_fqdn(result)

    @given(hostname)
    def test_valid_fqdn_extracted_from_banner(self, name):
        if is_valid_fqdn(name):
            assert extract_fqdn(f"220 {name} ESMTP ready") == normalize(name)


class TestPSLProperties:
    @given(hostname)
    @settings(max_examples=300)
    def test_registered_domain_is_suffix(self, name):
        psl = default_psl()
        registered = psl.registered_domain(name)
        if registered is not None:
            normalized = normalize(name)
            assert normalized == registered or normalized.endswith("." + registered)

    @given(hostname)
    def test_public_suffix_is_suffix_of_registered(self, name):
        psl = default_psl()
        registered = psl.registered_domain(name)
        if registered is not None:
            suffix = psl.public_suffix(name)
            assert registered.endswith(suffix)
            # Registered domain = public suffix + exactly one more label.
            assert len(registered.split(".")) == len(suffix.split(".")) + 1

    @given(hostname)
    def test_registered_domain_idempotent(self, name):
        psl = default_psl()
        registered = psl.registered_domain(name)
        if registered is not None:
            assert psl.registered_domain(registered) == registered

    @given(hostname, label)
    def test_prepending_label_preserves_registered_domain(self, name, extra):
        psl = default_psl()
        registered = psl.registered_domain(name)
        if registered is not None:
            assert psl.registered_domain(f"{extra}.{name}") == registered
