"""Delta detection over encoded measurement payloads.

The serving layer (:mod:`repro.serve`) ingests new snapshots against
artifacts that already live in the store.  Decoding both snapshots to
find what changed is the exact waste this module removes:
:func:`diff` and :func:`diff_signatures` compare per-domain *evidence
signatures* read straight off the payload columns and report exactly
which domains changed, appeared, or disappeared.

The column readers themselves, :class:`SnapshotView` and
:class:`ResultView`, live in :mod:`repro.store.codec` beside their
encoders (one module owns the layout) and are re-exported here.

Signature semantics
-------------------

A domain's signature covers everything the inference pipeline can observe
about it: MX names and preferences, per-address routing (ASN, AS name,
country), port-25 scan evidence (state, banner, EHLO, STARTTLS, the full
certificate content), apex TXT records, and — the one date-dependent
input — whether each certificate's validity window contains the scan
date.  Measurement *dates* themselves are excluded: re-observing
identical evidence on a later day must compare equal, otherwise every
snapshot would count as 100% churn.  Certificate issuer *trust* is a
static property of the world's trust store, so a validity-window bit is
the only trust input that can change between snapshots.

Signatures are built bottom-up (per cert, scan, AS, observation, MX row —
each level hashing a small tuple of its children's signatures) with the
codec's deterministic 64-bit hash, and are **embedded in the payload** at
encode time: :func:`repro.store.codec.encode_measurements` appends the
per-domain signature column, so reading them costs one array read.  The
column is required since ``CODEC_VERSION`` 3; a payload without it does
not decode.  Signatures compare correctly across processes and store
generations.  A hash collision (odds ~2^-64 per pair) would mask a
change; acceptable for a change-detection signal backed by an
end-to-end equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import ResultView, SnapshotView

__all__ = ["DeltaReport", "ResultView", "SnapshotView", "diff", "diff_signatures"]


@dataclass(frozen=True)
class DeltaReport:
    """Which domains differ between two snapshot payloads."""

    changed: tuple[str, ...]  # present in both, evidence differs
    added: tuple[str, ...]  # only in the new payload
    removed: tuple[str, ...]  # only in the old payload
    unchanged: int

    @property
    def dirty(self) -> int:
        return len(self.changed) + len(self.added)

    @property
    def total(self) -> int:
        """Domains in the new payload."""
        return len(self.changed) + len(self.added) + self.unchanged

    @property
    def churn(self) -> float:
        """Fraction of the new payload whose evidence is not carried over."""
        return self.dirty / self.total if self.total else 0.0


def diff_signatures(
    previous: dict[str, int], view: SnapshotView
) -> DeltaReport:
    """Delta of a new snapshot view against previously recorded signatures."""
    signatures = view.signatures()
    changed = []
    added = []
    unchanged = 0
    for domain, signature in signatures.items():
        old = previous.get(domain)
        if old is None:
            added.append(domain)
        elif old != signature:
            changed.append(domain)
        else:
            unchanged += 1
    removed = [domain for domain in previous if domain not in signatures]
    return DeltaReport(
        changed=tuple(changed),
        added=tuple(added),
        removed=tuple(removed),
        unchanged=unchanged,
    )


def diff(previous_payload: bytes, new_payload: bytes) -> DeltaReport:
    """Which domains' evidence differs between two measurement payloads."""
    return diff_signatures(
        SnapshotView(previous_payload).signatures(), SnapshotView(new_payload)
    )
