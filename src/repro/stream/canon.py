"""One observation object per address for merged measurement dicts.

Within one snapshot every distinct IP address has exactly one
observation value.  The memoizing gatherer also hands out one object
per address, but decoded batch payloads each build their own, so a
merge of several batches would hold an equal copy per batch.
:func:`canonicalize_measurements` folds those copies into the first
object seen per address (a fresh :class:`MXData` per occurrence, domain
order untouched).  It saves memory, not bytes: the codec writes rows by
value, so any sharing of equal objects encodes to the same payload.
"""

from __future__ import annotations

from typing import Iterable

from ..measure.dataset import DomainMeasurement, IPObservation, MXData
from ..store.codec import decode_measurements


def canonicalize_measurements(
    measurements: dict[str, DomainMeasurement],
) -> dict[str, DomainMeasurement]:
    """Rebuild ``measurements`` with one observation object per address."""
    obs_pool: dict[str, IPObservation] = {}
    output: dict[str, DomainMeasurement] = {}
    for domain, measurement in measurements.items():
        mx_set = tuple(
            MXData(
                name=mx.name,
                preference=mx.preference,
                ips=tuple(obs_pool.setdefault(ip.address, ip) for ip in mx.ips),
            )
            for mx in measurement.mx_set
        )
        output[domain] = DomainMeasurement(
            domain=measurement.domain,
            measured_on=measurement.measured_on,
            mx_set=mx_set,
            txt=measurement.txt,
        )
    return output


def merge_payloads(payloads: Iterable[bytes]) -> dict[str, DomainMeasurement]:
    """Decode encoded batch payloads in order into one canonical dict.

    Batches are contiguous slices of the sorted target list, so a plain
    in-order merge reproduces the serial iteration order; canonicalizing
    across batches restores the cross-batch observation sharing a single
    unbatched gather would have produced.
    """
    merged: dict[str, DomainMeasurement] = {}
    for payload in payloads:
        merged.update(decode_measurements(payload))
    return canonicalize_measurements(merged)
