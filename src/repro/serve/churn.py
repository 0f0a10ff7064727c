"""Deterministic synthetic churn over a measurement snapshot.

Benchmarks and equivalence tests need snapshots that differ from a base
snapshot by an exact, controllable fraction of domains.  Real snapshots
churn at whatever rate the world generator produced; this module rewrites
a chosen fraction of domains' MX evidence deterministically (seeded
``random.Random``) so the same ``(measurements, rate, seed)`` always
yields byte-identical output.

Mutations keep one observation value per address, as a gather does:
mutated domains get *fresh unique* MX names and addresses (reserved
240/8 space the world generator never allocates) rather than edited
copies of existing rows.  The codec writes rows by value, so each
churned observation brings its own AS row (all equal to ``CHURN_AS``)
and scan row.  Untouched domains keep their original (shared) objects,
and snapshot order is preserved.
"""

from __future__ import annotations

import random

from ..measure.caida import ASInfo
from ..measure.censys import Port25State, PortScanRecord
from ..measure.dataset import DomainMeasurement, IPObservation, MXData

CHURN_AS = ASInfo(asn=64512, name="CHURN-SYNTH", country="ZZ")


def synthesize_churn(
    measurements: dict[str, DomainMeasurement],
    rate: float,
    seed: int = 0,
) -> dict[str, DomainMeasurement]:
    """A copy of *measurements* with ~``rate`` of domains' evidence rewritten.

    Of the selected domains, most move to a fresh synthetic provider
    (new MX name, new address, new banner — maximal evidence churn); every
    eighth loses its MX records entirely (the NO_MX path).  Selection and
    mutation are pure functions of ``(domains, rate, seed)``.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"churn rate must be within [0, 1], got {rate}")
    names = list(measurements)
    count = round(len(names) * rate)
    if not count:
        return dict(measurements)
    rng = random.Random(seed)
    selected = rng.sample(names, count)
    churned = dict(measurements)
    for index, domain in enumerate(selected):
        original = measurements[domain]
        if index % 8 == 7:
            mutated = DomainMeasurement(
                domain=domain,
                measured_on=original.measured_on,
                mx_set=(),
                txt=original.txt,
            )
        else:
            mutated = DomainMeasurement(
                domain=domain,
                measured_on=original.measured_on,
                mx_set=(_synthetic_mx(index, seed, original),),
                txt=original.txt,
            )
        churned[domain] = mutated
    return churned


def _synthetic_mx(index: int, seed: int, original: DomainMeasurement) -> MXData:
    # 240/8 is reserved ("future use"): the world generator never hands
    # these addresses out, so each mutated domain gets a unique endpoint
    # and each address keeps one observation value.
    address = f"240.{seed % 200}.{index // 250}.{index % 250}"
    host = f"mx-{seed}-{index}.churn.invalid"
    scan = PortScanRecord(
        address=address,
        scanned_on=original.measured_on,
        state=Port25State.OPEN,
        banner=f"220 {host} ESMTP churn",
        ehlo=f"250 {host}",
        starttls=False,
        certificate=None,
    )
    observation = IPObservation(address=address, as_info=CHURN_AS, scan=scan)
    return MXData(name=host, preference=10, ips=(observation,))
