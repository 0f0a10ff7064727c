"""Experiment E1 — Tables 1, 2 and 3: the worked examples of Section 3.

Measures the paper's showcase domains in the simulated world and renders:

* Table 1 — domain, MX record, MX IP resolution, ASN;
* Table 2 — Banner/EHLO and TLS subject CN observed via SMTP;
* a Table 3-style methodology summary — the provider ID each domain is
  assigned and which evidence source decided it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.render import format_table
from ..core.pipeline import PriorityPipeline
from ..core.types import DomainStatus
from ..measure.dataset import DomainMeasurement
from .common import LAST_SNAPSHOT, StudyContext

SHOWCASE = (
    "netflix.com", "gsipartners.com", "beats24-7.com", "jeniustoto.net", "utexas.edu",
)


@dataclass
class Tab123Result:
    measurements: dict[str, DomainMeasurement]
    inferences: dict[str, "object"]

    def render(self) -> str:
        table1_rows = []
        table2_rows = []
        table3_rows = []
        for domain in SHOWCASE:
            primary = self.measurements[domain].primary_mx
            # DNS faults can leave a domain with no MX at all; that is
            # missing evidence (Table 4 counts it), rendered as such.
            mx = primary[0] if primary else None
            ip = mx.ips[0] if mx is not None and mx.ips else None
            asn_text = (
                f"{ip.as_info.asn} ({ip.as_info.name})"
                if ip is not None and ip.as_info is not None
                else "N/A"
            )
            table1_rows.append(
                [
                    domain,
                    mx.name if mx is not None else "no MX observed",
                    ip.address if ip else "N/A",
                    asn_text,
                ]
            )
            scan = ip.scan if ip is not None else None
            banner = scan.banner if scan and scan.banner else "N/A"
            subject = (
                scan.certificate.subject_cn
                if scan and scan.certificate is not None
                else "N/A"
            )
            table2_rows.append([domain, banner, subject])

            inference = self.inferences[domain]
            if inference.status is DomainStatus.INFERRED:
                provider = ", ".join(sorted(inference.attributions))
                source = ", ".join(
                    sorted({i.source.value for i in inference.mx_identities})
                )
            else:
                provider = f"({inference.status.value})"
                source = "-"
            table3_rows.append([domain, provider, source])

        return "\n\n".join(
            [
                format_table(
                    ["Domain", "MX", "MX IP Resolution", "ASN of IP"],
                    table1_rows,
                    title="Table 1 — example domains with related mail information",
                ),
                format_table(
                    ["Domain", "Banner/EHLO", "Subject CN"],
                    table2_rows,
                    title="Table 2 — additional information from SMTP sessions",
                ),
                format_table(
                    ["Domain", "Provider ID", "Evidence"],
                    table3_rows,
                    title="Table 3 — provider IDs assigned by the methodology",
                ),
            ]
        )


def run(ctx: StudyContext, snapshot_index: int = LAST_SNAPSHOT) -> Tab123Result:
    measurements = {}
    for domain in SHOWCASE:
        measurement = ctx.gatherer.gather_domain(domain, snapshot_index)
        assert measurement is not None
        measurements[domain] = measurement
    # Run the pipeline with corpus context (so popularity counters are
    # meaningful) plus the showcase domains.
    corpus = {}
    from ..world.entities import DatasetTag

    for dataset in (DatasetTag.ALEXA, DatasetTag.COM):
        gathered = ctx.measurements(dataset, snapshot_index)
        assert gathered is not None
        corpus.update(gathered)
    corpus.update(measurements)
    pipeline = PriorityPipeline(ctx.world.trust_store, ctx.company_map, ctx.world.psl)
    result = pipeline.run(corpus)
    inferences = {domain: result[domain] for domain in SHOWCASE}
    return Tab123Result(measurements=measurements, inferences=inferences)
