"""Mail-provider preference by country (Section 5.4, Figure 8).

For each ccTLD of interest and each of the four focal providers (Google,
Microsoft, Tencent, Yandex — the dominant US, Chinese and Russian mail
services), compute the share of that ccTLD's domains hosted by the
provider.  The ccTLD is used as a proxy for the registrant's nationality,
as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.companies import CompanyMap
from ..core.types import DomainInference
from .market_share import compute_market_share

FOCAL_PROVIDERS = ("google", "microsoft", "tencent", "yandex")

CCTLDS = (
    "br", "ar", "uk", "fr", "de", "it", "es", "ro",
    "ca", "au", "ru", "cn", "jp", "in", "sg",
)

# Home country of each focal provider's legal jurisdiction.


@dataclass(frozen=True)
class CountryCell:
    """One heatmap cell of Figure 8."""

    cctld: str
    provider: str
    count: float
    percent: float
    total_domains: int


@dataclass
class CountryPreferences:
    """Figure 8: ccTLD × provider usage matrix."""

    cells: dict[tuple[str, str], CountryCell]
    cctlds: tuple[str, ...]
    providers: tuple[str, ...]

    def cell(self, cctld: str, provider: str) -> CountryCell:
        return self.cells[(cctld, provider)]

    def percent(self, cctld: str, provider: str) -> float:
        return self.cells[(cctld, provider)].percent

    def us_share(self, cctld: str) -> float:
        """Combined Google + Microsoft share (the US-jurisdiction share)."""
        return self.percent(cctld, "google") + self.percent(cctld, "microsoft")

    def dominant_cctld(self, provider: str) -> str:
        """The ccTLD where *provider* has its largest share."""
        return max(self.cctlds, key=lambda cc: self.percent(cc, provider))


def country_preferences(
    inferences: dict[str, DomainInference],
    domains_by_cctld: dict[str, list[str]],
    company_map: CompanyMap,
    providers: tuple[str, ...] = FOCAL_PROVIDERS,
) -> CountryPreferences:
    """Compute the Figure 8 matrix from per-ccTLD domain lists."""
    cells = {}
    cctlds = tuple(sorted(domains_by_cctld))
    for cctld, domains in domains_by_cctld.items():
        share = compute_market_share(inferences, domains, company_map)
        for provider in providers:
            cells[(cctld, provider)] = CountryCell(
                cctld=cctld,
                provider=provider,
                count=share.count_of(provider),
                percent=100.0 * share.share_of(provider),
                total_domains=len(domains),
            )
    return CountryPreferences(cells=cells, cctlds=cctlds, providers=tuple(providers))
