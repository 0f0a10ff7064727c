"""The paper's contribution: the priority-based MX-to-provider methodology."""

from .baselines import (
    ALL_APPROACHES,
    APPROACH_BANNER,
    APPROACH_CERT,
    APPROACH_MX_ONLY,
    APPROACH_PRIORITY,
    MXOnlyApproach,
    SingleSourceApproach,
    banner_based,
    cert_based,
)
from .certgroup import CertGroup, CertificateGroups, CertificatePreprocessor
from .companies import NONE_LABEL, SELF_LABEL, CompanyMap
from .domainident import DomainIdentifier
from .ipident import IPIdentifier
from .misident import (
    CorrectionStats,
    MisidentificationChecker,
    PopularityCounters,
)
from .mxident import MXIdentifier, mx_fallback_id
from .pipeline import PipelineConfig, PipelineResult, PriorityPipeline
from .spf import EventualProviderAnalyzer, SPFRecord, parse_spf
from .types import (
    DomainInference,
    DomainStatus,
    EvidenceSource,
    IPIdentity,
    MXIdentity,
)

__all__ = [
    "ALL_APPROACHES",
    "APPROACH_BANNER",
    "APPROACH_CERT",
    "APPROACH_MX_ONLY",
    "APPROACH_PRIORITY",
    "CertGroup",
    "CertificateGroups",
    "CertificatePreprocessor",
    "CompanyMap",
    "CorrectionStats",
    "DomainIdentifier",
    "DomainInference",
    "DomainStatus",
    "EventualProviderAnalyzer",
    "EvidenceSource",
    "SPFRecord",
    "parse_spf",
    "IPIdentifier",
    "IPIdentity",
    "MXIdentifier",
    "MXIdentity",
    "MXOnlyApproach",
    "MisidentificationChecker",
    "NONE_LABEL",
    "PipelineConfig",
    "PipelineResult",
    "PopularityCounters",
    "PriorityPipeline",
    "SELF_LABEL",
    "SingleSourceApproach",
    "banner_based",
    "cert_based",
    "mx_fallback_id",
]
