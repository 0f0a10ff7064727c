"""Synthetic Internet: catalog, population model, evolution, and builder."""

from .build import World, WorldConfig, build_world
from .catalog import CATALOG, catalog_by_slug, hosting_companies, mail_companies, security_companies
from .toplist import CorpusFunnel, ToplistSimulator, build_study_corpus, stable_domains
from .entities import (
    ASNSpec,
    CompanyInfra,
    CompanyKind,
    CompanySpec,
    DatasetTag,
    DomainAssignment,
    DomainEntity,
    MailHost,
    ProvisioningStyle,
    TRUTH_NONE,
    TRUTH_SELF,
)
from .population import NUM_SNAPSHOTS, SNAPSHOT_DATES

__all__ = [
    "ASNSpec",
    "CATALOG",
    "CompanyInfra",
    "CorpusFunnel",
    "ToplistSimulator",
    "build_study_corpus",
    "stable_domains",
    "CompanyKind",
    "CompanySpec",
    "DatasetTag",
    "DomainAssignment",
    "DomainEntity",
    "MailHost",
    "NUM_SNAPSHOTS",
    "ProvisioningStyle",
    "SNAPSHOT_DATES",
    "TRUTH_NONE",
    "TRUTH_SELF",
    "World",
    "WorldConfig",
    "build_world",
    "catalog_by_slug",
    "hosting_companies",
    "mail_companies",
    "security_companies",
]
