"""Built-in certified families: the sporadic non-abelian order-32 PDF and
the complement pairs of the first searched Hadamard difference sets for
u = 1 and u = 2, built by constructions.hadamard_pdf_from_hds."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .constructions import hadamard_pdf_from_hds
from .groups import DEFAULT_CONVENTION, DiffConvention, Semidirect32
from .multisets import (DesignFamily, VerificationReport, _family,
                        make_family, verify)

# blocks of the order-32 family, as (x, y) pairs under the twisted law
ORDER32_BLOCKS_XY = (
    ((0, 0), (2, 0)),
    ((1, 0), (3, 4)),
    ((0, 1), (0, 3), (1, 2), (1, 5), (1, 6), (3, 3)),
)


@lru_cache(maxsize=None)
def order32_family() -> DesignFamily:
    """The sporadic (32,[2,2,6,22],16) family; last block is the complement."""
    g = Semidirect32()
    blocks = [sorted(g.index_of(xy) for xy in blk) for blk in ORDER32_BLOCKS_XY]
    used = set().union(*blocks)
    blocks.append(sorted(set(g.elements()) - used))
    return make_family(g, blocks)


@lru_cache(maxsize=None)
def trivial_hds_family() -> DesignFamily:
    """{D, G minus D} over Z4 for the one-element difference set {0}."""
    return hadamard_pdf_from_hds(1).family


@lru_cache(maxsize=None)
def hds16_family() -> DesignFamily:
    """{D, G minus D} over Z4 x Z4 for the first searched (16,6,2)-DS."""
    return hadamard_pdf_from_hds(2).family


_BUILDERS = {
    "order-32": order32_family,
    "trivial-hds": trivial_hds_family,
    "hds16": hds16_family,
}


def catalog_family(name: str) -> DesignFamily:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"choose from {sorted(_BUILDERS)}") from None


@dataclass(frozen=True)
class CatalogCertification:
    name: str
    convention: DiffConvention
    report: VerificationReport

    @property
    def certified(self) -> bool:
        return self.report.hadamard


def _certify(name: str, convention: DiffConvention) -> CatalogCertification:
    fam = catalog_family(name)
    if fam.convention is not convention:
        fam = _family(fam.group, fam.positions, fam.offsets, fam.forbidden,
                      convention)
    # a family built and verified under this convention returns its kept
    # report
    return CatalogCertification(name, convention, verify(fam))


def certify_catalog() -> list[CatalogCertification]:
    """Verify every entry; the order-32 one under both conventions.

    The sporadic family's source states no difference convention, so both
    are run and the certification records which ones succeed.
    """
    out = [_certify("order-32", conv) for conv in DiffConvention]
    out.append(_certify("trivial-hds", DEFAULT_CONVENTION))
    out.append(_certify("hds16", DEFAULT_CONVENTION))
    return out

