"""End-to-end pipelines: pages → element tables → PT routes / areas.

The Ray-Data-native equivalent of the reference's three entry points
(``Parser::new`` + ``get_public_transports`` / ``get_areas`` / CLI,
reference mod.rs:147-173, 511-527, 580-654, bin.rs:42-84).

Default parameters mirror the reference: CLI gap 150.0 m (bin.rs:38-39),
integration-test gap 1500.0 m (tests/integration_test.rs:6).
"""

from __future__ import annotations

from functools import partial

import ray.data as rd

from ..kernel.filters import AA, PTV2
from ..sources.extract import extract_batch
from ..stages.assemble import cli_area_filter, get_areas, get_public_transports
from ..stages.elements import (
    ParserTables,
    _parser_tables_from_blocks,
    build_parser_tables,
    extract_elements,
    read_pages,
)

DEFAULT_GAP = 150.0


def parser_tables_from_pages(
    pages_path: str,
    filters: str,
    *,
    validate: bool = True,
    dedup: bool = False,
    id_set_mode: str = "exact",
) -> ParserTables:
    """pages parquet → ParserTables (the reference Parser::new equivalent).

    With ``id_set_mode="exact"`` (default) each page block is extracted
    inside the first task of the ``build_parser_tables`` plan, so the
    read is the only streaming execution, no element row goes through
    the object store before its kind split, and the driver waits for
    none of the plan's tasks (the tables hold their refs until read).

    ``id_set_mode="bloom"`` switches the J1/J2 semi-join sides from exact
    sorted-array broadcasts to Bloom prefilter + exact post-join (same
    tables); it feeds the streaming ``extract_elements`` output to
    ``build_parser_tables``."""
    pages = read_pages(pages_path, validate=validate)
    if id_set_mode == "exact":
        return _parser_tables_from_blocks(
            pages, filters, dedup=dedup, prepare=partial(extract_batch, validate=validate)
        )
    elements = extract_elements(pages, validate=validate)
    return build_parser_tables(elements, filters, dedup=dedup, id_set_mode=id_set_mode)


def public_transports_from_pages(
    pages_path: str,
    gap: float = DEFAULT_GAP,
    filters: str = PTV2,
    *,
    validate: bool = True,
    id_set_mode: str = "exact",
) -> rd.Dataset:
    """new_ptv2 + get_public_transports, end-to-end."""
    tables = parser_tables_from_pages(pages_path, filters, validate=validate, id_set_mode=id_set_mode)
    return get_public_transports(tables, gap)


def areas_from_pages(
    pages_path: str,
    gap: float = DEFAULT_GAP,
    filters: str = AA,
    *,
    cli_parity: bool = False,
    validate: bool = True,
) -> rd.Dataset:
    """new(filters) + get_areas; ``cli_parity`` applies the CLI-only
    status!=0 / empty-geometry drop (reference bin.rs:68-73)."""
    areas = get_areas(parser_tables_from_pages(pages_path, filters, validate=validate), gap)
    return cli_area_filter(areas) if cli_parity else areas


def parser_tables_from_pbf(
    pbf_path: str,
    filters: str,
    *,
    dedup: bool = False,
) -> ParserTables:
    """``.osm.pbf`` file → ParserTables — the reference's literal entry
    point (``Parser::new(path, filters)``, mod.rs:147-173) over its native
    binary input. The blob-parallel source (sources.pbf) replaces the
    pages→extract front half; every later stage is shared."""
    from ..sources.pbf import read_pbf_elements

    return build_parser_tables(read_pbf_elements(pbf_path), filters, dedup=dedup)


def public_transports_from_pbf(
    pbf_path: str,
    gap: float = DEFAULT_GAP,
    filters: str = PTV2,
) -> rd.Dataset:
    """``Parser::new_ptv2(path)`` + ``get_public_transports`` over a real
    PBF file (the reference README's workload)."""
    return get_public_transports(parser_tables_from_pbf(pbf_path, filters), gap)


def areas_from_pbf(
    pbf_path: str,
    gap: float = DEFAULT_GAP,
    filters: str = AA,
    *,
    cli_parity: bool = False,
) -> rd.Dataset:
    """``Parser::new(path, filters)`` + ``get_areas`` over a real PBF."""
    areas = get_areas(parser_tables_from_pbf(pbf_path, filters), gap)
    return cli_area_filter(areas) if cli_parity else areas
