"""Deterministic Common-Crawl-style page corpus synthesis.

Input-table shape per BASELINE.json input_hint:
    url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string

Each page's ``text`` is an OSM XML payload (possibly empty); ``html`` is a
page template with the payload embedded in a marked <script> block. The
extraction contract: ``extract.extract_text(html) == text`` BYTE-IDENTICAL
for every url (tested in tests/test_pipeline_golden.py).

``replicas`` scales the corpus: replica r offsets every element id by
r * 10^12 and shifts longitudes by a bounded deterministic offset, producing
r independent copies of the OSM fixture whose pipeline outcomes are known
(per replica: one Broken relation, one 90-node OK relation). This gives
arbitrarily large deterministic benchmark corpora with exact expected
outputs — no wall-clock, no external data.
"""

from __future__ import annotations

import datetime
import random

import pyarrow as pa
import pyarrow.parquet as pq

from ..fixtures import load_osm_fixture
from .osmxml import elements_to_xml

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

PAYLOAD_OPEN = '<script type="application/osm+xml" id="osm-payload">'
PAYLOAD_CLOSE = "</script>"

_EPOCH = datetime.datetime(2024, 1, 1)

_FILLER_ES = [
    "Sistema integrado de transporte público.",
    "Consulta los horarios y recorridos de tu línea.",
    "La estación Metrovía permanecerá cerrada por obras.",
    "Fundación Municipal de Transporte — avisos y novedades.",
]
_FILLER_EN = [
    "Public transit network overview and live departures.",
    "Explore route maps, stops and accessibility details.",
    "Service alert: trolleybus line diverted this weekend.",
    "Open data downloads for the metropolitan transit feed.",
]

ID_STRIDE = 10**12  # replica id offset; int64-safe for < 9.2e6 replicas


def _shift_element(el: dict, kind: str, replica: int) -> dict:
    """Deterministic replica transform: offset ids, translate on a 2D grid.

    Grid: 712 longitude slots × latitude bands — every replica gets a
    UNIQUE (slot, band), so replicas never stack (stacking creates
    synthetic mega-cell skew and superlinear cross-replica join output).
    Slot s > 0 shifts by s × 0.5° − 100°; from slot 200 on one more 0.5°
    step skips the zero shift that slot 0 holds, and the largest shift
    (+256°) keeps the fixture's longitudes (−80°…−78.5°) inside ±180°.
    Slots are 0.5° (~55 km) apart — far beyond any gap tolerance or kNN
    radius, so replicas are spatially independent. Latitude bands shift by
    0.5° each; within ±8° of the equator the east-west meter distortion is
    < 0.4%, far inside the 295 m (~20%) margin of the closest gap decision
    in the fixture (measured), so per-replica flatten outcomes are
    invariant.
    """
    if replica == 0:
        return el
    off = replica * ID_STRIDE
    slot = replica % 712
    band = replica // 712
    lon_shift = (slot + (slot >= 200)) * 0.5 - 100.0 if slot else 0.0
    lat_shift = band * 0.5
    out = dict(el)
    out["id"] = el["id"] + off
    if kind == "node":
        out["lon"] = el["lon"] + lon_shift
        out["lat"] = el["lat"] + lat_shift
    elif kind == "way":
        out["node_refs"] = [r + off for r in el["node_refs"]]
    else:
        out["members"] = [dict(m, ref=m["ref"] + off) for m in el["members"]]
    return out


def _page_html(rng: random.Random, title: str, payload: str, lang: str) -> bytes:
    fillers = _FILLER_ES if lang == "es" else _FILLER_EN
    paras = "".join(f"<p>{rng.choice(fillers)}</p>" for _ in range(rng.randint(1, 4)))
    block = f"{PAYLOAD_OPEN}{payload}{PAYLOAD_CLOSE}" if payload else ""
    html = (
        f'<!DOCTYPE html><html lang="{lang}"><head><meta charset="utf-8">'
        f"<title>{title}</title></head><body><h1>{title}</h1>{paras}{block}"
        f"<footer>© transit portal</footer></body></html>"
    )
    return html.encode("utf-8")


def synthesize_pages_table(
    replicas: int = 1,
    elements_per_page: int = 24,
    empty_page_ratio: float = 0.2,
    seed: int = 42,
) -> pa.Table:
    """Build the deterministic pages table in memory (Arrow)."""
    fx = load_osm_fixture()
    rng = random.Random(seed)
    urls: list[str] = []
    tss: list[datetime.datetime] = []
    htmls: list[bytes] = []
    texts: list[str] = []
    langs: list[str] = []
    seq = 0

    def emit(payload: str, lang: str, title: str):
        nonlocal seq
        urls.append(f"https://osm.example/{seq:08d}")
        tss.append(_EPOCH + datetime.timedelta(seconds=seq * 17))
        htmls.append(_page_html(rng, title, payload, lang))
        texts.append(payload)
        langs.append(lang)
        seq += 1

    for r in range(replicas):
        # group each replica's elements into pages: nodes, then ways, then
        # relations (scan-order independence is exercised by the pipeline's
        # set-semantics joins, not by page order)
        chunks: list[tuple[str, list[dict]]] = []
        for kind, key in (("node", "nodes"), ("way", "ways"), ("relation", "relations")):
            els = [_shift_element(e, kind, r) for e in fx[key]]
            for i in range(0, len(els), elements_per_page):
                chunks.append((kind, els[i : i + elements_per_page]))
        for kind, els in chunks:
            lang = "es" if rng.random() < 0.7 else "en"
            payload = elements_to_xml(
                nodes=els if kind == "node" else (),
                ways=els if kind == "way" else (),
                relations=els if kind == "relation" else (),
            )
            emit(payload, lang, f"transit data shard {kind} r{r}")
            if rng.random() < empty_page_ratio:
                emit("", "en" if rng.random() < 0.5 else "es", "no data here")

    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def synthesize_pages_parquet(
    path: str,
    replicas: int = 1,
    elements_per_page: int = 24,
    empty_page_ratio: float = 0.2,
    seed: int = 42,
    row_group_size: int = 2048,
    files: int | None = None,
) -> str:
    """Write the deterministic pages corpus; returns path.

    ``files=None`` → one parquet file (small test fixtures). ``files=K`` →
    ``path`` is a DIRECTORY of K shard files: Ray's parquet read
    parallelizes at file granularity, so a single-file corpus reads as ONE
    block and serializes every downstream stage onto one worker — shard
    any corpus meant for parallel processing (the 100 TB layout is many
    files per partition anyway).
    """
    import os

    table = synthesize_pages_table(replicas, elements_per_page, empty_page_ratio, seed)
    if files is None:
        pq.write_table(table, path, row_group_size=row_group_size)
        return path
    os.makedirs(path, exist_ok=True)
    n = table.num_rows
    per = (n + files - 1) // files
    for i in range(files):
        shard = table.slice(i * per, per)
        if shard.num_rows == 0:
            break
        pq.write_table(
            shard, os.path.join(path, f"part-{i:05d}.parquet"), row_group_size=row_group_size
        )
    return path


def synthesize_admin_pages_parquet(path: str) -> str:
    """Tiny deterministic admin-boundary corpus: one closable-ring relation
    (status 102 at gap 150) and one broken one (501) — exercises the
    relation-area ('r') closed-ring path end-to-end."""
    from .osmxml import elements_to_xml

    nodes = [
        {"id": 1, "lat": 0.0, "lon": 0.0, "tags": {}, "info": {}},
        {"id": 2, "lat": 0.0, "lon": 0.01, "tags": {}, "info": {}},
        {"id": 3, "lat": 0.01, "lon": 0.01, "tags": {}, "info": {}},
        {"id": 4, "lat": 0.001, "lon": 0.0, "tags": {}, "info": {}},  # ~111m gap
        {"id": 11, "lat": 5.0, "lon": 5.0, "tags": {}, "info": {}},
        {"id": 12, "lat": 5.0, "lon": 5.01, "tags": {}, "info": {}},
        {"id": 13, "lat": 5.5, "lon": 5.5, "tags": {}, "info": {}},
    ]
    ways = [
        {"id": 100, "node_refs": [1, 2, 3], "tags": {}, "info": {}},
        {"id": 101, "node_refs": [3, 4], "tags": {}, "info": {}},
        {"id": 110, "node_refs": [11, 12], "tags": {}, "info": {}},
        {"id": 111, "node_refs": [12, 13], "tags": {}, "info": {}},
    ]
    relations = [
        {
            "id": 9000,
            "tags": {"name": "Distrito A", "admin_level": "8", "boundary": "administrative"},
            "info": {"version": "3"},
            "members": [
                {"role": "outer", "ref": 100, "mtype": 1},
                {"role": "outer", "ref": 101, "mtype": 1},
            ],
        },
        {
            "id": 9001,
            "tags": {"name": "Distrito B", "admin_level": "8", "boundary": "administrative"},
            "info": {},
            "members": [
                {"role": "outer", "ref": 110, "mtype": 1},
                {"role": "outer", "ref": 111, "mtype": 1},
            ],
        },
    ]
    payload = elements_to_xml(nodes, ways, relations)
    html = f"<html><body>{PAYLOAD_OPEN}{payload}{PAYLOAD_CLOSE}</body></html>".encode()
    t = pa.table(
        {
            "url": pa.array(["https://osm.example/aa0"], pa.string()),
            "warc_ts": pa.array([0], pa.timestamp("us")),
            "html": pa.array([html], pa.binary()),
            "text": pa.array([payload], pa.string()),
            "lang": pa.array(["es"], pa.string()),
        }
    )
    pq.write_table(t, path)
    return path


def synthesize_pages_jsonl(path: str, replicas: int = 1, seed: int = 42) -> str:
    """Write the pages corpus as gzip-free JSONL shards (dir of .jsonl files)
    — the other common crawl-dump layout; html is base64-encoded."""
    import base64
    import json
    import os

    table = synthesize_pages_table(replicas, seed=seed)
    os.makedirs(path, exist_ok=True)
    rows = table.to_pylist()
    per = max(1, (len(rows) + 3) // 4)
    for i in range(0, len(rows), per):
        with open(os.path.join(path, f"part-{i // per:05d}.jsonl"), "w") as f:
            for r in rows[i : i + per]:
                f.write(
                    json.dumps(
                        {
                            "url": r["url"],
                            "warc_ts": r["warc_ts"].isoformat(),
                            "html_b64": base64.b64encode(r["html"]).decode(),
                            "text": r["text"],
                            "lang": r["lang"],
                        }
                    )
                    + "\n"
                )
    return path
