"""OSM-payload extraction from web pages — the graft's ingest stage.

``OsmPayloadExtractor`` is a callable class whose state (compiled byte
regex, XML parser tables, options) is built once in ``__init__`` and
reused per batch (SURVEY.md §2.3: the graft's analogue of a
model/tokenizer load). The pipelines call it through ``extract_batch``,
a plain task function that keeps one extractor per worker process.

Contract (BASELINE.json input_hint): ``extract_text(html)`` must equal the
page's ``text`` column byte-for-byte, for every url.

Equivalent of the reference's blob-decode stage (S2, reference
mod.rs:199-201/320-321/450-451) with PBF blob decoding replaced by
HTML-embedded OSM XML extraction.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from .osmxml import columns_to_table, empty_columns, parse_osm_payload
from .vecparse import extract_payloads, parse_payload_batch

_PAYLOAD_RE = re.compile(
    rb'<script type="application/osm\+xml" id="osm-payload">(.*?)</script>',
    re.DOTALL,
)


def extract_text(html: bytes) -> str:
    """Extract the embedded OSM payload from page html — byte-identical to
    the ``text`` column ("" when the page carries no payload)."""
    m = _PAYLOAD_RE.search(html)
    return m.group(1).decode("utf-8") if m else ""


_PROCESS_EXTRACTORS: dict = {}


def extract_batch(batch: pa.Table, include_url: bool = False, validate: bool = True) -> pa.Table:
    """Task-form extraction: per-worker-process cached extractor state.

    Stateless Ray tasks dispatch with far lower per-task latency than actor
    pools in this Ray version; the compiled state is amortized via a
    process-global cache, so tasks get actor-like state reuse with task
    elasticity.
    """
    key = (include_url, validate)
    ex = _PROCESS_EXTRACTORS.get(key)
    if ex is None:
        ex = OsmPayloadExtractor(include_url=include_url, validate=validate)
        _PROCESS_EXTRACTORS[key] = ex
    return ex(batch)


class OsmPayloadExtractor:
    """pages batch → unified element rows (+ provenance url).

    ``on_error``: "raise" (default — a malformed payload or violated
    extraction invariant aborts the job loudly) or "skip" (count and drop
    the page; at web scale a corrupt page must not kill a 10^12-row job).
    Skipped-page counts are exposed via the ``n_skipped`` attribute
    (cumulative per extractor).

    ``parser``: "vec" (default — the whole-batch vectorized parser, with
    the scalar ET loop as its fallback) or "et" (the scalar loop only).
    """

    def __init__(
        self,
        include_url: bool = False,
        validate: bool = True,
        on_error: str = "raise",
        parser: str = "vec",
    ):
        # compiled once per extractor
        self.payload_re = _PAYLOAD_RE
        self.include_url = include_url
        self.validate = validate
        self.on_error = on_error
        if parser not in ("vec", "et"):
            raise ValueError(f"parser must be 'vec' or 'et', got {parser!r}")
        self.parser = parser
        self.n_skipped = 0

    def _call_vectorized(self, batch: pa.Table) -> pa.Table:
        """Whole-batch Arrow/RE2/numpy path (sources.vecparse) — measured
        2.5× over the scalar ET loop, byte-identical output. Raises
        VecContractError (→ caller falls back to the scalar loop) on any
        payload outside the vectorized dialect contract, and ValueError on
        a violated extraction invariant with on_error='raise'."""
        payloads = extract_payloads(batch["html"])
        if self.validate and "text" in batch.column_names:
            ok = pc.equal(payloads, pc.fill_null(batch["text"].combine_chunks(), ""))
            if not pc.all(ok).as_py():
                if self.on_error == "raise":
                    bad = pc.index(ok, False).as_py()
                    url = batch["url"][bad].as_py() if "url" in batch.column_names else None
                    raise ValueError(
                        f"extraction invariant violated for url={url!r}: "
                        f"extracted text differs from the text column"
                    )
                # skip-counting needs the per-page loop
                from .vecparse import VecContractError

                raise VecContractError("invariant mismatch with on_error=skip")
        table, page_idx = parse_payload_batch(payloads)
        if self.include_url:
            urls = pc.take(batch["url"].combine_chunks(), pa.array(page_idx, pa.int64()))
            table = table.append_column("url", urls)
        return table

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.parser == "vec":
            from .vecparse import VecContractError

            try:
                return self._call_vectorized(batch)
            except (VecContractError, pa.ArrowInvalid):
                pass  # fall through to the scalar per-payload loop
        return self._call_scalar(batch)

    def _call_scalar(self, batch: pa.Table) -> pa.Table:
        htmls = batch["html"].to_pylist()
        urls = (
            batch["url"].to_pylist()
            if "url" in batch.column_names
            else [None] * len(htmls)
        )
        texts = batch["text"].to_pylist() if self.validate and "text" in batch.column_names else None
        cols = empty_columns()
        page_urls: list[str] = []
        for i, html in enumerate(htmls):
            try:
                m = self.payload_re.search(html)
                payload = m.group(1).decode("utf-8") if m else ""
                if texts is not None and payload != texts[i]:
                    raise ValueError(
                        f"extraction invariant violated for url={urls[i]!r}: "
                        f"extracted text differs from the text column"
                    )
                # C-accelerated ET: measured 2x faster than the pure-python
                # regex parser, which remains only as the differential
                # oracle of tests/test_fast_parser.py
                n = parse_osm_payload(payload, cols)
            except Exception:
                if self.on_error == "raise":
                    raise
                self.n_skipped += 1
                continue
            if self.include_url:
                page_urls.extend([urls[i]] * n)
        table = columns_to_table(cols)
        if self.include_url:
            table = table.append_column("url", pa.array(page_urls, pa.string()))
        return table
