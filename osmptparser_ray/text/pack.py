"""Sequence packing: assign documents to fixed-token-budget training rows.

The standard LLM-pretraining data layout concatenates documents (in a
deterministic order) into one token stream and slices that stream into
fixed-length training sequences; a document belongs to the sequence its
FIRST token lands in (documents may straddle a boundary — the next
sequence starts with the document's tail, exactly like GPT-style packing
with crossed documents).

This operator computes, for every document, its sequence (``pack_id``)
and its token offset inside that sequence (``pack_off``), given a token
count column. The semantics are a pure prefix sum over the id-ordered
stream, so the oracle is one SQL window function — and the Ray plan needs
NO per-group UDF and NO driver-side row materialization: one
``util.sort_scan`` on the id column whose summaries are the per-block
token totals; the fold's prefix sums give each block its stream offset,
and the emit is a local cumsum from it (``pack_id = start // budget``).

At 100 TB the only all-to-all is the sort; everything after moves one
int per block to the driver and streams back out.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..util import sort_scan


def pack_sequences(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    token_col: str = "n_tokens",
    budget: int = 1024,
) -> rd.Dataset:
    """Assign each row a ``pack_id``/``pack_off`` for fixed-budget packing.

    Input must carry ``id_col`` (total-order key, unique) and ``token_col``
    (int token count). Output: ``id_col``, ``token_col``, ``pack_id``,
    ``pack_off`` — where ``pack_id = start // budget`` and
    ``pack_off = start % budget`` with ``start`` = tokens emitted by all
    lower-id rows (SQL: ``SUM(tok) OVER (ORDER BY id) - tok``).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")

    def tokens(block: pa.Table) -> np.ndarray:
        return np.asarray(block[token_col].to_numpy(zero_copy_only=False), np.int64)

    def fold(totals) -> list:
        # tokens of all lower-id rows at each block's start
        return np.concatenate([[0], np.cumsum(totals)])[:-1].tolist()

    def emit(block: pa.Table, start) -> pa.Table:
        tok = tokens(block)
        doc_start = (start or 0) + np.cumsum(tok) - tok
        return pa.table(
            {
                id_col: block[id_col],
                token_col: pa.array(tok, pa.int64()),
                "pack_id": pa.array(doc_start // budget, pa.int64()),
                "pack_off": pa.array(doc_start % budget, pa.int64()),
            }
        )

    return rd.from_arrow_refs(sort_scan(
        ds.select_columns([id_col, token_col]), id_col, lambda b: int(tokens(b).sum()), fold, emit
    ))
