"""Seeded benchmark inputs: the flagship page corpus and the relational tables.

Everything here is a pure function of (seed, size), so one seed always
gives byte-identical inputs. Inputs are written under the checkout's run
directory and reused when the same (seed, size) is asked for again.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# The relational tables follow the distributions measured on the
# repository's sf0.1 test tables (15 000 customers, 150 000 orders, 5 000
# documents), at a row count set by ``customers``:
# - orders per customer: custkeys drawn uniformly, 10 orders per customer,
#   so counts are Poisson(10) (sf0.1: median 10, max 24, 1 customer of
#   15 000 with none). salted_join's hot threshold of 8 salts about the
#   busier two thirds of the keys.
# - o_orderstatus uniform over F/O/P, c_mktsegment uniform over 5 segments.
# - documents, one per 3 customers: 95% draw 10-99 words uniformly from
#   the 30-word vocabulary below; 5% repeat an earlier document's text
#   followed by " dup". Languages in the measured shares.
ORDERS_PER_CUSTOMER = 10
CUSTOMERS_PER_DOCUMENT = 3
DUP_SHARE = 0.05
DOC_WORDS = (10, 100)  # [low, high)
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_STATUS = ["F", "O", "P"]
_LANG_SHARES = {"en": 2059, "zh": 753, "es": 744, "fr": 742, "de": 702}
_VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()


def pages_corpus(run_dir: str, seed: int, replicas: int) -> str:
    """Sharded page corpus (``sources.synthesize_pages_parquet``).

    The seed drives the page layout: page languages, filler text and where
    empty pages fall. Replica geometry is fixed by the replica index, so
    the expected flagship outputs depend on ``replicas`` only.
    """
    from osmptparser_ray.sources import synthesize_pages_parquet

    path = os.path.join(run_dir, "inputs", f"pages_r{replicas}_s{seed}")
    if not os.path.exists(os.path.join(path, "_done")):
        synthesize_pages_parquet(path, replicas=replicas, seed=seed, files=8)
        open(os.path.join(path, "_done"), "w").close()
    return path


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    texts = []
    for i in range(n):
        if i and rng.random() < DUP_SHARE:
            texts.append(texts[int(rng.integers(0, i))] + " dup")
        else:
            texts.append(" ".join(rng.choice(_VOCAB, size=int(rng.integers(*DOC_WORDS)))))
    shares = np.array(list(_LANG_SHARES.values()), dtype=np.float64)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(
                rng.choice(list(_LANG_SHARES), size=n, p=shares / shares.sum()), pa.string()
            ),
        }
    )


def relational_tables(run_dir: str, seed: int, customers: int) -> str:
    """``orders`` / ``customer`` / ``documents`` parquet files in one
    directory, with the sf0.1 column types of the columns
    ``__ray_entry__.queries()`` reads; rows in seeded random order."""
    path = os.path.join(run_dir, "inputs", f"tables_c{customers}_s{seed}")
    if os.path.exists(os.path.join(path, "_done")):
        return path
    os.makedirs(path, exist_ok=True)
    rng = np.random.default_rng(seed)
    nc, no = customers, ORDERS_PER_CUSTOMER * customers

    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(nc), pa.int64()),
            "c_name": pa.array([f"Customer#{k:09d}" for k in range(nc)], pa.string()),
            "c_mktsegment": pa.array(rng.choice(_SEGMENTS, size=nc), pa.string()),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(no), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, nc, size=no), pa.int64()),
            "o_orderstatus": pa.array(rng.choice(_STATUS, size=no), pa.string()),
        }
    )
    documents = _documents(rng, max(1, customers // CUSTOMERS_PER_DOCUMENT))
    for name, table in (("customer", customer), ("orders", orders), ("documents", documents)):
        table = table.take(rng.permutation(table.num_rows))
        # several row groups, so the reads split into several blocks
        pq.write_table(
            table, os.path.join(path, f"{name}.parquet"),
            row_group_size=max(1, table.num_rows // 8),
        )
    open(os.path.join(path, "_done"), "w").close()
    return path
