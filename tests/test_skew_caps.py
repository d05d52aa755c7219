"""Hot-bucket skew: on a degenerate corpus that puts O(n²) pairs in one
bucket, the LSH and SimHash bucket self-joins (whose partitioner spreads
a hot key over several ranges) give exactly the brute-force pair sets,
and the block-decomposed cosine plan gives the undecomposed one's pairs.
"""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from osmptparser_ray.embed.ann import cosine_near_dup
from osmptparser_ray.text.dedup import (
    lsh_candidate_pairs,
    minhash_signatures,
    simhash_near_pairs,
    simhash_signatures,
)


BLOCK = 64  # target_min_block_size (bytes) at which the hot buckets spread


def _pairs(ds, cols=("doc_a", "doc_b")):
    df = ds.to_pandas()
    return sorted(map(tuple, df[list(cols)].itertuples(index=False)))


def _skewed_docs(n_hot=60, n_cold=40):
    """A corpus with one degenerate near-identical cluster (all docs share
    the same text → same signatures → ONE hot bucket in every band) plus
    distinct cold docs."""
    ids, texts = [], []
    for i in range(n_hot):
        ids.append(i)
        texts.append("the quick brown fox jumps over the lazy dog " * 3)
    letters = "abcdefghijklmnopqrstuvwxyz"
    for j in range(n_cold):
        ids.append(1000 + j)
        texts.append(letters[j % 26] * 30 + str(j))
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    )


def _lsh_brute_force(t: pa.Table, bands: int) -> list:
    """(doc_a < doc_b) once for each band of ``num_perm // bands`` rows
    on which the two signatures agree: the candidate pairs by definition,
    a pair found by several bands once per band."""
    ids = t["doc_id"].to_pylist()
    sig = np.stack([np.asarray(s, np.uint64) for s in t["sig"].to_pylist()])
    r = max(1, sig.shape[1] // bands)
    nb = min(bands, sig.shape[1] // r)
    return sorted(
        (min(a, b), max(a, b))
        for i, a in enumerate(ids) for j, b in enumerate(ids) if i < j
        for k in range(nb) if (sig[i, k * r:(k + 1) * r] == sig[j, k * r:(k + 1) * r]).all()
    )


def _sigs_table(sigs) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(sigs.to_arrow_refs()))


class TestLshSalting:
    def test_skewed_corpus_matches_brute_force(self, ray_session, block_size, spread_keys):
        """The 60-doc degenerate bucket in every band, at a block size
        small enough for the self-join's partitioner to spread it: the
        pairs are the brute-force candidate pairs."""
        docs = _skewed_docs()
        block_size(BLOCK)
        sigs = minhash_signatures(docs, num_perm=32, shingle_k=5).materialize()
        got = _pairs(lsh_candidate_pairs(sigs, bands=8))
        want = _lsh_brute_force(_sigs_table(sigs), bands=8)
        assert got == want
        assert len(set(want)) >= 60 * 59 // 2  # the degenerate cluster pairs up
        assert max(spread_keys) > 0

    def test_cold_corpus_unaffected(self, ray_session):
        docs = _skewed_docs(n_hot=0, n_cold=30)
        sigs = minhash_signatures(docs, num_perm=32, shingle_k=5).materialize()
        assert _pairs(lsh_candidate_pairs(sigs, bands=8)) == _lsh_brute_force(_sigs_table(sigs), bands=8)


class TestSimhashSalting:
    def test_skewed_corpus_matches_brute_force(self, ray_session, block_size, spread_keys):
        """Every pair within hamming 3, with its distance (four 16-bit
        chunks cover all 64 bits, so the chunk banding finds them all),
        with the degenerate bucket spread."""
        docs = _skewed_docs()
        block_size(BLOCK)
        t = _sigs_table(simhash_signatures(docs).materialize())
        ids, sh = t["doc_id"].to_pylist(), t["simhash"].to_pylist()
        want = sorted(
            (min(a, b), max(a, b), bin(x ^ y).count("1"))
            for i, (a, x) in enumerate(zip(ids, sh)) for b, y in zip(ids[i + 1:], sh[i + 1:])
            if bin(x ^ y).count("1") <= 3
        )
        got = _pairs(simhash_near_pairs(rd.from_arrow(t), max_hamming=3), cols=("doc_a", "doc_b", "hamming"))
        assert got == want
        assert len(want) >= 60 * 59 // 2
        assert max(spread_keys) > 0


class TestCosineBlockDecomposition:
    def _vectors(self, n_hot=80, n_cold=14, dim=16):
        # n_cold < dim-1 so every cold vector gets a DISTINCT axis
        # (orthogonal → no cold-cold pairs)
        """Degenerate: n_hot near-identical vectors (tiny perturbations of
        one direction — all land in ONE LSH bucket and all pass 0.99) plus
        orthogonal cold vectors."""
        rng = np.random.default_rng(7)
        ids, vecs = [], []
        base = np.zeros(dim)
        base[0] = 1.0
        for i in range(n_hot):
            v = base + rng.normal(0, 1e-4, dim)
            ids.append(i)
            vecs.append(v.tolist())
        for j in range(n_cold):
            v = np.zeros(dim)
            v[1 + j % (dim - 1)] = 1.0 + j
            ids.append(1000 + j)
            vecs.append(v.tolist())
        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array(vecs, pa.list_(pa.float64())),
                }
            )
        )

    def test_capped_equals_uncapped_on_degenerate_bucket(self):
        vecs = self._vectors()
        base = _pairs(
            cosine_near_dup(vecs, threshold=0.99, bits=4, bucket_cap=None)
        )
        capped = _pairs(
            cosine_near_dup(vecs, threshold=0.99, bits=4, bucket_cap=10, cap_blocks=4)
        )
        assert capped == base
        # the degenerate cluster is all-pairs: 80*79/2
        assert len(base) == 80 * 79 // 2

    def test_scores_preserved(self):
        vecs = self._vectors(n_hot=20, n_cold=5)
        a = (
            cosine_near_dup(vecs, threshold=0.99, bits=4, bucket_cap=None)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        b = (
            cosine_near_dup(vecs, threshold=0.99, bits=4, bucket_cap=5, cap_blocks=3)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert (a["doc_a"] == b["doc_a"]).all() and (a["doc_b"] == b["doc_b"]).all()
        assert np.allclose(a["score"], b["score"])
