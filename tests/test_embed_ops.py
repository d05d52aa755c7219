"""Embedding ANN operators vs brute-force numpy oracles."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def vectors(ray_session, sf_dir):
    import pyarrow.parquet as pq
    import ray.data as rd

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    m = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ds, m, ids


def _norm(m):
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1
    return m / n


class TestBruteforceKnn:
    def test_matches_numpy(self, vectors):
        from osmptparser_ray.embed.ann import knn_bruteforce

        ds, m, ids = vectors
        q = m[:4]
        qids = ids[:4]
        out = knn_bruteforce(ds, q, qids, k=5).take_all()
        got = {}
        for r in out:
            got.setdefault(r["query_id"], []).append((r["rank"], r["vec_id"], r["score"]))
        mn = _norm(m)
        qn = _norm(q)
        sims = qn @ mn.T
        for qi, qid in enumerate(qids):
            order = np.lexsort((ids, -sims[qi]))[:5]
            mine = sorted(got[qid])
            assert [x[1] for x in mine] == ids[order].tolist()
            for x, oi in zip(mine, order):
                assert x[2] == pytest.approx(sims[qi][oi])

    def test_self_is_rank_one(self, vectors):
        from osmptparser_ray.embed.ann import knn_bruteforce

        ds, m, ids = vectors
        out = knn_bruteforce(ds, m[:2], ids[:2], k=1).take_all()
        for r in out:
            assert r["vec_id"] == r["query_id"] and r["score"] == pytest.approx(1.0)


class TestLshAnn:
    def test_subset_of_bucket_candidates(self, vectors):
        """LSH results are exact within the query's bucket (precision check)."""
        from osmptparser_ray.embed.ann import _bucket_of, _hyperplanes, lsh_ann

        ds, m, ids = vectors
        q = m[:3]
        qids = ids[:3]
        out = lsh_ann(ds, q, qids, k=5, bits=6).take_all()
        planes = _hyperplanes(m.shape[1], 6)
        mn = _norm(m)
        qb = _bucket_of(_norm(q), planes)
        vb = _bucket_of(mn, planes)
        by_q = {}
        for r in out:
            by_q.setdefault(r["query_id"], []).append(r)
        for qi, qid in enumerate(qids):
            cand = ids[vb == qb[qi]]
            rows = by_q.get(qid, [])
            assert all(r["vec_id"] in set(cand.tolist()) for r in rows)
            # exact top within bucket
            sims = mn[vb == qb[qi]] @ _norm(q)[qi]
            want = cand[np.lexsort((cand, -sims))][: len(rows)]
            got_ids = [r["vec_id"] for r in sorted(rows, key=lambda r: r["rank"])]
            assert got_ids == want.tolist()


class TestCosineNearDup:
    def test_precision_and_bucket_recall(self, ray_session):
        import ray.data as rd

        from osmptparser_ray.embed.ann import _bucket_of, _hyperplanes, cosine_near_dup

        rng = np.random.default_rng(3)
        base = rng.standard_normal((20, 16))
        dups = base[:5] + rng.standard_normal((5, 16)) * 0.01  # near-dups of 0..4
        m = np.vstack([base, dups])
        ids = np.arange(len(m), dtype=np.int64)
        ds = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
                }
            )
        )
        out = cosine_near_dup(ds, threshold=0.95, bits=4).take_all()
        got = {(r["doc_a"], r["doc_b"]) for r in out}
        # float32 storage: recompute oracle in the same precision path
        m32 = np.stack([np.asarray(v, np.float32).astype(np.float64) for v in m])
        mn = _norm(m32)
        planes = _hyperplanes(16, 4)
        b = _bucket_of(mn, planes)
        sims = mn @ mn.T
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                same_bucket = b[i] == b[j]
                if same_bucket and sims[i, j] >= 0.95:
                    assert (i, j) in got
        for i, j in got:
            assert sims[i, j] >= 0.95


class TestIvfAnn:
    def test_full_probe_equals_bruteforce(self, vectors):
        """n_probe == n_lists ⇒ every list probed ⇒ exact top-k."""
        from osmptparser_ray.embed.ann import ivf_ann, knn_bruteforce

        ds, m, ids = vectors
        q, qids = m[:3], ids[:3]
        exact = {(r["query_id"], r["rank"], r["vec_id"])
                 for r in knn_bruteforce(ds, q, qids, k=5).take_all()}
        full = {(r["query_id"], r["rank"], r["vec_id"])
                for r in ivf_ann(ds, q, qids, k=5, n_lists=8, n_probe=8).take_all()}
        assert full == exact

    def test_probe_recall(self, vectors):
        """Partial probing: top-1 recall should be high (self-vector is in
        the probed list by construction of the quantizer)."""
        from osmptparser_ray.embed.ann import ivf_ann

        ds, m, ids = vectors
        q, qids = m[:10], ids[:10]
        out = ivf_ann(ds, q, qids, k=1, n_lists=8, n_probe=2).take_all()
        rank1 = {r["query_id"]: r["vec_id"] for r in out if r["rank"] == 1}
        hits = sum(1 for qid in qids if rank1.get(qid) == qid)
        assert hits >= 8  # ≥80% top-1 self-recall with 2/8 probes


class TestAutoBits:
    def test_cosine_near_dup_auto_bits_scales_with_corpus(self, ray_session):
        """bits=None sizes 2^bits to n/target_bucket (clipped to [4, 24]) and
        still finds planted same-direction duplicates exactly."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from osmptparser_ray.embed.ann import cosine_near_dup

        dim = 16
        ids, vecs = [], []
        for i in range(600):
            v = np.zeros(dim)
            v[i % dim] = 1.0 + 0.01 * i
            ids.append(i)
            vecs.append(v.tolist())
        # planted exact-direction duplicates
        for j in range(5):
            v = np.zeros(dim)
            v[(7 * j) % dim] = 0.5
            ids.append(10_000 + (7 * j) % dim)
            vecs.append(v.tolist())
        ds = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array(vecs, pa.list_(pa.float64())),
                }
            )
        )
        # n=605, target 256 -> ceil(log2(605/256)) = 2 -> clipped to 4 bits
        out = cosine_near_dup(ds, threshold=0.999999)
        got = {(r["doc_a"], r["doc_b"]) for r in out.take_all()}
        # every planted pair must be present (same-direction => same bucket)
        for j in range(5):
            axis = (7 * j) % dim
            base_ids = [i for i in range(600) if i % dim == axis]
            for b in base_ids:
                assert (b, 10_000 + axis) in got


class TestIvfAnnJoin:
    """Big-big posting-list join vs its broadcast siblings."""

    def test_full_probe_equals_bruteforce(self, vectors):
        from osmptparser_ray.embed.ann import ivf_ann_join, knn_bruteforce
        import ray.data as rd

        ds, m, ids = vectors
        q, qids = m[:3], ids[:3]
        queries = rd.from_arrow(
            pa.table({"vec_id": pa.array(qids, pa.int64()),
                      "embedding": pa.array([list(v) for v in q])})
        )
        exact = {(r["query_id"], r["rank"], r["vec_id"])
                 for r in knn_bruteforce(ds, q, qids, k=5).take_all()}
        got = {(r["query_id"], r["rank"], r["vec_id"])
               for r in ivf_ann_join(ds, queries, k=5, n_lists=8, n_probe=8).take_all()}
        assert got == exact

    def test_partial_probe_parity_with_ivf_ann(self, vectors):
        """Same fixed-seed quantizer + same probe rule ⇒ identical results
        to the broadcast ivf_ann at ANY n_probe."""
        from osmptparser_ray.embed.ann import ivf_ann, ivf_ann_join
        import ray.data as rd

        ds, m, ids = vectors
        q, qids = m[:6], ids[:6]
        queries = rd.from_arrow(
            pa.table({"vec_id": pa.array(qids, pa.int64()),
                      "embedding": pa.array([list(v) for v in q])})
        )
        a = {(r["query_id"], r["rank"], r["vec_id"])
             for r in ivf_ann(ds, q, qids, k=4, n_lists=8, n_probe=2).take_all()}
        b = {(r["query_id"], r["rank"], r["vec_id"])
             for r in ivf_ann_join(ds, queries, k=4, n_lists=8, n_probe=2).take_all()}
        assert a == b

    def test_chunking_invariance(self, vectors):
        """vec_chunks only decomposes groups; output must be identical."""
        from osmptparser_ray.embed.ann import ivf_ann_join
        import ray.data as rd

        ds, m, ids = vectors
        q, qids = m[:4], ids[:4]
        queries = rd.from_arrow(
            pa.table({"vec_id": pa.array(qids, pa.int64()),
                      "embedding": pa.array([list(v) for v in q])})
        )
        one = {(r["query_id"], r["rank"], r["vec_id"])
               for r in ivf_ann_join(ds, queries, k=5, n_lists=4, n_probe=4,
                                     vec_chunks=1).take_all()}
        four = {(r["query_id"], r["rank"], r["vec_id"])
                for r in ivf_ann_join(ds, queries, k=5, n_lists=4, n_probe=4,
                                      vec_chunks=4).take_all()}
        assert one == four

    def test_empty_queries(self, vectors):
        from osmptparser_ray.embed.ann import ivf_ann_join
        import ray.data as rd

        ds, m, ids = vectors
        queries = rd.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.list_(pa.float64()))})
        )
        assert ivf_ann_join(ds, queries, k=3, n_lists=4, n_probe=2).count() == 0

    def test_tied_scores_keep_smallest_vec_ids(self, ray_session):
        """Adversarial full-tie corpus: many identical vectors — the
        global (score desc, vec_id asc) tiebreak must pick the smallest
        ids, which requires the per-group partial to keep ALL boundary
        ties rather than truncating arbitrarily."""
        import ray.data as rd

        from osmptparser_ray.embed.ann import ivf_ann_join

        n = 40
        vecs = [[1.0, 0.0, 0.0]] * n  # every score ties at 1.0
        vectors = rd.from_arrow(
            pa.table({"vec_id": pa.array(list(range(n)), pa.int64()),
                      "embedding": pa.array(vecs)})
        ).repartition(4)
        queries = rd.from_arrow(
            pa.table({"vec_id": pa.array([100], pa.int64()),
                      "embedding": pa.array([[2.0, 0.0, 0.0]])})
        )
        out = ivf_ann_join(vectors, queries, k=5, n_lists=2, n_probe=2,
                           vec_chunks=3).take_all()
        got = sorted((r["rank"], r["vec_id"]) for r in out)
        assert got == [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]


def _columns(ds) -> list:
    """The dataset's column names and those of each of its blocks."""
    import ray

    return [ds.schema().names] + [t.column_names for t in ray.get(ds.to_arrow_refs())]


@pytest.mark.parametrize("op", ["knn_bruteforce", "ivf_ann_join", "tfidf_top_terms"])
def test_columns_without_rows(ray_session, op):
    """An operator ending in a projection gives its documented columns in
    order on an input without rows too (Ray's ``select_columns`` passes a
    block without rows through with all its columns)."""
    import ray.data as rd

    from osmptparser_ray.embed.ann import ivf_ann_join, knn_bruteforce
    from osmptparser_ray.text.analysis import tfidf_top_terms

    vecs = pa.table({"vec_id": pa.array([1, 2, 3], pa.int64()),
                     "embedding": pa.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], pa.list_(pa.float64()))})
    docs = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": ["a b a", "b c"]})

    def run(n):
        if op == "knn_bruteforce":
            return knn_bruteforce(rd.from_arrow(vecs.slice(0, n)), np.eye(2), np.arange(2), k=2)
        if op == "ivf_ann_join":
            return ivf_ann_join(rd.from_arrow(vecs), rd.from_arrow(vecs.slice(0, n)), k=2, n_lists=2, n_probe=1)
        return tfidf_top_terms(rd.from_arrow(docs.slice(0, n)), k=2)

    full, empty = run(3), run(0)
    assert full.count() > 0 and empty.count() == 0
    want = full.schema().names
    assert want[:2] in (["query_id", "rank"], ["doc_id", "rank"])
    assert all(names == want for names in _columns(full) + _columns(empty)), (_columns(full), _columns(empty))
