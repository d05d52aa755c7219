"""Text analysis operators over document tables — vectorized Arrow kernels.

Large-scale training-data pipeline components (a core engine surface, not
OSM-derived): token counting, quality scoring, language-ID, document
fingerprinting. Every kernel is a ``pyarrow.compute`` regex/string op
(RE2), chosen so a DuckDB oracle can express the SAME computation exactly
(see __ray_entry__.oracle_sql).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..util import group_agg
from ..util import top_n as top_rows  # the functions below name their row count top_n

TOKEN_RE = r"[A-Za-z0-9_]+"
PUNCT_RE = r"[.!?]"
# GPT-2-style pretokenizer (public pattern shape): contractions, letter
# runs, number runs, punctuation runs, whitespace - RE2-compatible so the
# Arrow kernel and the DuckDB oracle count identically
BPE_RE = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"

# tiny built-in stopword inventories (public common words)
EN_STOPWORDS = ("the", "and", "of", "to", "in", "is", "that", "for", "with", "as")
ES_STOPWORDS = ("el", "la", "de", "que", "y", "en", "los", "del", "las", "por")


def _word_alt_re(words) -> str:
    return r"\b(" + "|".join(words) + r")\b"


def add_token_count(ds: rd.Dataset, col: str = "text", out: str = "n_tokens") -> rd.Dataset:
    """Whitespace/punct-agnostic token count: non-overlapping TOKEN_RE matches."""

    def f(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            out, pc.cast(pc.count_substring_regex(batch[col], TOKEN_RE), pa.int64())
        )

    return ds.map_batches(f, batch_format="pyarrow")


def add_bpe_token_count(ds: rd.Dataset, col: str = "text", out: str = "n_bpe_tokens") -> rd.Dataset:
    """BPE-ish token count: GPT-2-style pretokenizer regex (unicode-aware
    letter/number/punct runs + English contractions) - the pretokenization
    step of byte-pair encoders; counts its segments."""

    def f(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            out, pc.cast(pc.count_substring_regex(batch[col], BPE_RE), pa.int64())
        )

    return ds.map_batches(f, batch_format="pyarrow")


def add_quality_scores(ds: rd.Dataset, col: str = "text") -> rd.Dataset:
    """Length / punctuation / stopword-density quality features.

    Columns: q_chars, q_tokens, q_punct, q_stop_en, q_stop_es,
    q_mean_token_len (float; identical IEEE division both engine & oracle).
    """

    def f(batch: pa.Table) -> pa.Table:
        text = batch[col]
        chars = pc.cast(pc.utf8_length(text), pa.int64())
        tokens = pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.int64())
        punct = pc.cast(pc.count_substring_regex(text, PUNCT_RE), pa.int64())
        stop_en = pc.cast(
            pc.count_substring_regex(text, _word_alt_re(EN_STOPWORDS)), pa.int64()
        )
        stop_es = pc.cast(
            pc.count_substring_regex(text, _word_alt_re(ES_STOPWORDS)), pa.int64()
        )
        # alpha chars = chars minus non-alpha (single regex count)
        alpha = pc.cast(pc.count_substring_regex(text, r"[A-Za-z]"), pa.int64())
        mean_tok = pc.divide(
            pc.cast(alpha, pa.float64()),
            pc.cast(pc.max_element_wise(tokens, 1), pa.float64()),
        )
        for name, col_arr in (
            ("q_chars", chars),
            ("q_tokens", tokens),
            ("q_punct", punct),
            ("q_stop_en", stop_en),
            ("q_stop_es", stop_es),
            ("q_mean_token_len", mean_tok),
        ):
            batch = batch.append_column(name, col_arr)
        return batch

    return ds.map_batches(f, batch_format="pyarrow")


def add_lang_id(ds: rd.Dataset, col: str = "text", out: str = "lang_pred") -> rd.Dataset:
    """Stopword-inventory language ID: 'en' / 'es' / 'und' (tie or zero).

    Deterministic and SQL-expressible (two regex counts + CASE).
    """

    def f(batch: pa.Table) -> pa.Table:
        text = batch[col]
        en = pc.count_substring_regex(text, _word_alt_re(EN_STOPWORDS))
        es = pc.count_substring_regex(text, _word_alt_re(ES_STOPWORDS))
        pred = pc.if_else(
            pc.greater(en, es),
            pa.scalar("en"),
            pc.if_else(pc.greater(es, en), pa.scalar("es"), pa.scalar("und")),
        )
        return batch.append_column(out, pred)

    return ds.map_batches(f, batch_format="pyarrow")


def add_fingerprint(ds: rd.Dataset, col: str = "text", out: str = "fingerprint") -> rd.Dataset:
    """Normalized md5 fingerprint: md5(lower(whitespace-collapsed text)).

    Whitespace runs → single space, leading/trailing trimmed — byte-equal
    to the DuckDB expression
    ``md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))``.
    """
    import hashlib

    def f(batch: pa.Table) -> pa.Table:
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(batch[col]), r"\s+", " ")
        )
        digests = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm.to_pylist()]
        return batch.append_column(out, pa.array(digests, pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def _winnow_powers(k: int):
    import numpy as np

    powers = np.empty(k, dtype=np.uint64)
    powers[0] = 1
    with np.errstate(over="ignore"):
        for i in range(1, k):
            powers[i] = powers[i - 1] * np.uint64(1099511628211)
    return powers


def _winnow_doc(text: str, k: int, window: int):
    """Scalar per-document winnowing — the differential-test reference for
    the batch-flat implementation below (kept OUT of the hot path)."""
    import numpy as np

    t = ("" if text is None else text).lower().encode("utf-8")
    if len(t) < k:
        t = t + b" " * (k - len(t))
    arr = np.frombuffer(t, dtype=np.uint8).astype(np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(arr, k)
    powers = _winnow_powers(k)
    with np.errstate(over="ignore"):  # uint64 wraparound by design
        h = (win * powers[None, :]).sum(axis=1, dtype=np.uint64)
        h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    if len(h) <= window:
        sel = h.min(keepdims=True) if len(h) else h
    else:
        wins = np.lib.stride_tricks.sliding_window_view(h, window)
        sel = wins.min(axis=1)
    return np.unique(sel).tolist()


def add_rolling_fingerprints(
    ds: rd.Dataset,
    col: str = "text",
    k: int = 5,
    window: int = 8,
    out: str = "fingerprints",
) -> rd.Dataset:
    """Winnowing document fingerprints (Schleimer et al. local algorithm):
    k-gram rolling hashes → per-window minima → the document's selected
    fingerprint set (list<uint64>, sorted unique).

    Guarantees: any shared substring of length ≥ window+k-1 between two
    documents yields at least one shared fingerprint.

    BATCH-FLAT vectorized (round-5 — replaces a per-document Python
    loop): all documents of a batch are lowered in C++, padded/packed
    into ONE flat byte array via Arrow offsets, hashed with k shifted
    multiply-adds over the whole array, window-minimized with one
    stride-tricks view, and uniqued per doc with one lexsort — zero
    per-document Python in the hot path (differential-tested against
    the scalar reference ``_winnow_doc``). NULL text is treated as ""
    (the scalar path crashed on NULLs).
    """
    import numpy as np

    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch.append_column(
                out, pa.array([], pa.list_(pa.uint64()))
            )
        low = pc.cast(
            pc.utf8_lower(pc.fill_null(batch[col].combine_chunks(), "")),
            pa.binary(),
        )
        if isinstance(low, pa.ChunkedArray):
            low = low.combine_chunks()
        # Arrow-offset flatten of the binary column (slice-safe)
        offs = np.frombuffer(low.buffers()[1], np.int32)[
            low.offset : low.offset + n + 1
        ].astype(np.int64)
        data = np.frombuffer(low.buffers()[2], np.uint8)
        lens = np.diff(offs)
        # pack into a flat array, padding docs shorter than k with spaces
        plens = np.maximum(lens, k)
        pstarts = np.concatenate([[0], np.cumsum(plens)])
        total = int(pstarts[-1])
        flat = np.full(total, 0x20, np.uint8)
        src_doc = np.repeat(np.arange(n, dtype=np.int64), lens)
        within = np.arange(len(src_doc), dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        flat[pstarts[src_doc] + within] = data[offs[0] + np.arange(len(src_doc))]
        # k-gram hashes over the flat array (k shifted multiply-adds);
        # positions straddling doc boundaries are garbage and masked below
        powers = _winnow_powers(k)
        nh_total = total - k + 1
        h = np.zeros(nh_total, np.uint64)
        fu = flat.astype(np.uint64)
        with np.errstate(over="ignore"):
            for i in range(k):
                h += fu[i : i + nh_total] * powers[i]
            h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        # per-doc hash segments: doc d owns positions
        # [pstarts[d], pstarts[d] + Hd) with Hd = plens[d] - k + 1 ≥ 1
        Hd = plens - k + 1
        hseg_starts = np.concatenate([[0], np.cumsum(Hd)])
        doc_of_h = np.repeat(np.arange(n, dtype=np.int64), Hd)
        pos_in_doc = np.arange(len(doc_of_h), dtype=np.int64) - hseg_starts[
            doc_of_h
        ]
        h_doc = h[pstarts[doc_of_h] + pos_in_doc]  # contiguous per doc
        # window minima: big docs (Hd > window) take sliding minima whose
        # start+window stays inside the doc; small docs take the segment min
        big = Hd > window
        sel_doc_parts = []
        sel_val_parts = []
        if big.any():
            gmin = np.lib.stride_tricks.sliding_window_view(
                h_doc, min(window, len(h_doc))
            ).min(axis=1)
            Wd = np.where(big, Hd - window + 1, 0)
            starts_w = hseg_starts[:-1]
            doc_w = np.repeat(np.arange(n, dtype=np.int64), Wd)
            pos_w = np.arange(len(doc_w), dtype=np.int64) - np.repeat(
                np.cumsum(Wd) - Wd, Wd
            )
            sel_doc_parts.append(doc_w)
            sel_val_parts.append(gmin[starts_w[doc_w] + pos_w])
        if (~big).any():
            small_ids = np.flatnonzero(~big)
            mins = np.minimum.reduceat(h_doc, hseg_starts[:-1])
            sel_doc_parts.append(small_ids)
            sel_val_parts.append(mins[small_ids])
        sel_doc = np.concatenate(sel_doc_parts)
        sel_val = np.concatenate(sel_val_parts)
        # per-doc sorted unique via one lexsort + run mask
        order = np.lexsort((sel_val, sel_doc))
        sd, sv = sel_doc[order], sel_val[order]
        keep = np.ones(len(sd), bool)
        keep[1:] = (sd[1:] != sd[:-1]) | (sv[1:] != sv[:-1])
        sd, sv = sd[keep], sv[keep]
        counts = np.bincount(sd, minlength=n)
        loffs = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=loffs[1:])
        lists = pa.ListArray.from_arrays(
            pa.array(loffs, pa.int32()).cast(pa.int32()),
            pa.array(sv, pa.uint64()),
        )
        return batch.append_column(out, lists)

    return ds.map_batches(f, batch_format="pyarrow")


def quality_filter(
    ds: rd.Dataset,
    col: str = "text",
    min_tokens: int = 5,
    max_punct_ratio: float = 0.2,
    min_stop_hits: int = 0,
) -> rd.Dataset:
    """Document quality gate (Gopher-rule-style): keep documents with at
    least ``min_tokens`` tokens, punctuation density ≤ ``max_punct_ratio``
    (punct per token), and ≥ ``min_stop_hits`` stopword occurrences (en+es).
    Pure pyarrow kernels — identical semantics SQL-expressible.
    """

    def f(batch: pa.Table) -> pa.Table:
        text = batch[col]
        tokens = pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.int64())
        punct = pc.cast(pc.count_substring_regex(text, PUNCT_RE), pa.int64())
        stops = pc.add(
            pc.count_substring_regex(text, _word_alt_re(EN_STOPWORDS)),
            pc.count_substring_regex(text, _word_alt_re(ES_STOPWORDS)),
        )
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(tokens, min_tokens),
                pc.less_equal(
                    pc.divide(
                        pc.cast(punct, pa.float64()),
                        pc.cast(pc.max_element_wise(tokens, 1), pa.float64()),
                    ),
                    max_punct_ratio,
                ),
            ),
            pc.greater_equal(pc.cast(stops, pa.int64()), min_stop_hits),
        )
        return batch.filter(keep)

    return ds.map_batches(f, batch_format="pyarrow")


def add_word_diversity(ds: rd.Dataset, col: str = "text") -> rd.Dataset:
    """Word-diversity quality signal: distinct-word count and ratio per doc.

    The repetition detector of a training-data quality stack (a salad of
    the same few words scores low). Words = literal single-space split
    (DuckDB ``string_split(text, ' ')`` semantics, empties included), so
    the oracle is ``len(list_distinct(...)) / len(...)`` exactly.

    Fully vectorized — no per-row Python: one ``split_pattern`` kernel,
    one ``dictionary_encode`` over the FLATTENED word values (word →
    int code), then a lexsort + run-change mask counts distinct codes
    per row via ``bincount``. O(total words log total words) per batch,
    zero nested ``to_pylist``.

    Columns added: ``n_words``, ``n_distinct`` (int64),
    ``distinct_ratio`` (float64, IEEE division — oracle-identical).
    """
    import numpy as np

    def f(batch: pa.Table) -> pa.Table:
        arr = batch[col].combine_chunks()
        words = pc.split_pattern(arr, pattern=" ")
        # null text → null list; fill to 0 BEFORE the int cast (a null
        # becomes NaN → a huge negative int64 → np.repeat raises). Null
        # rows score n_words = n_distinct = 0.
        counts = pc.list_value_length(words).fill_null(0).to_numpy(
            zero_copy_only=False
        )
        counts = np.asarray(counts, np.int64)
        n = len(counts)
        # flatten() respects the array's own offsets (slice-safe)
        flat = words.flatten()
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(n, dtype=np.int64), counts)
        if len(row):
            order = np.lexsort((codes, row))
            r_s, c_s = row[order], codes[order]
            new = np.ones(len(r_s), bool)
            new[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
            n_distinct = np.bincount(r_s[new], minlength=n).astype(np.int64)
        else:
            n_distinct = np.zeros(n, np.int64)
        ratio = n_distinct / np.maximum(counts, 1)
        for name, col_arr in (
            ("n_words", pa.array(counts, pa.int64())),
            ("n_distinct", pa.array(n_distinct, pa.int64())),
            ("distinct_ratio", pa.array(ratio, pa.float64())),
        ):
            batch = batch.append_column(name, col_arr)
        return batch

    return ds.map_batches(f, batch_format="pyarrow")


SCRUB_DEFAULT_RE = r"\b(key|order)\b"


def scrub_pattern(
    ds: rd.Dataset,
    col: str = "text",
    pattern: str = SCRUB_DEFAULT_RE,
    repl: str = "<SCRUBBED>",
) -> rd.Dataset:
    """Pattern scrubbing (PII-redaction shape): count and replace every
    non-overlapping match of an RE2 ``pattern`` with ``repl``.

    Real deployments pass email/phone/ID patterns; the engine contract is
    the same for any RE2 pattern, and both kernels (count + global
    replace) have byte-identical DuckDB equivalents
    (``regexp_extract_all`` / ``regexp_replace(..., 'g')`` — also RE2).

    Columns added: ``n_scrubbed`` (int64), ``scrubbed`` (string).
    """

    def f(batch: pa.Table) -> pa.Table:
        text = batch[col]
        n = pc.cast(pc.count_substring_regex(text, pattern), pa.int64())
        red = pc.replace_substring_regex(text, pattern, repl)
        return batch.append_column("n_scrubbed", n).append_column("scrubbed", red)

    return ds.map_batches(f, batch_format="pyarrow")


def token_frequencies(
    ds: rd.Dataset, col: str = "text", top_n: int = 100
) -> rd.Dataset:
    """Corpus vocabulary: top-N (token, cnt) by frequency, tokens =
    lowercased ``TOKEN_RE`` matches — the vocabulary/frequency-analysis
    staple of a text pipeline.

    Scale shape ("push aggregation partial"): per-batch PARTIAL counts
    (one compiled-regex findall over the batch's joined text — token
    class excludes whitespace so doc boundaries can't merge tokens —
    then one np.unique) cap the shuffle at the batch's DISTINCT tokens;
    the groupby-Sum merge moves vocab-sized data, never corpus-sized;
    the final sort runs on the merged vocabulary only. Deterministic
    ties: cnt desc, token asc.
    """
    import re

    import numpy as np

    from ray.data.aggregate import Sum

    pat = re.compile(TOKEN_RE)

    def partial(batch: pa.Table) -> pa.Table:
        # null texts contribute no tokens (join would raise on None)
        texts = pc.drop_null(batch[col]).to_pylist()
        toks = pat.findall(" ".join(texts).lower())
        if not toks:
            return pa.table(
                {"token": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        uniq, cnt = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.table(
            {
                "token": pa.array(uniq.tolist(), pa.string()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    merged = group_agg(
        ds.select_columns([col]).map_batches(partial, batch_format="pyarrow"), "token",
        Sum("cnt", alias_name="cnt"),
    )
    return top_rows(merged, ["cnt", "token"], top_n, descending=[True, False])


def doc_term_counts(
    ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """Per-(doc, token) term frequencies — the TF side of TF-IDF.

    Tokens: lowercased ``[a-z0-9_]+`` runs (the ``vocab_top`` convention,
    so the SQL oracle is ``unnest(regexp_extract_all(lower(text),
    '[a-z0-9_]+'))``). Fully vectorized per batch — lower + one
    ``replace_substring_regex`` (non-token runs → space) + one
    ``split_pattern`` + ``dictionary_encode`` + lexsort run-length
    counting; no per-row Python (the ``add_word_diversity`` shape).

    Output: (id_col, token, tf) — one row per distinct (doc, token).
    """
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        txt = pc.fill_null(batch[text_col].combine_chunks(), "")
        norm = pc.replace_substring_regex(
            pc.utf8_lower(txt), pattern=r"[^a-z0-9_]+", replacement=" "
        )
        words = pc.split_pattern(norm, pattern=" ")
        counts = np.asarray(
            pc.list_value_length(words).fill_null(0).to_numpy(zero_copy_only=False),
            np.int64,
        )
        flat = words.flatten()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[keep]
        flat = flat.filter(pa.array(keep))
        if len(row) == 0:
            return pa.table(
                {
                    id_col: pa.array([], batch[id_col].type),
                    "token": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        enc = flat.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary
        order = np.lexsort((codes, row))
        r_s, c_s = row[order], codes[order]
        new = np.ones(len(r_s), bool)
        new[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
        starts = np.flatnonzero(new)
        tf = np.diff(np.r_[starts, len(r_s)]).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[r_s[starts]]).cast(batch[id_col].type),
                "token": vocab.take(pa.array(c_s[starts])),
                "tf": pa.array(tf, pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        partial, batch_format="pyarrow"
    )


def tfidf_top_terms(
    docs: rd.Dataset,
    k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    idf: str = "ratio",
    n_docs: int | None = None,
    plan: str = "auto",
    broadcast_cap: int = 2_000_000,
) -> rd.Dataset:
    """Top-k characteristic terms per document by TF-IDF.

    Output: (doc_id, rank, token, tf, df, score).

    Physical plan — every stage bounded:

    1. ``doc_term_counts`` → (doc, token, tf) rows,
    2. DF = groupby(token) row count (each (doc, token) appears once, so
       a plain Count IS the document frequency) — vocab-sized,
    3. DF attach: ``plan="broadcast"`` (auto default while the distinct
       vocabulary ≤ ``broadcast_cap``): one task sorts the (token → df)
       arrays, and every tf block's task takes them as a top-level
       argument and attaches with a searchsorted lookup — no join; ``plan="shuffle"`` is the tf ⋈ df
       sort join (``util.equi_join``) for web-scale vocabularies
       (parity-tested),
    4. score per row, then the sort-scan ``topk_per_group`` per doc.

    ``idf="ratio"`` scores ``(tf·N)/df`` — the raw-ratio IDF variant,
    chosen as the DEFAULT because integer products below 2^53 followed by
    one exactly-rounded IEEE division are bit-identical across engines
    (the dyadic-oracle rule from BASELINE.md); ``idf="log"`` scores
    ``tf·ln(N/df)`` (the classic form) but transcendental libm results
    are not cross-engine reproducible, so it is pytest-gated against a
    numpy reference instead of a SQL hash.
    """
    import numpy as np

    from ..stages.relational import topk_per_group
    from ..util import block_refs, equi_join, map_blocks, select, submit

    from ray.data.aggregate import Count

    if plan not in ("auto", "broadcast", "shuffle"):
        raise ValueError(f"unknown plan: {plan!r}")
    n = int(n_docs if n_docs is not None else docs.count())
    tf = doc_term_counts(docs, text_col, id_col).materialize()
    if n == 0 or tf.count() == 0:
        # nothing to score (and no vocabulary to broadcast) — short-circuit
        return rd.from_arrow(
            pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                    "token": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        )
    df = group_agg(tf, "token", Count(alias_name="df"))
    if plan == "auto":
        plan = "broadcast" if df.count() <= broadcast_cap else "shuffle"
    if plan == "broadcast":
        joined = map_blocks(tf, _attach_df, submit(_vocab_table, *block_refs(df)))
    else:
        joined = equi_join(tf, df, "token")

    def score(batch: pa.Table) -> pa.Table:
        tf_ = batch["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_ = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        if idf == "ratio":
            s = (tf_ * n).astype(np.float64) / df_
        elif idf == "log":
            s = tf_ * np.log(n / df_.astype(np.float64))
        else:
            raise ValueError(f"unknown idf variant: {idf!r}")
        return batch.append_column("score", pa.array(s, pa.float64()))

    scored = joined.map_batches(score, batch_format="pyarrow")
    top = topk_per_group(
        scored, id_col, "score", k, tiebreak_col="token", descending=True
    )
    return select(top, [id_col, "rank", "token", "tf", "df", "score"])


def _vocab_table(*blocks) -> tuple:
    """DF blocks → (tokens, their df), sorted by token."""
    t = pa.concat_tables(blocks).sort_by("token")
    return (np.asarray(t["token"].to_pylist(), dtype=object),
            t["df"].to_numpy(zero_copy_only=False).astype(np.int64))


def _attach_df(batch: pa.Table, lut: tuple) -> pa.Table:
    vocab, df = lut
    ix = np.searchsorted(vocab, np.asarray(batch["token"].to_pylist(), dtype=object))  # every tf token IS in the vocab
    return batch.append_column("df", pa.array(df[ix], pa.int64()))


def ngram_frequencies(
    ds: rd.Dataset, col: str = "text", n: int = 2, top_n: int = 100
) -> rd.Dataset:
    """Corpus top-N word n-grams (phrase statistics — the bigram/trigram
    staple of tokenizer training and boilerplate detection).

    Tokens: the ``vocab_top`` convention (lowercased ``[a-z0-9_]+``);
    n-grams never cross document boundaries. Vectorized per batch: one
    lower+regex-replace+split, n shifted views of the flat token array
    joined by ``binary_join_element_wise`` (C++ kernel, no Python
    string ops), a row-alignment mask, then ``value_counts`` — the
    shuffle carries each batch's DISTINCT n-grams only, merged by one
    vocab-sized groupby-Sum (the ``token_frequencies`` scale shape).
    Deterministic ties: cnt desc, ngram asc.
    """
    import numpy as np

    from ray.data.aggregate import Sum

    if n < 1:
        raise ValueError("n must be >= 1")

    def partial(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch[col].combine_chunks(), "")
        norm = pc.replace_substring_regex(
            pc.utf8_lower(txt), pattern=r"[^a-z0-9_]+", replacement=" "
        )
        words = pc.split_pattern(norm, pattern=" ")
        counts = np.asarray(
            pc.list_value_length(words).fill_null(0).to_numpy(zero_copy_only=False),
            np.int64,
        )
        flat = words.flatten()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[keep]
        flat = flat.filter(pa.array(keep))
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        total = len(flat)
        empty = pa.table(
            {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
        if total < n:
            return empty
        length = total - n + 1
        # an n-gram starting at i is valid iff token i+n-1 is the same doc
        valid = row[:length] == row[n - 1 :]
        if not valid.any():
            return empty
        parts = [flat.slice(k, length) for k in range(n)]
        joined = (
            parts[0]
            if n == 1
            else pc.binary_join_element_wise(*parts, " ")
        )
        joined = joined.filter(pa.array(valid))
        vc = pc.value_counts(joined)
        return pa.table(
            {
                "ngram": vc.field("values"),
                "cnt": vc.field("counts").cast(pa.int64()),
            }
        )

    merged = group_agg(
        ds.select_columns([col]).map_batches(partial, batch_format="pyarrow"), "ngram",
        Sum("cnt", alias_name="cnt"),
    )
    return top_rows(merged, ["cnt", "ngram"], top_n, descending=[True, False])


def normalize_text(
    ds: rd.Dataset,
    col: str = "text",
    out: str = "text_norm",
    *,
    form: str = "NFC",
    lower: bool = False,
    collapse_ws: bool = False,
) -> rd.Dataset:
    """Unicode canonicalization — the text-cleaning front door of a
    training pipeline (decomposed accents, ligatures, full-width forms
    from scraped HTML all collapse to one canonical byte sequence, so
    exact dedup and fingerprints stop missing visually identical docs).

    Normalization runs through stdlib ``unicodedata`` — NOT
    ``pc.utf8_normalize``, whose composing forms are broken in this
    pyarrow build (verified: NFC/NFKC of ``e + U+0301`` stays decomposed
    while NFD works; stdlib and DuckDB ``nfc_normalize`` both compose).
    The stdlib call is per-STRING Python, so the column is
    dictionary-encoded first and only the UNIQUE strings are normalized
    (round-5, VERDICT r4 #4): web corpora are heavy with repeated
    boilerplate, and ASCII-pure uniques (the overwhelming majority) are
    skipped entirely via one vectorized max-codepoint test — NFC/NFD/NFKC/
    NFKD are all identity maps on ASCII. Optional ``utf8_lower`` /
    whitespace-collapse stay C++ kernels. The oracle is live SQL against
    DuckDB's ICU-class implementation.
    """
    import unicodedata

    if form not in ("NFC", "NFD", "NFKC", "NFKD"):
        raise ValueError(f"unknown normalization form: {form!r}")

    def f(batch: pa.Table) -> pa.Table:
        dict_arr = pc.dictionary_encode(batch[col].combine_chunks())
        if isinstance(dict_arr, pa.ChunkedArray):
            dict_arr = dict_arr.combine_chunks()
        uniq = dict_arr.dictionary
        # ASCII uniques are already normalized (all four forms are the
        # identity on ASCII) — find the non-ASCII ones vectorized
        nbytes = pc.binary_length(uniq).to_numpy(zero_copy_only=False)
        nchars = pc.utf8_length(uniq).to_numpy(zero_copy_only=False)
        mask = nbytes != nchars
        if mask.any():
            py = uniq.filter(pa.array(mask)).to_pylist()
            fixed = [
                None if s is None else unicodedata.normalize(form, s) for s in py
            ]
            uniq = pc.replace_with_mask(
                uniq, pa.array(mask), pa.array(fixed, pa.string())
            )
        v = pc.take(uniq, dict_arr.indices)
        if lower:
            v = pc.utf8_lower(v)
        if collapse_ws:
            v = pc.utf8_trim_whitespace(
                pc.replace_substring_regex(v, r"\s+", " ")
            )
        return batch.append_column(out, v)

    return ds.map_batches(f, batch_format="pyarrow")


def add_repetition_ratio(
    ds: rd.Dataset, col: str = "text", n: int = 2
) -> rd.Dataset:
    """Intra-document repetition signal: duplicate word-n-gram fraction.

    The Gopher-style repetition quality rule ("drop documents whose
    duplicate 2-gram fraction is high") as an embarrassingly parallel
    per-batch kernel — NO shuffle: each document's n-grams never leave
    the batch that holds the document.

    Words = literal single-space split (DuckDB ``string_split`` parity).
    Per batch: one ``split_pattern`` kernel, one ``dictionary_encode``
    over the flattened words (word → int code), n-gram codes by base-V
    positional packing (V = batch dictionary size; loud guard keeps
    ``V**n`` inside int64), then a lexsort + run-change mask counts
    distinct n-grams per document — zero per-row Python.

    Columns added: ``n_grams`` (= max(words-(n-1), 0)),
    ``n_unique_grams`` (int64), and ``rep_ratio`` = ``1.0 -
    n_unique/n_grams`` (float64; exactly ``1.0 - n_unique /
    CAST(n_grams AS DOUBLE)`` — IEEE-identical to the SQL oracle;
    0.0 when a document has no n-grams).
    """
    import numpy as np

    k = int(n)
    if k < 1:
        raise ValueError("add_repetition_ratio: n must be >= 1")

    def f(batch: pa.Table) -> pa.Table:
        arr = batch[col].combine_chunks()
        words = pc.split_pattern(arr, pattern=" ")
        counts = np.asarray(
            pc.list_value_length(words).fill_null(0).to_numpy(zero_copy_only=False),
            dtype=np.int64,
        )
        nrow = len(counts)
        flat = words.flatten()
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = np.asarray(
            enc.indices.to_numpy(zero_copy_only=False), dtype=np.int64
        )
        V = max(len(enc.dictionary), 1)
        if V ** k >= 1 << 62:
            raise ValueError(
                f"add_repetition_ratio: batch vocabulary {V}**n={k} overflows "
                "the int64 n-gram packing; lower the batch size or n"
            )
        row = np.repeat(np.arange(nrow, dtype=np.int64), counts)
        n_grams = np.maximum(counts - (k - 1), 0)
        total = len(codes) - (k - 1)
        if total > 0:
            gram = codes[: total].copy()
            for j in range(1, k):
                gram *= V
                gram += codes[j : total + j]
            grow = row[: total]
            same_doc = row[k - 1 :] == grow  # all k positions in one doc
            gram, grow = gram[same_doc], grow[same_doc]
            order = np.lexsort((gram, grow))
            g_s, r_s = gram[order], grow[order]
            new = np.ones(len(g_s), bool)
            new[1:] = (r_s[1:] != r_s[:-1]) | (g_s[1:] != g_s[:-1])
            n_unique = np.bincount(r_s[new], minlength=nrow).astype(np.int64)
        else:
            n_unique = np.zeros(nrow, np.int64)
        ratio = 1.0 - n_unique / np.maximum(n_grams, 1)
        for name, col_arr in (
            ("n_grams", pa.array(n_grams, pa.int64())),
            ("n_unique_grams", pa.array(n_unique, pa.int64())),
            ("rep_ratio", pa.array(ratio, pa.float64())),
        ):
            batch = batch.append_column(name, col_arr)
        return batch

    return ds.map_batches(f, batch_format="pyarrow")
