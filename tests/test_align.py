"""Aligner tests against an exact-arithmetic brute-force oracle."""

import importlib
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from webbitext import ChunkPairSet, align, chunk_pairs, mismatch_ratio
from webbitext.align import (GAP_LEFT, GAP_RIGHT, MATCH, PAIR, AlignOp,
                             Alignment)
from webbitext.linearize import (KIND_CHUNK, LinearDocument, chunk_token,
                                 end_token, start_token)


# --- independent oracle ----------------------------------------------------

def _oracle_sub(a, b):
    """Substitution cost as an exact Fraction, or None when illegal."""
    if a.kind == KIND_CHUNK and b.kind == KIND_CHUNK:
        if a.length == b.length:
            return Fraction(0)
        return 1 - Fraction(min(a.length, b.length), max(a.length, b.length))
    if a.kind == b.kind and a.kind != KIND_CHUNK and a.label == b.label:
        return Fraction(0)
    return None


def oracle_min_cost(left_tokens, right_tokens):
    """Exact minimum alignment cost by exhaustive recursion."""
    left = tuple(left_tokens)
    right = tuple(right_tokens)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(left) and j == len(right):
            return Fraction(0)
        best = None
        if i < len(left):
            best = go(i + 1, j) + 1
        if j < len(right):
            c = go(i, j + 1) + 1
            best = c if best is None or c < best else best
        if i < len(left) and j < len(right):
            s = _oracle_sub(left[i], right[j])
            if s is not None:
                c = go(i + 1, j + 1) + s
                best = c if best is None or c < best else best
        return best

    return go(0, 0)


def enumerate_alignment_costs(left, right):
    """Every monotone full-cover alignment cost, by explicit enumeration."""
    out = []

    def walk(i, j, acc):
        if i == len(left) and j == len(right):
            out.append(acc)
            return
        if i < len(left):
            walk(i + 1, j, acc + 1)
        if j < len(right):
            walk(i, j + 1, acc + 1)
        if i < len(left) and j < len(right):
            s = _oracle_sub(left[i], right[j])
            if s is not None:
                walk(i + 1, j + 1, acc + s)

    walk(0, 0, Fraction(0))
    return out


_TAG_POOL = [("start", "A"), ("end", "A"), ("start", "P"), ("end", "P"),
             ("start", "LI"), ("end", "LI"), ("start", "TD")]


def random_tokens(rng, max_len=8, max_chunk=20):
    tokens = []
    for _ in range(rng.randrange(max_len + 1)):
        if rng.random() < 0.45:
            tokens.append(chunk_token("x" * rng.randint(1, max_chunk)))
        else:
            kind, label = rng.choice(_TAG_POOL)
            tokens.append(start_token(label) if kind == "start"
                          else end_token(label))
    return tokens


def doc(tokens):
    return LinearDocument(list(tokens))


# --- full-table oracle ------------------------------------------------------
# The quadratic DP that the banded align() replaced, kept verbatim with its
# helpers.  The banded aligner must return exactly its ops and costs.

_GAP_TRUE = 1.0
_GAP_EPS = 2.0 ** -40
_GAP_DP = _GAP_TRUE + _GAP_EPS
_INF = float("inf")


def _token_codes(tokens, tag_ids):
    """Vector encodings: chunk mask, lengths, and tag identity codes."""
    k = len(tokens)
    is_chunk = np.zeros(k, dtype=bool)
    lengths = np.zeros(k, dtype=np.int64)
    tags = np.full(k, -1, dtype=np.int64)
    for idx, t in enumerate(tokens):
        if t.kind == KIND_CHUNK:
            is_chunk[idx] = True
            lengths[idx] = t.length
        else:
            tags[idx] = tag_ids.setdefault((t.kind, t.label), len(tag_ids))
    return is_chunk, lengths, tags


def _sub_cost(lt, rt):
    """Scalar substitution cost between two tokens; inf when illegal."""
    lc = lt.kind == KIND_CHUNK
    rc = rt.kind == KIND_CHUNK
    if lc and rc:
        if lt.length == rt.length:
            return 0.0
        return 1.0 - min(lt.length, rt.length) / max(lt.length, rt.length)
    if not lc and not rc and lt.kind == rt.kind and lt.label == rt.label:
        return 0.0
    return _INF


def reference_align(left, right):
    """Optimal monotone alignment of two LinearDocuments.

    Every token of both inputs is covered by exactly one op; the op list
    is in document order.  ``mismatch_count`` counts gap-covered tokens,
    ``cost`` is the minimized objective (gaps at 1, pairs at 1 - min/max).
    """
    lt = left.tokens
    rt = right.tokens
    n, m = len(lt), len(rt)
    total = n + m
    if total == 0:
        return Alignment([], 0, 0, 0.0)

    tag_ids = {}
    _, r_len, r_tag = _token_codes(rt, tag_ids)
    r_is_chunk = r_tag < 0

    # Suffix costs: dp[i, j] = min cost aligning lt[i:] with rt[j:].
    dp = np.empty((n + 1, m + 1), dtype=np.float64)
    dp[n, :] = np.arange(m, -1, -1, dtype=np.float64) * _GAP_DP
    steps = np.arange(m + 1, dtype=np.float64) * _GAP_DP
    for i in range(n - 1, -1, -1):
        t = lt[i]
        if t.kind == KIND_CHUNK:
            llen = t.length
            hi = np.maximum(np.maximum(r_len, llen), 1)
            lo = np.minimum(r_len, llen)
            sub = np.where(r_is_chunk,
                           np.where(r_len == llen, 0.0, 1.0 - lo / hi),
                           _INF)
        else:
            code = tag_ids.get((t.kind, t.label), -2)
            sub = np.where(r_tag == code, 0.0, _INF)
        # Consume left token i at column j: substitution or a left gap.
        base = np.empty(m + 1, dtype=np.float64)
        base[:m] = np.minimum(dp[i + 1, 1:] + sub, dp[i + 1, :m] + _GAP_DP)
        base[m] = dp[i + 1, m] + _GAP_DP
        # Right gaps before that: dp[i, j] = min_{k>=j} base[k] + (k-j)*gap.
        keyed = base + steps
        np.minimum.accumulate(keyed[::-1], out=keyed[::-1])
        dp[i, :] = keyed - steps

    # Forward walk; recomputing candidates keeps tie preference explicit.
    ops = []
    mismatches = 0
    cost = 0.0
    i = j = 0
    while i < n or j < m:
        best = None  # (dp value, preference, kind, true cost)
        if i < n and j < m:
            sc = _sub_cost(lt[i], rt[j])
            if sc == 0.0:
                best = (dp[i + 1, j + 1], 0, MATCH, 0.0)
            elif sc < _INF:
                best = (sc + dp[i + 1, j + 1], 1, PAIR, sc)
        if i < n:
            cand = (_GAP_DP + dp[i + 1, j], 2, GAP_LEFT, _GAP_TRUE)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if j < m:
            cand = (_GAP_DP + dp[i, j + 1], 3, GAP_RIGHT, _GAP_TRUE)
            if best is None or cand[:2] < best[:2]:
                best = cand
        kind = best[2]
        cost += best[3]
        if kind == MATCH or kind == PAIR:
            ops.append(AlignOp(kind, i, j))
            i += 1
            j += 1
        elif kind == GAP_LEFT:
            ops.append(AlignOp(kind, left_index=i))
            mismatches += 1
            i += 1
        else:
            ops.append(AlignOp(kind, right_index=j))
            mismatches += 1
            j += 1
    return Alignment(ops, mismatches, total, cost)


def assert_matches_reference(left, right):
    got = align(doc(left), doc(right))
    want = reference_align(doc(left), doc(right))
    assert got.ops == want.ops
    assert got.mismatch_count == want.mismatch_count
    assert got.cost == want.cost


# --- unit tests ------------------------------------------------------------

def test_identity_alignment_is_all_match_zero_cost():
    tokens = [start_token("HTML"), chunk_token("abcd"), end_token("HTML")]
    a = align(doc(tokens), doc(tokens))
    assert [op.kind for op in a.ops] == [MATCH, MATCH, MATCH]
    assert a.mismatch_count == 0
    assert a.cost == 0.0


def test_equal_length_chunks_match_not_pair():
    a = align(doc([chunk_token("abcde")]), doc([chunk_token("vwxyz")]))
    assert [op.kind for op in a.ops] == [MATCH]


def test_unequal_chunks_pair():
    a = align(doc([chunk_token("ab")]), doc([chunk_token("abcd")]))
    assert [op.kind for op in a.ops] == [PAIR]
    assert a.cost == pytest.approx(0.5, abs=1e-12)
    assert a.mismatch_count == 0


def test_different_tags_never_substitute():
    a = align(doc([start_token("A")]), doc([start_token("B")]))
    assert sorted(op.kind for op in a.ops) == [GAP_LEFT, GAP_RIGHT]
    assert a.mismatch_count == 2


def test_start_and_end_of_same_label_never_substitute():
    a = align(doc([start_token("A")]), doc([end_token("A")]))
    assert sorted(op.kind for op in a.ops) == [GAP_LEFT, GAP_RIGHT]


def test_empty_inputs():
    a = align(doc([]), doc([]))
    assert a.ops == [] and a.mismatch_count == 0 and a.cost == 0.0
    assert mismatch_ratio(a) == 1.0
    b = align(doc([]), doc([chunk_token("ab"), start_token("P")]))
    assert [op.kind for op in b.ops] == [GAP_RIGHT, GAP_RIGHT]
    assert mismatch_ratio(b) == 1.0


def test_worked_example_alignment_shape(worked_example):
    en, fr = worked_example
    a = align(en, fr)
    kinds = [op.kind for op in a.ops]
    assert kinds == [MATCH, MATCH, PAIR, MATCH, MATCH,
                     GAP_LEFT, GAP_LEFT, GAP_LEFT, PAIR]
    # the gap run is exactly the H1 block on the English side
    gapped = [en.tokens[op.left_index] for op in a.ops if op.kind == GAP_LEFT]
    assert [t.label or t.length for t in gapped] == ["H1", 13, "H1"]
    pairs = chunk_pairs(a, en, fr)
    assert pairs.xy() == [(13, 15), (112, 122)]


def test_mismatch_ratio_denominator_is_both_sides():
    left = [start_token("A"), start_token("B"), chunk_token("abc"),
            end_token("B"), end_token("A")]
    right = list(left) + [start_token("Q"), start_token("Q"), start_token("Q"),
                          start_token("Q"), start_token("Q")]
    a = align(doc(left), doc(right))
    assert a.mismatch_count == 5
    assert mismatch_ratio(a) == pytest.approx(5 / 15)


def test_disjoint_vocabulary_ratio_at_least_half():
    left = [start_token("A"), end_token("A"), start_token("B"), end_token("B")]
    right = [start_token("C"), end_token("C"), start_token("D"), end_token("D")]
    a = align(doc(left), doc(right))
    assert mismatch_ratio(a) >= 0.5
    assert float(oracle_min_cost(left, right)) == pytest.approx(a.cost)


def test_chunk_pairs_excludes_equal_lengths_and_keeps_order():
    left = [chunk_token("abc"), chunk_token("wx"), chunk_token("pqrstuvwxy")]
    right = [chunk_token("abcd"), chunk_token("yz"),
             chunk_token("pqrstuvwxyzq")]
    a = align(doc(left), doc(right))
    assert chunk_pairs(a, doc(left), doc(right)).xy() == [(3, 4), (10, 12)]


def test_chunk_pair_set_validates():
    from webbitext.align import ChunkPair

    with pytest.raises(ValueError):
        ChunkPairSet([ChunkPair(5, 5)])
    with pytest.raises(ValueError):
        ChunkPairSet([ChunkPair(0, 2)])


def test_mismatch_count_is_canonical_on_cost_ties():
    # all-pair cost (0.5 * 4 = 2.0) ties a two-gap alternative; fewer gaps wins
    left = doc([chunk_token("ab"), chunk_token("ab"),
                chunk_token("ab"), chunk_token("ab")])
    right = doc([chunk_token("abcd"), chunk_token("abcd"),
                 chunk_token("abcd"), chunk_token("abcd")])
    a = align(left, right)
    assert a.mismatch_count == 0
    assert a.cost == pytest.approx(2.0, abs=1e-9)


# --- randomized optimality and properties ----------------------------------

def test_optimality_against_exact_oracle_small_sizes():
    rng = random.Random(20260808)
    for _ in range(300):
        left = random_tokens(rng, max_len=6)
        right = random_tokens(rng, max_len=6)
        a = align(doc(left), doc(right))
        assert a.cost == pytest.approx(float(oracle_min_cost(left, right)),
                                       abs=1e-12)


def test_oracle_agrees_with_explicit_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        left = random_tokens(rng, max_len=4)
        right = random_tokens(rng, max_len=4)
        costs = enumerate_alignment_costs(left, right)
        assert min(costs) == oracle_min_cost(left, right)


@st.composite
def _token_seqs(draw, max_len=8):
    n = draw(st.integers(0, max_len))
    tokens = []
    for _ in range(n):
        if draw(st.booleans()):
            tokens.append(chunk_token("x" * draw(st.integers(1, 20))))
        else:
            kind, label = draw(st.sampled_from(_TAG_POOL))
            tokens.append(start_token(label) if kind == "start"
                          else end_token(label))
    return tokens


@settings(max_examples=120, deadline=None)
@given(_token_seqs(), _token_seqs())
def test_alignment_full_cover_and_monotone(left, right):
    a = align(doc(left), doc(right))
    li = [op.left_index for op in a.ops if op.left_index is not None]
    ri = [op.right_index for op in a.ops if op.right_index is not None]
    assert li == list(range(len(left)))
    assert ri == list(range(len(right)))
    assert a.total_tokens == len(left) + len(right)
    assert 0 <= a.mismatch_count <= a.total_tokens
    gaps = sum(1 for op in a.ops if op.kind in (GAP_LEFT, GAP_RIGHT))
    assert gaps == a.mismatch_count
    for op in a.ops:
        if op.kind == PAIR:
            lt, rt = left[op.left_index], right[op.right_index]
            assert lt.kind == KIND_CHUNK and rt.kind == KIND_CHUNK
            assert lt.length != rt.length
        elif op.kind == MATCH:
            lt, rt = left[op.left_index], right[op.right_index]
            assert lt.kind == rt.kind
            assert lt.label == rt.label and lt.length == rt.length


@settings(max_examples=120, deadline=None)
@given(_token_seqs(), _token_seqs())
def test_mismatch_count_is_symmetric(left, right):
    assert align(doc(left), doc(right)).mismatch_count == \
        align(doc(right), doc(left)).mismatch_count


@settings(max_examples=60, deadline=None)
@given(_token_seqs(max_len=6))
def test_self_alignment_is_free(tokens):
    a = align(doc(tokens), doc(tokens))
    assert a.cost == 0.0
    assert a.mismatch_count == 0
    assert all(op.kind == MATCH for op in a.ops)


@settings(max_examples=80, deadline=None)
@given(_token_seqs(max_len=5), _token_seqs(max_len=5))
def test_zero_cost_iff_identical(left, right):
    a = align(doc(left), doc(right))
    same = ([(t.kind, t.label, t.length) for t in left]
            == [(t.kind, t.label, t.length) for t in right])
    assert (a.cost == 0.0) == same


# --- banded aligner against the full-table oracle ---------------------------

_align_module = importlib.import_module("webbitext.align")


@pytest.fixture
def band_passes(monkeypatch):
    """(band width, full width) of every DP pass align() runs."""
    passes = []
    fill = _align_module._suffix_costs

    def spy(lt, r_len, *args):
        start, marks, dp = fill(lt, r_len, *args)
        passes.append((dp.shape[1], len(r_len) + 1))
        return start, marks, dp

    monkeypatch.setattr(_align_module, "_suffix_costs", spy)
    return passes


def block(tag, length):
    return [start_token(tag), chunk_token("x" * length), end_token(tag)]


def same_skeleton_pair(rng, blocks, stretch=1.1):
    """A page and a 'translation': same tags, chunks up to ``stretch`` longer."""
    left, right = [], []
    for _ in range(blocks):
        tag = rng.choice(["P", "LI", "TD", "H2"])
        x = rng.randint(5, 300)
        left += block(tag, x)
        right += block(tag, max(1, round(x * rng.uniform(1.0, stretch))))
    return left, right


def edited(rng, tokens, edits):
    """``tokens`` with random insertions, deletions and replacements."""
    out = list(tokens)
    for _ in range(edits):
        pos = rng.randrange(len(out) + 1)
        roll = rng.random()
        if roll < 0.4 or not out:
            out[pos:pos] = random_tokens(rng, max_len=3)
        elif roll < 0.8:
            del out[min(pos, len(out) - 1)]
        else:
            kind, label = rng.choice(_TAG_POOL)
            out[min(pos, len(out) - 1)] = rng.choice(
                [chunk_token("z" * rng.randint(1, 40)),
                 start_token(label) if kind == "start" else end_token(label)])
    return out


@settings(max_examples=200, deadline=None)
@given(_token_seqs(), _token_seqs())
def test_banded_matches_oracle_on_random_sequences(left, right):
    assert_matches_reference(left, right)


@settings(max_examples=100, deadline=None)
@given(_token_seqs(max_len=40), _token_seqs(max_len=40))
def test_banded_matches_oracle_on_longer_random_sequences(left, right):
    assert_matches_reference(left, right)


def test_long_same_skeleton_pairs_certify_in_one_narrow_pass(band_passes):
    rng = random.Random(11)
    for blocks in (40, 300, 900):
        del band_passes[:]
        left, right = same_skeleton_pair(rng, blocks)
        assert_matches_reference(left, right)
        (width, full), = band_passes
        assert width < full / 4


def test_banded_matches_oracle_on_edited_same_skeleton_pairs():
    rng = random.Random(5)
    for _ in range(150):
        left, right = same_skeleton_pair(rng, rng.randint(1, 40))
        assert_matches_reference(edited(rng, left, rng.randint(0, 6)),
                                 edited(rng, right, rng.randint(0, 6)))


def test_unequal_lengths_empty_sides_and_all_tag_sides():
    rng = random.Random(8)
    left, right = same_skeleton_pair(rng, 60)
    extra = same_skeleton_pair(rng, 25)[0]
    tags = [start_token(label) if rng.random() < 0.5 else end_token(label)
            for label in rng.choices(["A", "P", "LI", "TD"], k=120)]
    cases = [
        (left + extra, right), (left, extra + right),
        (left[:90] + left[150:], right),
        ([], right), (left, []), ([], tags), (tags, []),
        (tags, tags[5:] + tags[:5]),
        (tags, [t for t in left if t.kind != KIND_CHUNK]), (tags[:40], left),
        # zero-length chunks, which linearize never emits but Token allows
        ([chunk_token(" "), start_token("P")] * 5,
         [chunk_token("ab"), chunk_token(" "), start_token("P")] * 4),
    ]
    for a, b in cases:
        assert_matches_reference(a, b)
        assert_matches_reference(b, a)


def test_moved_block_matches_oracle_at_full_width(band_passes):
    rng = random.Random(2)
    left, right = same_skeleton_pair(rng, 80)
    cut = 3 * 8  # eight blocks move from the start to the end
    assert_matches_reference(left, right[cut:] + right[:cut])
    # Some diagonal pairing is illegal, so one pass covers the whole table.
    assert band_passes == [(len(right) + 1,) * 2]


def test_shifted_translation_matches_oracle_at_full_width(band_passes):
    rng = random.Random(4)
    left, right = same_skeleton_pair(rng, 150, stretch=1.3)
    right = [start_token("DIV")] + right
    assert_matches_reference(left, right)
    assert band_passes == [(len(right) + 1,) * 2]


def test_certificate_accepts_a_band_only_when_it_holds_the_optimum(
        band_passes, monkeypatch):
    # Any first bound, even one below the optimum, must give the oracle's
    # ops: a band whose optimum it cannot certify is run again at full width.
    rng = random.Random(2)
    left, right = same_skeleton_pair(rng, 40)
    cases = [
        (left, right[6:] + right[:6]),  # two blocks move to the end
        # At w = 1 the band's best (pair the chunks, 4.2) is above the
        # optimum (match P, 4 gaps), which leaves the band: escape is 4.
        ([start_token("P"), chunk_token("x" * 5), start_token("Q")],
         [chunk_token("x" * 4), chunk_token("y" * 4), start_token("P")]),
    ]
    for left, right in cases:
        passes = set()
        delta = abs(len(left) - len(right))
        for bound in range(delta, delta + 40):
            monkeypatch.setattr(_align_module, "_diagonal_cost",
                                lambda lt, rt: float(bound))
            del band_passes[:]
            assert_matches_reference(left, right)
            passes.add(len(band_passes))
        assert passes == {1, 2}  # some first bands fall back, others not


def test_same_skeleton_alignment_stores_a_small_part_of_the_table():
    left, right = same_skeleton_pair(random.Random(3), 1000)
    table_bytes = (len(left) + 1) * (len(right) + 1) * 8
    tracemalloc.start()
    try:
        align(doc(left), doc(right))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * table_bytes


# --- rows kept in blocks -----------------------------------------------------

@st.composite
def _blocked_cases(draw):
    """Random pairs (mostly full width) or edited same-skeleton ones (banded)."""
    if draw(st.booleans()):
        return draw(_token_seqs(max_len=30)), draw(_token_seqs(max_len=30))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    left, right = same_skeleton_pair(rng, draw(st.integers(1, 12)))
    return (edited(rng, left, draw(st.integers(0, 3))),
            edited(rng, right, draw(st.integers(0, 3))))


@pytest.mark.parametrize("one_row_blocks", [False, True])
@settings(max_examples=150, deadline=None)
@given(_blocked_cases())
@example(([], []))
@example(([], [chunk_token("ab"), start_token("P")]))
@example(([end_token("P"), chunk_token("ab")], []))
def test_blocked_rows_give_the_unblocked_alignment_bit_for_bit(
        one_row_blocks, case):
    # With no budget every pass is blocked: ceil(sqrt n) rows per block,
    # or one row per block, so the walk refills a block at every row.
    left, right = case
    whole = align(doc(left), doc(right))
    want = reference_align(doc(left), doc(right))
    refills = []
    refill = _align_module._refill

    def spy(*args):
        refills.append(args[-2])
        return refill(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_align_module, "_BLOCK_BYTES", 0)
        mp.setattr(_align_module, "_refill", spy)
        if one_row_blocks:
            mp.setattr(_align_module, "_block_rows", lambda n, width: 1)
        got = align(doc(left), doc(right))
    for other in (whole, want):
        assert got.ops == other.ops
        assert got.mismatch_count == other.mismatch_count
        assert got.cost.hex() == other.cost.hex()
    # The walk refills every block but the first, once, in order.
    span = 1 if one_row_blocks else max(1, math.ceil(math.sqrt(len(left))))
    assert refills == list(range(span, len(left), span))


def test_alien_alignment_holds_a_small_part_of_its_table():
    # Disjoint tags make every diagonal pairing illegal, so the pass runs
    # at full width: the whole table would be 10001 x 10001 x 8 = 763 MB.
    left = [t for _ in range(3334) for t in block("P", 40)][:10000]
    right = [t for _ in range(3334) for t in block("TD", 60)][:10000]
    tracemalloc.start()
    try:
        a = align(doc(left), doc(right))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.total_tokens == 20000 and a.mismatch_count >= 10000
    assert peak < 40 * 2 ** 20


# --- the substitution rule's two forms --------------------------------------

@st.composite
def _rule_tokens(draw, labels):
    """Chunks of length 0 to 30, or start/end tags drawn from ``labels``."""
    tokens = []
    for _ in range(draw(st.integers(0, 12))):
        roll = draw(st.integers(0, 2))
        if roll == 0:
            tokens.append(chunk_token("x" * draw(st.integers(0, 30))))
        else:
            label = draw(st.sampled_from(labels))
            tokens.append(start_token(label) if roll == 1
                          else end_token(label))
    return tokens


@settings(max_examples=200, deadline=None)
@given(_rule_tokens(["A", "P", "LI"]), _rule_tokens(["P", "LI", "TD"]))
def test_substitution_rule_forms_agree_with_each_other_and_the_oracle(
        left, right):
    # A and TD sit on one side only; zero-length chunks and empty sides occur.
    tag_ids = {}
    codes = (_align_module._token_codes(left, tag_ids),
             _align_module._token_codes(right, tag_ids))
    for (a_tokens, a_codes), (b_tokens, b_codes) in (
            ((left, codes[0]), (right, codes[1])),
            ((right, codes[1]), (left, codes[0]))):
        b_len = np.array([c[0] for c in b_codes], dtype=np.int64)
        b_tag = np.array([c[1] for c in b_codes], dtype=np.int64)
        for a, code in zip(a_tokens, a_codes):
            scalar = [_align_module._sub_cost(code, c) for c in b_codes]
            row = _align_module._row_costs(code, b_len, b_tag)
            assert row.tolist() == scalar
            for b, cost in zip(b_tokens, scalar):
                exact = _oracle_sub(a, b)
                if exact is None:
                    assert cost == _INF
                elif exact == 0:
                    assert cost == 0.0
                else:
                    # 1 - min/max rounds twice: the division, the subtraction.
                    assert abs(Fraction(cost) - exact) <= Fraction(1e-15)
