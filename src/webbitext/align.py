"""Minimum-difference alignment of two linearized token sequences.

Identical tokens anchor the alignment: start/end tokens match only when
their labels agree, chunk tokens match when their lengths are equal.
Chunk tokens of unequal length may be paired as substitutions; pairing is
cheap when the lengths are close (cost ``1 - min/max``) and approaches the
cost of a gap as they diverge, which reproduces a diff utility's
preference for pairing changed lines over deleting and inserting them.
Tag tokens never substitute across different labels.  Unmatched tokens
cost 1 each and are the mismatches that the downstream threshold counts.

Each token is encoded once as a (length, tag code) pair: (length, -1)
for a chunk, (0, code) for a tag, with codes shared by both sides.  The
rule reads codes only, in two forms held equal by a test: ``_sub_cost``
for one pair (the diagonal bound and the walk) and ``_row_costs`` for one
left token against a slice of the right side (the fill).  One numpy form
for both made ``align`` about 30% slower on the benchmark pages, and a
table per pair of token classes grows with the square of the number of
distinct chunk lengths.

The alignment minimizes total cost with a suffix-cost dynamic program
(Ukkonen 1985, "Algorithms for approximate string matching") that fills
only a diagonal band of the (n+1)(m+1) table.  With delta = m - n, row i
covers the columns i + min(0, delta) - w .. i + max(0, delta) + w.  A
path that leaves this band has at least |delta| + 2(w + 1) gaps, and
every gap costs 1, so a band optimum below that bound is the global
optimum: the band certifies itself.  When every diagonal pairing is
legal, the cost of the diagonal alignment bounds the optimum from above,
and w is chosen so that the band certifies in one pass; this is the
usual case for a page and its translation.  When some diagonal pairing
is illegal, or the band would be as wide as the table, the program runs
at full width, which is the same code with the band set to the whole
table, so a structurally alien pair costs what the quadratic program
costs.  Band cells get the full table's values bit for bit wherever
their best path stays inside the band, so the ops chosen below are
exactly the full program's.

Memory is bounded by keeping only some rows (Grice, Hughey & Speck
1997, "Reduced space sequence alignment", a simpler relative of Myers &
Miller 1988, "Optimal alignments in linear space").  The fill runs from
the last row up in blocks of B rows and keeps the top block whole and,
of every other block, its last row.  The forward walk then refills each
later block once, in order, from the row kept below it, with the same
float operations in the same order, so the ops do not change.  B is
n + 1, one block and no refill, when the band's (n + 1) x width float64
values fit ``_BLOCK_BYTES`` (16 MB), as they do for a page and its
translation.  Otherwise B = ceil(sqrt n) and the rows held come to about
2 sqrt(n) x width x 8 bytes: about 8 MB for two unrelated 6k-token
pages and 16 MB at 10k x 10k tokens, whose whole tables take 321 MB and
763 MB.  At full width a refill starts at the walk's column, since a
suffix cell reads only cells to its right, so the refills of an alien
pair cost about half its fill.

Among equal-cost alignments the one with the fewest gap tokens is chosen
(so the mismatch count is a canonical, symmetric quantity); remaining
ties break Match > Pair > GapLeft > GapRight scanning left to right,
purely for determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linearize import KIND_CHUNK

MATCH = "match"
PAIR = "pair"
GAP_LEFT = "gap_left"    # left token with no counterpart on the right
GAP_RIGHT = "gap_right"  # right token with no counterpart on the left

# Gap cost used inside the optimization only: the tiny surcharge makes the
# DP prefer fewer gaps among alignments of equal true cost.  Reported costs
# always use the true gap cost of 1.
_GAP_TRUE = 1.0
_GAP_EPS = 2.0 ** -40
_GAP_DP = _GAP_TRUE + _GAP_EPS

_INF = float("inf")

# Bytes of float64 rows that one block may hold.  A pass whose whole band
# fits is one block, filled once; a larger one keeps about 2 sqrt(n) rows.
_BLOCK_BYTES = 16 * 2 ** 20


@dataclass(slots=True)
class AlignOp:
    """One alignment edge; a gap op has None on its absent side.

    Slotted for cheap construction, so an op is mutable and unhashable.
    """

    kind: str
    left_index: int | None = None
    right_index: int | None = None


@dataclass
class Alignment:
    ops: list
    mismatch_count: int
    total_tokens: int
    cost: float


@dataclass(frozen=True)
class ChunkPair:
    """Lengths of one aligned unequal chunk pair."""

    x: int
    y: int


@dataclass
class ChunkPairSet:
    """The (x, y) length pairs feeding the correlation test.

    Only unequal-length pairs belong here; equal-length aligned chunks are
    almost never natural language and would inflate the correlation.
    """

    pairs: list

    def __post_init__(self):
        for p in self.pairs:
            if p.x == p.y:
                raise ValueError("equal-length pair (%d, %d) not allowed" % (p.x, p.y))
            if p.x < 1 or p.y < 1:
                raise ValueError("chunk lengths must be >= 1")

    @property
    def n(self):
        return len(self.pairs)

    def xy(self):
        return [(p.x, p.y) for p in self.pairs]


def _token_codes(tokens, tag_ids):
    """(length, -1) per chunk, (0, its code in ``tag_ids``) per tag."""
    return [(t.length, -1) if t.kind == KIND_CHUNK
            else (0, tag_ids.setdefault((t.kind, t.label), len(tag_ids)))
            for t in tokens]


def _sub_cost(left, right):
    """Substitution cost between two token codes; inf when illegal."""
    l_len, l_tag = left
    r_len, r_tag = right
    if l_tag != r_tag:
        return _INF
    if l_len == r_len:
        return 0.0
    return 1.0 - min(l_len, r_len) / max(l_len, r_len)


def _row_costs(code, r_len, r_tag):
    """``_sub_cost(code, r)`` for each right code r, given as two arrays."""
    length, tag = code
    if tag >= 0:
        return np.where(r_tag == tag, 0.0, _INF)
    hi = np.maximum(r_len, max(length, 1))  # tag columns have length 0
    lo = np.minimum(r_len, length)
    return np.where(r_tag == tag,
                    np.where(r_len == length, 0.0, 1.0 - lo / hi), _INF)


def _diagonal_cost(left_codes, right_codes):
    """DP cost of pairing token k with token k and gapping the longer tail.

    This is the cost of one legal alignment, so an upper bound on the
    optimum; None when some diagonal pairing is illegal.
    """
    cost = 0.0
    for a, b in zip(left_codes, right_codes):
        sc = _sub_cost(a, b)
        if sc == _INF:
            return None
        cost += sc
    return cost + abs(len(left_codes) - len(right_codes)) * _GAP_DP


def _block_rows(n, width):
    """Rows per block: all n + 1 when they fit the budget, else ceil(sqrt n)."""
    if (n + 1) * width * 8 <= _BLOCK_BYTES:
        return n + 1
    return math.isqrt(max(n - 1, 0)) + 1


def _next_row(code, nxt, a, up, r_len, r_tag, steps, out=None):
    """Band row i at columns a .. a + len(nxt) - 1, into ``out``.

    ``nxt`` is row i + 1, whose band starts ``up`` (0 or 1) columns later.
    """
    width = len(nxt)
    b = a + width - 1 + up  # substitutions needed for columns a .. b-1
    sub = _row_costs(code, r_len[a:b], r_tag[a:b])
    # Consume left token i at column j: substitution or a left gap.
    if up:
        base = nxt + sub
        base[1:] = np.minimum(base[1:], nxt[:-1] + _GAP_DP)
    else:
        base = np.empty(width, dtype=np.float64)
        base[:-1] = np.minimum(nxt[1:] + sub, nxt[:-1] + _GAP_DP)
        base[-1] = nxt[-1] + _GAP_DP
    # Right gaps before that: dp[i, j] = min_{k>=j} base[k] + (k-j)*gap.
    keyed = base + steps[a:a + width]
    np.minimum.accumulate(keyed[::-1], out=keyed[::-1])
    return np.subtract(keyed, steps[a:a + width], out=out)


def _suffix_costs(left_codes, r_len, r_tag, shift, width):
    """Suffix-cost band of ``width`` columns per row, kept in blocks.

    Row i holds dp[i, j] = min cost aligning left[i:] with right[j:] for
    the columns start[i] .. start[i] + width - 1, where start[i] is
    i + shift clamped to [0, m + 1 - width]; cells outside the band count
    as unreachable.  Steps are indexed by absolute column and the float
    operations run in the full table's order, so a cell whose best path
    stays in the band gets the full table's value bit for bit, and any
    other cell a value no smaller.

    The rows are filled from n down to 0 and split into blocks of
    ``_block_rows`` rows: block k is rows kB .. min(kB + B, n).  Returns
    (start, marks, rows): ``rows`` holds block 0, and ``marks`` maps the
    last row of every later block to its values, from which ``_refill``
    recomputes that block.
    """
    n, m = len(left_codes), len(r_len)
    top = m + 1 - width
    start = [min(max(i + shift, 0), top) for i in range(n + 1)]
    span = _block_rows(n, width)
    kept = min(span, n)
    steps = np.arange(m + 1, dtype=np.float64) * _GAP_DP
    rows = np.empty((kept + 1, width), dtype=np.float64)
    a = start[n]
    row = np.arange(m - a, m - a - width, -1, dtype=np.float64) * _GAP_DP
    marks = {}
    if n > kept:
        marks[n] = row
    else:
        rows[n] = row
    for i in range(n - 1, -1, -1):
        a = start[i]
        row = _next_row(left_codes[i], row, a, start[i + 1] - a, r_len, r_tag,
                        steps, rows[i] if i <= kept else None)
        if i > kept and i % span == 0:
            marks[i] = row
    return start, marks, rows


def _refill(left_codes, r_len, r_tag, start, marks, rows, first, col):
    """Recompute the block whose first row is ``first`` into ``rows``.

    Returns the view of ``rows`` that holds it.  At full width a suffix
    cell reads only cells to its right, so ``col`` > 0 (full width only)
    fills just the columns from ``col`` on and moves ``start`` there for
    the block's rows; the values are those of the first fill, bit for bit.
    """
    last = min(first + len(rows) - 1, len(start) - 1)
    if col:
        start[first:last + 1] = [col] * (last + 1 - first)
    block = rows[:last + 1 - first, :rows.shape[1] - col]
    block[-1] = marks[last][col:]
    steps = np.arange(len(r_len) + 1, dtype=np.float64) * _GAP_DP
    for i in range(last - 1, first - 1, -1):
        a = start[i]
        _next_row(left_codes[i], block[i + 1 - first], a, start[i + 1] - a,
                  r_len, r_tag, steps, block[i - first])
    return block


def align(left, right):
    """Optimal monotone alignment of two LinearDocuments.

    Every token of both inputs is covered by exactly one op; the op list
    is in document order.  ``mismatch_count`` counts gap-covered tokens,
    ``cost`` is the minimized objective (gaps at 1, pairs at 1 - min/max).
    """
    n, m = len(left.tokens), len(right.tokens)
    total = n + m
    if total == 0:
        return Alignment([], 0, 0, 0.0)

    tag_ids = {}
    lc = _token_codes(left.tokens, tag_ids)
    rc = _token_codes(right.tokens, tag_ids)
    r_len, r_tag = np.array(rc, dtype=np.int64).reshape(m, 2).T.copy()
    delta = abs(m - n)
    # Computed and exact path costs differ by under (n + m + 1)^2 * 2^-48
    # (a few roundings of values below 4(n + m + 1) per step); this slack
    # is 256 times that, so rounding can never fake a certificate.
    slack = 2.0 ** -40 * (total + 1) ** 2
    bound = _diagonal_cost(lc, rc)
    width = m + 1
    if bound is not None:
        w = int((bound - delta) // 2) + 1
        width = min(delta + 2 * w + 1, m + 1)
    if width < m + 1:
        start, marks, rows = _suffix_costs(lc, r_len, r_tag,
                                           min(0, m - n) - w, width)
        # The optimum is at most the diagonal bound, and a path that
        # leaves the band has at least delta + 2(w + 1) > bound + 2 gaps,
        # so this check always passes; it guards the exactness claim.
        if not rows[0, 0] < delta + 2 * (w + 1) - slack:
            width = m + 1
            del marks, rows
    if width == m + 1:
        start, marks, rows = _suffix_costs(lc, r_len, r_tag, 0, width)
    block, first, last, cols = rows, 0, len(rows) - 1, width

    def at(i, j):
        k = j - start[i]
        return block[i - first, k] if 0 <= k < cols else _INF

    # Forward walk; recomputing candidates keeps tie preference explicit.
    ops = []
    mismatches = 0
    cost = 0.0
    i = j = 0
    while i < n or j < m:
        if i == last < n:  # the walk leaves this block: refill the next
            first = i
            block = _refill(lc, r_len, r_tag, start, marks, rows, i,
                            j if width == m + 1 else 0)
            last, cols = first + len(block) - 1, block.shape[1]
        best = None  # (dp value, preference, kind, true cost)
        if i < n and j < m:
            sc = _sub_cost(lc[i], rc[j])
            if sc == 0.0:
                best = (at(i + 1, j + 1), 0, MATCH, 0.0)
            elif sc < _INF:
                best = (sc + at(i + 1, j + 1), 1, PAIR, sc)
        if i < n:
            cand = (_GAP_DP + at(i + 1, j), 2, GAP_LEFT, _GAP_TRUE)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if j < m:
            cand = (_GAP_DP + at(i, j + 1), 3, GAP_RIGHT, _GAP_TRUE)
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


def mismatch_ratio(alignment):
    """Fraction of tokens with no counterpart; 1.0 for an empty pair."""
    if alignment.total_tokens == 0:
        return 1.0
    return alignment.mismatch_count / alignment.total_tokens


def chunk_pairs(alignment, left, right):
    """ChunkPairSet of the unequal-length aligned chunks, in order.

    These are exactly the PAIR ops: aligned chunks of equal length match.
    """
    return ChunkPairSet([
        ChunkPair(a.length, b.length)
        for a, b in aligned_chunks(alignment, left, right)
        if a.length != b.length])


def aligned_chunks(alignment, left, right):
    """All chunk-to-chunk correspondences (Match and Pair), in order."""
    out = []
    for op in alignment.ops:
        if op.kind not in (MATCH, PAIR):
            continue
        a = left.tokens[op.left_index]
        b = right.tokens[op.right_index]
        if a.kind == KIND_CHUNK:
            out.append((a, b))
    return out
