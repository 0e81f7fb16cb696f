"""webbitext: find pairs of web pages that are parallel translations.

The method is language independent and structural.  Both pages of a
candidate pair are flattened to a sequence of markup and text-chunk
tokens, the sequences are optimally aligned, pairs with too many
unmatched tokens are discarded, and the surviving pairs are accepted only
if the lengths of their aligned text chunks show a significant positive
linear correlation.  A candidate generator finds pairs via anchor
patterns on hub pages, a polite fetcher retrieves them, and an optional
character n-gram language identifier confirms each side's language.
"""

from .align import (Alignment, AlignOp, ChunkPair, ChunkPairSet, align,
                    aligned_chunks, chunk_pairs, mismatch_ratio)
from .candidates import (Anchor, CandidatePair, GeneratorConfig,
                         anchor_matches, build_query, extract_candidates,
                         parse_anchors, read_hub_list)
from .evaluate import (ACCEPT, REJECT, CorrelationResult, EvaluationReport,
                       EvaluatorConfig, SegmentPair, decide_lengths,
                       evaluate_pair)
from .fetch import FetchPolicy, FetchResult, Fetcher, PageCache
from .langid import NgramModel, classify, language_filter, train
from .linearize import (LinearDocument, Token, decode_html, linearize,
                        render_token)
from .pipeline import (PipelineConfig, ScoreSummary, load_gold, run_pipeline,
                       score, score_report_files, segments_text)
from .stats import incomplete_beta, p_value, pearson_r, student_t_two_tailed

__version__ = "0.1.0"

__all__ = [
    "ACCEPT", "REJECT",
    "AlignOp", "Alignment", "Anchor", "CandidatePair", "ChunkPair",
    "ChunkPairSet", "CorrelationResult", "EvaluationReport",
    "EvaluatorConfig", "FetchPolicy", "FetchResult", "Fetcher",
    "GeneratorConfig", "LinearDocument", "NgramModel",
    "PageCache", "PipelineConfig",
    "ScoreSummary", "SegmentPair", "Token",
    "align", "aligned_chunks", "anchor_matches", "build_query",
    "chunk_pairs", "classify", "decide_lengths", "decode_html",
    "evaluate_pair", "extract_candidates",
    "incomplete_beta", "language_filter", "linearize", "load_gold",
    "mismatch_ratio", "p_value", "parse_anchors", "pearson_r",
    "read_hub_list", "render_token", "run_pipeline", "score",
    "score_report_files", "segments_text", "student_t_two_tailed",
    "train",
]
