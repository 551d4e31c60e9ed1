"""Set-shaping transform and bit-exact entropy coding measurement toolkit.

The library maps every length-N sequence over an alphabet of size >= 3
onto one of the |A|**N lowest-empirical-entropy sequences of length N+K
(a bijection computed by enumerative ranking, no set materialization),
codes sequences with a canonical Huffman coder whose coding-scheme cost
is a concrete, decodable bit string, and measures plain-vs-shaped
compressed lengths exhaustively or by seeded sampling.
"""

from . import errors
from .bitio import BitReader, BitWriter, Bits
from .coding import (
    CodeTable,
    CompressedLength,
    Container,
    EncodedMessage,
    SchemeFormat,
    build_code,
    decode,
    deserialize_scheme,
    encode,
    encode_message,
    pack_container,
    serialize_scheme,
    total_compressed_length,
    unpack_container,
)
from .combinatorics import (
    ClassOrdering,
    RankIndex,
    class_ordering,
    composition_count,
    multinomial,
    rank_in_class,
    rank_sequence,
    unrank_in_class,
    unrank_sequence,
)
from .core import (
    Alphabet,
    Composition,
    EntropyValue,
    Sequence,
    composition_of,
    distinct_symbol_count,
    empirical_entropy,
    entropy_of_composition,
    format_sequence,
    parse_sequence,
    weighted_entropy,
)
from .experiments import (
    CensusReport,
    ExperimentConfig,
    ExperimentReport,
    SourceSpec,
    TableRow,
    reproduce_table,
    run_exhaustive,
    run_sampled,
    source_entropy,
    table_to_csv,
    type_class_census,
)
from .shaping import (
    ShapedSubsetStats,
    ShapingParams,
    inverse_transform,
    shaped_subset_stats,
    shared_ordering,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BitReader",
    "BitWriter",
    "Bits",
    "CensusReport",
    "ClassOrdering",
    "CodeTable",
    "CompressedLength",
    "Composition",
    "Container",
    "EncodedMessage",
    "EntropyValue",
    "ExperimentConfig",
    "ExperimentReport",
    "RankIndex",
    "SchemeFormat",
    "Sequence",
    "ShapedSubsetStats",
    "ShapingParams",
    "SourceSpec",
    "TableRow",
    "build_code",
    "class_ordering",
    "composition_count",
    "composition_of",
    "decode",
    "deserialize_scheme",
    "distinct_symbol_count",
    "empirical_entropy",
    "encode",
    "encode_message",
    "entropy_of_composition",
    "errors",
    "format_sequence",
    "inverse_transform",
    "multinomial",
    "pack_container",
    "parse_sequence",
    "rank_in_class",
    "rank_sequence",
    "reproduce_table",
    "run_exhaustive",
    "run_sampled",
    "serialize_scheme",
    "shaped_subset_stats",
    "shared_ordering",
    "source_entropy",
    "table_to_csv",
    "total_compressed_length",
    "transform",
    "type_class_census",
    "unpack_container",
    "unrank_in_class",
    "unrank_sequence",
    "weighted_entropy",
]
