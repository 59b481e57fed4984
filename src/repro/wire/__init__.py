"""Wire runtime: on-the-fly serialization and parsing of (obfuscated) messages."""

from .codec import WireCodec
from .parser import Parser, parse
from .plan import (
    CodecPlan,
    TerminalPlan,
    cache_stats,
    compile_plan,
    invalidate,
    plan_for,
    reset_cache_stats,
)
from .serializer import Serializer, serialize, serialize_with_spans
from .spans import FieldSpan, boundaries
from .streaming import (
    DecodedMessage,
    StreamingDecoder,
    decode_stream,
    is_self_framing,
)
from .window import Window

__all__ = [
    "CodecPlan",
    "DecodedMessage",
    "FieldSpan",
    "Parser",
    "Serializer",
    "StreamingDecoder",
    "TerminalPlan",
    "Window",
    "WireCodec",
    "boundaries",
    "cache_stats",
    "compile_plan",
    "decode_stream",
    "invalidate",
    "is_self_framing",
    "parse",
    "plan_for",
    "reset_cache_stats",
    "serialize",
    "serialize_with_spans",
]
