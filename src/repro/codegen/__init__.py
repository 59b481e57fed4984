"""Code generation of standalone serialization libraries (paper Section VI).

Two emission tiers share one pipeline (emit → specialize → compile → cache):
the readable per-node library measured by the potency metrics
(:func:`generate_module`), and the specializing compiler's straight-line
form (``specialize=True`` / :mod:`.specializer`) used as the native-speed
codec tier — byte- and error-identical, several times faster.  Loaded
modules are shared per dialect fingerprint through :mod:`.cache`.
"""

from .cache import (
    cached_module,
    cached_module_count,
    clear_module_cache,
    module_cache_stats,
    module_fingerprint,
)
from .emitter import EMITTER_VERSION, generate_module, generate_module_from_plan
from .loader import (
    GeneratedCodec,
    SpecializedCodec,
    check_module_version,
    load_source,
    write_module,
)
from .naming import accessor_suffix, parser_function, sanitize, serializer_function, struct_class
from .specializer import generate_specialized_module

__all__ = [
    "EMITTER_VERSION",
    "GeneratedCodec",
    "SpecializedCodec",
    "accessor_suffix",
    "cached_module",
    "cached_module_count",
    "check_module_version",
    "clear_module_cache",
    "generate_module",
    "generate_module_from_plan",
    "generate_specialized_module",
    "load_source",
    "module_cache_stats",
    "module_fingerprint",
    "parser_function",
    "sanitize",
    "serializer_function",
    "struct_class",
    "write_module",
]
