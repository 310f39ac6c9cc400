"""Execution backend: interpreter, reference oracle, C emission, and the
cached operator driver."""

from .codegen import emit_c
from .interpreter import (BackendError, BoundsError, DataBuffer, allocate,
                          run)
from .operator import Operator, OperatorArtifact, autotune, clear_cache
from .reference import reference_run

__all__ = [
    "BackendError", "BoundsError", "DataBuffer", "allocate", "emit_c",
    "reference_run", "run", "Operator", "OperatorArtifact", "autotune",
    "clear_cache",
]
