"""IEEE 1450 (STIL) subset: tokenizer, parser, writer and semantics.

STEAC's front end: core test information "is written in STIL and is
generated by commercial ATPG tools", so the platform "can be integrated
into a typical design flow easily" (paper, Section 2).  Here the STIL is
produced by :mod:`repro.atpg` or :func:`repro.stil.core_to_stil`, and the
parser digests it into :class:`repro.soc.Core` objects.
"""

from repro.stil.ast import Statement, StilFile
from repro.stil.errors import StilError
from repro.stil.parser import parse
from repro.stil.semantics import ExtractedCore, core_from_stil, parse_ann
from repro.stil.tokens import Token, tokenize
from repro.stil.writer import core_to_stil

__all__ = [
    "Statement",
    "StilFile",
    "StilError",
    "parse",
    "ExtractedCore",
    "core_from_stil",
    "parse_ann",
    "Token",
    "tokenize",
    "core_to_stil",
]
