"""SPKI S-expressions: the wire representation of Snowflake objects.

The paper transmits proofs "as SPKI-style S-expressions" (Section 4.3) and
relies on SPKI's "unambiguous S-expression representation" (Section 3).
This package implements Rivest's S-expression draft: atoms (byte strings,
optionally carrying a display hint) and lists, with three encodings:

- *canonical*: unambiguous ``<len>:<bytes>`` verbatim form, used for hashing
  and signing;
- *transport*: base64 of the canonical form wrapped in braces, safe for
  embedding in HTTP headers (the paper's Figure 5 challenge uses it);
- *advanced*: the human-readable form with tokens, quoted strings, ``#hex#``
  and ``|base64|`` atoms, used throughout the paper's figures.
"""

from repro.sexp.ast import SExp, Atom, SList, sexp
from repro.sexp.parser import (
    SexpParseError,
    canonical_atom_at,
    canonical_extent,
    parse,
    parse_canonical,
    parse_canonical_prefix,
)
from repro.sexp.encoder import (
    to_canonical,
    to_transport,
    to_advanced,
    from_transport,
    transport_to_canonical,
)

__all__ = [
    "SExp",
    "Atom",
    "SList",
    "sexp",
    "parse",
    "parse_canonical",
    "parse_canonical_prefix",
    "canonical_atom_at",
    "canonical_extent",
    "SexpParseError",
    "to_canonical",
    "to_transport",
    "to_advanced",
    "from_transport",
    "transport_to_canonical",
]
