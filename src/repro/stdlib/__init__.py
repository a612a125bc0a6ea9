"""The Rel standard library.

Following the paper's design philosophy (Section 5: "Growing the Language"),
the standard library is written *in Rel*, not in Python: aggregation is
defined from the single ``reduce`` primitive, relational algebra and linear
algebra are point-free second-order definitions, and the graph library
(transitive closure, APSP, PageRank) is plain recursive Rel.

The sources live in ``repro/stdlib/rel/*.rel`` and are loaded into every
:class:`repro.engine.RelProgram` unless ``load_stdlib=False``.
"""

from __future__ import annotations

import functools
from pathlib import Path

_REL_DIR = Path(__file__).parent / "rel"

#: Load order matters only for readability; definitions are order-independent
#: (Section 3.3: "The ordering of rules in Rel programs has no effect").
_SOURCES = ["stdlib.rel", "relalg.rel", "linalg.rel", "graphlib.rel",
            "strings.rel"]


@functools.lru_cache(maxsize=1)
def standard_library_source() -> str:
    """The concatenated Rel source of the standard library."""
    parts = []
    for name in _SOURCES:
        parts.append((_REL_DIR / name).read_text())
    return "\n".join(parts)
