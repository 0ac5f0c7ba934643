"""Constraint-text interchange: LIR ``<exp> <= <exp>`` import/export.

A second front door into the analysis that bypasses the C frontend
entirely: :func:`export_constraint_text` serialises any
:class:`~repro.analysis.constraints.ConstraintProgram` as canonical
(byte-sorted) LIR constraint text, and :func:`parse_constraint_text`
reads such a file — ours or a third party's — back into a solvable
program.  See ``docs/internals.md`` §15 for the grammar and the
round-trip oracle.
"""

from .errors import ConstraintTextError, InterchangeError
from .export import FORMAT_VERSION, export_constraint_text
from .importer import parse_constraint_text

__all__ = [
    "ConstraintTextError",
    "InterchangeError",
    "FORMAT_VERSION",
    "export_constraint_text",
    "parse_constraint_text",
]
