"""Source-to-answer benchmark of the PIP reproduction (see README.md)."""
