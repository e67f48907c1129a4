"""The argument contract shared by every layer: a size below its least
value is refused, before any work, by a ValueError whose message starts
with the name of the parameter (or, in the CLI, of the flag)."""

from __future__ import annotations

from typing import Optional


def check_least(**sizes: tuple[Optional[int], int]) -> None:
    """Raise ValueError naming the first size below its least value; each
    keyword maps a name to (value, least), and a value of None, an
    optional size left out, passes."""
    for name, (value, least) in sizes.items():
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
