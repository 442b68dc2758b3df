"""argparse types that check a flag through the object that holds its value.

The command lines (``cnvlutin-sim``, ``cnvlutin-experiments``,
``repro-serve``) parse each checked flag with these, so junk exits 2 with
argparse's message naming the flag, before anything is built or started.
"""

from __future__ import annotations

import argparse

__all__ = ["checked", "field"]


def checked(parse):
    """An argparse type running ``parse`` on a flag's text: its ValueError
    becomes bad use of that flag (exit 2, before anything is built or
    started)."""
    def run(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return run


def field(owner, name: str, convert=str, off=None):
    """An argparse type parsing a flag as field ``name`` of ``owner``, the
    object that holds the value and checks it.  ``off``, the value that
    turns the flag's feature off, is not ``owner``'s to check."""
    def parse(text: str):
        value = convert(text)
        return value if value == off else getattr(owner(**{name: value}), name)

    return checked(parse)
