"""bklkit: exact canonical / dual canonical bases and BKL polynomials in
windowed mixed Fock spaces, with a q=1 character layer for gl(m|n)."""

from .combinat import SignedSeq, WedgeIndex, Window
from .canonical import CANONICAL, DUAL, bkl, wedge_bkl
from .characters import irreducible_character, tilting_character
from .scalars import Laurent

__all__ = [
    "SignedSeq",
    "WedgeIndex",
    "CANONICAL",
    "DUAL",
    "bkl",
    "wedge_bkl",
    "irreducible_character",
    "tilting_character",
    "Window",
    "Laurent",
]

__version__ = "0.1.0"
