"""Chair tilings of Z^n and their coding applications.

Modules:
  exactmath  exact integer matrix algebra (determinant, HNF, SNF, inverses)
  chair      the notched-box shape, point enumeration, overlap criterion
  lattice    lattices, quotient labels (SplittingSequence), packing / tiling
             verifiers
  splitting  splitting constructions and lattice conversions
  codes      limited-magnitude asymmetric codes, decoding, nonexistence
  wom        write-once-memory coset colorings
  cli        command-line interface
"""

from .chair import Chair
from .codes import ErrorSphere, LatticeCode, SearchVerdict
from .exactmath import IntMatrix
from .lattice import Lattice, SplittingSequence, Verdict, chair_lattice
from .wom import Coloring

__all__ = [
    "Chair",
    "Coloring",
    "ErrorSphere",
    "IntMatrix",
    "Lattice",
    "LatticeCode",
    "SearchVerdict",
    "SplittingSequence",
    "Verdict",
    "chair_lattice",
]
