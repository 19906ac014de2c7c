"""kposet: a desk-scale workbench for max/min program-size complexities
over computable partially ordered sets.

Modules:

  posets      computable partial orders (N, Z, words, finite sets, regular
              languages) behind a single rank/leq interface
  codec       the binary word codings used by every construction
  limits      approximation processes, budgeted limit operators and the
              normalization / totalization / filtering constructions
  vm          the two-counter rank machine, busy beaver search, enumerable
              set counters
  automata    regular expressions, canonical DFAs, language quotients, the
              canonical enumeration of regular languages
  analysis    finite-order combinatorics: chains, antichains, Dilworth
              decompositions, order-pair condition checkers
  complexity  budgeted complexity tables, the paired decompressor, the
              diagonal hardness construction, CSV reports
  cli         the `kposet` command-line front end
"""

from .posets import PosetInstance, parse_poset_spec, reverse

__all__ = ["PosetInstance", "parse_poset_spec", "reverse"]
