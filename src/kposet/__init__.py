"""kposet: a desk-scale workbench for max/min program-size complexities
over computable partially ordered sets.

Modules:

  posets         computable partial orders (N, Z, words, finite sets,
                 regular languages) behind a single rank/leq interface
  codec          the binary word codings used by every construction
  limits         approximation processes (evaluators) and limit reports
                 from change points
  vm             the two-counter rank machine: its order-free kernel, the
                 program walk and kept emissions
  enumerable     the enumerable-set counters built on raw emissions
  busy_beaver    the busy-beaver table over one-tape Turing machines
  automata       regular expressions, canonical DFAs, language quotients and
                 their one-pass trace, the canonical enumeration of languages
  analysis       finite-order combinatorics: the transitive closure,
                 chains, antichains, Dilworth decompositions
  conditions     the star and dagger conditions of order pairs
  complexity     budgeted complexity tables, the wrap constant, CSV reports
  diagonal       the diagonal hardness construction and the family it audits
  cli            the `kposet` command-line front end

Every module is loaded by some command. The evaluator-level constructions
(the budgeted limit operator, normalization, totalization, prefix normal
form, the max/min dovetail and the paired decompressor), which no command
runs, live with the tests in tests/constructions.py.

The three names below come from `posets`, which is imported on first use,
so that a command that parses no order spec does not load it.
"""

__all__ = ["PosetInstance", "parse_poset_spec", "reverse"]


def __getattr__(name):
    if name in __all__:
        from . import posets

        return getattr(posets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
