"""kposet: a desk-scale workbench for max/min program-size complexities
over computable partially ordered sets.

Modules:

  posets         computable partial orders (N, Z, words, finite sets,
                 regular languages) behind a single rank/leq interface
  codec          the binary word codings used by every construction
  limits         approximation processes (evaluators) and limit reports
                 from change points
  vm             the two-counter rank machine: its order-free kernel, whose
                 runs a longer program can resume, and kept emissions
  enumerable     the enumerable-set counters built on raw emissions
  busy_beaver    the busy-beaver table over one-tape Turing machines
  automata       regular expressions, canonical DFAs, language quotients and
                 their one-pass trace, the canonical enumeration of languages
  analysis       finite-order combinatorics: the transitive closure,
                 chains, antichains, Dilworth decompositions
  conditions     the star and dagger conditions of order pairs
  complexity     budgeted complexity tables with their closed-form plain
                 column, the closed-form wrap constant, and the estimate
                 report's summary and rows
  diagonal       the diagonal hardness construction and the family it audits
  cli            the `kposet` command-line front end; it writes every report

Every function here is entered by some command, bar a commented few (the
`__repr__`s, a broken-contract error and the `Evaluator` the benchmark
tracer wraps); tests/test_cli.py checks it under a call profile. What no
command runs lives with the tests: the evaluator-level constructions (the
budgeted limit operator, normalization, totalization, prefix normal form,
the max/min dovetail and the paired decompressor) in tests/constructions.py,
and the unused codings, the induced suborder, word acceptance, the
one-shot quotient and the general program rewriter (HALT to OUT,HALT, jumps
refitted) in tests/reference_impl.py.
"""
