"""The record contract: frozen records refuse assignment, validate on
construction with fixed messages, and compare by value."""

import pytest

from reference_impl import TmSpec

from kposet.analysis import FinitePoset
from kposet.automata import parse_regex, to_canonical_dfa
from kposet.complexity import Budget, ComplexityTable
from kposet.conditions import OrderPair
from kposet.errors import ConfigError
from kposet.limits import LimitReport
from kposet.posets import parse_poset_spec
from kposet.vm import RunResult

AB = ("a", "b")
CHAIN = FinitePoset(2, frozenset({(0, 1)}))
A_STAR = to_canonical_dfa(parse_regex("a*", AB), AB)
TM_TABLE = {(0, 0): (1, "R", "H"), (0, 1): (1, "L", 0)}

FROZEN = {
    "PosetInstance": (parse_poset_spec("nat"), "spec"),
    "LimitReport": (LimitReport(None, 0, 0, "no-value"), "status"),
    "RunResult": (RunResult((), (), False, 0, 0, 0), "halted"),
    "TmSpec": (TmSpec(1, TM_TABLE), "states"),
    "Budget": (Budget(1, 1, 1, 1), "fuel"),
    "FinitePoset": (CHAIN, "rows"),
    "OrderPair": (OrderPair(CHAIN, CHAIN), "weak"),
    "RegexAst": (parse_regex("a·b", AB), "op"),
    "Dfa": (A_STAR, "start"),
    "ComplexityTable": (ComplexityTable(Budget(1, 1, 1, 1), {}, {}, {}, frozenset()), "censored"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_reject_assignment(name):
    record, field = FROZEN[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: Budget(0, 1, 1, 1), ConfigError, "budget field max_prog_len must be positive"),
    (lambda: Budget(4, 4, 4, 0), ConfigError, "budget field window must be positive"),
    (lambda: TmSpec(1, {(0, 0): (1, "R", "H")}), ConfigError, "transition table misses (0,1)"),
    (lambda: OrderPair(CHAIN, FinitePoset(3, frozenset())), ConfigError,
     "order pair carriers differ"),
    (lambda: OrderPair(CHAIN, FinitePoset(2, frozenset())), ConfigError,
     "strong order does not extend the weak one (missing (0, 1))"),
    (lambda: FinitePoset(2, frozenset({(0, 1), (1, 0)})), ConfigError,
     "not a strict partial order (reflexive or cyclic)"),
    (lambda: FinitePoset(2, frozenset({(0, 5)})), ConfigError, "relation pair out of range: (0, 5)"),
], ids=["budget-len", "budget-window", "tm",
        "pair-carriers", "pair-extension", "poset-cycle", "poset-range"])
def test_record_validation_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_finite_poset_equality_ignores_rows():
    # rows follow from n and the closed lt, so (n, lt) decide equality
    chain_lt = frozenset({(0, 1), (1, 2)})
    posets = [
        FinitePoset(3, chain_lt),
        FinitePoset(3, chain_lt | {(0, 2)}),
        FinitePoset(3, frozenset({(0, 1)})),
        FinitePoset(3, frozenset()),
        FinitePoset(2, frozenset()),
    ]
    for a in posets:
        for b in posets:
            assert (a == b) == ((a.n, a.lt) == (b.n, b.lt))
            if a == b:
                assert hash(a) == hash(b)
    assert posets[0] == posets[1]

