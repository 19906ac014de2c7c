import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kposet.codec import b_index, decode_padded, pair_len
from kposet.complexity import (
    MAX_PROG_LEN,
    REPORT_COLUMNS,
    Budget,
    ComplexityTable,
    complexity_table,
    hierarchy_report,
    limit_corpus,
    measure_wrap_constant,
    verify_table,
)
from constructions import paired_decompress
from reference_impl import encode_pair, iter_words, wrap_constant_ref, wrap_program_ref
from kposet.diagonal import DIAGONAL_ALPHA_CAP, chain_antichain_family, diagonal_hard
from kposet.errors import ConfigError, ResourceError, VerificationError
from kposet.limits import STABILIZED, STILL_CHANGING
from kposet.posets import parse_poset_spec, reverse
from kposet.vm import assemble, run_emitting

NAT = parse_poset_spec("nat")
SMALL = Budget(max_prog_len=12, fuel=256, t_budget=256, window=4)
FULL = Budget(max_prog_len=14, fuel=512, t_budget=512, window=4)


def test_budget_validation():
    with pytest.raises(ConfigError):
        Budget(0, 1, 1, 1)
    with pytest.raises(ConfigError):
        Budget(4, 4, 4, 0)


def test_budget_horizon_is_not_a_field():
    assert Budget(12, 256, 100, 4).horizon == 100
    assert Budget(12, 64, 100, 4).horizon == 64
    assert list(Budget._fields) == [
        "max_prog_len", "fuel", "t_budget", "window"
    ]


def test_iter_words_order():
    ws = list(iter_words(2))
    assert ws == ["", "0", "1", "00", "01", "10", "11"]


def test_k_plain_table_small():
    table = complexity_table(NAT, 8, SMALL)
    # the single HALT instruction leaves reg_a at 0
    assert table.plain[0] == "111"
    # rank r needs r INC_A instructions before HALT
    for r in (1, 2, 3):
        assert len(table.plain[r]) == 3 * r + 3
    verify_table(NAT, table)


def test_k_plain_budget_monotone():
    small = complexity_table(NAT, 8, Budget(9, 128, 128, 4))
    large = complexity_table(NAT, 8, Budget(12, 256, 256, 4))
    for rank, w in small.plain.items():
        assert len(large.plain[rank]) <= len(w)


@pytest.mark.parametrize("build", [complexity_table, hierarchy_report])
def test_length_ceiling_comes_before_the_walks(build):
    over = Budget(MAX_PROG_LEN + 1, 256, 256, 4)
    with pytest.raises(ResourceError, match=f"ceiling of {MAX_PROG_LEN} bits"):
        build(NAT, 8, over)


def test_k_max_budget_monotone_in_resources():
    # enlarging the search-resource fields never worsens an entry
    small = complexity_table(NAT, 8, Budget(14, 128, 128, 4))
    large = complexity_table(NAT, 8, Budget(15, 256, 256, 4))
    assert small.k_max
    for rank, w in small.k_max.items():
        assert len(large.k_max[rank]) <= len(w)


def test_k_plain_rank_transport():
    # the machine emits ranks, so tables over any poset agree rank-by-rank
    zz = parse_poset_spec("int")
    assert complexity_table(NAT, 8, SMALL).plain == complexity_table(zz, 8, SMALL).plain


def test_k_max_table_and_pigeonhole():
    table = complexity_table(NAT, 32, FULL)
    assert table.k_max, "expected at least one stabilized max row"
    # machine "110" (single OUT) has index 13; its padded coding is the
    # shortest max witness and produces rank 0
    assert 0 in table.k_max
    witness = table.k_max[0]
    assert len(witness) == 14
    n, payload = decode_padded(witness)
    assert n == 13 and payload == ""
    verify_table(NAT, table)
    for limit in range(FULL.max_prog_len + 1):
        hits = sum(1 for w in table.k_max.values() if len(w) <= limit)
        assert hits <= 2 ** (limit + 1) - 1


def test_censored_rows():
    # a tight clock with a wide window leaves the single emitting machine
    # still-changing: the rank is censored, not tabled
    tight = Budget(max_prog_len=14, fuel=64, t_budget=4, window=8)
    table = complexity_table(NAT, 4, tight)
    assert table.censored == frozenset({0})
    assert 0 not in table.k_max and 0 not in table.k_min
    summary, rows = hierarchy_report(NAT, 4, tight)
    assert summary["c_wrap"] is None  # nothing can stabilize at window 8
    assert dict(zip(REPORT_COLUMNS, next(rows)))["status"] == "censored"


def test_k_min_equals_k_max_under_discrete():
    disc = parse_poset_spec("discrete(nat)")
    table = complexity_table(disc, 32, FULL)
    assert table.k_max and table.k_max == table.k_min


REVERSE_SPECS = ("nat", "int", "prefix:ab", "lexico:a<b;c", "finsets", "rev(nat)", "discrete(finsets)")
budgets = st.builds(
    Budget, st.integers(1, 16), st.integers(1, 256), st.integers(1, 256), st.integers(1, 8)
)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(REVERSE_SPECS), ranks=st.integers(0, 12), b=budgets)
@example(spec="nat", ranks=8, b=Budget(14, 128, 128, 4))  # rank 0 on both sides
@example(spec="prefix:ab", ranks=8, b=Budget(14, 64, 4, 8))  # rank 0 censored
def test_min_is_max_over_the_reverse(spec, ranks, b):
    p = parse_poset_spec(spec)
    table, rev = complexity_table(p, ranks, b), complexity_table(reverse(p), ranks, b)
    assert rev.k_max == table.k_min
    assert rev.k_min == table.k_max
    assert (rev.plain, rev.censored) == (table.plain, table.censored)


def test_join_and_verify():
    table = complexity_table(NAT, 16, FULL)
    verify_table(NAT, table)
    assert 0 in table.plain and 0 in table.k_max and 0 in table.k_min
    # a witness that replays to another rank is caught in every column
    for column in ("plain", "k_max", "k_min"):
        tampered = complexity_table(NAT, 16, FULL)
        getattr(tampered, column)[1] = getattr(tampered, column)[0]
        with pytest.raises(VerificationError, match=f"{column} witness for rank 1 does not replay"):
            verify_table(NAT, tampered)


def test_wrap_program():
    w = assemble(["INC_A", "HALT"])
    wrapped = wrap_program_ref(w)
    assert wrapped == assemble(["INC_A", "OUT", "HALT"])
    res = run_emitting(NAT, wrapped, 0, 64)
    assert [d for _, d in res.trace] == [1]
    # stray OUT instructions are neutralized so the max filter cannot lose
    # the final value
    noisy = assemble(["INC_A", "OUT", "DEC_A", "HALT"])
    res_plain = run_emitting(NAT, noisy, 0, 64)
    assert res_plain.halted and res_plain.reg_a == 0
    res_wrapped = run_emitting(NAT, wrap_program_ref(noisy), 0, 64)
    assert [d for _, d in res_wrapped.trace] == [0]


def test_wrap_program_fixes_jumps():
    # jump over a HALT; wrapping shifts instruction indices
    w = assemble([("JZ_B", 2), "HALT", "INC_A", "HALT"])
    wrapped = wrap_program_ref(w)
    res = run_emitting(NAT, wrapped, 0, 64)  # reg_b = 0: jump taken
    assert res.halted and res.reg_a == 1
    assert [d for _, d in res.trace] == [1]


def test_wrap_constant_bounds_table_gap():
    table = complexity_table(NAT, 16, FULL)
    c_wrap = measure_wrap_constant(NAT, table)
    assert c_wrap is not None
    for rank, w in table.k_max.items():
        if rank in table.plain:
            assert len(w) - len(table.plain[rank]) <= c_wrap


# the wrap of rank r's witness INC_A^r HALT is INC_A^r OUT HALT, of PADDED
# length 2^(3r + 6) + 55, so c_wrap is that less 3r + 3 at the top rank filled
DEFAULT = dict(fuel=4096, t_budget=4096, window=8)
ITEM6_SPECS = ("nat", "rev(nat)", "int", "prefix:ab", "finsets", "discrete(nat)", "reg:ab")
TOP_RANK_C_WRAP = {0: 116, 1: 561, 2: 4142, 3: 32811, 4: 262184,
                   5: 2097189, 6: 16777250, 7: 134217759}
WRAP_PINS = [
    *(("nat", Budget(max_len, **DEFAULT), None) for max_len in (1, 2)),
    *(("nat", Budget(max_len, **DEFAULT), TOP_RANK_C_WRAP[max_len // 3 - 1])
      for max_len in range(3, MAX_PROG_LEN + 1)),
    *((spec, Budget(24, **DEFAULT), 134217759)
      for spec in ITEM6_SPECS[1:]),
    ("nat", Budget(24, 4096, 4, 2), 32811),
    ("nat", Budget(24, 4096, 6, 1), 16777250),
    ("nat", Budget(24, 4096, 3, 4), 116),
    ("nat", Budget(24, 4096, 4, 8), None),
]


@pytest.mark.parametrize(("spec", "b", "expected"), WRAP_PINS,
                         ids=[f"{spec}-{b.max_prog_len}-{b.t_budget}-{b.window}"
                              for spec, b, _ in WRAP_PINS])
def test_wrap_constant_values(spec, b, expected):
    p = parse_poset_spec(spec)
    assert measure_wrap_constant(p, complexity_table(p, 32, b)) == expected


@pytest.mark.parametrize("max_len", range(1, MAX_PROG_LEN + 1))
def test_wrap_is_the_reference_rewrite_of_every_plain_witness(max_len):
    table = complexity_table(NAT, 32, Budget(max_len, **DEFAULT))
    for rank, w in table.plain.items():
        assert assemble(["INC_A"] * rank + ["OUT", "HALT"]) == wrap_program_ref(w)


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(ITEM6_SPECS), ranks=st.integers(0, 32),
       b=st.builds(Budget, st.integers(1, MAX_PROG_LEN), st.integers(1, 64),
                   st.integers(1, 40), st.integers(1, 8)))
@example(spec="nat", ranks=32, b=Budget(24, 4096, 4, 8))  # None: nothing stabilizes
@example(spec="nat", ranks=8, b=Budget(14, 4096, 2, 1))  # rank 3 emits past the horizon
@example(spec="int", ranks=32, b=Budget(24, 5, 4096, 3))  # the fuel leaves rank 4 changing
def test_wrap_constant_matches_the_reference_rewrite(spec, ranks, b):
    p = parse_poset_spec(spec)
    table = complexity_table(p, ranks, b)
    assert measure_wrap_constant(p, table) == wrap_constant_ref(p, table)


def test_paired_decompress():
    table = complexity_table(NAT, 32, FULL)
    both = [r for r in table.k_max if r in table.k_min]
    assert both, "expected at least one doubly-witnessed rank"
    for rank in both:
        assert paired_decompress(NAT, table, rank, FULL) == NAT.unrank(rank)
        w_max, w_min = table.k_max[rank], table.k_min[rank]
        assert pair_len(len(w_max), len(w_min)) == len(encode_pair(w_max, w_min))
    plain_only = ComplexityTable(FULL, {}, {0: table.k_max[0]}, {}, frozenset())
    with pytest.raises(ConfigError, match="min-side"):
        paired_decompress(NAT, plain_only, 0, FULL)


def prefix_lexico_pair():
    return parse_poset_spec("prefix:ab"), parse_poset_spec("lexico:a<b")


def test_diagonal_hard_vm_backed():
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    for i in range(3):
        f, g, audit = diagonal_hard(
            weak, strong, gen, lambda j: j + 1, i, SMALL
        )
        assert audit["passed"], audit
        assert audit["z_size"] == 2 ** (i + 2)
        assert f in set(gen(i, audit["z_size"]))
        assert g in set(gen(i, audit["z_size"]))


def test_diagonal_hard_alpha_zero():
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    f, g, audit = diagonal_hard(weak, strong, gen, lambda j: 0, 0, SMALL)
    # size-2 family, no programs short enough to exclude anything
    assert audit["z_size"] == 2
    assert audit["programs_considered"] == 0
    assert f == gen(0, 2)[0]
    assert g == gen(0, 2)[1]


@pytest.mark.parametrize("alpha", range(DIAGONAL_ALPHA_CAP + 1))
def test_diagonal_audits_the_padded_words_below_alpha(alpha):
    # the audited programs are the words shorter than alpha that address a
    # machine, and none of them addresses an OUT machine: that is why the
    # PADDED audit reports exclusion_events = 0 up to the cap
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    _, _, audit = diagonal_hard(weak, strong, gen, lambda j: alpha, 0, SMALL)
    addressed = [w for w in iter_words(alpha - 1) if decode_padded(w) is not None]
    assert audit["programs_considered"] == len(addressed)
    assert limit_corpus(alpha - 1, SMALL.fuel) == {}
    assert audit["exclusion_events"] == 0


def test_diagonal_hard_with_synthetic_exclusions():
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    family = gen(0, 8)  # alpha = 2
    # two synthetic weak-semantics programs hitting the family's ends, and
    # one run that two words make: its hit is one exclusion event per word
    runs = [
        ((((0, family[0]),), ()), 1),
        ((((3, family[7]),), ((5, family[1]),)), 1),
        ((((6, family[1]), (7, "bb")), ()), 2),
    ]

    f, g, audit = diagonal_hard(
        weak, strong, gen, lambda j: j + 2, 0, SMALL, runs=runs
    )
    assert audit["passed"], audit
    assert (audit["exclusion_events"], audit["excluded_total"]) == (5, 3)
    assert f not in {family[0], family[7], family[1]}
    assert g not in {family[0], family[7], family[1]}
    assert f == family[2]  # least index never excluded
    assert g == family[6]  # greatest index never excluded


def test_diagonal_hard_rejects_bad_generator():
    weak, strong = prefix_lexico_pair()
    with pytest.raises(VerificationError):
        diagonal_hard(
            weak, strong, lambda i, size: ["b"] * size, lambda j: 1, 0, SMALL
        )
    with pytest.raises(VerificationError, match="not a weak antichain"):
        # a, aa, aaa, ... ascend in lexico:a<b but are prefixes of each other
        diagonal_hard(
            weak, strong, lambda i, size: ["a" * (j + 1) for j in range(size)],
            lambda j: 1, 0, SMALL,
        )
    for alpha in (DIAGONAL_ALPHA_CAP + 1, 17):
        # the cap comes before the generator builds the family
        with pytest.raises(ResourceError, match=f"cap of {DIAGONAL_ALPHA_CAP}$"):
            diagonal_hard(
                weak, strong, lambda i, size: [], lambda j: alpha, 0, SMALL
            )


def test_diagonal_counting_bound_detects_violation():
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    fam8 = gen(0, 8)  # alpha = 2
    # a single trace meeting the antichain twice breaks the counting
    # argument's hypothesis; the audit must notice rather than assume
    hostile = [((((0, fam8[0]), (1, fam8[1])), ((2, fam8[2]),)), 1)]

    f, g, audit = diagonal_hard(
        weak, strong, gen, lambda j: 2, 0, SMALL, runs=hostile
    )
    assert not audit["per_trace_at_most_one"]
    assert not audit["passed"]


def test_diagonal_walks_keep_their_value_once_everything_is_excluded():
    # traces that name all 8 members leave no unexcluded index: both walks
    # stay on the last one left, and the audit fails instead of raising
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    fam8 = gen(0, 8)  # alpha = 2
    hostile = [((((j, fam8[j]),), ((j + 1, fam8[j + 1]),)), 1) for j in range(0, 8, 2)]

    f, g, audit = diagonal_hard(
        weak, strong, gen, lambda j: 2, 0, SMALL, runs=hostile
    )
    assert (f, g) == (fam8[7], fam8[7])
    assert (audit["excluded_total"], audit["f_index"], audit["g_index"]) == (8, 7, 7)
    assert audit["per_trace_at_most_one"]
    assert not audit["per_step_bound_ok"]
    assert not audit["f_not_excluded"]
    assert not audit["g_not_excluded"]
    assert not audit["passed"]


# prefix:ab words outside every chain_antichain_family (a^(n-1-j) b)
_OFF_FAMILY = ["", "a", "aa", "ba", "bb", "aba"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_diagonal_walks_match_their_definitions(data):
    # F is the least and G the greatest family index that no exclusion event
    # so far has named, the events taken by step, then by index; once every
    # index is named each keeps the value it had; and each side's status reads
    # the step of its last change (0 if none) against the window
    weak, strong = prefix_lexico_pair()
    alpha = data.draw(st.integers(0, 4), label="alpha")
    size = 2 ** (alpha + 1)
    family = chain_antichain_family(weak, strong, size)
    point = st.tuples(st.integers(0, 40), st.sampled_from(family + _OFF_FAMILY))
    trace = st.lists(point, max_size=3).map(tuple)
    run = st.tuples(st.tuples(trace, trace), st.integers(1, 3))
    runs = data.draw(st.lists(run, max_size=6), label="runs")
    if data.draw(st.booleans(), label="name every member"):
        steps = data.draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
        runs += [((((t, e),), ()), 1) for t, e in zip(steps, family)]
    fuel, t_budget = (data.draw(st.integers(1, 60)) for _ in range(2))
    window = data.draw(st.integers(1, 10), label="window")
    horizon = min(fuel, t_budget)

    f, g, audit = diagonal_hard(
        weak, strong, lambda i, n: family, lambda j: alpha, 0,
        Budget(MAX_PROG_LEN, fuel, t_budget, window), runs=runs,
    )
    hits, events = [], []  # each trace's hits; one event per hit and word
    for traces, count in runs:
        for tr in traces:
            hits.append([(t, family.index(e)) for t, e in tr if t <= horizon and e in family])
            events += hits[-1] * count
    events.sort()
    named: set = set()
    value = {"f": 0, "g": size - 1}
    last_change = {"f": 0, "g": 0}
    for t, j in events:
        named.add(j)
        left = set(range(size)) - named
        for side, pick in (("f", min), ("g", max)):
            if left and pick(left) != value[side]:
                value[side], last_change[side] = pick(left), t
    assert (f, g) == (family[value["f"]], family[value["g"]])
    for side in ("f", "g"):
        stable = horizon - last_change[side] + 1 >= window
        assert audit[f"{side}_index"] == value[side]
        assert audit[f"{side}_status"] == (STABILIZED if stable else STILL_CHANGING)
        assert audit[f"{side}_not_excluded"] == (value[side] not in named)
    assert audit["exclusion_events"] == len(events)
    assert audit["excluded_total"] == len(named)
    assert audit["per_trace_at_most_one"] == all(len(h) <= 1 for h in hits)
    assert audit["passed"] == (
        len(named) <= size - 2 and all(len(h) <= 1 for h in hits)
        and value["f"] not in named and value["g"] not in named
    )


def test_hierarchy_report_deterministic():
    # at FULL the limit columns hold rank 0, so the rerun compares them too
    a, b = (hierarchy_report(NAT, 8, FULL) for _ in range(2))
    summary, rows = a[0], list(a[1])
    assert (summary, rows) == (b[0], list(b[1]))
    assert set(summary) == {"c1", "c2", "c_wrap"}
    assert REPORT_COLUMNS[:5] == ("rank", "element", "k_plain", "k_max", "k_min")
    assert [row[0] for row in rows] == list(range(8))  # one row per requested rank
    assert all(len(row) == len(REPORT_COLUMNS) for row in rows)
    assert rows[0][3] is not None and rows[0][4] is not None


def test_hierarchy_report_discrete_rows_match():
    # no OUT machine is shorter than 14 bits, so SMALL (12) leaves the limit
    # columns empty; FULL (14) fills them at rank 0
    disc = parse_poset_spec("discrete(nat)")
    _, rows = hierarchy_report(disc, 8, FULL)
    rows = [dict(zip(REPORT_COLUMNS, row)) for row in rows]
    assert all(row["k_max"] == row["k_min"] for row in rows)
    first = rows[0]
    assert (first["k_max"], first["k_min"], first["pair_len"], first["status"]) == (14, 14, 37, "ok")
