import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kposet.codec import b_index, decode_padded, encode_pair
from kposet.complexity import (
    MAX_PROG_LEN,
    Budget,
    ComplexityTable,
    complexity_table,
    hierarchy_report,
    iter_words,
    measure_wrap_constant,
    verify_table,
    wrap_program,
)
from constructions import paired_decompress
from kposet.diagonal import DIAGONAL_ALPHA_CAP, chain_antichain_family, diagonal_hard
from kposet.errors import ConfigError, ResourceError, VerificationError
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
    assert 0 in table.censored
    assert 0 not in table.k_max and 0 not in table.k_min
    text = hierarchy_report(NAT, 4, tight)
    lines = text.strip().split("\n")
    assert '"c_wrap": null' in lines[0]  # nothing can stabilize at window 8
    assert lines[2].endswith("censored")


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
    wrapped = wrap_program(w)
    assert wrapped == assemble(["INC_A", "OUT", "HALT"])
    res = run_emitting(NAT, wrapped, 0, 64)
    assert [d for _, d in res.trace] == [1]
    # stray OUT instructions are neutralized so the max filter cannot lose
    # the final value
    noisy = assemble(["INC_A", "OUT", "DEC_A", "HALT"])
    res_plain = run_emitting(NAT, noisy, 0, 64)
    assert res_plain.halted and res_plain.reg_a == 0
    res_wrapped = run_emitting(NAT, wrap_program(noisy), 0, 64)
    assert [d for _, d in res_wrapped.trace] == [0]


def test_wrap_program_fixes_jumps():
    # jump over a HALT; wrapping shifts instruction indices
    w = assemble([("JZ_B", 2), "HALT", "INC_A", "HALT"])
    wrapped = wrap_program(w)
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


def test_paired_decompress():
    table = complexity_table(NAT, 32, FULL)
    both = [r for r in table.k_max if r in table.k_min]
    assert both, "expected at least one doubly-witnessed rank"
    for rank in both:
        assert paired_decompress(NAT, table, rank, FULL) == NAT.unrank(rank)
        w_max, w_min = table.k_max[rank], table.k_min[rank]
        m = min(len(w_max), len(w_min))
        assert len(encode_pair(w_max, w_min)) == (
            len(w_max) + len(w_min) + 2 * (m.bit_length() - 1) + 3
        )
    plain_only = ComplexityTable(FULL)
    plain_only.k_max[0] = table.k_max[0]
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


def test_diagonal_hard_with_synthetic_exclusions():
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    family = gen(0, 8)  # alpha = 2

    def program_family(p_word):
        # two synthetic weak-semantics programs hitting the family's ends
        if p_word == "0":
            return ((0, family[0]),), ()
        if p_word == "1":
            return ((3, family[7]),), ((5, family[1]),)
        return None

    f, g, audit = diagonal_hard(
        weak, strong, gen, lambda j: j + 2, 0, SMALL, program_family=program_family
    )
    assert audit["passed"], audit
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

    def hostile(p_word):
        # a single trace meeting the antichain twice breaks the counting
        # argument's hypothesis; the audit must notice rather than assume
        if p_word == "0":
            return ((0, fam8[0]), (1, fam8[1])), ((2, fam8[2]),)
        return None

    f, g, audit = diagonal_hard(
        weak, strong, gen, lambda j: 2, 0, SMALL, program_family=hostile
    )
    assert not audit["per_trace_at_most_one"]
    assert not audit["passed"]


def test_diagonal_walks_keep_their_value_once_everything_is_excluded():
    # traces that name all 8 members leave no unexcluded index: both walks
    # stay on the last one left, and the audit fails instead of raising
    weak, strong = prefix_lexico_pair()
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    fam8 = gen(0, 8)  # alpha = 2

    def hostile(p_word):
        if p_word == "0":
            return tuple(((j, fam8[j]),) for j in range(8))
        return None

    f, g, audit = diagonal_hard(
        weak, strong, gen, lambda j: 2, 0, SMALL, program_family=hostile
    )
    assert (f, g) == (fam8[7], fam8[7])
    assert (audit["excluded_total"], audit["f_index"], audit["g_index"]) == (8, 7, 7)
    assert audit["per_trace_at_most_one"]
    assert not audit["per_step_bound_ok"]
    assert not audit["f_not_excluded"]
    assert not audit["g_not_excluded"]
    assert not audit["passed"]


def test_hierarchy_report_deterministic():
    a = hierarchy_report(NAT, 8, SMALL)
    b = hierarchy_report(NAT, 8, SMALL)
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0].startswith("# summary:")
    header = lines[1].split(",")
    assert header[:5] == ["rank", "element", "k_plain", "k_max", "k_min"]
    assert len(lines) - 2 == 8  # one row per requested rank


def test_hierarchy_report_discrete_rows_match():
    disc = parse_poset_spec("discrete(nat)")
    text = hierarchy_report(disc, 8, SMALL)
    for line in text.strip().split("\n")[3:]:
        cells = line.split(",")
        k_max, k_min = cells[3], cells[4]
        assert k_max == k_min
