"""The order-free kernel and the generating scans against the order-aware
reference implementations in reference_impl.py."""

import functools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impl import (
    _INSTRUCTIONS,
    _padded_walk,
    _plain_leaves,
    eager_plain_ref,
    encode_padded,
    iter_programs,
    iter_words,
    limit_corpus_ref,
    plain_scan_ref,
    plain_walk_ref,
    run_emitting_ref,
    run_raw_ref,
    tables_ref,
)

from kposet.codec import b_index, b_word, decode_padded
from kposet.complexity import (
    MAX_PROG_LEN,
    PADDED,
    RAW,
    Budget,
    complexity_table,
    limit_corpus,
)
from kposet.diagonal import DIAGONAL_ALPHA_CAP
from kposet.errors import ConfigError
from kposet.posets import parse_poset_spec, reverse
from kposet.vm import (
    _execute,
    _resume,
    assemble,
    kept_trace,
    parse_program,
    run_emitting,
)

NEEDS = [("HALT", None), ("OUT", None), ("JZ_B", -1)]

BASE_SPECS = ("nat", "int", "prefix:ab", "finsets", "lexico:a<b")
SPECS = BASE_SPECS + tuple(f"rev({s})" for s in BASE_SPECS) + tuple(
    f"discrete({s})" for s in BASE_SPECS
)
POSETS = {spec: parse_poset_spec(spec) for spec in SPECS}
NAT = POSETS["nat"]

DEAD_SPIN = assemble(["INC_A", "OUT", "INC_A"])  # falls off the end
CYCLE = assemble(["INC_A", "OUT", "DEC_A", "OUT", ("JZ_B", -4)])  # state repeats
ZIGZAG = assemble(["INC_A", "INC_A", "OUT", "DEC_A", "OUT", "INC_A", "INC_A", "OUT", "HALT"])
COUNTER = assemble(["INC_A", "OUT", "INC_B", ("JZ_A", -3)])  # never repeats a state
UP_DOWN = assemble(["INC_A", "DEC_A", ("JZ_A", -2)])  # repeats a state, a = 1 mid-period
# lands on pc 0 with a = 1 and a = 0 in turn: state (0, 0, 0) repeats every
# 7 steps, but neighbouring landings never match
ALT = assemble([("JZ_A", 3), "DEC_A", ("JZ_A", -2), "INC_A", "OUT", ("JZ_B", -5)])

instructions = st.one_of(
    st.sampled_from(["INC_A", "INC_B", "DEC_A", "DEC_B", "OUT", "HALT"]),
    st.tuples(
        st.sampled_from(["JZ_A", "JZ_B"]),
        st.one_of(st.integers(-4, 4), st.integers(-16, 15)),
    ),
)
programs = st.one_of(
    st.lists(instructions, max_size=10).map(assemble),
    st.text(alphabet="01", max_size=40),  # most raw words do not parse
)


def assert_same_run(got, want):
    assert got.trace == want.trace
    assert got.raw_first == want.raw_first
    assert got.halted == want.halted
    assert got.steps_used == want.steps_used
    assert got.reg_a == want.reg_a
    assert got.reg_b == want.reg_b


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    code=programs,
    input_b=st.integers(0, 20),
    fuel=st.integers(0, 300),
)
@example(spec="nat", code=DEAD_SPIN, input_b=0, fuel=50)
@example(spec="rev(prefix:ab)", code=CYCLE, input_b=0, fuel=200)
@example(spec="lexico:a<b", code=ZIGZAG, input_b=3, fuel=100)
@example(spec="discrete(finsets)", code=COUNTER, input_b=0, fuel=300)
@example(spec="rev(int)", code=ZIGZAG, input_b=0, fuel=5)
@example(spec="nat", code=UP_DOWN, input_b=0, fuel=4096)
@example(spec="nat", code=ALT, input_b=0, fuel=300)
@example(spec="rev(nat)", code=ALT, input_b=2, fuel=101)
def test_kernel_matches_order_aware_reference(spec, code, input_b, fuel):
    p = POSETS[spec]
    assert_same_run(run_emitting(p, code, input_b, fuel), run_emitting_ref(p, code, input_b, fuel))
    assert_same_run(run_emitting(NAT, code, input_b, fuel), run_raw_ref(code, input_b, fuel))


def test_kernel_examples_cover_spin_and_cycle():
    # the hand-written examples above really exercise the dead spin and a
    # repeated state, which is jumped as a (0, 0) period
    spin = run_emitting(NAT, DEAD_SPIN, 0, 50)
    assert spin.steps_used == 50 and not spin.halted and len(spin.raw_first) == 1
    cyc = run_emitting(NAT, CYCLE, 0, 200)
    assert cyc.steps_used == 200 and cyc.raw_first == ((1, 1), (3, 0))
    up = run_emitting(POSETS["nat"], ZIGZAG, 0, 100)
    down = run_emitting(POSETS["rev(nat)"], ZIGZAG, 0, 100)
    assert [d for _, d in up.trace] == [2, 3]
    assert [d for _, d in down.trace] == [2, 1]


def test_repeated_states_end_with_honest_registers():
    # a repeated state is jumped as a period, and the remainder interpreted
    assert UP_DOWN == "00001010011110"
    res = run_emitting(NAT, UP_DOWN, 0, 4096)
    assert (res.steps_used, res.reg_a, res.reg_b) == (4096, 1, 0)
    assert ALT == "100000110101001111000011010111011"
    start = time.perf_counter()
    res = run_emitting(NAT, ALT, 0, 10**8)
    spin = run_emitting(NAT, assemble(["INC_B", ("JZ_A", 0)]), 0, 10**8)  # JZ +0 lands too
    assert time.perf_counter() - start < 1
    assert (spin.steps_used, spin.reg_a, spin.reg_b) == (10**8, 0, 1)
    # period 7 from step 0; 10**8 = 7k + 2 ends after INC_A, so a = 1
    honest = run_raw_ref(ALT, 0, 9)
    assert (res.raw_first, res.reg_a, res.reg_b) == (honest.raw_first, honest.reg_a, honest.reg_b)
    assert (res.raw_first, res.halted, res.steps_used) == (((2, 1),), False, 10**8)
    assert (res.reg_a, res.reg_b) == (1, 0)


# The eager walk lives in reference_impl now, where the eager plain scan and
# EMITTERS read it; these pin it to the words it stands for.
@pytest.mark.parametrize("max_len", range(15))
def test_iter_programs_is_parse_filter_of_iter_words(max_len):
    # every instruction as `needs`, each against the words that parse and hold it
    want = {ins: [] for _, ins in _INSTRUCTIONS}
    for w in iter_words(max_len):
        instrs = parse_program(w)
        for ins in set(instrs or ()):
            want[ins].append((w, instrs, 0))
    for needs, programs in want.items():
        assert list(iter_programs(max_len, needs)) == programs


@pytest.mark.parametrize("needs", NEEDS)
def test_iter_programs_needs_is_filter_of_all_programs(needs):
    want = []
    for w in iter_words(16):
        instrs = parse_program(w)
        if instrs is not None and needs in instrs:
            want.append((w, instrs, 0))
    for max_len in range(17):
        assert list(iter_programs(max_len, needs)) == [t for t in want if len(t[0]) <= max_len]


def test_iter_programs_needs_an_instruction():
    with pytest.raises(ConfigError):
        list(iter_programs(8, needs=("JZ_A", 16)))


@settings(max_examples=300, deadline=None)
@given(
    instrs=st.lists(instructions.filter(lambda ins: ins != "HALT"), max_size=12),
    input_b=st.integers(0, 20),
    fuel=st.one_of(st.integers(0, 300), st.just(4096)),
)
def test_no_halt_instruction_never_halts(instrs, input_b, fuel):
    # the premise of the plain scan's pruning: only programs containing
    # HALT are walked, because no other program can report halted
    parsed = parse_program(assemble(instrs))
    assert ("HALT", None) not in parsed
    assert _execute(parsed, input_b, fuel)[1] is False


@pytest.mark.parametrize("max_len", range(15))
def test_address_walk_is_decode_order_of_iter_words(max_len):
    # against the codec directly, not through PADDED.decode; every
    # instruction as `needs`
    want = {ins: [] for _, ins in _INSTRUCTIONS}
    for w in iter_words(max_len):
        dec = decode_padded(w)
        instrs = None if dec is None else parse_program(b_word(dec[0]))
        for ins in set(instrs or ()):
            want[ins].append((w, instrs, b_index(dec[1])))
    for needs, words in want.items():
        assert list(_padded_walk(max_len, needs)) == words


@pytest.mark.parametrize("needs", NEEDS, ids=["needs1", "needs2", "needs3"])
@pytest.mark.parametrize(
    ("addressing", "walk"), [(RAW, iter_programs), (PADDED, _padded_walk)], ids=["raw", "padded"])
def test_walk_is_decode_filter_of_iter_words(addressing, walk, needs):
    # raw: the eager walk the reference scans and EMITTERS read
    want = []
    for w in iter_words(14):
        dec = addressing.decode(w)
        if dec is None:
            continue
        code, x = dec
        instrs = parse_program(code)
        if instrs is not None and needs in instrs:
            want.append((w, instrs, x))
    for max_len in range(15):
        got = list(walk(max_len, needs))
        assert got == [t for t in want if len(t[0]) <= max_len]
    # wrap_len(code) is the length of the word addressing code on input 0
    for code in iter_words(8):
        word = code if addressing is RAW else encode_padded(b_index(code), "")
        assert addressing.decode(word) == (code, 0)
        assert addressing.wrap_len(code) == len(word)


def columns(p, ranks, b):
    table = complexity_table(p, ranks, b)
    return (table.plain, table.k_max, table.k_min), table.censored


SMALL = Budget(max_prog_len=11, fuel=256, t_budget=256, window=4)
TIGHT = Budget(max_prog_len=14, fuel=64, t_budget=4, window=8)  # censors rank 0
WIDE = Budget(max_prog_len=14, fuel=128, t_budget=128, window=4)


@pytest.mark.parametrize("spec", SPECS)
def test_tables_match_per_word_scan(spec):
    p = POSETS[spec]
    assert columns(p, 16, SMALL) == tables_ref(p, 16, SMALL)


def test_plain_table_matches_per_word_scan_at_16_bits():
    p = POSETS["nat"]
    b = Budget(max_prog_len=16, fuel=4096, t_budget=4096, window=8)
    plain = complexity_table(p, 32, b).plain
    assert plain == plain_scan_ref(p, 32, b)
    assert len(plain) > 1


@functools.cache
def _parsed_words():
    """(word, instrs) for every word of 16 bits or fewer that parses, in b_word order."""
    return [(w, instrs) for w in iter_words(16) if (instrs := parse_program(w)) is not None]


# the short fuels cut runs at every early step; 4096 is the command's default
@pytest.mark.parametrize("fuel", [1, 2, 3, 5, 9, 17, 64, 4096])
@pytest.mark.parametrize("max_len", range(1, 17))
def test_plain_column_matches_first_witness_scan(max_len, fuel):
    # brute force: every word that parses, run from scratch, and the first
    # halting word of each rank; dict order included
    want: dict[int, str] = {}
    for w, instrs in _parsed_words():
        if len(w) > max_len:
            break
        _, halted, _, reg_a, _ = _execute(instrs, 0, fuel)
        if halted and reg_a < 400 and reg_a not in want:
            want[reg_a] = w
    b = Budget(max_prog_len=max_len, fuel=fuel, t_budget=fuel, window=1)
    assert list(complexity_table(NAT, 400, b).plain.items()) == list(want.items())


@pytest.mark.parametrize("fuel", [17, 4096])
@pytest.mark.parametrize("max_len", [17, 18])
def test_plain_column_matches_eager_walk(max_len, fuel):
    b = Budget(max_prog_len=max_len, fuel=fuel, t_budget=fuel, window=1)
    plain = complexity_table(NAT, 400, b).plain
    assert list(plain.items()) == list(eager_plain_ref(400, max_len, fuel).items())


@pytest.mark.parametrize("max_len", [8, 11, 14])
def test_plain_leaves_are_the_halting_programs_without_a_halting_prefix(max_len):
    # a halting prefix makes the run of every extension, so the walk yields
    # each halting program once, at the first prefix where its run halts
    halting = {}
    for w, instrs in _parsed_words():
        if len(w) <= max_len and (run := _execute(instrs, 0, 4096))[1]:
            halting[w] = run[3]
    want = {(w, a) for w, a in halting.items() if not any(w[:k] in halting for k in range(len(w)))}
    got = list(_plain_leaves(max_len, 4096))
    assert len(got) == len(set(got)) and set(got) == want


# every fuel a halting run can stop at, and beyond. At the two longest
# lengths, which take most of the time, the fuels are the short ones, the
# cut points 7 and 8 (rank 7 is the last that fits 24 bits) and the default
_CLOSED_FORM_FUELS = (*range(1, 13), 64, 4096)
_LONGEST_FUELS = (1, 2, 3, 4, 7, 8, 4096)


@pytest.mark.parametrize("max_len", range(1, MAX_PROG_LEN + 1))
def test_plain_column_is_the_closed_form_of_the_tree_walk(max_len):
    """The plain column is INC_A^r HALT for r < min(fuel, (L - 3) // 3 + 1),
    and the oracle walk of the program tree finds the same witnesses, in the
    same order, at every length up to MAX_PROG_LEN. The fuels suffice: up to
    24 bits no halting run takes more than 8 steps (the next test), so fuels
    1-8 cut every halting run that a fuel can cut, and every larger fuel,
    9-12, 64 and 4096 among them, sees the same halting runs."""
    fuels = _LONGEST_FUELS if max_len >= MAX_PROG_LEN - 1 else _CLOSED_FORM_FUELS
    for fuel in fuels:
        b = Budget(max_prog_len=max_len, fuel=fuel, t_budget=fuel, window=1)
        plain = complexity_table(NAT, 400, b).plain
        want = {r: "000" * r + "111" for r in range(min(fuel, (max_len - 3) // 3 + 1))}
        assert list(plain.items()) == list(want.items())
        assert list(plain_walk_ref(400, max_len, fuel).items()) == list(want.items())


def test_no_halting_run_takes_more_than_8_steps():
    # up to 24 bits a halting run stops within fuel 8 exactly when it
    # stops within 4096
    assert set(_plain_leaves(24, 8)) == set(_plain_leaves(24, 4096))


def test_the_first_program_whose_value_exceeds_its_inc_a_count():
    # JZ_B 2; INC_B; INC_A; JZ_B -2; HALT: the first pass jumps over INC_B
    # into the loop, so b is still 0 at the jump back and INC_A runs twice
    code = "1010001000100010111110111"
    assert code == assemble([("JZ_B", 2), "INC_B", "INC_A", ("JZ_B", -2), "HALT"])
    instrs = parse_program(code)
    _, halted, steps, reg_a, _ = _execute(instrs, 0, 4096)
    assert (len(code), halted, steps, reg_a) == (25, True, 7, 2)
    assert instrs.count(("INC_A", None)) == 1
    assert MAX_PROG_LEN <= 24, (
        "the plain column's closed form is checked up to 24 bits; a 25-bit program "
        "breaks its argument, so re-run the oracle tree walk at the new cap first")


@pytest.mark.parametrize("spec", ["nat", "rev(prefix:ab)", "discrete(finsets)"])
@pytest.mark.parametrize("budget", [TIGHT, WIDE], ids=["tight", "wide"])
def test_tables_match_per_word_scan_with_limit_rows(spec, budget):
    # at 14 bits the single-OUT machine b_word(13) is addressable, so the
    # max/min side fills (wide) or censors (tight) rank 0
    p = POSETS[spec]
    (plain, k_max, k_min), censored = columns(p, 8, budget)
    assert ((plain, k_max, k_min), censored) == tables_ref(p, 8, budget)
    if budget is TIGHT:
        assert censored == {0}
    else:
        assert 0 in k_max and 0 in k_min


@pytest.mark.parametrize("max_len", [14, 16, 18])
def test_limit_corpus_matches_per_word_scan(max_len):
    # every word whose machine contains OUT, grouped by its run in scan
    # order: each run's first word and its number of words, and both kept
    # traces of every word equal to the run's. Up to 18 bits the only such
    # machine is b_word(13) = OUT, whose 2^(max_len-13) - 1 words all make
    # one run
    weak = POSETS["prefix:ab"]
    down = reverse(weak)
    fuel = 128
    want: dict = {}
    for w in iter_words(max_len):
        dec = decode_padded(w)
        if dec is None or ("OUT", None) not in (parse_program(b_word(dec[0])) or ()):
            continue
        args = (b_word(dec[0]), b_index(dec[1]), fuel)
        run = run_emitting_ref(weak, *args)
        want.setdefault(run.raw_first, []).append((w, run.trace, run_emitting_ref(down, *args).trace))
    corpus = limit_corpus(max_len, fuel)
    assert list(corpus) == list(want)
    for raw_first, (first, count) in corpus.items():
        words = want[raw_first]
        assert (first, count) == (words[0][0], len(words))
        traces = (kept_trace(raw_first, weak.unrank, weak.leq), kept_trace(raw_first, down.unrank, down.leq))
        assert all((up, dn) == traces for _, up, dn in words)
    assert [len(words) for words in want.values()] == [2 ** (max_len - 13) - 1]


@pytest.mark.parametrize("fuel", [*range(1, 9), 64, 4096])
def test_limit_corpus_is_the_oracle_walk_regrouped(fuel):
    for max_len in range(1, MAX_PROG_LEN + 1):
        want = {raw_first: (words[0], len(words))
                for raw_first, words in limit_corpus_ref(max_len, fuel).items()}
        assert limit_corpus(max_len, fuel) == want, max_len


def test_below_index_70_only_two_machines_contain_out():
    # the closed form of limit_corpus: a padded word 0^n 1 p has at least
    # n + 1 bits, so up to 69 bits its machine is one of b_word(0..68), and
    # of those only b_word(13) = OUT can emit
    out = [n for n in range(70) if ("OUT", None) in (parse_program(b_word(n)) or ())]
    assert out == [13, 69]
    assert (b_word(13), b_word(69)) == ("110", "000110")
    assert max(MAX_PROG_LEN, DIAGONAL_ALPHA_CAP + 1) < 70, (
        "limit_corpus is one run in closed form only below 70 bits; before a raise "
        "past that, re-run the oracle walk limit_corpus_ref at the new cap")


def test_inputs_past_3_are_inert_up_to_17_bits():
    # the input is reg_b's start value, which only JZ_B reads; up to 17 bits
    # every code that both tests reg_b and emits makes the same first
    # emissions, steps and values, on inputs 4..64 as on input 3, so a
    # payload that only raises the input carries nothing
    codes = [instrs for _, instrs, _ in iter_programs(17, ("OUT", None))
             if any(op == "JZ_B" for op, _ in instrs)]
    assert len(codes) == 12_768
    for instrs in codes:
        at_3 = _execute(instrs, 3, 4096)[0]
        assert all(_execute(instrs, x, 4096)[0] == at_3 for x in range(4, 65)), instrs


# ------------------------------------------------ translated-cycle jumps

STRAIGHT = ("INC_A", "INC_B", "DEC_A", "DEC_B", "OUT")


@st.composite
def growth_loops(draw):
    """A straight-line prefix, then a straight-line loop body closed by a
    backward JZ on a counter the body never increments (so it stays zero
    once zero), then a short tail. The prefix may jump straight to the
    closing JZ, so that the first watched segment starts from the prefix's
    counters (a start at 0 or small enough for the body to reach 0)."""
    closer, grower = draw(st.sampled_from([("JZ_A", "INC_B"), ("JZ_B", "INC_A")]))
    body_ops = [op for op in STRAIGHT if op != "INC_" + closer[-1]]
    prefix = draw(st.lists(st.sampled_from(STRAIGHT), max_size=4))
    body = draw(st.lists(st.sampled_from(body_ops), min_size=1, max_size=6))
    if draw(st.booleans()) and grower not in body:
        body.append(grower)
    if draw(st.booleans()):
        prefix.append((closer, len(body) + 1))  # enter at the closing JZ
    tail = draw(st.lists(st.sampled_from(STRAIGHT + ("HALT",)), max_size=2))
    return assemble(prefix + body + [(closer, -len(body))] + tail)


# OUT in the loop with da > 0: INC_A; OUT; JZ_B -2 emits j at step 3j - 2
OUT_GROWS = assemble(["INC_A", "OUT", ("JZ_B", -2)])
# OUT in the loop with da = 0 while b grows: emits 0 at every period
OUT_REPEATS = assemble(["OUT", "INC_B", ("JZ_A", -2)])
# entered at the closer with a = 1: the first watched segment takes a to
# exactly 0 and then saturates, so it grows by 2, every later one by 1
ZERO_INSIDE = assemble(
    ["INC_A", ("JZ_B", 6), "DEC_A", "DEC_A", "INC_A", "INC_A", "INC_A", ("JZ_B", -5), "OUT"]
)
# entered at the closer with a = 0: the first watched segment grows a from
# a saturated 0, every later one repeats exactly
FROM_ZERO = assemble([("JZ_B", 3), "DEC_A", "INC_A", ("JZ_B", -2)])


@settings(max_examples=400, deadline=None)
@given(
    spec=st.sampled_from(["nat", "rev(nat)", "prefix:ab", "discrete(finsets)"]),
    code=growth_loops(),
    input_b=st.integers(0, 5),
    fuel=st.one_of(st.integers(0, 40), st.integers(0, 300), st.sampled_from([1000, 4096])),
)
@example(spec="nat", code=OUT_GROWS, input_b=0, fuel=4096)
@example(spec="nat", code=OUT_GROWS, input_b=0, fuel=8)  # less than one period left
@example(spec="rev(nat)", code=OUT_REPEATS, input_b=0, fuel=1000)
@example(spec="nat", code=ZERO_INSIDE, input_b=0, fuel=200)
@example(spec="nat", code=FROM_ZERO, input_b=0, fuel=100)
@example(spec="prefix:ab", code=assemble(["INC_B", "INC_B", "OUT", ("JZ_A", -2)]), input_b=3, fuel=301)
def test_growth_loops_match_reference(spec, code, input_b, fuel):
    p = POSETS[spec]
    assert_same_run(run_emitting(p, code, input_b, fuel), run_emitting_ref(p, code, input_b, fuel))
    assert_same_run(run_emitting(NAT, code, input_b, fuel), run_raw_ref(code, input_b, fuel))


@settings(max_examples=400, deadline=None)
@given(
    code=st.one_of(st.lists(instructions, min_size=1, max_size=12).map(assemble), growth_loops()),
    cuts=st.lists(st.integers(0, 12), max_size=3),
    input_b=st.integers(0, 20),
    fuel=st.one_of(st.integers(0, 300), st.just(4096)),
)
@example(code=CYCLE, cuts=[2, 4], input_b=0, fuel=200)
@example(code=OUT_GROWS, cuts=[2], input_b=0, fuel=4096)
@example(code=ZERO_INSIDE, cuts=[1, 3, 7], input_b=0, fuel=200)
@example(code=FROM_ZERO, cuts=[1], input_b=0, fuel=100)
@example(code=ALT, cuts=[3, 5], input_b=0, fuel=300)
@example(code=UP_DOWN, cuts=[2], input_b=0, fuel=4096)
def test_resumed_runs_match_the_whole_run(code, cuts, input_b, fuel):
    # run ever longer prefixes of the program, each resumed where the last
    # left its prefix, as the plain walk does; a run that ends inside a
    # prefix is the whole run's. raw_first of a resumed run holds the first
    # occurrences from the resume step on, so the whole run's are the
    # earlier ones followed by the later ones of values not seen before
    instrs = parse_program(code)
    raw_first, halted, steps, pc, a, b = (), False, 0, 0, 0, input_b
    for cut in sorted(c for c in cuts if c <= len(instrs)) + [len(instrs)]:
        if halted or steps == fuel or pc < 0:
            break
        start, seen = steps, {v for _, v in raw_first}
        later, halted, steps, pc, a, b = _resume(instrs[:cut], fuel, pc, a, b, steps)
        assert all(step >= start for step, _ in later)
        raw_first += tuple((step, v) for step, v in later if v not in seen)
    assert (raw_first, halted, steps if halted else fuel, a, b) == _execute(instrs, input_b, fuel)


@pytest.mark.parametrize("fuel", [37, 4096])
def test_kernel_matches_reference_on_every_short_program(fuel):
    for code in iter_words(14):
        if parse_program(code) is not None:
            assert_same_run(run_emitting(NAT, code, 0, fuel), run_raw_ref(code, 0, fuel))


def test_translated_cycles_match_closed_forms():
    # INC_A; JZ_B -1 counts a up once per two steps, and stops mid-period
    res = run_emitting(NAT, assemble(["INC_A", ("JZ_B", -1)]), 0, 10**6 + 1)
    assert (res.steps_used, res.reg_a, res.reg_b, res.halted) == (10**6 + 1, 5 * 10**5 + 1, 0, False)
    res = run_emitting(NAT, OUT_GROWS, 0, 3000)
    assert res.raw_first == tuple((3 * j - 2, j) for j in range(1, 1001))
    assert (res.steps_used, res.reg_a) == (3000, 1000)
