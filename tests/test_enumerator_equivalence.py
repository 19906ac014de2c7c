"""The enumerator layer against its earlier code in reference_impl.py: the
unsliced run cache behind the evaluators, the busy-beaver row built by one
walk of the symmetry-reduced transition tree against the full tree, the
full tree against the machines it runs, the one powerset construction behind
canonical DFAs and quotients, and the canonical form whose breadth-first
numbering that construction now also gives."""

import itertools
import json
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impl import (
    TmSpec,
    _tree_leaves,
    busy_beaver_bb_ref,
    busy_beaver_row_ref,
    busy_beaver_tree_row_ref,
    canonical_dfa_ref,
    canonicalize_dfa_ref,
    card_re_evaluator_ref,
    quotient_ref,
    run_tm,
    set_interaction_evaluators,
    set_interaction_ref,
    subset_construct_ref,
    thompson_ref,
    vm_max_evaluator_ref,
)

from kposet.automata import (
    CONCAT,
    Dfa,
    canonicalize_dfa,
    parse_regex,
    quotient,
    quotient_trace,
    to_canonical_dfa,
)
from kposet import automata
from kposet.busy_beaver import busy_beaver_row
from kposet.cli import main
from kposet.codec import b_index
from constructions import budgeted_limit, vm_max_evaluator
from kposet.enumerable import (
    INTERACTION_MODES,
    _check_monotone,
    _interaction_trace,
    card_re_row,
    set_interaction_limit,
)
from kposet.errors import MonotonicityError
from kposet.limits import Evaluator
from kposet.posets import parse_poset_spec, reverse
from kposet.vm import _execute, assemble, iter_programs, parse_program

SPECS = ("nat", "rev(nat)", "int", "prefix:ab", "rev(finsets)", "lexico:a<b")
POSETS = {spec: parse_poset_spec(spec) for spec in SPECS}

COUNTER = assemble(["INC_A", "OUT", ("JZ_B", -2)])  # emits 1, 2, 3, ... at steps 1, 4, 7, ...
ZIGZAG = assemble(["INC_A", "INC_A", "OUT", "DEC_A", "OUT", "INC_A", "INC_A", "OUT", "HALT"])
READS_INPUT = assemble([("JZ_B", 4), "INC_A", "OUT", "HALT", "OUT", "HALT"])

instructions = st.one_of(
    st.sampled_from(["INC_A", "INC_B", "DEC_A", "DEC_B", "OUT", "HALT"]),
    st.tuples(st.sampled_from(["JZ_A", "JZ_B"]), st.integers(-4, 4)),
)
programs = st.one_of(
    st.sampled_from([COUNTER, ZIGZAG, READS_INPUT]),
    st.lists(instructions, min_size=1, max_size=10).map(assemble),
)
# (t, fuel) pairs in any order, so fuel grows and shrinks between calls;
# fuel < t asks for an undefined value, and fuel == t is drawn on its own
clocks = st.one_of(
    st.tuples(st.integers(0, 300), st.integers(0, 300)),
    st.integers(0, 300).map(lambda t: (t, t)),
)
GROW_SHRINK = [(0, 0), (5, 5), (63, 64), (64, 64), (65, 65), (200, 130), (129, 129), (3, 3), (300, 300), (7, 8)]


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    code=programs,
    queries=st.lists(st.tuples(st.sampled_from(["", "0", "1", "00"]), clocks), min_size=1, max_size=30),
)
@example(spec="nat", code=COUNTER, queries=[("", q) for q in GROW_SHRINK])
@example(spec="rev(nat)", code=ZIGZAG, queries=[("0", q) for q in GROW_SHRINK])
@example(spec="nat", code=READS_INPUT, queries=[(x, q) for q in GROW_SHRINK for x in ("", "0")])
def test_vm_max_evaluator_matches_slicing_reference(spec, code, queries):
    p = POSETS[spec]
    # the reference addresses the machine by index and reads its input word
    # through b_index, as the enumeration does
    got, want = vm_max_evaluator(p, code), vm_max_evaluator_ref(p, b_index(code))
    for x, (t, fuel) in queries:
        assert got(b_index(x), t, fuel) == want(x, t, fuel), (x, t, fuel)


@settings(max_examples=200, deadline=None)
@given(code=programs, t_max=st.integers(0, 300))
@example(code=COUNTER, t_max=300)
@example(code=ZIGZAG, t_max=8)
@example(code="11", t_max=5)
def test_card_re_row_matches_slicing_reference(code, t_max):
    n = b_index(code)
    row, want = card_re_row(n, t_max), card_re_evaluator_ref(n)
    assert row == [want(None, t, t_max) for t in range(t_max + 1)]


members = st.one_of(st.integers(0, 40), st.just(10**9))


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(INTERACTION_MODES),
    code=programs,
    queries=st.lists(st.tuples(st.lists(members, max_size=5).map(tuple), clocks), min_size=1, max_size=20),
)
@example(mode="minus", code=COUNTER, queries=[((0, 5, 10**9), q) for q in GROW_SHRINK])
@example(mode="cap", code=COUNTER, queries=[((), q) for q in GROW_SHRINK])
@example(mode="setminus", code=ZIGZAG, queries=[((0, 1, 2, 2, 9), q) for q in GROW_SHRINK])
# the answer memo per (X, k), k being the number of values <= max X first
# emitted before t: many queries between two emissions (COUNTER's steps 1
# and 4), a new X at the same k, t going down after going up, fuel growing
# past the cached run (the new run has its own memos; stale ones would stop
# k at value 21), and X with repeated members and 10**9
@example(mode="minus", code=COUNTER, queries=[((0, 5, 10**9), (t, 100)) for t in (2, 3, 4, 3, 2, 4, 2)])
@example(mode="cap", code=COUNTER, queries=[(x, (3, 100)) for x in ((1, 5), (2, 5), (5,), (0, 1, 5), (1, 5))])
@example(mode="setminus", code=COUNTER,
         queries=[((1, 2, 9), (t, 200)) for t in (0, 10, 50, 200, 50, 10, 0)])
@example(mode="cap", code=COUNTER,
         queries=[((3, 40), q) for q in ((60, 60), (63, 64), (64, 64), (150, 200), (60, 300), (299, 300))])
@example(mode="minus", code=COUNTER,
         queries=[((3, 40), q) for q in ((64, 64), (150, 200), (64, 300), (299, 300))])
@example(mode="minus", code=COUNTER, queries=[((0, 1, 1, 10**9, 10**9), q) for q in GROW_SHRINK])
@example(mode="setminus", code=ZIGZAG, queries=[((0, 1, 1, 10**9, 10**9), q) for q in GROW_SHRINK])
# minus on X = 0..19999: the answer is 0..19998 from the first emission on,
# and the trace skips every later one; the reference rebuilds |X| * |emitted|
# differences per query, so the late queries use a smaller X
@example(mode="minus", code="00011010111110",
         queries=[(tuple(range(20000)), (t, 30000)) for t in (0, 2, 3, 300)]
         + [(tuple(range(200)), (t, 30000)) for t in (3000, 30000)])
def test_set_interaction_matches_slicing_reference(mode, code, queries):
    n = b_index(code)
    got, want = set_interaction_evaluators(n, mode), set_interaction_ref(n, mode)
    for x, (t, fuel) in queries:
        assert got(x, t, fuel) == want(x, t, fuel), (x, t, fuel)


FINSETS = parse_poset_spec("finsets")
ORDERS = {"cap": FINSETS, "minus": FINSETS, "setminus": reverse(FINSETS)}
CODES = [code for code, _, _ in iter_programs(14)]
# the rare short programs with at least three first emissions in 400 steps
EMITTERS = [code for code, instrs, _ in iter_programs(18, ("OUT", None))
            if len(_execute(instrs, 0, 400)[0]) >= 3]


def _walked_limit(order, n, mode, xs, t_budget, window):
    """budgeted_limit over set_interaction_evaluators, and the trace of the
    distinct values it was given, t = 0..t_budget in order."""
    e, values = set_interaction_evaluators(n, mode), []

    def recorded(x, t, fuel):
        values.append(e(x, t, fuel))
        return values[-1]

    report = budgeted_limit(order, recorded, xs, t_budget, t_budget, window)
    trace = [(t, v) for t, v in enumerate(values) if t == 0 or v != values[t - 1]]
    return trace, report


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(  # half of the draws from programs that emit
        st.sampled_from(CODES).map(b_index),
        st.integers(0, 10**6),
        st.sampled_from(EMITTERS + [ZIGZAG, READS_INPUT]).map(b_index),
        st.sampled_from(EMITTERS).map(b_index),
    ),
    mode=st.sampled_from(INTERACTION_MODES),
    members=st.one_of(st.just(set()), st.sets(st.integers(0, 11), min_size=2)),
    huge=st.booleans(),
    t_budget=st.integers(0, 400),
    window=st.integers(1, 20),
)
@example(n=b_index(COUNTER), mode="minus", members=set(), huge=True, t_budget=400, window=20)
@example(n=b_index(COUNTER), mode="cap", members=set(), huge=False, t_budget=0, window=1)
@example(n=b_index(COUNTER), mode="setminus", members={0, 5, 11}, huge=False, t_budget=16, window=3)
@example(n=b_index(ZIGZAG), mode="setminus", members={1, 2}, huge=True, t_budget=63, window=8)
def test_interaction_limit_matches_budgeted_limit(n, mode, members, huge, t_budget, window):
    # the change points from the run's emissions against the walk over
    # every t: the same trace, limit and status (the whole report)
    xs = tuple(sorted(members | ({10**9} if huge else set())))
    order = ORDERS[mode]
    got = set_interaction_limit(n, mode, xs, t_budget, window)
    assert got == _walked_limit(order, n, mode, xs, t_budget, window)


@pytest.mark.parametrize("mode, order, witness", [
    ("cap", reverse(FINSETS), ((4, ()), (5, (2,)))),
    ("setminus", FINSETS, ((4, (2, 5)), (5, (5,)))),
])
def test_interaction_limit_reports_a_fall_as_budgeted_limit_does(mode, order, witness):
    # under the opposite direction the first change, COUNTER's 2 at step 4,
    # is a fall: the same error at the same pair of points
    points = _interaction_trace(_execute(parse_program(COUNTER), 0, 100)[0], mode, (2, 5))
    checks = (lambda: _check_monotone(points, grows=mode == "setminus"),
              lambda: _walked_limit(order, b_index(COUNTER), mode, (2, 5), 100, 8))
    for check in checks:
        with pytest.raises(MonotonicityError, match="^process not monotone at t=5$") as caught:
            check()
        assert caught.value.witness == witness


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("t_max", [0, 1, 5, 60])
def test_busy_beaver_matches_brute_force(n, t_max):
    assert busy_beaver_row(n, t_max) == busy_beaver_row_ref(n, t_max)
    assert busy_beaver_row(n, t_max)[t_max] == busy_beaver_bb_ref(n, t_max)


@pytest.fixture(scope="module")
def tree_rows():
    """The full tree's row at (n, 80) for n <= 2 and at (3, 6); its first
    t + 1 entries are its row at (n, t), as bb(n, t) does not depend on
    t_max."""
    return [busy_beaver_tree_row_ref(n, 80) for n in range(3)] + [busy_beaver_tree_row_ref(3, 6)]


@settings(max_examples=200, deadline=None)
@given(n_t=st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 80)),
                     st.tuples(st.just(3), st.integers(0, 6))))
@example(n_t=(2, 80))
@example(n_t=(3, 6))
def test_busy_beaver_row_matches_the_full_tree(tree_rows, n_t):
    n, t_max = n_t
    assert busy_beaver_row(n, t_max) == tree_rows[n][:t_max + 1]


@pytest.mark.parametrize("states, t_max", [(1, 60), (2, 0), (2, 1), (2, 60), (3, 50)])
def test_tree_leaves_partition_the_tables(states, t_max):
    # a leaf with u undefined keys stands for options**u total tables
    options, keys = 2 * 2 * (states + 1), 2 * states
    weights = sum(options ** (keys - len(reached)) for reached, *_ in _tree_leaves(states, t_max))
    assert weights == options ** keys


TM_KEYS = [(q, s) for q in range(3) for s in (0, 1)]
tm_tables = st.lists(
    st.tuples(st.sampled_from([0, 1]), st.sampled_from(["L", "R"]), st.sampled_from([0, 1, 2, "H"])),
    min_size=len(TM_KEYS), max_size=len(TM_KEYS),
).map(lambda trs: dict(zip(TM_KEYS, trs)))
# a 3-state machine halting at step 21, the longest 3-state halting run
# (Lin and Rado; the halting move counts as a step), and one that never halts
CHAMPION_3 = dict(zip(TM_KEYS, [(1, "R", 2), (1, "R", "H"), (1, "L", 1), (1, "L", 0), (1, "L", 2), (0, "R", 1)]))
SWEEPER_3 = dict(zip(TM_KEYS, [(1, "R", 1), (0, "L", 2), (1, "L", 2), (0, "R", 0), (0, "R", 1), (1, "L", 0)]))


@pytest.fixture(scope="module")
def leaf_index():
    """leaf_index(t_max): the 3-state leaves grouped by the keys they
    reached, each group mapping its transitions to the leaf's outcome."""
    built = {}

    def index(t_max):
        if t_max not in built:
            groups = built[t_max] = {}
            for reached, *outcome in _tree_leaves(3, t_max):
                keys = tuple(key for key, _ in reached)
                groups.setdefault(keys, {})[tuple(tr for _, tr in reached)] = tuple(outcome)
        return built[t_max]

    return index


@settings(max_examples=300, deadline=None)
@given(table=tm_tables, t_max=st.sampled_from([0, 1, 7, 20, 21, 50]))
@example(table=CHAMPION_3, t_max=21)
@example(table=CHAMPION_3, t_max=20)
@example(table=CHAMPION_3, t_max=50)
@example(table=SWEEPER_3, t_max=50)
def test_tree_leaf_outcome_is_the_run(leaf_index, table, t_max):
    hits = [
        leaves[tuple(table[key] for key in keys)]
        for keys, leaves in leaf_index(t_max).items()
        if tuple(table[key] for key in keys) in leaves
    ]
    assert hits == [run_tm(TmSpec(3, table), t_max)]


leaves = st.sampled_from(["a", "b", "c", "()"])
regex_texts = st.one_of(
    st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: f"({p[0]}+{p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"{p[0]}{CONCAT}{p[1]}"),
            inner.map(lambda r: f"({r})*"),
        ),
        max_leaves=8,
    ),
    st.text(alphabet="abc+*()" + CONCAT, max_size=8),  # mostly ill-formed
)
alphabets = st.sampled_from([("a", "b"), ("a", "b", "c")])


@settings(max_examples=300, deadline=None)
@given(text=regex_texts, sigma=alphabets)
@example(text="", sigma=("a", "b"))
@example(text=f"(a+b)*{CONCAT}b{CONCAT}(a+b)", sigma=("a", "b"))
# nullable, empty-word and nested-star cases, where Thompson's automaton
# leans on epsilon-closures and the position automaton on the start position
@example(text="(()*)*", sigma=("a", "b"))
@example(text="()", sigma=("a", "b"))
@example(text=f"(()+a){CONCAT}b*", sigma=("a", "b"))
@example(text=f"((a)*)*{CONCAT}()", sigma=("a", "b"))
def test_canonical_dfa_matches_reference(text, sigma):
    ast = parse_regex(text, sigma)
    assert to_canonical_dfa(ast, sigma) == canonical_dfa_ref(ast, sigma)


def test_canonical_dfa_matches_reference_on_every_short_text():
    sigma = ("a", "b")
    symbols = list(sigma) + list("+*" + CONCAT + "()")
    checked = 0
    for length in range(1, 7):
        for chars in itertools.product(symbols, repeat=length):
            ast = parse_regex("".join(chars), sigma)
            if ast is not None:
                assert to_canonical_dfa(ast, sigma) == canonical_dfa_ref(ast, sigma), chars
                checked += 1
    assert checked == 482  # the well-formed texts of 1 to 6 symbols


@st.composite
def total_dfas(draw):
    """Total DFAs with 1-6 states over 1-3 symbols and any start state, so
    some states may be unreachable or equivalent."""
    sigma = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    delta = draw(st.tuples(*[st.tuples(*[state] * len(sigma))] * n))
    return Dfa(n, draw(state), draw(st.frozensets(state)), delta, sigma)


@settings(max_examples=500, deadline=None)
@given(d=total_dfas())
@example(d=Dfa(3, 1, frozenset({0, 2}), ((0, 0), (2, 1), (2, 2)), ("a", "b")))
def test_canonical_form_matches_reference(d):
    assert canonicalize_dfa(d) == canonicalize_dfa_ref(d)


@settings(max_examples=300, deadline=None)
@given(
    text=regex_texts,
    sigma=alphabets,
    words=st.lists(st.text(alphabet="ab", max_size=4), max_size=4),
    minimal=st.booleans(),
)
@example(text="a", sigma=("a", "b"), words=[], minimal=True)
def test_quotient_matches_reference(text, sigma, words, minimal):
    ast = parse_regex(text, sigma)
    if minimal:
        l = to_canonical_dfa(ast, sigma)
    else:  # the unminimised subset automaton: reached sets of several states
        l = subset_construct_ref(*thompson_ref(ast), sigma)
    assert quotient(l, words) == quotient_ref(l, words)


@settings(max_examples=300, deadline=None)
@given(
    text=regex_texts,
    sigma=alphabets,
    words=st.lists(st.text(alphabet="ab", max_size=4), max_size=12),
    minimal=st.booleans(),
)
@example(text="a", sigma=("a", "b"), words=[], minimal=True)
# "a" reaches a new state whose language adds nothing: one point, two builds
@example(text=f"(a+b)*{CONCAT}b", sigma=("a", "b"), words=["ab", "a"], minimal=True)
def test_quotient_trace_matches_reference_at_every_t(text, sigma, words, minimal):
    ast = parse_regex(text, sigma)
    if minimal:
        l = to_canonical_dfa(ast, sigma)
    else:  # the unminimised subset automaton: reached sets of several states
        l = subset_construct_ref(*thompson_ref(ast), sigma)
    with mock.patch.object(automata, "_quotient_from", wraps=automata._quotient_from) as build:
        trace = quotient_trace(l, words)
    # one build per newly reached state, not one per word
    assert build.call_count == len({l.step(l.start, w) for w in words})
    assert len(trace) <= l.n
    assert [t for t, _ in trace[:1]] == ([0] if words else [])
    for (t0, d0), (t1, d1) in zip(trace, trace[1:]):
        assert t0 < t1 and d0 != d1
    for t in range(len(words)):
        assert [d for s, d in trace if s <= t][-1] == quotient_ref(l, words[: t + 1]), t


def _check_interact_against_reference(tmp_path, xs):
    """interact's report on COUNTER equals the oracle's in every mode."""
    out = tmp_path / "interact.json"
    finsets = parse_poset_spec("finsets")
    for mode, order in (("minus", finsets), ("cap", finsets), ("setminus", reverse(finsets))):
        start = time.perf_counter()
        code = main([
            "interact", "--program", COUNTER, "--mode", mode, "--x", ",".join(map(str, xs)),
            "--t-budget", "3000", "--out", str(out),
        ])
        assert code == 0
        assert time.perf_counter() - start < 60
        report = json.loads(out.read_text())

        want = set_interaction_ref(b_index(COUNTER), mode)
        values = [want(xs, t, 3000) for t in range(3001)]
        trace, prev = [], None
        for t, v in enumerate(values):
            if v != prev:
                trace.append([t, list(v)])
                prev = v
        limit = budgeted_limit(order, Evaluator(lambda x, t, fuel: values[t]), xs, 3000, 3000, 8)
        assert report["trace"] == trace, mode
        assert report["limit"] == list(limit.current), mode
        assert report["status"] == limit.status, mode
        if mode == "minus":
            assert len(trace) > 900  # COUNTER emits a new value every 3 steps
        else:
            assert [t for t, _ in trace] == [0, 14]  # 5 is first emitted at step 13


def test_interact_with_a_huge_member_matches_reference(tmp_path):
    # a query reads only X and the emitted values <= max X; nothing walks
    # up to the member 10**9
    _check_interact_against_reference(tmp_path, (0, 5, 10**9))


def test_interact_with_a_member_past_any_bit_mask_matches_reference(tmp_path):
    # 1 << 10**20 overflows: the members are checked without a bit mask
    _check_interact_against_reference(tmp_path, (0, 5, 10**20))
