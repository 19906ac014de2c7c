"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Budgets and tolerances are
pinned here; the heavy complexity tables are built once per session and
shared between the criteria that consume them.
"""

import itertools
import math
import random

import pytest

from kposet.analysis import FinitePoset, max_antichain, min_chain_cover
from kposet.automata import (
    CONCAT,
    Dfa,
    canonical_regex,
    canonicalize_dfa,
    parse_regex,
    quotient,
    quotient_trace,
    to_canonical_dfa,
)
from kposet.codec import (
    b_index,
    b_word,
    decode_padded,
    decode_pair,
    decode_split,
    encode_padded,
    encode_pair,
    encode_split,
)
from kposet.complexity import Budget, complexity_table, measure_wrap_constant, verify_table
from kposet.conditions import OrderPair, check_dagger, check_star
from constructions import (
    budgeted_limit,
    monotone_filter,
    normalize,
    paired_decompress,
    prefix_normal_form,
    trace_evaluator,
)
from kposet.diagonal import chain_antichain_family, diagonal_hard
from kposet.limits import STABILIZED, Evaluator
from kposet.posets import parse_poset_spec, reverse
from kposet.busy_beaver import busy_beaver_row

from reference_impl import enumerate_tm_specs

NAT = parse_poset_spec("nat")
TABLE_BUDGET = Budget(max_prog_len=14, fuel=4096, t_budget=4096, window=8)
TABLE_RANKS = 32


@pytest.fixture(scope="module")
def nat_tables():
    table = complexity_table(NAT, TABLE_RANKS, TABLE_BUDGET)
    verify_table(NAT, table)
    return table


@pytest.fixture(scope="module")
def discrete_tables():
    disc = parse_poset_spec("discrete(nat)")
    table = complexity_table(disc, TABLE_RANKS, TABLE_BUDGET)
    verify_table(disc, table)
    return disc, table


def all_words(max_len):
    yield ""
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in "01"]
        yield from frontier


def test_criterion_01_codec_exactness():
    # length formula and injectivity (via exact decode), exhaustively for
    # |p|, |q| <= 8
    for p in all_words(8):
        lp = len(p)
        for q in all_words(8):
            r = encode_pair(p, q)
            m = min(lp, len(q))
            log_m = 0 if m == 0 else math.floor(math.log2(m))
            assert len(r) == lp + len(q) + 2 * log_m + 3
            assert decode_pair(r) == (p, q)
    # round-trips for the four codings, 10^5 random inputs in total
    rng = random.Random(2024)
    for _ in range(25_000):
        i = rng.randrange(0, 10**9)
        assert b_index(b_word(i)) == i
        p = "".join(rng.choice("01") for _ in range(rng.randrange(0, 32)))
        q = "".join(rng.choice("01") for _ in range(rng.randrange(0, 32)))
        n = rng.randrange(0, 64)
        assert decode_padded(encode_padded(n, p)) == (n, p)
        k = rng.randrange(1, 12)
        j = rng.randrange(1, k + 1)
        assert decode_split(encode_split(j, k, p), k) == (j, p)
        assert decode_pair(encode_pair(p, q)) == (p, q)
    print("PASS criterion 1: pair-coding length formula exact; all four codings round-trip")


def test_criterion_02_prefix_normal_form():
    rng = random.Random(99)
    for _ in range(500):
        words = [""]
        if rng.random() < 0.5:
            words[0] = "".join(rng.choice("ab") for _ in range(rng.randrange(0, 4)))
        for _ in range(rng.randrange(1, 12)):
            suffix = "".join(rng.choice("ab") for _ in range(rng.randrange(0, 3)))
            words.append(words[-1] + suffix)

        def fn(s, t, fuel, words=words):
            return words[min(t, len(words) - 1)]

        f = Evaluator(fn)
        g = prefix_normal_form(f)
        t_budget = len(words) + max(len(w) for w in words) + 8
        prev = ""
        for t in range(t_budget + 1):
            cur = g("s", t, 100)
            assert cur.startswith(prev) and len(cur) <= len(prev) + 1
            prev = cur
        pre = parse_poset_spec("prefix:ab")
        a = budgeted_limit(pre, f, "s", t_budget, 100, window=4)
        b = budgeted_limit(pre, g, "s", t_budget, 100, window=4)
        assert a.status == STABILIZED and b.status == STABILIZED
        assert a.current == b.current
    print("PASS criterion 2: one-symbol normal form preserves 500 random budgeted limits")


def posets_up_to_iso(n):
    """All posets on n labeled points up to isomorphism, represented by a
    strict relation within the upper triangle (every poset linearizes)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        if any((a, c) not in rel
               for (a, b) in rel for (b2, c) in rel if b == b2):
            continue
        canon = min(
            tuple(sorted((perm[a], perm[b]) for (a, b) in rel))
            for perm in itertools.permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            out.append(rel)
    return out


def leq_table(n, rel):
    leq = [[i == j or (i, j) in rel for j in range(n)] for i in range(n)]
    return leq


def run_filter_streams(n, rel, max_m, budget_orders=None):
    """Exhaust every value assignment and every presentation order for
    streams of up to max_m tuples over the given poset; assert monotone
    output each time."""
    leq = leq_table(n, rel)
    p = _TablePoset(n, leq)
    for m in range(1, max_m + 1):
        for values in itertools.product(range(n), repeat=m):
            base = [(0, "x", t, values[t]) for t in range(m)]
            for order in itertools.permutations(range(m)):
                stream = [base[i] for i in order]
                kept = sorted(
                    (t, d) for (_, _, t, d) in monotone_filter(p, stream)
                )
                for (t1, d1), (t2, d2) in zip(kept, kept[1:]):
                    assert leq[d1][d2], (rel, stream, kept)


class _TablePoset:
    """leq-matrix poset shim with the PosetInstance surface the filter uses."""

    def __init__(self, n, leq):
        self.n = n
        self._leq = leq
        self.spec = f"table{n}"

    def leq(self, a, b):
        return self._leq[a][b]


def test_criterion_03_monotone_filter_exhaustive():
    # the documented counterexample to the one-directional condition
    kept = monotone_filter(NAT, [(0, "x", 1, 3), (0, "x", 0, 5)])
    assert kept == [(0, "x", 1, 3)]
    # streams of <= 4 tuples over every poset with <= 5 elements (up to iso)
    for n in range(1, 6):
        for rel in posets_up_to_iso(n):
            run_filter_streams(n, rel, max_m=4 if n >= 4 else 4)
    # full <= 6 tuple exhaustion over every poset with <= 3 elements
    for n in range(1, 4):
        for rel in posets_up_to_iso(n):
            run_filter_streams(n, rel, max_m=6)
    print("PASS criterion 3: filter output monotone over exhaustive stream strata")


def test_criterion_04_normalize():
    rng = random.Random(7)
    for _ in range(1000):
        ts = sorted(rng.sample(range(12), rng.randrange(1, 6)))
        vals = sorted(rng.randrange(0, 30) for _ in ts)
        cost = rng.randrange(0, 4)
        e = trace_evaluator(list(zip(ts, vals)), cost=cost)
        f = normalize(NAT, e)
        fuel = 40
        defined = [f(None, t, fuel) is not None for t in range(14)]
        assert all(defined) or not any(defined)  # rectangular domain
        src = budgeted_limit(NAT, e, None, 13, fuel, window=2)
        out = budgeted_limit(NAT, f, None, 13, fuel, window=2)
        if src.status == STABILIZED:
            assert out.current == src.current
    print("PASS criterion 4: normalized processes have rectangular domains and equal limits")


def brute_antichain_best(n, comp):
    best = 0
    for bits in range(1 << n):
        members = [i for i in range(n) if bits >> i & 1]
        if all(not comp[a] & (1 << b) for a, b in itertools.combinations(members, 2)):
            best = max(best, len(members))
    return best


def test_criterion_05_dilworth():
    rng = random.Random(1234)
    for _ in range(500):
        n = rng.randrange(1, 11)
        rel = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice([0.2, 0.5, 0.8]):
                    rel.add((i, j))
        fp = FinitePoset(n, frozenset(rel))
        comp = fp.comparability_masks()
        brute = brute_antichain_best(n, comp)
        anti = max_antichain(fp)
        cover = min_chain_cover(fp)
        assert len(anti) == brute == len(cover)
        covered = sorted(e for chain in cover for e in chain)
        assert covered == list(range(n))
    print("PASS criterion 5: |min chain cover| = |max antichain| on 500 random posets")


def _pair_profile(pair: OrderPair):
    """(largest star parameter, largest cover over strong chains) by direct
    subset scan; independent of the check_* search machinery."""
    n = pair.weak.n
    strong_comp = pair.strong.comparability_masks()
    weak_comp = pair.weak.comparability_masks()
    best_star = 0
    best_cover = 0
    for bits in range(1, 1 << n):
        members = [i for i in range(n) if bits >> i & 1]
        if any(
            not strong_comp[a] & (1 << b)
            for a, b in itertools.combinations(members, 2)
        ):
            continue
        if all(
            not weak_comp[a] & (1 << b)
            for a, b in itertools.combinations(members, 2)
        ):
            best_star = max(best_star, len(members))
        cover = len(min_chain_cover(pair.weak.restrict(members)))
        best_cover = max(best_cover, cover)
    return best_star, best_cover


def _random_pair(rng, n):
    strong_rel = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.55:
                strong_rel.add((i, j))
    strong = FinitePoset(n, frozenset(strong_rel))
    weak_rel = frozenset(p for p in strong.lt if rng.random() < 0.5)
    return OrderPair(weak=FinitePoset(n, weak_rel), strong=strong)


def test_criterion_06_star_dagger():
    pairs = []
    # exhaustive over carriers <= 3: every strong poset (up to linearized
    # labeling) with every transitive weak subrelation
    for n in range(1, 4):
        for strong_rel in posets_up_to_iso(n):
            strong = FinitePoset(n, frozenset(strong_rel))
            rel_list = sorted(strong.lt)
            for bits in range(1 << len(rel_list)):
                weak_rel = {rel_list[k] for k in range(len(rel_list)) if bits >> k & 1}
                try:
                    weak = FinitePoset(n, frozenset(weak_rel))
                except Exception:
                    continue
                if not weak.lt <= strong.lt:
                    continue
                pairs.append(OrderPair(weak=weak, strong=strong))
    rng = random.Random(31337)
    while len(pairs) < 10_500:
        pairs.append(_random_pair(rng, rng.randrange(4, 7)))
    assert len(pairs) >= 10_000

    for pair in pairs:
        m_star, m_cover = _pair_profile(pair)
        # Dilworth inside chains: the two profiles agree exactly
        assert m_star == m_cover, (pair, m_star, m_cover)
        n = pair.weak.n
        # boundary exercises of the real checkers
        if m_star >= 1:
            w = check_star(pair, m_star)
            assert w is not None and len(w) == m_star
        if m_star + 1 <= n:
            assert check_star(pair, m_star + 1) is None
        if m_star >= 2:
            # star(k+1) with k+1 = m_star implies dagger(k)
            d = check_dagger(pair, m_star - 1)
            assert d is not None
            assert len(min_chain_cover(pair.weak.restrict(d))) > m_star - 1
        # failure of star at m_star+1 forces dagger(m_star) to fail too
        assert check_dagger(pair, m_star) is None
    print(f"PASS criterion 6: star/dagger shift verified on {len(pairs)} order pairs")


def test_criterion_07_paired_decompressor(nat_tables):
    table = nat_tables
    both = sorted(r for r in table.k_max if r in table.k_min)
    assert both, "no doubly-witnessed rows at this budget"
    for rank in both:
        got = paired_decompress(NAT, table, rank, TABLE_BUDGET)
        assert got == NAT.unrank(rank), (rank, got)
    print(f"PASS criterion 7: paired decompressor exact on {len(both)}/{len(both)} doubly-witnessed rows")


def test_criterion_08_diagonal(nat_tables):
    weak, strong = parse_poset_spec("prefix:ab"), parse_poset_spec("lexico:a<b")
    gen = lambda i, size: chain_antichain_family(weak, strong, size)
    for i in range(4):
        f, g, audit = diagonal_hard(
            weak, strong, gen, lambda j: j + 1, i, TABLE_BUDGET
        )
        assert audit["passed"], audit
        assert audit["f_in_family"] and audit["g_in_family"]
        assert audit["f_not_excluded"] and audit["g_not_excluded"]
        assert audit["excluded_total"] <= audit["excluded_bound"]
        assert audit["per_step_bound_ok"]
    print("PASS criterion 8: diagonal audit certifies F_i, G_i for i <= 3 at alpha(i) = i+1")


def test_criterion_09_discrete_collapse(discrete_tables):
    disc, table = discrete_tables
    c_wrap = measure_wrap_constant(disc, table)
    assert c_wrap is not None
    assert table.plain or table.k_max or table.k_min
    checked = 0
    for rank in table.plain.keys() | table.k_max.keys() | table.k_min.keys():
        k_plain, k_max, k_min = (
            len(column[rank]) if rank in column else None
            for column in (table.plain, table.k_max, table.k_min)
        )
        if k_max is not None and k_min is not None:
            assert abs(k_max - k_min) <= c_wrap
            checked += 1
        if k_max is not None and k_plain is not None:
            assert abs(k_max - k_plain) <= c_wrap
        if k_min is not None and k_plain is not None:
            assert abs(k_min - k_plain) <= c_wrap
    assert checked >= 1
    print(f"PASS criterion 9: discrete order collapse within measured c_wrap = {c_wrap}")


AB = ("a", "b")


def words_over(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in alphabet]
        out.extend(frontier)
    return out


def _random_min_dfa(rng, max_states=3):
    n = rng.randrange(1, max_states + 1)
    delta = tuple(tuple(rng.randrange(n) for _ in AB) for _ in range(n))
    accept = frozenset(q for q in range(n) if rng.random() < 0.5)
    return canonicalize_dfa(Dfa(n, 0, accept, delta, AB))


def test_criterion_10_quotients():
    rng = random.Random(555)
    five = words_over("ab", 5)
    for _ in range(100):
        l = _random_min_dfa(rng)
        m = [rng.choice(words_over("ab", 3)) for _ in range(rng.randrange(0, 5))]
        q = quotient(l, m)
        for u in five:
            expect = any(l.accepts(v + u) for v in m)
            assert q.accepts(u) == expect, (m, u)
        # stabilization bound: the quotient value changes at most
        # |states(l)| times along any enumeration of m
        assert len(quotient_trace(l, m)) <= l.n
    for _ in range(200):
        d = _random_min_dfa(rng)
        back = to_canonical_dfa(parse_regex(canonical_regex(d), AB), AB)
        assert back == d
    print("PASS criterion 10: quotients match brute force; retraction round-trips 200 DFAs")


def test_criterion_11_pigeonhole(nat_tables, discrete_tables):
    _, disc_table = discrete_tables
    for table in (nat_tables, disc_table):
        for column in (table.plain, table.k_max, table.k_min):
            for limit in range(TABLE_BUDGET.max_prog_len + 1):
                hits = sum(1 for w in column.values() if len(w) <= limit)
                assert hits <= 2 ** (limit + 1) - 1
    print("PASS criterion 11: program-counting pigeonhole holds for every table and length")


def _oracle_bb_row(states, t_max):
    """Independent busy-beaver oracle: dict-tape simulator with full
    configuration cycle detection, written apart from the vm module."""
    row = [0] * (t_max + 1)
    for spec in enumerate_tm_specs(states):
        tape = {}
        pos, state = 0, 0
        visited = {0}
        seen_configs = set()
        for step in range(1, t_max + 1):
            config = (state, pos, tuple(sorted(tape.items())))
            if config in seen_configs:
                break
            seen_configs.add(config)
            write, move, nxt = spec.table[(state, tape.get(pos, 0))]
            tape[pos] = write
            pos += 1 if move == "R" else -1
            visited.add(pos)
            state = nxt
            if state == "H":
                for t in range(step, t_max + 1):
                    row[t] = max(row[t], len(visited))
                break
    return row


def test_criterion_12_busy_beaver():
    t_max = 30
    # n = 3 at t <= 10 only: its walk takes about 0.1 s a step
    rows = [busy_beaver_row(n, t_max) for n in (0, 1, 2)] + [busy_beaver_row(3, 10)]
    for row in rows:
        for a, b in zip(row, row[1:]):
            assert a <= b
    for lower, upper in zip(rows, rows[1:]):
        for t in range(len(upper)):
            assert lower[t] <= upper[t]
    for n in (0, 1):
        assert rows[n] == _oracle_bb_row(n + 1, t_max)
    print("PASS criterion 12: bb monotone in t and in n <= 3; n <= 1 matches the independent oracle")
