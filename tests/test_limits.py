import itertools
import random

import pytest

from kposet.errors import ConfigError, MonotonicityError
from constructions import (
    ContractError,
    budgeted_limit,
    common_value_dovetail,
    monotone_filter,
    normalize,
    prefix_normal_form,
    totalize,
    trace_evaluator,
)
from kposet.limits import NO_VALUE, STABILIZED, STILL_CHANGING, Evaluator, limit_report_from_trace
from kposet.posets import parse_poset_spec, reverse

NAT = parse_poset_spec("nat")
INT = parse_poset_spec("int")


def test_budgeted_limit_constant_tail():
    e = trace_evaluator([(0, 3), (1, 7), (2, 7), (3, 7)])
    rep = budgeted_limit(NAT, e, None, 3, 10, window=2)
    assert rep.current == 7
    assert rep.status == STABILIZED
    assert rep.last_change_t == 1
    assert rep.stable_for == 2


def test_budgeted_limit_empty():
    rep = budgeted_limit(NAT, trace_evaluator([]), None, 5, 10, window=1)
    assert rep.status == NO_VALUE
    assert rep.current is None


def test_budgeted_limit_still_changing():
    e = Evaluator(lambda x, t, fuel: t)
    rep = budgeted_limit(NAT, e, None, 10, 10, window=2)
    assert rep.current == 10
    assert rep.status == STILL_CHANGING


def test_budgeted_limit_monotonicity_violation():
    e = trace_evaluator([(0, 5), (1, 3)])
    with pytest.raises(MonotonicityError) as exc:
        budgeted_limit(NAT, e, None, 3, 10, window=1)
    assert exc.value.witness == ((0, 5), (1, 3))


def test_budgeted_limit_min_via_reverse():
    e = trace_evaluator([(0, 9), (1, 7), (2, 7)])
    rep = budgeted_limit(reverse(NAT), e, None, 2, 10, window=2)
    assert rep.current == 7
    assert rep.status == STABILIZED


def test_min_max_duality_exhaustive_small():
    # max over rev(P) equals min computed by hand on every short nat trace
    for vals in itertools.product(range(3), repeat=3):
        ordered = sorted(vals, reverse=True)
        e = trace_evaluator(list(enumerate(ordered)))
        rep = budgeted_limit(reverse(NAT), e, None, 2, 10, window=1)
        assert rep.current == min(vals)


def test_limit_report_from_trace_matches_budgeted_limit():
    rng = random.Random(5)
    for _ in range(300):
        # random non-decreasing clocks, repeated in every other trace (as a
        # walk that changes twice at one step makes them), distinct values
        n = rng.randrange(0, 6)
        clocks = rng.choices(range(12), k=n) if rng.random() < 0.5 else rng.sample(range(12), n)
        ts = sorted(clocks)
        vals = sorted(rng.sample(range(50), n))
        pts = list(zip(ts, vals))
        t_budget = rng.randrange(0, 14)
        window = rng.randrange(1, 5)
        slow = budgeted_limit(
            NAT, trace_evaluator(pts), None, t_budget, 100, window=window
        )
        # the trace evaluator is only defined at its points; the fast path
        # models the machine-style evaluator defined from the first point on
        filled = []
        cur = None
        for t in range(t_budget + 1):
            for (tt, vv) in pts:
                if tt == t:
                    cur = vv
            if cur is not None:
                filled.append((t, cur))
        dense = budgeted_limit(
            NAT, trace_evaluator(filled), None, t_budget, 100, window=window
        )
        fast = limit_report_from_trace(pts, t_budget, window)
        assert fast == dense
        assert (slow.current is None) == (fast.current is None)


def test_monotone_filter_examples():
    x = "x"
    kept = monotone_filter(NAT, [(0, x, 0, 5), (0, x, 1, 3)])
    assert kept == [(0, x, 0, 5)]
    kept = monotone_filter(NAT, [(0, x, 1, 3), (0, x, 0, 5)])
    assert kept == [(0, x, 1, 3)]
    mono = [(0, x, 0, 1), (0, x, 1, 4), (1, x, 0, 9), (0, x, 2, 4)]
    assert monotone_filter(NAT, mono) == mono


def test_monotone_filter_documented_counterexample():
    # the one-directional kept condition would accept both of these tuples,
    # making the filtered process decrease from t=0 to t=1
    stream = [(0, "x", 1, 3), (0, "x", 0, 5)]
    kept = monotone_filter(NAT, stream)
    by_t = sorted((t, d) for (_, _, t, d) in kept)
    for (t1, d1), (t2, d2) in zip(by_t, by_t[1:]):
        assert NAT.leq(d1, d2)


def test_monotone_filter_idempotent_random():
    rng = random.Random(17)
    for _ in range(200):
        stream = []
        cells = set()
        for _ in range(rng.randrange(0, 10)):
            n = rng.randrange(0, 2)
            t = rng.randrange(0, 6)
            if (n, "x", t) in cells:
                continue
            cells.add((n, "x", t))
            stream.append((n, "x", t, rng.randrange(0, 5)))
        kept = monotone_filter(NAT, stream)
        assert monotone_filter(NAT, kept) == kept
        groups = {}
        for (n, x, t, d) in kept:
            groups.setdefault((n, x), []).append((t, d))
        for pts in groups.values():
            pts.sort()
            for (t1, d1), (t2, d2) in zip(pts, pts[1:]):
                assert NAT.leq(d1, d2)


def test_monotone_filter_rejects_duplicate_cells():
    with pytest.raises(ConfigError):
        monotone_filter(NAT, [(0, "x", 0, 1), (0, "x", 0, 2)])


def test_normalize_dovetail_example():
    e = trace_evaluator([(5, 4), (7, 9)], cost=1)
    f = normalize(NAT, e)
    assert f(None, 0, 20) == 4
    assert f(None, 5, 20) == 4
    assert f(None, 7, 20) == 9
    src = budgeted_limit(NAT, e, None, 10, 20, window=2)
    out = budgeted_limit(NAT, f, None, 10, 20, window=2)
    assert src.current == out.current == 9


def test_normalize_total_and_empty():
    total = Evaluator(lambda x, t, fuel: min(t, 3))
    f = normalize(NAT, total)
    for x in range(3):
        a = budgeted_limit(NAT, total, x, 8, 20, window=2)
        b = budgeted_limit(NAT, f, x, 8, 20, window=2)
        assert a.current == b.current == 3
    nowhere = trace_evaluator([])
    g = normalize(NAT, nowhere)
    assert all(g(None, t, 15) is None for t in range(6))


def test_normalize_rectangular_domain():
    e = trace_evaluator([(5, 4)], cost=1)
    f = normalize(NAT, e)
    defined = [f(None, t, 20) is not None for t in range(10)]
    assert all(defined)


def test_normalize_does_not_depend_on_query_order():
    # theta is first found at s = u + f = 5 + 1; a query at a larger fuel
    # must not make it visible to a later query at a smaller fuel
    e = trace_evaluator([(5, 4)], cost=1)
    f = normalize(NAT, e)
    assert f(None, 0, 20) == 4
    assert f(None, 0, 3) is None
    assert f(None, 0, 5) is None
    assert f(None, 0, 6) == 4


def test_normalize_searches_only_up_to_the_fuel_asked():
    # the memo starts at the fuel of the first query and doubles on growth
    calls = []
    nowhere = Evaluator(lambda x, t, fuel: calls.append((t, fuel)))
    f = normalize(NAT, nowhere)
    assert f(None, 0, 3) is None
    assert len(calls) == 10  # the (u, f) pairs with u + f <= 3
    assert f(None, 0, 2) is None
    assert len(calls) == 10  # less fuel: read from the same search
    assert f(None, 0, 4) is None
    assert len(calls) == 10 + 28  # more fuel: one search, up to twice the last


def test_normalize_matches_a_fresh_normalize_per_query():
    rng = random.Random(25)
    for _ in range(200):
        tables = {}
        for x in range(3):
            ts = sorted(rng.sample(range(8), rng.randrange(0, 4)))
            tables[x] = (dict(zip(ts, sorted(rng.randrange(0, 20) for _ in ts))), rng.randrange(0, 4))
        e = Evaluator(lambda x, t, fuel: tables[x][0].get(t) if fuel >= tables[x][1] else None)
        shared = normalize(NAT, e)
        for _ in range(12):
            x, t, fuel = rng.randrange(3), rng.randrange(10), rng.randrange(150)
            got = shared(x, t, fuel)
            assert got == normalize(NAT, e)(x, t, fuel), (tables, x, t, fuel)
            # defined exactly when some e(x, u, f) with u + f <= fuel converges
            found = any(e(x, u, f) is not None for u in range(fuel + 1) for f in range(fuel + 1 - u))
            assert (got is not None) == found, (tables, x, t, fuel)


def test_totalize():
    e = trace_evaluator([(0, 0), (1, 1), (2, 2), (3, 3)])
    f = totalize(NAT, e, bottom=0)
    assert f(None, 0, 10) == 0
    rep = budgeted_limit(NAT, f, None, 8, 10, window=2)
    assert rep.current == 3
    assert rep.status == STABILIZED
    empty = totalize(NAT, trace_evaluator([]), bottom=0)
    rep = budgeted_limit(NAT, empty, None, 5, 10, window=2)
    assert rep.current == 0


def test_totalize_total_unchanged():
    total = Evaluator(lambda x, t, fuel: min(t, 4))
    f = totalize(NAT, total, bottom=0)
    for t_budget in (4, 9):
        a = budgeted_limit(NAT, total, None, t_budget, 20, window=1)
        b = budgeted_limit(NAT, f, None, t_budget, 20, window=1)
        assert a.current == b.current


def test_totalize_contract_violation():
    e = trace_evaluator([(0, 1)])
    f = totalize(NAT, e, bottom=3)
    with pytest.raises(ContractError):
        f(None, 2, 10)


def test_prefix_normal_form_unfolds():
    f = Evaluator(lambda s, t, fuel: "ab")
    g = prefix_normal_form(f)
    assert [g("s", t, 10) for t in range(4)] == ["", "a", "ab", "ab"]


def test_prefix_normal_form_fixed_point():
    words = ["", "a", "ab", "abb"]

    def fn(s, t, fuel):
        return words[min(t, 3)]

    f = Evaluator(fn)
    g = prefix_normal_form(f)
    for t in range(6):
        assert g("s", t, 10) == f("s", t, 10)


def test_prefix_normal_form_empty():
    f = Evaluator(lambda s, t, fuel: "")
    g = prefix_normal_form(f)
    assert all(g("s", t, 10) == "" for t in range(5))


def test_prefix_normal_form_violation():
    def fn(s, t, fuel):
        return "ab" if t < 2 else "ba"

    with pytest.raises(MonotonicityError):
        prefix_normal_form(Evaluator(fn))("s", 4, 10)


def test_common_value_dovetail():
    f = trace_evaluator([(0, 1), (1, 4), (2, 7)])
    g = trace_evaluator([(0, 9), (1, 7)])
    assert common_value_dovetail(NAT, f, g, None, None, 20) == 7
    const = trace_evaluator([(0, 5)])
    assert common_value_dovetail(NAT, const, const, None, None, 5) == 5
    h = trace_evaluator([(0, 2)])
    assert common_value_dovetail(NAT, f, h, None, None, 20) is None


def test_common_value_matches_greatest_on_convergent_pairs():
    rng = random.Random(23)
    for _ in range(200):
        v = rng.randrange(0, 30)
        k_up = rng.randrange(1, min(5, v + 2))
        up = sorted(rng.sample(range(0, v + 1), k_up) + [v])
        down = sorted(rng.sample(range(v, v + 30), rng.randrange(1, 5)) + [v], reverse=True)
        f = trace_evaluator(list(enumerate(up)))
        g = trace_evaluator(list(enumerate(down)))
        got = common_value_dovetail(NAT, f, g, None, None, 40)
        assert got == v
        assert v == up[-1]
        assert down[-1] == v


def test_derived_constructions_preserve_limits_random():
    rng = random.Random(41)
    for _ in range(1000):
        # random monotone nat process defined on a random t-subset
        ts = sorted(rng.sample(range(10), rng.randrange(1, 6)))
        vals = sorted(rng.randrange(0, 20) for _ in ts)
        e = trace_evaluator(list(zip(ts, vals)), cost=rng.randrange(0, 3))
        src = budgeted_limit(NAT, e, None, 12, 30, window=2)
        f = normalize(NAT, e)
        out = budgeted_limit(NAT, f, None, 12, 30, window=2)
        if src.status == STABILIZED:
            assert out.current == src.current
        g = totalize(NAT, e, bottom=0)
        tot = budgeted_limit(NAT, g, None, 12, 30, window=2)
        assert tot.current == max(vals + [0])
