"""Reference oracles for the order-free kernel and the generating scans.

These are the order-aware interpreter and the per-word table scans the
package used before its kernel became order-free: every word of
``iter_words`` is parsed or decoded, run under the poset's kept-emission
filter and (on the limit side) turned into its own limit report. They are
slow and obviously faithful to the definitions, which is what the property
tests compare the package against. Nothing here is imported by the package.

The second half holds the finite-order code from before the bit-row kernel:
the fixpoint transitive closure, the symbol-order parser built on it, Kuhn's
matching over sorted successor lists, the branch-and-bound maximum
antichain, and the star/dagger subset walks with their pairwise
chain/antichain tests. It works on plain (n, relation) data,
independent of FinitePoset.

The last part holds the enumerator layer from before its one-pass rewrite:
the run cache that slices its cached run on every call and the evaluators
that scan or rebuild the sliced emissions per query, the evaluator form of
the set interactions that the package replaced with one trace per
command, the Turing machines with their step-by-step interpreter, the
busy-beaver loops over them (one enumeration per bb(n, t), and a row
raised step by step per machine), the full transition tree that the
package walks with its symmetry cuts,
the two separate breadth-first subset constructions behind the canonical
DFA and the quotient, and the canonical form as a block automaton from
Moore refinement renumbered by its own breadth-first walk. The busy-beaver
loops run every total transition table, enumerated by enumerate_tm_specs,
the brute force the package replaced with a walk of the transition tree;
_tree_leaves walks that tree with no cut, as the package did before it
dropped the branches that Brady's symmetries repeat.

Expressions reach their canonical DFA here by Thompson's construction: an
epsilon-NFA with two fresh states per AST node, determinised by a subset
construction that takes epsilon-closures. The package compiles through the
position automaton instead, so canonical_dfa_ref shares only the parser
with to_canonical_dfa.

The last class is the regular-language enumeration from before it skipped
ill-formed texts: every text in length-lex order goes through this file's
canonical-DFA pipeline and counts one toward the ceiling.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple
from typing import Any, Iterator, Sequence

from kposet.errors import ConfigError, ResourceError
from kposet.automata import CONCAT, Dfa, RegexAst, parse_regex
from kposet.codec import b_index, b_word, decode_padded
from kposet.complexity import Budget, iter_words
from kposet import vm
from constructions import _fuel_prefix_runs
from kposet.enumerable import INTERACTION_MODES, _interaction_trace
from kposet.limits import STABILIZED, Evaluator, limit_report_from_trace
from kposet.posets import PosetInstance, parse_poset_spec, reverse
from kposet.vm import (
    RunResult,
    parse_program,
    run_emitting,
)

NAT = parse_poset_spec("nat")

def execute_ordered(instrs, input_b: int, fuel: int, unrank, leq) -> RunResult:
    """The interpreter with the kept filter applied at every OUT and no
    shortcut for cycles: a run that does not halt steps through its whole
    fuel, and only a dead spin, where nothing changes, is charged at once."""
    pc, a, b = 0, 0, input_b
    steps = 0
    trace: list[tuple[int, Any]] = []
    raw_first: list[tuple[int, int]] = []
    raw_seen: set[int] = set()
    kept_last = None
    halted = False
    n = len(instrs)
    while steps < fuel:
        if pc < 0 or pc >= n:
            steps = fuel  # dead spin: nothing changes any more
            break
        op, arg = instrs[pc]
        step_index = steps
        steps += 1
        if op == "INC_A":
            a += 1
            pc += 1
        elif op == "INC_B":
            b += 1
            pc += 1
        elif op == "DEC_A":
            a = max(0, a - 1)
            pc += 1
        elif op == "DEC_B":
            b = max(0, b - 1)
            pc += 1
        elif op == "JZ_A":
            pc = pc + arg if a == 0 else pc + 1
        elif op == "JZ_B":
            pc = pc + arg if b == 0 else pc + 1
        elif op == "OUT":
            if a not in raw_seen:
                raw_seen.add(a)
                raw_first.append((step_index, a))
            d = unrank(a)
            if kept_last is None:
                trace.append((step_index, d))
                kept_last = d
            elif d != kept_last and leq(kept_last, d):
                trace.append((step_index, d))
                kept_last = d
            pc += 1
        else:  # HALT
            halted = True
            break
    return RunResult(tuple(trace), tuple(raw_first), halted, steps, a, b)


def run_emitting_ref(p: PosetInstance, code: str, input_b: int, fuel: int) -> RunResult:
    instrs = parse_program(code)
    if instrs is None:
        return RunResult((), (), False, fuel, 0, input_b)
    return execute_ordered(instrs, input_b, fuel, p.unrank, p.leq)


def run_raw_ref(code: str, input_b: int, fuel: int) -> RunResult:
    instrs = parse_program(code)
    if instrs is None:
        return RunResult((), (), False, fuel, 0, input_b)
    return execute_ordered(instrs, input_b, fuel, lambda r: r, lambda x, y: x <= y)


def plain_scan_ref(p: PosetInstance, ranks: int, b: Budget) -> dict[int, str]:
    found: dict[int, str] = {}
    for w in iter_words(b.max_prog_len):
        if parse_program(w) is None:
            continue
        res = run_emitting_ref(p, w, 0, b.fuel)
        if res.halted and res.reg_a < ranks and res.reg_a not in found:
            found[res.reg_a] = w
    return found


def limit_side_ref(p: PosetInstance, ranks: int, b: Budget):
    """(found, censored) of the max scan over p; the min scan is this over
    reverse(p)."""
    found: dict[int, str] = {}
    censored: set[int] = set()
    horizon = min(b.t_budget, b.fuel)
    for q in iter_words(b.max_prog_len):
        dec = decode_padded(q)
        if dec is None:
            continue
        n, payload = dec
        res = run_emitting_ref(p, b_word(n), b_index(payload), b.fuel)
        report = limit_report_from_trace(res.trace, horizon, b.window)
        if report.current is None:
            continue
        rank = p.rank(report.current)
        if rank >= ranks:
            continue
        if report.status == STABILIZED:
            if rank not in found:
                found[rank] = q
        else:
            censored.add(rank)
    return found, censored


def tables_ref(p: PosetInstance, ranks: int, b: Budget):
    """((plain, k_max, k_min), censored) as complexity_table holds them: each
    column maps rank -> witness bit string."""
    plain = plain_scan_ref(p, ranks, b)
    kmax, cmax = limit_side_ref(p, ranks, b)
    kmin, cmin = limit_side_ref(reverse(p), ranks, b)
    return (plain, kmax, kmin), (cmax - set(kmax)) | (cmin - set(kmin))


# ------------------------------------------------------ finite-order kernel


def closure_ref(lt) -> set[tuple[int, int]]:
    """Transitive closure by repeated pair composition until nothing changes."""
    closed = set(lt)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for (c, d) in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return closed


def is_strict_ref(closed) -> bool:
    return all(a != b and (b, a) not in closed for (a, b) in closed)


def parse_order_expr_ref(expr: str) -> tuple[str, set[tuple[str, str]]]:
    """Parse chains like a<b<c;d into (alphabet, strict symbol relation)."""
    if not expr:
        raise ConfigError("empty symbol order expression")
    seen: list[str] = []
    lt: set[tuple[str, str]] = set()
    for group in expr.split(";"):
        if not group:
            raise ConfigError(f"empty chain group in {expr!r}")
        chain = group.split("<")
        for sym in chain:
            if len(sym) != 1:
                raise ConfigError(f"symbols must be single characters, got {sym!r}")
            if sym not in seen:
                seen.append(sym)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                lt.add((chain[i], chain[j]))
    lt = closure_ref(lt)
    if not is_strict_ref(lt):
        raise ConfigError(f"symbol order is not antisymmetric: {expr!r}")
    return "".join(seen), lt


def lexico_leq_ref(sym_lt, a: str, b: str) -> bool:
    """The lexicographic order over a strict symbol relation, one symbol at a
    time: equal words, a proper prefix, or strictly ordered symbols at the
    first difference."""
    if a == b:
        return True
    for x, y in zip(a, b):
        if x != y:
            return (x, y) in sym_lt
    return len(a) < len(b)


def _kuhn_ref(n: int, lt) -> dict[int, int]:
    succ = [[] for _ in range(n)]
    for (a, b) in sorted(lt):
        succ[a].append(b)
    match_right: dict[int, int] = {}

    def try_augment(a: int, visited: set[int]) -> bool:
        for b in succ[a]:
            if b in visited:
                continue
            visited.add(b)
            if b not in match_right or try_augment(match_right[b], visited):
                match_right[b] = a
                return True
        return False

    for a in range(n):
        try_augment(a, set())
    return match_right


def max_matching_ref(n: int, lt) -> int:
    """Maximum bipartite matching size on a closed strict relation."""
    return len(_kuhn_ref(n, lt))


def min_chain_cover_ref(n: int, lt) -> list[list[int]]:
    """The chains read off the matching, each started at an unmatched element."""
    match_right = _kuhn_ref(n, lt)
    next_of = {a: b for b, a in match_right.items()}
    chains = []
    for start in range(n):
        if start in match_right:
            continue
        chain = [start]
        while chain[-1] in next_of:
            chain.append(next_of[chain[-1]])
        chains.append(chain)
    return chains


def max_antichain_ref(n: int, lt) -> list[int]:
    """The branch and bound the greedy replaced: include-first depth-first
    search cut when even taking every remaining element cannot beat the
    best so far, so the first maximum antichain found is the
    lexicographically first."""
    comp = [0] * n
    for (a, b) in lt:
        comp[a] |= 1 << b
        comp[b] |= 1 << a
    best: list[int] = []

    def dfs(i: int, chosen: list[int], chosen_mask: int):
        nonlocal best
        if len(chosen) + (n - i) <= len(best):
            return
        if i == n:
            best = list(chosen)
            return
        if not (comp[i] & chosen_mask):
            chosen.append(i)
            dfs(i + 1, chosen, chosen_mask | (1 << i))
            chosen.pop()
        dfs(i + 1, chosen, chosen_mask)

    dfs(0, [], 0)
    return best


def _comparable(lt, a: int, b: int) -> bool:
    return a == b or (a, b) in lt or (b, a) in lt


def _subsets_lex(start: int, stop: int):
    """All ascending tuples over [start, stop) in lexicographic order."""
    yield ()
    for i in range(start, stop):
        for rest in _subsets_lex(i + 1, stop):
            yield (i,) + rest


def _strong_sort(strong_lt, subset: Sequence[int]) -> list[int]:
    out = list(subset)
    out.sort(key=lambda e: sum(1 for f in subset if (f, e) in strong_lt))
    return out


def check_star_ref(n: int, weak_lt, strong_lt, k: int) -> list[int] | None:
    """The first k-subset, by maximum then lexicographically, that is a
    strong chain and a weak antichain."""
    for m in range(k - 1, n):
        for combo in itertools.combinations(range(m), k - 1):
            subset = combo + (m,)
            pairs = list(itertools.combinations(subset, 2))
            if all(_comparable(strong_lt, a, b) for a, b in pairs) and not any(
                _comparable(weak_lt, a, b) for a, b in pairs
            ):
                return _strong_sort(strong_lt, subset)
    return None


def check_dagger_ref(n: int, weak_lt, strong_lt, k: int) -> list[int] | None:
    """The first strong chain, in the same order, whose induced weak order
    needs more than k chains to cover."""
    for m in range(n):
        for combo in _subsets_lex(0, m):
            subset = combo + (m,)
            if not all(
                _comparable(strong_lt, a, b) for a, b in itertools.combinations(subset, 2)
            ):
                continue
            idx = {e: i for i, e in enumerate(subset)}
            induced = {(idx[a], idx[b]) for (a, b) in weak_lt if a in idx and b in idx}
            if len(min_chain_cover_ref(len(subset), induced)) > k:
                return _strong_sort(strong_lt, subset)
    return None


# ------------------------------------------------------- enumerator layer


def fuel_prefix_runs_ref(run):
    """The slicing run cache: one run per input at the largest fuel seen,
    cut to the steps below the requested fuel on every call."""
    cache: dict[Any, tuple[int, tuple]] = {}

    def at(x, fuel):
        cached = cache.get(x)
        if cached is None or cached[0] < fuel:
            run_fuel = max(fuel, 64, 2 * cached[0] if cached else 0)
            cache[x] = (run_fuel, run(x, run_fuel))
        run_fuel, emissions = cache[x]
        if run_fuel == fuel:
            return emissions
        return tuple((s, v) for s, v in emissions if s < fuel)

    return at


def vm_max_evaluator_ref(p: PosetInstance, n: int):
    """Last kept emission with step <= t, scanning the sliced run."""
    code = b_word(n)
    kept_at = fuel_prefix_runs_ref(lambda x, fuel: run_emitting(p, code, b_index(x), fuel).trace)

    def fn(x, t, fuel):
        if fuel < t:
            return None
        value = None
        for step, d in kept_at(x, fuel):
            if step > t:
                break
            value = d
        return value

    return fn


def card_re_evaluator_ref(n: int):
    """Count of first emissions with step < t, scanning the sliced run."""
    code = b_word(n)
    emitted_at = fuel_prefix_runs_ref(lambda _x, fuel: run_emitting(NAT, code, 0, fuel).raw_first)

    def fn(x, t, fuel):
        if fuel < t:
            return None
        return sum(1 for step, _ in emitted_at(None, fuel) if step < t)

    return fn


def set_interaction_ref(a_index: int, mode: str):
    """The interaction rebuilt from the whole sliced emission set per call."""
    code = b_word(a_index)
    emitted_at = fuel_prefix_runs_ref(lambda _x, fuel: run_emitting(NAT, code, 0, fuel).raw_first)

    def fn(x, t, fuel):
        if fuel < t:
            return None
        xs = set(x)
        es = {v for step, v in emitted_at(None, fuel) if step < t}
        if mode == "cap":
            out = xs & es
        elif mode == "minus":
            out = {xx - y for xx in xs for y in es if xx >= y}
        else:
            out = xs - es
        return tuple(sorted(out))

    return fn


def set_interaction_evaluators(a_index: int, mode: str) -> Evaluator:
    """The finite-set interaction processes against the set enumerated by
    program b_word(a_index) on input 0, as evaluators (see
    enumerable._interaction_trace for the three modes; consume setminus with
    rev(finsets)).

    The evaluator form that set_interaction_limit replaced: one
    _fuel_prefix_runs memo of the machine's first emissions, shared by every
    set, and a second one that keeps the change points per set; a query
    reads the last change point at or before t."""
    if mode not in INTERACTION_MODES:
        raise ConfigError(f"mode must be one of {INTERACTION_MODES}, got {mode!r}")
    instrs = parse_program(b_word(a_index))
    # the kernel is read through its module, so that a test can count its runs
    emitted = _fuel_prefix_runs(lambda _x, fuel: () if instrs is None else vm._execute(instrs, 0, fuel)[0])
    trace = _fuel_prefix_runs(lambda x, fuel: _interaction_trace(emitted(None, fuel), mode, x))

    def fn(x, t, fuel):
        if fuel < t:
            return None
        points = trace(x, fuel)
        # the last change point at or before t; (t + 1,) sorts before (t + 1, answer)
        return points[bisect.bisect_left(points, (t + 1,)) - 1][1]

    return Evaluator(fn)


class TmSpec(namedtuple("TmSpec", "states table")):
    """One-tape Turing machine over {blank, 1}; table maps (state, symbol)
    to (write, move, next) with next a state index or "H"."""

    __slots__ = ()

    def __new__(cls, states: int, table: dict):
        for q in range(states):
            for s in (0, 1):
                if (q, s) not in table:
                    raise ConfigError(f"transition table misses ({q},{s})")
        return super().__new__(cls, states, table)


def run_tm(spec: TmSpec, max_steps: int) -> tuple[bool, int, int]:
    """Run from blank tape; returns (halted, steps, cells_visited) where
    cells = distinct head positions including the final one after a halting
    move."""
    tape: dict[int, int] = {}
    pos = 0
    state: int | str = 0
    visited = {0}
    for step in range(1, max_steps + 1):
        write, move, nxt = spec.table[(state, tape.get(pos, 0))]
        tape[pos] = write
        pos += 1 if move == "R" else -1
        visited.add(pos)
        state = nxt
        if state == "H":
            return True, step, len(visited)
    return False, max_steps, len(visited)


def enumerate_tm_specs(states: int):
    """All total transition tables with the given number of states."""
    options = [
        (w, m, nxt)
        for w in (0, 1)
        for m in ("L", "R")
        for nxt in list(range(states)) + ["H"]
    ]
    keys = [(q, s) for q in range(states) for s in (0, 1)]
    for combo in itertools.product(options, repeat=len(keys)):
        yield TmSpec(states, dict(zip(keys, combo)))


def busy_beaver_bb_ref(n: int, t: int) -> int:
    """Max cells visited over all (n+1)-state machines halting within t."""
    best = 0
    for spec in enumerate_tm_specs(n + 1):
        halted, _, cells = run_tm(spec, t)
        if halted and cells > best:
            best = cells
    return best


def busy_beaver_row_ref(n: int, t_max: int) -> list[int]:
    """bb(n, t) for t = 0..t_max, each halting machine raising every t from
    its halting step on."""
    row = [0] * (t_max + 1)
    for spec in enumerate_tm_specs(n + 1):
        halted, steps, cells = run_tm(spec, t_max)
        if halted:
            for t in range(steps, t_max + 1):
                row[t] = max(row[t], cells)
    return row


def busy_beaver_tree_row_ref(n: int, t_max: int) -> list[int]:
    """bb(n, t) for t = 0..t_max from the halting leaves of the full
    transition tree (_tree_leaves), the walk before its symmetry cuts."""
    at_step = [0] * (t_max + 1)
    for _reached, halted, steps, cells in _tree_leaves(n + 1, t_max):
        if halted and cells > at_step[steps]:
            at_step[steps] = cells
    return list(itertools.accumulate(at_step, max))


def _tree_leaves(states: int, t_max: int) -> Iterator[tuple[tuple, bool, int, int]]:
    """The leaves of the transition tree (Brady's tree normal form) of the
    `states`-state machines run for t_max steps from blank tape.

    A depth-first walk over partial tables: it starts from the empty table
    and runs the machine; when the run first reads an undefined
    (state, symbol), it branches over the 2 * 2 * (states + 1) transitions
    (write, move, next-or-"H", in that nesting order), each branch resuming
    from the current configuration. A leaf is a run that halts or uses up
    t_max steps. It is yielded as (reached, halted, steps, cells), with
    reached the ((state, symbol), transition) pairs the run defined, in the
    order it reached them, and cells the distinct head positions, the final
    one after a halting move included.

    Exactness: a run of a total table only reads the transitions it
    reaches, so it runs step for step like the partial table of the one
    leaf whose reached transitions the table contains; every total table
    falls under exactly one leaf, because the tree branches over every
    transition at each key it reaches. The tape and the visited cells are
    bit masks (bit t_max + p for cell p, |p| <= t_max), so branches share
    them without copies."""
    transitions = [
        (write, move, nxt)
        for write in (0, 1)
        for move in ("L", "R")
        for nxt in [*range(states), "H"]
    ]
    # popped from the stack in the order above; "H" runs as state -1
    branches = [
        ((write, move, nxt), (write, 1 if move == "R" else -1, -1 if nxt == "H" else nxt))
        for write, move, nxt in reversed(transitions)
    ]
    # (table indexed by 2 * state + symbol, reached, state, pos, tape, visited, step)
    stack = [((None,) * (2 * states), (), 0, t_max, 0, 1 << t_max, 0)]
    while stack:
        table, reached, state, pos, tape, visited, step = stack.pop()
        while step < t_max:
            key = 2 * state + (tape >> pos & 1)
            act = table[key]
            if act is None:
                head, tail = table[:key], table[key + 1:]
                where = (state, key & 1)
                for tr, act in branches:
                    stack.append((head + (act,) + tail, reached + ((where, tr),),
                                  state, pos, tape, visited, step))
                break
            write, delta, state = act
            tape = tape | 1 << pos if write else tape & ~(1 << pos)
            pos += delta
            visited |= 1 << pos
            step += 1
            if state < 0:
                yield reached, True, step, visited.bit_count()
                break
        else:
            yield reached, False, step, visited.bit_count()


def thompson_ref(ast: RegexAst | None):
    """AST -> epsilon-NFA as ([(src, symbol|None, dst)], start, accept).
    None denotes the empty language."""
    edges: list[tuple[int, str | None, int]] = []
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    def build(node) -> tuple[int, int]:
        if node.op == "sym":
            s, t = fresh(), fresh()
            edges.append((s, node.sym, t))
            return s, t
        if node.op == "eps":
            s, t = fresh(), fresh()
            edges.append((s, None, t))
            return s, t
        if node.op == "alt":
            s, t = fresh(), fresh()
            ls, lt = build(node.left)
            rs, rt = build(node.right)
            edges.extend([(s, None, ls), (s, None, rs), (lt, None, t), (rt, None, t)])
            return s, t
        if node.op == "cat":
            ls, lt = build(node.left)
            rs, rt = build(node.right)
            edges.append((lt, None, rs))
            return ls, rt
        if node.op == "star":
            s, t = fresh(), fresh()
            ls, lt = build(node.left)
            edges.extend([(s, None, ls), (lt, None, t), (s, None, t), (lt, None, ls)])
            return s, t
        raise AssertionError(node.op)

    if ast is None:
        s, t = fresh(), fresh()  # no edge between them: accepts nothing
        return edges, s, t
    start, acc = build(ast)
    return edges, start, acc


def subset_construct_ref(edges, start, acc, alphabet) -> Dfa:
    """Subset construction over an epsilon-NFA, states numbered in BFS order."""
    k = len(alphabet)
    sym_index = {c: i for i, c in enumerate(alphabet)}
    eps: dict[int, list[int]] = {}
    bysym: dict[tuple[int, int], list[int]] = {}
    for (s, c, t) in edges:
        if c is None:
            eps.setdefault(s, []).append(t)
        else:
            bysym.setdefault((s, sym_index[c]), []).append(t)

    def closure(states):
        stack = list(states)
        out = set(states)
        while stack:
            s = stack.pop()
            for t in eps.get(s, ()):
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    start_set = closure(frozenset([start]))
    index = {start_set: 0}
    order = [start_set]
    delta_rows = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for a in range(k):
            nxt = closure(frozenset(t for s in cur for t in bysym.get((s, a), ())))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta_rows.append(tuple(row))
        i += 1
    accept = frozenset(i for i, st in enumerate(order) if acc in st)
    return Dfa(len(order), 0, accept, tuple(delta_rows), tuple(alphabet))


def _minimize_ref(d: Dfa) -> Dfa:
    # Moore partition refinement over the (already total) automaton
    k = len(d.alphabet)
    block = [1 if q in d.accept else 0 for q in range(d.n)]
    while True:
        signatures = {}
        new_block = []
        for q in range(d.n):
            sig = (block[q],) + tuple(block[d.delta[q][a]] for a in range(k))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block.append(signatures[sig])
        if new_block == block:
            break
        block = new_block
    m = max(block) + 1
    delta = [[0] * k for _ in range(m)]
    accept = set()
    for q in range(d.n):
        for a in range(k):
            delta[block[q]][a] = block[d.delta[q][a]]
        if q in d.accept:
            accept.add(block[q])
    return Dfa(m, block[d.start], frozenset(accept), tuple(map(tuple, delta)), d.alphabet)


def _bfs_renumber_ref(d: Dfa) -> Dfa:
    k = len(d.alphabet)
    number = {d.start: 0}
    order = [d.start]
    i = 0
    while i < len(order):
        q = order[i]
        for a in range(k):
            t = d.delta[q][a]
            if t not in number:
                number[t] = len(order)
                order.append(t)
        i += 1
    delta = tuple(
        tuple(number[d.delta[q][a]] for a in range(k)) for q in order
    )
    accept = frozenset(number[q] for q in d.accept if q in number)
    return Dfa(len(order), 0, accept, delta, d.alphabet, canonical=True)


def canonicalize_dfa_ref(d: Dfa) -> Dfa:
    """The block automaton of Moore refinement, renumbered breadth-first."""
    return _bfs_renumber_ref(_minimize_ref(d))


def canonical_dfa_ref(ast, sigma) -> Dfa:
    """Thompson, the subset construction above, minimisation, renumbering."""
    sigma = tuple(sigma)
    return canonicalize_dfa_ref(subset_construct_ref(*thompson_ref(ast), sigma))


def quotient_ref(l: Dfa, words) -> Dfa:
    """M^-1 L by a BFS over the reached state sets of l."""
    x = frozenset(l.step(l.start, w) for w in words)
    if not x:
        return canonical_dfa_ref(None, l.alphabet)
    k = len(l.alphabet)
    index = {x: 0}
    order = [x]
    rows = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for a in range(k):
            nxt = frozenset(l.delta[q][a] for q in cur)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
        i += 1
    accept = frozenset(i for i, st in enumerate(order) if st & l.accept)
    return canonicalize_dfa_ref(Dfa(len(order), 0, accept, tuple(rows), l.alphabet))


class EnumerationRef:
    """Every text over Sigma + '+*·()' in length-lex order, each parsed and
    canonicalised; a language is ranked by its first text."""

    def __init__(self, sigma):
        self.sigma = tuple(sigma)
        self.symbols = list(sigma) + list("+*" + CONCAT + "()")
        self.languages: list[Dfa] = []
        self.by_dfa: dict[Dfa, int] = {}
        self.scanned = 0
        self._gen = self.texts()

    def texts(self):
        frontier = [""]
        while True:
            for text in frontier:
                yield text
            frontier = [t + c for t in frontier for c in self.symbols]

    def extend_to(self, count: int, max_texts: int):
        while len(self.languages) <= count:
            if self.scanned >= max_texts:
                raise ResourceError(
                    f"regular-language enumeration ceiling hit after {max_texts} texts"
                )
            text = next(self._gen)
            self.scanned += 1
            dfa = canonical_dfa_ref(parse_regex(text, self.sigma), self.sigma)
            if dfa not in self.by_dfa:
                self.by_dfa[dfa] = len(self.languages)
                self.languages.append(dfa)
