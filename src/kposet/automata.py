"""Regular languages as a computable poset: parsing, canonical DFAs, decidable
inclusion, the quotient trace in one pass, and the canonical enumeration.

The expression language over an alphabet Sigma uses union '+', explicit
concatenation '·', postfix star '*', parentheses, and single-character
symbols; '()' is the empty-word expression and there is no implicit
concatenation. The evaluation map zeta is total: ill-formed text (including
the empty text) denotes the empty language rather than raising.

An expression is compiled through Glushkov's position automaton (one state
per symbol occurrence and no epsilon moves), determinised over sets of
positions. Canonical form is the minimal total DFA with states renumbered
breadth-first from the start over the alphabet in declared order, so two
DFAs accept the same language exactly when they are structurally equal.
That makes language identity a hash lookup, which the enumeration (eta)
uses to list each regular language exactly once. The elements of the
`reg:` poset are these canonical DFAs themselves: unranking indexes the
enumeration and ranking looks the DFA up in it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .errors import ConfigError, ResourceError, VerificationError

__all__ = [
    "RegexAst",
    "parse_regex",
    "Dfa",
    "to_canonical_dfa",
    "language_leq",
    "quotient_trace",
    "reg_rank",
    "reg_unrank",
    "canonical_regex",
    "EMPTY_EXPRESSION",
]

OPERATOR_CHARS = "+*·()"  # after Sigma, the `reg:` text order, which ranks depend on
CONCAT = "·"
EMPTY_EXPRESSION = "("  # designated ill-formed text for the empty language


# ----------------------------------------------------------------- parsing


class RegexAst(namedtuple("RegexAst", "op sym left right", defaults=(None, None, None))):
    """Tree over union/concat/star/symbol/empty-word: op is "sym", "cat",
    "alt", "star" or "eps"; sym the symbol; left and right the subtrees."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover
        return f"RegexAst({render_ast(self)!r})"


def _sym(c):
    return RegexAst("sym", sym=c)


_EPS = RegexAst("eps")


class _Parser:
    def __init__(self, text: str, sigma: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.sigma = set(sigma)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expr(self) -> RegexAst:
        node = self.term()
        while self.peek() == "+":
            self.pos += 1
            node = RegexAst("alt", left=node, right=self.term())
        return node

    def term(self) -> RegexAst:
        node = self.factor()
        while self.peek() == CONCAT:
            self.pos += 1
            node = RegexAst("cat", left=node, right=self.factor())
        return node

    def factor(self) -> RegexAst:
        node = self.base()
        while self.peek() == "*":
            self.pos += 1
            node = RegexAst("star", left=node)
        return node

    def base(self) -> RegexAst:
        c = self.peek()
        if c == "(":
            self.pos += 1
            if self.peek() == ")":
                self.pos += 1
                return _EPS
            node = self.expr()
            if self.peek() != ")":
                raise ValueError("missing )")
            self.pos += 1
            return node
        if c is not None and c in self.sigma:
            self.pos += 1
            return _sym(c)
        raise ValueError(f"unexpected {c!r}")


def parse_regex(text: str, sigma: Sequence[str]) -> RegexAst | None:
    """zeta's syntactic half: an AST for well-formed text, None (the empty
    language) for everything else. Never raises on bad text."""
    sigma = tuple(sigma)
    if set(sigma) & set(OPERATOR_CHARS):
        raise ConfigError("alphabet symbols collide with operator characters")
    if not set(text) <= set(sigma) | set(OPERATOR_CHARS):
        return None
    parser = _Parser(text, sigma)
    try:
        node = parser.expr()
    except ValueError:
        return None
    if parser.pos != len(text):
        return None
    return node


# -------------------------------------------------------------------- DFAs


class Dfa(namedtuple("Dfa", "n start accept delta alphabet canonical", defaults=(False,))):
    """Total DFA, delta[state][symbol index]; canonical instances are minimal
    with BFS state numbering, so canonical DFAs are language-equal iff equal
    as values."""

    __slots__ = ()

    def step(self, state: int, word: str) -> int:
        index = {c: i for i, c in enumerate(self.alphabet)}
        for c in word:
            if c not in index:
                raise ConfigError(f"symbol {c!r} outside alphabet {self.alphabet}")
            state = self.delta[state][index[c]]
        return state


def _positions_dfa(ast: RegexAst | None, alphabet: tuple[str, ...]) -> Dfa:
    """Glushkov's position automaton, determinised. Each symbol occurrence
    is a position (1, 2, ...) and position 0 is the start; one walk of the
    AST gives every node its (nullable, first, last) and every position its
    follow set, and a DFA state is a set of positions, accepting when it
    holds a last position (or the start, for a nullable expression). The
    automaton has no epsilon moves, so no closure is taken. None denotes
    the empty language."""
    sym_index = {c: i for i, c in enumerate(alphabet)}
    symbol = [None]  # symbol[p]: the symbol index of position p
    follow: list[set[int]] = [set()]

    def walk(node) -> tuple[bool, set[int], set[int]]:
        if node.op == "sym":
            symbol.append(sym_index[node.sym])
            follow.append(set())
            return False, {len(symbol) - 1}, {len(symbol) - 1}
        if node.op == "eps":
            return True, set(), set()
        nullable, first, last = walk(node.left)
        if node.op == "star":
            for p in last:
                follow[p] |= first
            return True, first, last
        nullable2, first2, last2 = walk(node.right)
        if node.op == "alt":
            return nullable or nullable2, first | first2, last | last2
        for p in last:  # "cat"
            follow[p] |= first2
        return (nullable and nullable2, first | first2 if nullable else first,
                last | last2 if nullable2 else last2)

    nullable, first, last = walk(ast) if ast is not None else (False, set(), set())
    follow[0] = first
    accepting = last | {0} if nullable else last
    return _powerset_dfa(
        frozenset([0]),
        lambda cur, a: frozenset(q for p in cur for q in follow[p] if symbol[q] == a),
        lambda st: not accepting.isdisjoint(st),
        alphabet,
    )


def _powerset_dfa(start, move, accepting, alphabet) -> Dfa:
    """The one breadth-first numbering: a walk over the states reachable
    from `start` (position sets of the position automaton, state sets of a
    quotient, blocks in canonicalisation), move(state, a) giving the
    successor on symbol index a. States are numbered in discovery order and
    a state is accepting when accepting(state) holds."""
    index = {start: 0}
    order = [start]
    rows = []
    for cur in order:  # grows while it is walked: the BFS queue
        row = []
        for a in range(len(alphabet)):
            nxt = move(cur, a)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    accept = frozenset(i for i, st in enumerate(order) if accepting(st))
    return Dfa(len(order), 0, accept, tuple(rows), tuple(alphabet))


def _canonical(d: Dfa) -> Dfa:
    """Moore partition refinement over the (already total) automaton, then
    the blocks reachable from the start block numbered breadth-first."""
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
    member = {b: q for q, b in enumerate(block)}  # any state of each block
    return _powerset_dfa(
        block[d.start],
        lambda b, a: block[d.delta[member[b]][a]],
        lambda b: member[b] in d.accept,
        d.alphabet,
    )._replace(canonical=True)


def to_canonical_dfa(ast: RegexAst | None, sigma: Sequence[str]) -> Dfa:
    """The position automaton, determinised, then the canonical form."""
    return _canonical(_positions_dfa(ast, tuple(sigma)))


def canonicalize_dfa(d: Dfa) -> Dfa:
    """The canonical DFA of d's language."""
    return _canonical(d)


def language_leq(l1: Dfa, l2: Dfa) -> bool:
    """L(l1) subseteq L(l2) by emptiness of l1 minus l2 on the product."""
    if l1.alphabet != l2.alphabet:
        raise ConfigError(f"alphabet mismatch: {l1.alphabet} vs {l2.alphabet}")
    k = len(l1.alphabet)
    seen = {(l1.start, l2.start)}
    stack = [(l1.start, l2.start)]
    while stack:
        p, q = stack.pop()
        if p in l1.accept and q not in l2.accept:
            return False
        for a in range(k):
            nxt = (l1.delta[p][a], l2.delta[q][a])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def _quotient_from(l: Dfa, reached: frozenset) -> Dfa:
    """The canonical language read from a set of states of l (none: the empty language)."""
    return canonicalize_dfa(_powerset_dfa(
        reached,
        lambda cur, a: frozenset(l.delta[q][a] for q in cur),
        lambda st: bool(st & l.accept),
        l.alphabet,
    ))


def quotient_trace(l: Dfa, words: Iterable[str]) -> list[tuple[int, Dfa]]:
    """The points (t, M_t^-1 L) where the value changes, t = 0 first, with M_t = words[:t+1]:
    the language read from the set of states that the words of M_t reach from the start. In
    one pass: the value grows under inclusion and is rebuilt only when a word reaches a new
    state, so there are at most l.n points (a new state need not change the language)."""
    reached, points = set(), []
    for t, w in enumerate(words):
        q = l.step(l.start, w)
        if q not in reached:
            reached.add(q)
            d = _quotient_from(l, frozenset(reached))
            if not points or points[-1][1] != d:
                points.append((t, d))
    return points


# -------------------------------------------------- canonical enumeration


class _Enumeration:
    """Append-only enumeration of regular languages, deduplicated by
    canonical DFA; shared per alphabet.

    The texts over Sigma + OPERATOR_CHARS are ordered length-lexicographically
    by `symbols`, and a language's rank comes from the first text denoting
    it. Only the empty text (the empty language, rank 0) and the well-formed
    texts are generated and canonicalised: every other text denotes the
    empty language again and cannot add one. A well-formed text is not
    canonicalised either when its `_normal_form` renders to a strictly
    earlier text: that text has the same language, so this one is never
    the first of it. The texts not canonicalised still count toward the
    `max_texts` ceiling, as if every text had been scanned."""

    def __init__(self, sigma: tuple[str, ...]):
        self.sigma = sigma
        self.symbols = list(sigma) + list(OPERATOR_CHARS)
        self.ranks = str.maketrans({c: chr(i) for i, c in enumerate(self.symbols)})
        self.languages: list[Dfa] = []
        self.by_dfa: dict[Dfa, int] = {}
        self._gen = self._texts()
        self._pending = next(self._gen)  # peeked, so a ceiling loses nothing

    def _texts(self):
        """(length-lex index, text) for the empty text and then for every
        well-formed text, in length-lex order over `symbols`."""
        k = len(self.symbols)
        n = len(self.sigma)
        plus, star, concat, open_, close = range(n, k)
        yield 0, ""
        length = 1
        while True:
            offset = (k ** length - 1) // (k - 1)  # texts shorter than length

            def extend(text, digits, operand, opened, depth):
                # the parser's state after `text`: an operand is expected,
                # the last character was '(' and the open-parenthesis depth.
                # A character is taken only when the shortest completion
                # after it fits, so a full-length text needs none: it parses.
                room = length - len(text)
                if room == 0:
                    yield offset + digits, text
                    return
                for i in range(k):
                    if operand:
                        if i < n:
                            state = (False, False, depth)
                        elif i == open_:
                            state = (True, True, depth + 1)
                        elif i == close and opened:
                            state = (False, False, depth - 1)
                        else:
                            continue
                    elif i == star:
                        state = (False, False, depth)
                    elif i == plus or i == concat:
                        state = (True, False, depth)
                    elif i == close and depth:
                        state = (False, False, depth - 1)
                    else:
                        continue
                    # shortest completion: close every '(', after an
                    # operand if one is due and ')' cannot supply it
                    if state[2] + (state[0] and not state[1]) < room:
                        yield from extend(text + self.symbols[i], digits * k + i, *state)

            yield from extend("", 0, True, False, 0)
            length += 1

    def _key(self, text: str) -> tuple[int, str]:
        """The length-lex position of a text in `symbols` order."""
        return len(text), text.translate(self.ranks)

    def _normal_form(self, node: RegexAst) -> RegexAst:
        """node rebuilt bottom-up by Kleene-algebra identities that keep its
        language: `_cat` drops the unit (), `_star` folds e** and ()*, and
        each union is flattened, its operands sorted by rendered text in
        `symbols` order with repeats dropped. `render_ast` then omits the
        parentheses that associativity makes redundant."""
        if node.op == "star":
            return _star(self._normal_form(node.left))
        if node.op == "cat":
            return _cat(self._normal_form(node.left), self._normal_form(node.right))
        if node.op != "alt":
            return node
        terms = {render_ast(t): t for side in (node.left, node.right)
                 for t in _terms(self._normal_form(side))}
        union = None
        for text in sorted(terms, key=lambda t: t.translate(self.ranks)):
            union = _alt(union, terms[text])
        return union

    def extend_to(self, count: int, max_texts: int):
        while len(self.languages) <= count:
            index, text = self._pending
            if index >= max_texts:
                raise ResourceError(
                    f"regular-language enumeration ceiling hit after {max_texts} texts"
                )
            self._pending = next(self._gen)
            ast = parse_regex(text, self.sigma)
            if ast is not None:
                ast = self._normal_form(ast)
                if self._key(render_ast(ast)) < self._key(text):
                    continue
            dfa = to_canonical_dfa(ast, self.sigma)
            if dfa not in self.by_dfa:
                self.by_dfa[dfa] = len(self.languages)
                self.languages.append(dfa)


_enumerations: dict[tuple[str, ...], _Enumeration] = {}

ENUMERATION_TEXT_CEILING = 400_000


def _enumeration_for(sigma: tuple[str, ...]) -> _Enumeration:
    if sigma not in _enumerations:
        _enumerations[sigma] = _Enumeration(sigma)
    return _enumerations[sigma]


def reg_unrank(k: int, sigma: Sequence[str]) -> Dfa:
    enum = _enumeration_for(tuple(sigma))
    enum.extend_to(k, ENUMERATION_TEXT_CEILING)
    return enum.languages[k]


def reg_rank(d: Dfa) -> int:
    enum = _enumeration_for(d.alphabet)
    if not d.canonical:
        d = canonicalize_dfa(d)
    while (rank := enum.by_dfa.get(d)) is None:
        enum.extend_to(len(enum.languages) + 64, ENUMERATION_TEXT_CEILING)
    return rank


# ----------------------------------------------------- regex reconstruction


def render_ast(node: RegexAst) -> str:
    if node.op == "sym":
        return node.sym
    if node.op == "eps":
        return "()"
    if node.op == "star":
        inner = render_ast(node.left)
        if node.left.op in ("sym", "eps"):
            return inner + "*"
        return "(" + inner + ")*"
    if node.op == "cat":
        parts = []
        for child in (node.left, node.right):
            text = render_ast(child)
            parts.append("(" + text + ")" if child.op == "alt" else text)
        return CONCAT.join(parts)
    if node.op == "alt":
        return render_ast(node.left) + "+" + render_ast(node.right)
    raise AssertionError(node.op)


def _alt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    return RegexAst("alt", left=a, right=b)


def _terms(node):
    """The operands of a union, nested unions flattened."""
    return _terms(node.left) + _terms(node.right) if node.op == "alt" else [node]


def _cat(a, b):
    if a is None or b is None:
        return None
    if a.op == "eps":
        return b
    if b.op == "eps":
        return a
    return RegexAst("cat", left=a, right=b)


def _star(a):
    if a is None or a.op == "eps":
        return _EPS
    if a.op == "star":
        return a
    return RegexAst("star", left=a)


def canonical_regex(d: Dfa) -> str:
    """An expression text for the language of a canonical DFA, by state
    elimination in ascending state order; round-trips through
    to_canonical_dfa back to the input (checked here)."""
    if not d.canonical:
        raise ConfigError("canonical_regex needs a canonical DFA")
    start, target = d.n, d.n + 1
    arcs: dict[tuple[int, int], RegexAst | None] = {}

    def add(i, j, ast):
        arcs[(i, j)] = _alt(arcs.get((i, j)), ast)

    for q in range(d.n):
        for a, c in enumerate(d.alphabet):
            add(q, d.delta[q][a], _sym(c))
    add(start, d.start, _EPS)
    for q in d.accept:
        add(q, target, _EPS)

    for q in range(d.n):  # ascending elimination order
        loop = arcs.pop((q, q), None)
        loop_star = _star(loop) if loop is not None else None
        ins = [(i, ast) for (i, j), ast in arcs.items() if j == q and i != q]
        outs = [(j, ast) for (i, j), ast in arcs.items() if i == q and j != q]
        for (i, _) in ins:
            arcs.pop((i, q))
        for (j, _) in outs:
            arcs.pop((q, j))
        for (i, ain) in ins:
            for (j, aout) in outs:
                mid = _cat(ain, aout) if loop_star is None else _cat(ain, _cat(loop_star, aout))
                add(i, j, mid)

    final = arcs.get((start, target))
    text = EMPTY_EXPRESSION if final is None else render_ast(final)
    back = to_canonical_dfa(parse_regex(text, d.alphabet), d.alphabet)
    if back != d:
        raise VerificationError(f"state elimination produced {text!r}, which does not round-trip")
    return text
