"""A small expression language for specialization queries.

Grammar (whitespace-insensitive, LL(1)):

    query := basis '[' alpha ']' | 'P' '{' nat ',' nat '}'
    basis := ('h'|'e'|'p') nat | ('s'|'m') '{' nat (',' nat)* '}'
    alpha := term (('+'|'-') term)*
    term  := [nat '*'] atom
    atom  := nat | 'q' | 'Q' | 'q2' | 'Q2'

A bare nat in alpha contributes to the integer constant; q / q2 are rank-1
atoms with values q / q2; Q / Q2 are rank-1 atoms with values 1-q / 1-q2
(writing `1 - 1*q` instead would wrongly make q itself rank-1).

evaluate refuses, with ValueError and before any work, an h/e/p index, an s/m
weight |mu|, an r or n of P, or the absolute value of the merged alphabet's
constant or of any merged atom weight above QUERY_CAP: the exact answers grow
so fast past it that one query could run for minutes.  The lexer refuses, with
a DslError at its offset, a number or index of more digits than QUERY_CAP has,
before converting it: int() itself refuses past 4300 digits with an error that
is not a DslError, and spends quadratic time below that.

evaluate reads every value from one memo, _value, a functools.lru_cache of
4096 entries.  Its key is built after the caps and alphabet_of: the basis,
the index or partition, and the canonical Alphabet, or (r, n) for P{r,n}.
So equal points written differently, such as h2[q + 1] and h2[1 + q], share
one entry, and every field of the key is bounded by QUERY_CAP.  The text and
its parse tree are not bounded: h2[q - q + q - ...] is a valid query of any
length, so a memo keyed on them would hold bytes without bound.  A query
that raises adds no entry.  The values are immutable and render once (see
poly), so a repeated query costs a parse, one Alphabet and one lookup.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .lambdaring import (
    Alphabet,
    VALUE_ONE_MINUS_Q,
    VALUE_ONE_MINUS_Q2,
    VALUE_Q,
    VALUE_Q2,
    e_of,
    h_of,
    hall_littlewood_principal,
    m_of_constant,
    p_of,
    s_of,
)
from .partitions import Partition
from .poly import PolyQQ

QUERY_CAP = 30
_DIGITS_CAP = len(str(QUERY_CAP))

ATOM_VALUES = {
    "q": VALUE_Q,
    "Q": VALUE_ONE_MINUS_Q,
    "q2": VALUE_Q2,
    "Q2": VALUE_ONE_MINUS_Q2,
}


class DslError(ValueError):
    """Lexical or syntax error, carrying a byte offset and the expected tokens."""

    def __init__(self, position: int, expected: tuple[str, ...], found: str):
        self.position = position
        self.expected = expected
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"at offset {position}: expected {want}, found {found}")


# The parse nodes are named tuples: the query path then loads neither
# dataclasses nor inspect.  Each kind has its own number of fields, so nodes
# of two kinds never compare equal.
class AlphaTerm(NamedTuple):
    sign: int  # +1 or -1
    mult: int | None  # explicit multiplier, or None when omitted
    atom: int | str  # integer constant or one of 'q', 'Q', 'q2', 'Q2'


class BasisApp(NamedTuple):
    basis: str  # 'h', 'e', 'p', 's' or 'm'
    index: int | None  # for h/e/p
    partition: tuple[int, ...] | None  # for s/m
    alpha: tuple[AlphaTerm, ...]


class PrincipalHL(NamedTuple):
    r: int
    n: int


Expr = BasisApp | PrincipalHL

_SYMBOLS = "[]{},+-*"

# A token is (kind, text, byte offset); kind is 'word', 'nat', one of the
# symbols, or 'end'.
_Token = tuple[str, str, int]
# One match per token: a symbol, a run of ASCII digits, a letter with the
# ASCII digits after it, or any other character, which is refused.  \s is
# exactly str.isspace, and finditer steps over it.  Digits are ASCII only:
# str.isdigit() also holds for '²', which int() refuses, and for '٣', which
# int() reads as 3.  [^\W\d_] holds every letter (str.isalpha) and a few
# other characters, such as '²', which are refused at their offset.
_TOKENS = re.compile(r"(?P<symbol>[\[\]{},+*-])|(?P<nat>[0-9]+)|(?P<word>[^\W\d_])[0-9]*|\S")


def _digits_error(start: int, count: int) -> DslError:
    return DslError(
        start,
        (f"at most {_DIGITS_CAP} digits (the query cap is {QUERY_CAP})",),
        f"{count} digits",
    )


def _lex(text: str) -> list[_Token]:
    out: list[_Token] = []
    for m in _TOKENS.finditer(text):
        kind, token, pos = m.lastgroup, m[0], m.start()
        if kind == "symbol":
            out.append((token, token, pos))
            continue
        if kind == "nat":
            if len(token) > _DIGITS_CAP:
                raise _digits_error(pos, len(token))
        elif kind is None or not token[0].isalpha():
            raise DslError(pos, ("a letter", "a digit", "punctuation"), repr(token[0]))
        elif len(token) > _DIGITS_CAP + 1:
            raise _digits_error(pos + 1, len(token) - 1)
        out.append((kind, token, pos))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def _fail(self, *expected: str):
        kind, text, pos = self.tokens[self.i]
        raise DslError(pos, expected, "end of input" if kind == "end" else repr(text))

    def take(self, kind: str) -> str:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            self._fail(f"'{kind}'" if kind in _SYMBOLS else kind)
        self.i += 1
        return tok[1]

    def nat(self) -> int:
        return int(self.take("nat"))

    def parse_query(self) -> Expr:
        kind, text, pos = self.tokens[self.i]
        if kind != "word":
            self._fail("basis name", "'P'")
        if text == "P":
            self.i += 1
            self.take("{")
            r = self.nat()
            self.take(",")
            n = self.nat()
            self.take("}")
            self.take("end")
            return PrincipalHL(r, n)
        head, digits = text[0], text[1:]
        if head in "hep":
            if not digits:
                raise DslError(pos + 1, ("index digits",), "end of name")
            self.i += 1
            index: int | None = int(digits)
            partition = None
        elif head in "sm" and not digits:
            self.i += 1
            partition = self.parse_partition(pos)
            index = None
        else:
            self._fail("one of h/e/p/s/m", "'P'")
        self.take("[")
        alpha = self.parse_alpha()
        self.take("]")
        self.take("end")
        expr = BasisApp(head, index, partition, alpha)
        if head == "m" and any(isinstance(t.atom, str) for t in alpha):
            bad = next(t for t in alpha if isinstance(t.atom, str))
            raise DslError(pos, ("a constant alphabet for m",), f"rank-1 atom {bad.atom!r}")
        return expr

    def parse_partition(self, pos: int) -> tuple[int, ...]:
        self.take("{")
        parts = [self.nat()]
        while self.tokens[self.i][0] == ",":
            self.i += 1
            parts.append(self.nat())
        self.take("}")
        for i in range(1, len(parts)):
            if parts[i] > parts[i - 1] or parts[i] < 1:
                raise DslError(
                    pos, ("a weakly decreasing positive partition",), str(tuple(parts))
                )
        if parts[0] < 1:
            raise DslError(pos, ("positive partition parts",), str(tuple(parts)))
        return tuple(parts)

    def parse_alpha(self) -> tuple[AlphaTerm, ...]:
        terms = [self.parse_term(1)]
        tokens = self.tokens
        while (kind := tokens[self.i][0]) in "+-":
            self.i += 1
            terms.append(self.parse_term(1 if kind == "+" else -1))
        return tuple(terms)

    def parse_term(self, sign: int) -> AlphaTerm:
        kind, text, pos = self.tokens[self.i]
        if kind == "nat":
            self.i += 1
            value = int(text)
            if self.tokens[self.i][0] == "*":
                self.i += 1
                if value == 0:
                    raise DslError(pos, ("a nonzero multiplier",), "0")
                return AlphaTerm(sign, value, self.parse_atom())
            return AlphaTerm(sign, None, value)
        if kind == "word":
            return AlphaTerm(sign, None, self.parse_atom())
        self._fail("a number", "an atom")

    def parse_atom(self) -> int | str:
        kind, text, _ = self.tokens[self.i]
        if kind == "nat":
            self.i += 1
            return int(text)
        if kind == "word" and text in ATOM_VALUES:
            self.i += 1
            return text
        self._fail("one of q/Q/q2/Q2", "a number")


def parse(text: str) -> Expr:
    """Parse a query; errors carry the byte offset and the expected tokens."""
    return _Parser(_lex(text)).parse_query()


def render(expr: Expr) -> str:
    """Canonical text for an expression; parse(render(e)) == e."""
    if isinstance(expr, PrincipalHL):
        return f"P{{{expr.r},{expr.n}}}"
    if expr.partition is not None:
        head = f"{expr.basis}{{{','.join(map(str, expr.partition))}}}"
    else:
        head = f"{expr.basis}{expr.index}"
    pieces: list[str] = []
    for i, term in enumerate(expr.alpha):
        body = str(term.atom) if term.mult is None else f"{term.mult}*{term.atom}"
        if i == 0:
            pieces.append(body)
        else:
            pieces.append(("+ " if term.sign > 0 else "- ") + body)
    return f"{head}[{' '.join(pieces)}]"


def alphabet_of(terms: tuple[AlphaTerm, ...]) -> Alphabet:
    """Collapse parsed alphabet terms into a specialization point."""
    constant = 0
    atoms: list[tuple[int, PolyQQ]] = []
    for term in terms:
        weight = term.sign * (term.mult if term.mult is not None else 1)
        if isinstance(term.atom, int):
            constant += weight * term.atom
        else:
            atoms.append((weight, ATOM_VALUES[term.atom]))
    return Alphabet(constant=constant, atoms=tuple(atoms))


def evaluate(expr: Expr) -> PolyQQ:
    """Evaluate a parsed query against the specialization engine."""
    if isinstance(expr, PrincipalHL):
        if max(expr.r, expr.n) > QUERY_CAP:
            raise ValueError(f"P{{r,n}} needs r and n at most {QUERY_CAP}")
        return _value("P", (expr.r, expr.n), None)
    size = expr.index if expr.partition is None else sum(expr.partition)
    if size > QUERY_CAP:
        raise ValueError(f"index or weight {size} exceeds the query cap {QUERY_CAP}")
    point = alphabet_of(expr.alpha)
    # The message omits the value: str() of a product of long literals can raise.
    if any(abs(v) > QUERY_CAP for v in (point.constant, *(w for w, _ in point.atoms))):
        raise ValueError(
            f"an alphabet weight or the constant exceeds the query cap {QUERY_CAP}"
        )
    return _value(expr.basis, expr.index if expr.partition is None else expr.partition, point)


# Bounded above the largest per-process working set of the benchmark
# workloads (1200 values for one query-distinct batch, 240 for the
# query-repeat pool), so it evicts nothing there.
@lru_cache(maxsize=4096)
def _value(basis: str, index: int | tuple[int, ...], point: Alphabet | None) -> PolyQQ:
    """The value of a query within the caps, by its canonical key (see the module docstring)."""
    if basis == "P":
        return hall_littlewood_principal(*index)
    if basis == "h":
        return h_of(index, point)
    if basis == "e":
        return e_of(index, point)
    if basis == "p":
        return p_of(index, point)
    mu = Partition(index)
    if basis == "s":
        return s_of(mu, point)
    if not point.is_constant:
        raise ValueError("m needs a pure-constant alphabet")
    return PolyQQ.const(m_of_constant(mu, point.constant))


def eval_text(text: str) -> PolyQQ:
    """Parse and evaluate in one step."""
    return evaluate(parse(text))
