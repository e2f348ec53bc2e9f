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

parse reads a query in one scan: one findall of the token pattern gives the
token strings, and one flat LL(1) pass over them builds the tree.  A token is
told by its text, numbers and indexed names by one dict lookup each, so no
match object or offset is made on the way.  Offsets and the lexical checks
run only when the pass fails: the text is scanned again, and the first
lexical error in text order is raised if there is one, else the syntax error
at the failing token.  So a lexical error anywhere is reported before a
syntax error, and every DslError carries its exact offset.

evaluate refuses, with ValueError and before any work, an h/e/p index, an s/m
weight |mu|, an r or n of P, or the absolute value of the merged alphabet's
constant or of any merged atom weight above QUERY_CAP: the exact answers grow
so fast past it that one query could run for minutes.  parse refuses, with a
DslError at its offset, a number or index of more digits than QUERY_CAP has,
before converting it: int() itself refuses past 4300 digits with an error that
is not a DslError, and spends quadratic time below that.

alphabet_of adds up the weights by atom name: the four atoms have four
distinct values, none of them 0 or 1, so that is the merge Alphabet makes,
and it orders the atoms by an order taken once from lambdaring's sort key.
evaluate reads every value from one memo, _value, a functools.lru_cache of
2048 entries.  Its key is built after the caps and alphabet_of: the basis,
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
    _canonical,
    _poly_sort_key,
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
# (name, value) in the order of a canonical Alphabet's atoms.
_ATOM_ORDER = tuple(
    sorted(ATOM_VALUES.items(), key=lambda item: _poly_sort_key((1, item[1])))
)


class DslError(ValueError):
    """Lexical or syntax error, carrying a character offset and the expected tokens."""

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

# Builds a node without the named tuple's Python-level __new__: half the cost.
_new = tuple.__new__

_SYMBOLS = frozenset("[]{},+-*")

# One match per token, and findall returns the matched strings: a symbol, a
# run of ASCII digits, a letter with the ASCII digits after it, or any other
# character, which is refused.  \s is exactly str.isspace, and findall steps
# over it.  Digits are ASCII only: str.isdigit() also holds for '²', which
# int() refuses, and for '٣', which int() reads as 3.  [^\W\d_] holds every
# letter (str.isalpha) and a few other characters, such as '²', which are
# refused at their offset.
_TOKENS = re.compile(r"[\[\]{},+*-]|[0-9]+|[^\W\d_][0-9]*|\S")

# Every number the grammar takes, by its text: the ASCII digit strings of at
# most _DIGITS_CAP digits.  One lookup checks a token, its digit cap
# included, and converts it.
_NATS = {f"{n:0{w}}": n for w in range(1, _DIGITS_CAP + 1) for n in range(10**w)}
# The names of h, e and p with their index, the same way.
_INDEXED = {basis + digits: (basis, n) for basis in "hep" for digits, n in _NATS.items()}


def _digits_error(start: int, count: int) -> DslError:
    return DslError(
        start,
        (f"at most {_DIGITS_CAP} digits (the query cap is {QUERY_CAP})",),
        f"{count} digits",
    )


def _error(
    text: str, i: int, expected: tuple[str, ...], found: str | None = None, shift: int = 0
) -> DslError:
    """The error of a parse that stopped at token i.

    It is the first lexical error of the text, in text order, if there is one:
    a number or an index of more than _DIGITS_CAP digits, or a character that
    is no letter, ASCII digit or symbol.  Otherwise it is the parser's, at the
    offset of token i plus shift, and found describes token i unless given.
    """
    spans: list[tuple[int, str]] = []
    for m in _TOKENS.finditer(text):
        pos, token = m.start(), m[0]
        if "0" <= token < ":":  # a run of ASCII digits
            if len(token) > _DIGITS_CAP:
                return _digits_error(pos, len(token))
        elif token not in _SYMBOLS:
            if not token[0].isalpha():
                return DslError(pos, ("a letter", "a digit", "punctuation"), repr(token[0]))
            if len(token) > _DIGITS_CAP + 1:
                return _digits_error(pos + 1, len(token) - 1)
        spans.append((pos, token))
    if i == len(spans):
        return DslError(len(text), expected, "end of input" if found is None else found)
    pos, token = spans[i]
    return DslError(pos + shift, expected, repr(token) if found is None else found)


def parse(text: str) -> Expr:
    """Parse a query; errors carry the character offset and the expected tokens.

    One findall gives the token strings and one pass reads them; a token is
    told by its text alone, so no offset is kept.  Every failure goes through
    _error, which scans again for offsets and for a lexical error: a parse
    that succeeds has read only tokens that lex, so it needs neither.
    """
    toks = _TOKENS.findall(text)
    toks.append("")  # the end of input; every check below refuses it
    head = toks[0]
    if head == "P":
        if toks[1] != "{":
            raise _error(text, 1, ("'{'",))
        r = _NATS.get(toks[2])
        if r is None:
            raise _error(text, 2, ("nat",))
        if toks[3] != ",":
            raise _error(text, 3, ("','",))
        n = _NATS.get(toks[4])
        if n is None:
            raise _error(text, 4, ("nat",))
        if toks[5] != "}":
            raise _error(text, 5, ("'}'",))
        if len(toks) != 7:
            raise _error(text, 6, ("end",))
        return PrincipalHL(r, n)
    indexed = _INDEXED.get(head)
    if indexed is not None:
        basis, index = indexed
        partition = None
        i = 1
    elif head == "s" or head == "m":
        basis, index = head, None
        if toks[1] != "{":
            raise _error(text, 1, ("'{'",))
        part = _NATS.get(toks[2])
        if part is None:
            raise _error(text, 2, ("nat",))
        parts = [part]
        i = 3
        while toks[i] == ",":
            part = _NATS.get(toks[i + 1])
            if part is None:
                raise _error(text, i + 1, ("nat",))
            parts.append(part)
            i += 2
        if toks[i] != "}":
            raise _error(text, i, ("'}'",))
        i += 1
        partition = tuple(parts)
        for k in range(1, len(parts)):
            if parts[k] > parts[k - 1] or parts[k] < 1:
                raise _error(
                    text, 0, ("a weakly decreasing positive partition",), str(partition)
                )
        if parts[0] < 1:
            raise _error(text, 0, ("positive partition parts",), str(partition))
    elif not head[:1].isalpha():
        raise _error(text, 0, ("basis name", "'P'"))
    elif head in ("h", "e", "p"):
        raise _error(text, 0, ("index digits",), "end of name", shift=1)
    else:
        raise _error(text, 0, ("one of h/e/p/s/m", "'P'"))
    if toks[i] != "[":
        raise _error(text, i, ("'['",))
    i += 1
    terms: list[AlphaTerm] = []
    sign = 1
    while True:
        tok = toks[i]
        value = _NATS.get(tok)
        if value is None:
            if tok not in ATOM_VALUES:
                if tok[:1].isalpha():
                    raise _error(text, i, ("one of q/Q/q2/Q2", "a number"))
                raise _error(text, i, ("a number", "an atom"))
            terms.append(_new(AlphaTerm, (sign, None, tok)))
        elif toks[i + 1] == "*":
            if not value:
                raise _error(text, i, ("a nonzero multiplier",), "0")
            i += 2
            tok = toks[i]
            atom = _NATS.get(tok)
            if atom is None:
                if tok not in ATOM_VALUES:
                    raise _error(text, i, ("one of q/Q/q2/Q2", "a number"))
                atom = tok
            terms.append(_new(AlphaTerm, (sign, value, atom)))
        else:
            terms.append(_new(AlphaTerm, (sign, None, value)))
        i += 1
        tok = toks[i]
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            break
        i += 1
    if tok != "]":
        raise _error(text, i, ("']'",))
    if len(toks) != i + 2:
        raise _error(text, i + 1, ("end",))
    if basis == "m":
        for term in terms:
            if term.atom.__class__ is str:
                raise _error(
                    text, 0, ("a constant alphabet for m",), f"rank-1 atom {term.atom!r}"
                )
    return BasisApp(basis, index, partition, tuple(terms))


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
    """Collapse parsed alphabet terms into a specialization point.

    The four atoms have four distinct values, none of them 0 or 1, so adding
    up the weights by atom name merges equal values, and the atoms of nonzero
    weight in _ATOM_ORDER are the canonical Alphabet's.
    """
    constant = 0
    weights = dict.fromkeys(ATOM_VALUES, 0)
    for sign, mult, atom in terms:
        weight = sign if mult is None else sign * mult
        if isinstance(atom, int):
            constant += weight * atom
        else:
            weights[atom] += weight
    return _canonical(
        constant, tuple([(w, value) for name, value in _ATOM_ORDER if (w := weights[name])])
    )


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
    if abs(point.constant) > QUERY_CAP or any(abs(w) > QUERY_CAP for w, _ in point.atoms):
        raise ValueError(
            f"an alphabet weight or the constant exceeds the query cap {QUERY_CAP}"
        )
    return _value(expr.basis, expr.index if expr.partition is None else expr.partition, point)


# Bounded above the largest per-process working set of the benchmark
# workloads (1200 values for one query-distinct batch, 240 for the
# query-repeat pool), so it evicts nothing there.
@lru_cache(maxsize=2048)
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
