"""The query parser and alphabet builder as they were before the one-scan front end.

A lexer of one match object per token and a recursive-descent parser of one
method call per token, kept as the differential oracle of ``dsl.parse``, and
``Alphabet(constant, atoms)`` as the oracle of ``dsl.alphabet_of``.  The
tests hold ``dsl.parse`` to give the same tree as ``oracle_parse``, or to
raise a ``DslError`` of the same ``(position, expected, found)``.
"""

from __future__ import annotations

import re

from narayana_lab.dsl import (
    ATOM_VALUES,
    QUERY_CAP,
    AlphaTerm,
    BasisApp,
    DslError,
    Expr,
    PrincipalHL,
)
from narayana_lab.lambdaring import Alphabet
from narayana_lab.poly import PolyQQ

_DIGITS_CAP = len(str(QUERY_CAP))

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


def oracle_parse(text: str) -> Expr:
    """Parse a query; errors carry the byte offset and the expected tokens."""
    return _Parser(_lex(text)).parse_query()


def oracle_alphabet_of(terms: tuple[AlphaTerm, ...]) -> Alphabet:
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
