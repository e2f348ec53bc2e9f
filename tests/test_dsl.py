import importlib.util
import itertools
import random

import pytest

from narayana_lab import dsl, lambdaring
from narayana_lab.dsl import (
    ATOM_VALUES,
    AlphaTerm,
    BasisApp,
    DslError,
    PrincipalHL,
    QUERY_CAP,
    _value,
    alphabet_of,
    eval_text,
    parse,
    render,
)
from narayana_lab.cli import main
from narayana_lab.lambdaring import Alphabet, VALUE_Q, h_of, hall_littlewood_principal
from narayana_lab.poly import PolyQQ

from dsl_oracle import oracle_alphabet_of, oracle_parse
from fuzzers import dsl_renders, fuzz_dsl_roundtrip

Q = PolyQQ.var_q()


def test_parse_shapes():
    assert parse("h3[4]") == BasisApp("h", 3, None, (AlphaTerm(1, None, 4),))
    assert parse("h2[3 - 3*q]") == BasisApp(
        "h", 2, None, (AlphaTerm(1, None, 3), AlphaTerm(-1, 3, "q"))
    )
    assert parse("P{3,4}") == PrincipalHL(3, 4)
    assert parse("s{3,1,1}[q]").partition == (3, 1, 1)
    assert parse("  h1 [ 2 + q2 ] ") == parse("h1[2+q2]")


def test_eval_examples():
    assert str(eval_text("h3[4]")) == "20"
    assert str(eval_text("p2[q]")) == "q^2"
    assert str(eval_text("P{3,4}")) == "4*q^2 - 20*q + 20"
    assert str(eval_text("e3[q]")) == "0"
    assert str(eval_text("m{2,1}[3]")) == "6"
    assert str(eval_text("h2[Q]")) == "q^2 - 2*q + 1"
    assert str(eval_text("h2[1 - Q]")) == "q"


def test_alphabet_shapes():
    terms = parse("h2[3 - 3*q]").alpha
    assert alphabet_of(terms) == Alphabet(constant=3, atoms=((-3, VALUE_Q),))
    terms = parse("h1[2 - 1 + q]").alpha
    assert alphabet_of(terms).constant == 1


def test_negative_corpus_positions():
    corpus = {
        "h2[Q": 4,
        "": 0,
        "x3[1]": 0,
        "h[1]": 1,
        "s{1,2}[q]": 0,
        "m{2}[q]": 0,
        "h2[0*q]": 3,
        "h2[]": 3,
        "h2[3 +]": 6,
        "P{3}": 3,
        "P{a,4}": 2,
        "h2[3]extra": 5,
        "h2[w]": 3,
        "h2(3)": 2,
        "h2[3!]": 4,
        "h2[²]": 3,
        "h²[q]": 1,
        "h2[٣]": 3,
    }
    for text, offset in corpus.items():
        with pytest.raises(DslError) as info:
            parse(text)
        assert info.value.position == offset, (text, info.value)
        assert info.value.expected


def test_lexer_error_corpus_is_pinned():
    # Non-ASCII letters lex as words, so the parser, not the lexer, reports them.
    corpus = {
        "h2[é]": (3, ("one of q/Q/q2/Q2", "a number")),
        "é2[q]": (0, ("one of h/e/p/s/m", "'P'")),
        "hé[q]": (1, ("index digits",)),
        "h2[q] x": (6, ("end",)),
    }
    for text, (offset, expected) in corpus.items():
        with pytest.raises(DslError) as info:
            parse(text)
        assert (info.value.position, info.value.expected) == (offset, expected), text
    q = BasisApp("h", 2, None, (AlphaTerm(1, None, "q"),))
    assert parse("h2[ q]") == q
    assert parse("h2[q]\t\n") == q


def test_a_lexical_error_is_reported_before_a_syntax_error():
    digits = ("at most 2 digits (the query cap is 30)",)
    corpus = {
        # The syntax error at x comes first in the text; the lexical one wins.
        "x2[q]²": (5, ("a letter", "a digit", "punctuation"), "'²'"),
        "h2[+ 100*q]": (5, digits, "3 digits"),
        "P{100,2}": (2, digits, "3 digits"),
        "s{3,100}[q]": (4, digits, "3 digits"),
        "h123[q]": (1, digits, "3 digits"),
        # é is a letter, so it lexes as a word and the parser refuses it.
        "h2[q é]": (5, ("']'",), "'é'"),
        # Offsets count characters: é is two bytes in UTF-8.
        "h2[é]²": (5, ("a letter", "a digit", "punctuation"), "'²'"),
    }
    for text, want in corpus.items():
        with pytest.raises(DslError) as info:
            parse(text)
        assert (info.value.position, info.value.expected, info.value.found) == want, text


def _outcome(parser, text: str):
    """A parser's tree, with its node types, or its error."""
    try:
        tree = parser(text)
    except DslError as exc:
        return ("error", exc.position, exc.expected, exc.found)
    return tree, repr(tree)


def test_parse_matches_the_oracle_parser_on_renders_and_their_edits():
    # Renders of numbers up to 9 and up to 99, so that one inserted digit
    # makes a number or an index one digit too long.
    alphabet = "[]{},+-*0123456789 \tqQhepsmPé²٣"
    rng = random.Random(25)
    inputs = 0
    for top in (9, 99):
        for _, text in dsl_renders(1000, seed=top, top=top):
            edits = [text]
            for _ in range(10):
                k = rng.randrange(len(text) + 1)
                op = rng.randrange(3) if k < len(text) else 0
                if op == 0:
                    edits.append(text[:k] + rng.choice(alphabet) + text[k:])
                elif op == 1:
                    edits.append(text[:k] + text[k + 1:])
                else:
                    edits.append(text[:k] + rng.choice(alphabet) + text[k + 1:])
            for edit in edits:
                assert _outcome(parse, edit) == _outcome(oracle_parse, edit), edit
            inputs += len(edits)
    assert inputs == 22_000


def test_alphabet_of_equals_the_alphabet_on_every_small_point():
    rng = random.Random(7)
    names = list(ATOM_VALUES)
    points = 0
    for constant, *weights in itertools.product(range(-2, 3), repeat=5):
        terms = [AlphaTerm(1 if constant >= 0 else -1, None, abs(constant))]
        for name, w in zip(names, weights):
            if w:
                terms.append(AlphaTerm(1 if w > 0 else -1, abs(w) if abs(w) > 1 else None, name))
            else:
                # Weight 0 as two terms that cancel.
                terms += [AlphaTerm(1, 2, name), AlphaTerm(-1, 2, name)]
        rng.shuffle(terms)
        terms = tuple(terms)
        want = Alphabet(constant, tuple((w, ATOM_VALUES[n]) for n, w in zip(names, weights)))
        got = alphabet_of(terms)
        assert got == want and hash(got) == hash(want), terms
        assert got == oracle_alphabet_of(terms)
        points += 1
    assert points == 3125


def test_the_atom_order_is_derived_from_the_alphabet_sort_key(monkeypatch):
    def order(module):
        return [name for name, _ in module._ATOM_ORDER]

    def sort_key_order():
        key = lambdaring._poly_sort_key
        return sorted(ATOM_VALUES, key=lambda name: key((1, ATOM_VALUES[name])))

    assert order(dsl) == sort_key_order()
    # Under another sort key, a fresh copy of the module takes another order.
    monkeypatch.setattr(
        lambdaring, "_poly_sort_key", lambda cv: sorted(cv[1].items(), reverse=True)
    )
    spec = importlib.util.spec_from_file_location("narayana_lab._dsl_copy", dsl.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    assert order(copy) == sort_key_order() != order(dsl)


def test_eval_text_calls_parse_and_evaluate_by_their_module_names(monkeypatch):
    # The benchmark's tracer counts dsl.parse and dsl.evaluate by rebinding them.
    calls = {"parse": 0, "evaluate": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dsl, "parse", counting("parse", dsl.parse))
    monkeypatch.setattr(dsl, "evaluate", counting("evaluate", dsl.evaluate))
    assert eval_text("h2[q + 1]") == h_of(2, Alphabet(1, ((1, VALUE_Q),)))
    assert calls == {"parse": 1, "evaluate": 1}


def test_eval_domain_errors_propagate():
    with pytest.raises(ValueError):
        eval_text("p0[q]")


def test_roundtrip_fuzz():
    assert fuzz_dsl_roundtrip(cases=300, seed=5) == 300


def test_parser_adds_no_semantics():
    from narayana_lab.dsl import ATOM_VALUES

    rng = random.Random(31)
    labels = list(ATOM_VALUES)
    for _ in range(120):
        constant = rng.randint(0, 5)
        picks = [
            (rng.choice(labels), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 3))
        ]
        terms = [str(constant)] + [
            ("- " if coeff < 0 else "+ ") + f"{abs(coeff)}*{label}"
            for label, coeff in picks
        ]
        n = rng.randint(0, 6)
        text = f"h{n}[{' '.join(terms)}]"
        point = Alphabet(
            constant=constant,
            atoms=tuple((coeff, ATOM_VALUES[label]) for label, coeff in picks),
        )
        assert eval_text(text) == h_of(n, point), text


def test_render_canonical():
    expr = parse("h2[ 3-3*q ]")
    assert render(expr) == "h2[3 - 3*q]"
    assert parse(render(expr)) == expr
    assert render(parse("P{3,4}")) == "P{3,4}"
    assert render(parse("s{2,1}[q+Q2]")) == "s{2,1}[q + Q2]"


def test_query_cap_refuses_before_work():
    # Refused by size alone: e5000[3 - q] would run for minutes, h31[q] would not.
    refused = (
        "e5000[3 - q]", "h31[q]", "P{31,2}", "P{2,400}", "s{19,19}[q]", "m{31}[2]",
        "h2[31*q]", "e2[q - 31]", "p2[2*31]", "m{2}[31*1]",
    )
    for text in refused:
        with pytest.raises(ValueError, match=str(QUERY_CAP)):
            eval_text(text)
    # The bound itself is accepted.
    assert eval_text("P{30,30}") == hall_littlewood_principal(30, 30)
    assert eval_text("s{10,10,10}[q]") == 0
    assert eval_text("p30[q]") == Q**30
    assert eval_text("h2[30*q + 30]") == h_of(2, Alphabet(constant=30, atoms=((30, VALUE_Q),)))


def test_query_cap_bounds_the_merged_alphabet():
    # Each term is within the cap; their merged weight or constant is not.
    block = "30*q + 30*q2 + 30*Q + 30*Q2 + 30"
    for text in ("h2[30*q + 30*q]", "e2[20 + 20]", "h2[5*7]", f"e30[{' + '.join([block] * 10000)}]"):
        with pytest.raises(ValueError, match=str(QUERY_CAP)):
            eval_text(text)
    # Terms that cancel merge to a weight within the cap.
    assert eval_text("h2[40*q - 39*q + 30 - 31 + 1]") == h_of(2, Alphabet(atoms=((1, VALUE_Q),)))
    assert eval_text("h2[0 - 30*q - 30]") == h_of(2, Alphabet(constant=-30, atoms=((-30, VALUE_Q),)))


def test_long_literals_are_refused_before_conversion():
    # Past 4300 digits int() raises an error that is not a DslError.
    nines = "9" * 5000
    for text, offset in (
        (f"h2[{nines}]", 3),
        (f"h2[{nines}*q]", 3),
        (f"h2[q - 2*{nines}]", 9),
        (f"h{nines}[q]", 1),
        (f"P{{3,{nines}}}", 4),
        ("h2[007]", 3),
    ):
        with pytest.raises(DslError, match=str(QUERY_CAP)) as info:
            parse(text)
        assert info.value.position == offset, text
    assert parse("h30[99*q - 98*q]").alpha[0].mult == 99


def test_a_repeated_query_returns_the_memoized_value_and_its_text():
    first = eval_text("s{3,1}[2 + q - Q2]")
    text = str(first)
    again = eval_text("s{3,1}[2 + q - Q2]")
    assert again is first
    assert str(again) is text


def test_the_memo_is_keyed_on_the_point_not_the_text():
    _value.cache_clear()
    long_text = "h2[1 + 2*q - q" + " + q - q" * 999 + "]"
    assert len(parse(long_text).alpha) == 2001
    texts = ("h2[q + 1]", "h2[1 + q]", "h2[2*q - q + 1]", long_text)
    values = [eval_text(t) for t in texts]
    assert all(v is values[0] for v in values)
    info = _value.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 3, 1)


def test_a_refused_query_adds_no_entry():
    refused = ("h31[q]", "m{2}[q]", "p0[q]", "s{" + ",".join(["1"] * 13) + "}[q]")
    for text in refused:
        before = _value.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                eval_text(text)
        assert _value.cache_info().currsize == before, text


def test_memoized_answers_equal_cold_answers(capsys):
    texts = (
        "h5[2 + q - 2*Q2]", "h3[0 - 4]", "e4[1 + q + q2]", "e3[q - 2]", "p7[3 - q + 2*Q]",
        "p3[5]", "s{3,2,1}[q + Q2]", "s{2,2}[3]", "s{1,1,1,1}[2*q - 1]", "m{2,1}[4]",
        "P{3,4}", "P{12,9}",
    )
    warm = [eval_text(t) for t in texts]
    assert [eval_text(t) for t in texts] == warm
    _value.cache_clear()
    cold = [eval_text(t) for t in texts]
    assert cold == warm
    assert [str(v) for v in cold] == [str(v) for v in warm]
    for fmt in ("text", "csv", "json"):
        argv = ["hl", "--r", "7", "--n", "5", "--format", fmt]
        outputs = []
        for clear in (False, False, True):
            if clear:
                _value.cache_clear()
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] == outputs[0], fmt
