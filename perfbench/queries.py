"""Query streams for the query workloads, and an integer oracle that checks them.

The generator has a fixed mix. Every block of ``len(SLOTS)`` queries holds the
same slots, and each slot fixes the query kind and a narrow size band: the
index (or partition shape, or r and n) and the number of atoms, and whether
the atoms mix the two variables q and q2. The seed picks only the values
inside each band: which atoms, their signed weights, the constant and the
index within the band. So the cost of a stream or a pool is nearly the same
for every seed. The stream's heaviest slots, whose queries make up its
slowest 1%, go further: the queries that fill them are the same for every
seed, drawn once from a fixed generator, and the seed only shuffles them
among those slots' places. Drawn per seed, they moved the stream's p99 by
15% from seed to seed.

The oracle never touches the package. It specializes q and q2 to small
integers, so that every atom is an integer v, and recomputes each query with
integer series arithmetic:

    h_n     = [u^n] (1-u)^(-c) * prod (1 - v*u)^(-w)
    e_n     = [u^n] (1+u)^c    * prod (1 + v*u)^w
    p_n     = c + sum w * v^n
    s{mu}   = det [h_(mu_i - i + j)], expanded over permutations
    P{r,n}  = h_r[n - n*t] / (1 - t), with t = q
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import NamedTuple

# Atom values at a point (q, q2) = (x, y).
ATOMS = ("q", "Q", "q2", "Q2")
FAMILY = {"q": 0, "Q": 0, "q2": 1, "Q2": 1}
CHECK_POINTS = ((2, 3), (5, -2), (-1, 4))

# One block of the fixed mix. Fields: kind, then
#   h/e/p: (index lo, index hi, atom count, mixes q and q2)
#   s:     (length, smallest part, largest part, atom count, mixes q and q2)
#   P:     (r lo, r hi, n lo, n hi)
SLOTS = (
    ("h", (2, 6, 1, False)),
    ("h", (8, 11, 2, False)),
    ("h", (12, 15, 2, True)),
    ("h", (8, 11, 3, True)),
    ("h", (16, 20, 1, False)),  # heavy
    ("e", (2, 6, 2, False)),
    ("e", (8, 11, 1, False)),
    ("e", (14, 14, 2, True)),  # heavy, and the heaviest
    ("e", (6, 9, 3, True)),
    ("e", (16, 20, 1, False)),  # heavy
    ("p", (1, 8, 2, True)),
    ("p", (9, 14, 3, True)),
    ("p", (15, 20, 4, True)),
    ("p", (1, 20, 1, False)),
    ("s", (2, 1, 5, 1, False)),
    ("s", (2, 2, 6, 2, False)),
    ("s", (3, 2, 3, 2, True)),
    ("s", (3, 2, 4, 1, False)),
    ("s", (4, 1, 3, 2, False)),
    ("P", (2, 7, 1, 20)),
    ("P", (8, 11, 2, 20)),
    ("P", (12, 15, 2, 20)),
    ("P", (16, 20, 2, 20)),
    ("P", (2, 20, 2, 20)),
)
# The hot pool of the query-repeat workload has the same kinds and counts.
# The rest differs so that its cost, and above all its tail, is the same for
# every seed: each query is answered many times, so a seed's few slowest
# queries set op_p99_ms. Atom weights are +1 and constants 1..3 (see POOL):
# a negative weight truncates the series to a low degree and makes the
# polynomials, and so the determinants, far cheaper, and too few variables
# make s{3,3,3} vanish. The heaviest slot has one shape, s{3,3,3} over two
# atoms. And e_n is drawn from low indices: it recomputes a full series
# inverse on every call, memo or not, at a cost growing with the cube of n,
# which would make the workload measure series.inverse instead of the
# memo's read side.
POOL_SLOTS = (
    ("h", (2, 6, 1, False)),
    ("h", (8, 11, 2, False)),
    ("h", (12, 15, 2, True)),
    ("h", (8, 11, 3, True)),
    ("h", (16, 20, 1, False)),
    ("e", (2, 4, 2, False)),
    ("e", (3, 5, 1, False)),
    ("e", (4, 6, 2, True)),
    ("e", (2, 4, 3, True)),
    ("e", (3, 5, 1, False)),
    ("p", (1, 8, 2, True)),
    ("p", (9, 14, 3, True)),
    ("p", (15, 20, 4, True)),
    ("p", (1, 20, 1, False)),
    ("s", (2, 1, 5, 1, False)),
    ("s", (2, 2, 6, 2, False)),
    ("s", (3, 3, 3, 2, True)),
    ("s", (3, 2, 4, 1, False)),
    ("s", (4, 1, 3, 2, False)),
    ("P", (2, 7, 1, 20)),
    ("P", (8, 11, 2, 20)),
    ("P", (12, 15, 2, 20)),
    ("P", (16, 20, 2, 20)),
    ("P", (2, 20, 2, 20)),
)


class Mix(NamedTuple):
    """A block of slots, the atom weights and constants to draw from,
    whether no two queries may fill the same top h-series memo entry, and
    the slots filled with the same queries for every seed."""

    slots: tuple
    weights: tuple[int, ...]
    constants: tuple[int, int]
    fresh_memo: bool
    fixed: tuple[int, ...] = ()


STREAM = Mix(SLOTS, (-2, -1, 1, 2), (-3, 3), True, fixed=(4, 7, 9))
POOL = Mix(POOL_SLOTS, (1,), (1, 3), False)


# --------------------------------------------------------------------------
# generation
# --------------------------------------------------------------------------


def _alphabet(rng: random.Random, natoms: int, mixed: bool, mix: Mix):
    """(constant, ((atom, weight), ...)) with distinct atoms."""
    while True:
        atoms = rng.sample(ATOMS, natoms)
        families = {FAMILY[a] for a in atoms}
        if (len(families) == 2) == mixed:
            break
    weighted = tuple((a, rng.choice(mix.weights)) for a in atoms)
    return rng.randint(*mix.constants), weighted


def _partition(rng: random.Random, length: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(lo, hi) for _ in range(length)), reverse=True))


def _draw(rng: random.Random, kind: str, band: tuple, mix: Mix):
    if kind == "P":
        r_lo, r_hi, n_lo, n_hi = band
        return ("P", rng.randint(r_lo, r_hi), rng.randint(n_lo, n_hi))
    if kind == "s":
        length, lo, hi, natoms, mixed = band
        return ("s", _partition(rng, length, lo, hi), _alphabet(rng, natoms, mixed, mix))
    lo, hi, natoms, mixed = band
    return (kind, rng.randint(lo, hi), _alphabet(rng, natoms, mixed, mix))


def _alpha_key(alpha) -> tuple:
    constant, atoms = alpha
    return constant, tuple(sorted(atoms))


def _memo_key(spec):
    """The top (alphabet, order) entry of the package's h-series memo a query fills."""
    kind = spec[0]
    if kind == "P":
        _, r, n = spec
        return (n, (("q", -n),)), r
    if kind == "s":
        mu = spec[1]
        return _alpha_key(spec[2]), mu[0] + len(mu) - 1
    return _alpha_key(spec[2]), spec[1]


def render(spec) -> str:
    """Query text in the package's DSL."""
    kind = spec[0]
    if kind == "P":
        return f"P{{{spec[1]},{spec[2]}}}"
    head = f"s{{{','.join(map(str, spec[1]))}}}" if kind == "s" else f"{kind}{spec[1]}"
    constant, atoms = spec[2]
    terms = [(constant, "")] if constant else []
    terms += [(w, a) for a, w in atoms]
    # The grammar gives the first term no sign: lead with a positive term or 0.
    terms.sort(key=lambda t: t[0] < 0)
    pieces = [] if terms and terms[0][0] > 0 else ["0"]
    for w, atom in terms:
        mag = abs(w)
        body = str(mag) if not atom else (atom if mag == 1 else f"{mag}*{atom}")
        if pieces:
            pieces.append(("+ " if w > 0 else "- ") + body)
        else:
            pieces.append(body)
    return f"{head}[{' '.join(pieces)}]"


def _fresh(rng: random.Random, slot: tuple, mix: Mix, seen: set):
    """A spec for ``slot`` that repeats none in ``seen``; adds its keys there."""
    kind, band = slot
    for _ in range(10_000):
        spec = _draw(rng, kind, band, mix)
        keys = {render(spec)}
        if mix.fresh_memo and kind != "p":
            keys.add(_memo_key(spec))
        if not keys & seen:
            seen |= keys
            return spec
    raise RuntimeError(f"band {kind} {band} exhausted after {len(seen)} queries")


def generate(seed: int, count: int, mix: Mix = STREAM) -> list[tuple]:
    """``count`` distinct query specs in the fixed mix, drawn from ``seed``.

    With ``mix.fresh_memo`` no two queries share the top h-series memo entry
    they fill either, so in a fresh process each query's largest lookup misses.
    The places of the slots in ``mix.fixed`` get the same queries for every
    seed, in an order the seed picks.
    """
    rng = random.Random(f"perfbench:{seed}")
    fixed_rng = random.Random("perfbench:fixed")
    seen: set = set()
    width = len(mix.slots)
    queued = {}
    for i in mix.fixed:
        queued[i] = [_fresh(fixed_rng, mix.slots[i], mix, seen) for _ in range(i, count, width)]
        rng.shuffle(queued[i])
    return [
        queued[k % width].pop() if k % width in queued else _fresh(rng, mix.slots[k % width], mix, seen)
        for k in range(count)
    ]


# --------------------------------------------------------------------------
# integer oracle
# --------------------------------------------------------------------------


def _binom(a: int, k: int) -> int:
    """Binomial coefficient with an arbitrary integer top."""
    num = 1
    for i in range(k):
        num *= a - i
    return num // factorial(k)


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def _h_coeffs(constant: int, valued_atoms, n: int) -> list[int]:
    out = [_binom(constant + k - 1, k) for k in range(n + 1)]
    for w, v in valued_atoms:
        out = _mul(out, [_binom(w + k - 1, k) * v**k for k in range(n + 1)], n)
    return out


def _e_coeffs(constant: int, valued_atoms, n: int) -> list[int]:
    out = [_binom(constant, k) for k in range(n + 1)]
    for w, v in valued_atoms:
        out = _mul(out, [_binom(w, k) * v**k for k in range(n + 1)], n)
    return out


def _det(matrix: list[list[int]]) -> int:
    size = len(matrix)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
            if not term:
                break
        total += term
    return total


def expected_value(spec, x: int, y: int) -> int:
    """The query's value at q = x, q2 = y, by integer arithmetic alone."""
    kind = spec[0]
    if kind == "P":
        _, r, n = spec
        top = _h_coeffs(n, ((-n, x),), r)[r]
        quot, rem = divmod(top, 1 - x)
        if rem:
            raise ArithmeticError(f"oracle: {render(spec)} not divisible at q={x}")
        return quot
    values = {"q": x, "Q": 1 - x, "q2": y, "Q2": 1 - y}
    constant, atoms = spec[2]
    valued = tuple((w, values[a]) for a, w in atoms)
    if kind == "p":
        n = spec[1]
        return constant + sum(w * v**n for w, v in valued)
    if kind == "h":
        return _h_coeffs(constant, valued, spec[1])[spec[1]]
    if kind == "e":
        return _e_coeffs(constant, valued, spec[1])[spec[1]]
    mu = spec[1]
    length = len(mu)
    h = _h_coeffs(constant, valued, mu[0] + length - 1)
    return _det(
        [
            [h[k] if (k := mu[i] - i + j) >= 0 else 0 for j in range(length)]
            for i in range(length)
        ]
    )


def rendered_value(text: str, x: int, y: int):
    """Value of a rendered polynomial such as ``-3*q^2*q2 + q - 1`` at (x, y)."""
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError(f"malformed polynomial text {text!r}")
    total = Fraction(0)
    for i in range(0, len(tokens), 2):
        body = tokens[i]
        sign = 1
        if i:
            if tokens[i - 1] not in "+-" or len(tokens[i - 1]) != 1:
                raise ValueError(f"malformed polynomial text {text!r}")
            sign = 1 if tokens[i - 1] == "+" else -1
        elif body.startswith("-"):
            sign, body = -1, body[1:]
        term = Fraction(sign)
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            power = int(exp) if exp else 1
            if name == "q":
                term *= Fraction(x) ** power
            elif name == "q2":
                term *= Fraction(y) ** power
            elif exp:
                raise ValueError(f"malformed factor {factor!r} in {text!r}")
            else:
                term *= Fraction(name)
        total += term
    return total


def check(spec, text: str) -> bool:
    """True iff the rendered result agrees with the oracle at every check point."""
    try:
        return all(
            rendered_value(text, x, y) == expected_value(spec, x, y)
            for x, y in CHECK_POINTS
        )
    except (ValueError, ZeroDivisionError):
        return False


def digest(texts) -> str:
    """SHA-256 of the rendered results, one per line, in order."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()
