"""Registry of exactly verifiable identities with parameter schedules.

Every entry evaluates both sides of one identity at given parameters, all in
exact arithmetic; a case passes iff lhs - rhs is identically zero.  Schedules
are deterministic functions of (max_n, seed), so suite reports are
byte-reproducible.  Verification over finite schedules is evidence for the
statements with free real parameters, not a proof.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from json.encoder import encode_basestring_ascii
from operator import mul
from typing import Callable, Sequence

from .lambdaring import (
    Alphabet,
    VALUE_ONE_MINUS_Q,
    VALUE_Q,
    VALUE_Q2,
    e_of,
    h_of,
    hall_littlewood_principal,
    hook_schur_constant,
    sfraction,
    strinc_oracle,
)
from .partitions import (
    SUBSET_CAP,
    Partition,
    composition_multiplicity,
    decompositions,
    enumerate_partitions,
    iter_subsets,
)
from .poly import Coeff, PolyQQ, _as_poly, _sum_powers
from .rationals import frac_binomial, gen_binomial
from .sequences import (
    catalan,
    catalan_hsequence,
    jacobi11,
    large_narayana,
    large_narayana_row,
    narayana,
    narayana_hsequence,
    narayana_power_sum,
    narayana_row,
    narayana_schur,
    schroeder,
    type_b_w,
)
from .series import TruncSeries

SUITE_VERSION = "1"
DEFAULT_SEED = 1

DEEP_SCHEDULE_BOUND = 20  # recurrence/convolution identities always reach this
# The largest documented run: run_suite(max_n=30) takes 0.79-1.04 s (median
# 0.86 s, five fresh processes) from cold memos on one CPU of a shared 2-core
# host (Python 3.11.7); the grid identities (thm4, thm5) grow steeply past it.
VERIFY_MAX_N_CAP = 30
# A _box schedule's domain is its box at VERIFY_MAX_N_CAP.  Every other domain
# ends where its schedule ends there too, but lemma3-a's and lemma3-b's n may go
# to partitions.SUBSET_CAP (12), past the 8 where their schedule stops.
_CAP = VERIFY_MAX_N_CAP

_Q = VALUE_Q
_Q2 = VALUE_Q2
_OMQ = VALUE_ONE_MINUS_Q
_QM1 = _Q - 1
_Q2M1 = _Q2 - 1
_ONE = PolyQQ.one()

Params = dict[str, "int | Fraction"]
# Pairs (row_k, coefficients of I_k) of a sum over k of row_k * I_k, where a
# row is the int coefficients of a polynomial in q (a tuple, for
# poly._sum_powers) or its value at q = 2 (an int, for _at_two).
_Terms = list[tuple["tuple[int, ...] | int", list[int]]]


class UnknownIdentityError(ValueError):
    """Requested identity id is not registered."""


class ScheduleError(ValueError):
    """Parameters fall outside the identity's schedule."""


@dataclass(frozen=True)
class IdentityCase:
    """Outcome of checking one identity at one parameter choice."""

    id: str
    params: Params
    lhs: PolyQQ
    rhs: PolyQQ

    def __post_init__(self) -> None:
        # The sides are compared once, here: the report reads passed for the
        # status, the counts and the exit code.  It is an attribute, not a
        # field, so the fields and equality stay the four above; set in
        # __init__ it costs 8 bytes a case, where set later (a cached
        # property) it grew each instance dict by 64.
        object.__setattr__(self, "passed", self.lhs == self.rhs)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    schedule: Callable[[int, random.Random], list[Params]]
    evaluate: Callable[[Params], tuple[PolyQQ | Coeff, PolyQQ | Coeff]]
    # Bounds (lo, hi) per parameter; lo is None for a parameter unbounded below.
    domain: dict[str, tuple[int | None, int]]
    # Parameters that may be a Fraction; every other one must be an int.
    rational: tuple[str, ...] = ()
    # Parameters outside the domain that the evaluator reads; no other one is taken.
    optional: tuple[str, ...] = ()


REGISTRY: dict[str, Identity] = {}


def _register(
    id: str,
    description: str,
    schedule: Callable[[int, random.Random], list[Params]],
    domain: dict[str, tuple[int | None, int]] | None = None,
    rational: tuple[str, ...] = (),
    optional: tuple[str, ...] = (),
):
    # A _box schedule carries its domain; every other schedule states its own.
    domain = schedule.domain if domain is None else domain

    def deco(fn):
        REGISTRY[id] = Identity(id, description, schedule, fn, domain, rational, optional)
        return fn

    return deco


def check_identity(id: str, params: Params) -> IdentityCase:
    """Evaluate both sides of a registered identity at the given parameters."""
    try:
        ident = REGISTRY[id]
    except KeyError:
        raise UnknownIdentityError(f"unknown identity id {id!r}") from None
    for name, value in params.items():
        if name not in ident.domain and name not in ident.optional:
            raise ScheduleError(f"{id}: unknown parameter {name!r}")
        if type(value) is not int and not (type(value) is Fraction and name in ident.rational):
            raise ScheduleError(f"{id}: parameter {name}={value!r} is not an int")
    for name, (lo, hi) in ident.domain.items():
        if name not in params:
            raise ScheduleError(f"{id}: missing parameter {name!r}")
        value = params[name]
        if lo is not None and value < lo:
            raise ScheduleError(f"{id}: parameter {name}={value} below {lo}")
        if value > hi:
            raise ScheduleError(f"{id}: parameter {name}={value} above {hi}")
    lhs, rhs = ident.evaluate(params)
    return IdentityCase(id, dict(params), _as_poly(lhs), _as_poly(rhs))


def registered_ids() -> list[str]:
    return sorted(REGISTRY)


# --------------------------------------------------------------------------
# schedules
# --------------------------------------------------------------------------


def _max_n(max_n: int) -> int:
    return max_n


_deep = partial(max, DEEP_SCHEDULE_BOUND)


def _box(**axes: tuple[int, int | Callable[[int], int]]):
    """The schedule of every case in a box of parameter ranges, and its domain.

    Each axis is a range (lo, hi) of one parameter, where hi is an int or a
    function of max_n.  The schedule at max_n is every case of the box
    lo..hi(max_n), the last axis outermost.  The domain, which _register
    reads, is the same box at VERIFY_MAX_N_CAP: each parameter's upper bound
    is the largest value its schedule reaches there, so check_identity
    refuses any case past what verify runs.  The domain's keys keep the axes'
    order, which sets the error check_identity reports first.
    """

    def box(max_n: int) -> list[tuple[int, int]]:
        return [(lo, hi(max_n) if callable(hi) else hi) for lo, hi in axes.values()]

    def schedule(max_n: int, rng: random.Random) -> list[Params]:
        # Cases that share thm4's and thm5's r, the length of their sums, run
        # together: first axis outermost, suite-20's median case took 5% longer.
        ranges = [range(lo, hi + 1) for lo, hi in reversed(box(max_n))]
        return [dict(zip(axes, case[::-1])) for case in product(*ranges)]

    schedule.domain = dict(zip(axes, box(VERIFY_MAX_N_CAP)))
    return schedule


# Specialization points for the alphabet-valued identities: constants up to
# +-3, a rank-1 q, a rank-1 (1-q), and two-atom mixes of those.
ALPHABET_POOL: tuple[Alphabet, ...] = (
    Alphabet.of_constant(1),
    Alphabet.of_constant(-1),
    Alphabet.of_constant(2),
    Alphabet.of_constant(-2),
    Alphabet.of_constant(3),
    Alphabet.of_constant(-3),
    Alphabet.rank_one(_Q),
    Alphabet.rank_one(_OMQ),
    Alphabet(atoms=((1, _Q), (1, _OMQ))),
    Alphabet(atoms=((1, _Q), (-1, _OMQ))),
    Alphabet(atoms=((2, _Q), (1, _OMQ))),
    Alphabet(atoms=((-1, _Q), (2, _OMQ))),
)


# --------------------------------------------------------------------------
# generating function and closed-form corollaries
# --------------------------------------------------------------------------


def _sched_gf(max_n: int, rng: random.Random) -> list[Params]:
    return [{"order": max_n, "k": k} for k in range(max_n + 1)]


@_register(
    "gf-quadratic",
    "u^k coefficients of q*u*C(u)^2 + (u*(1-q) - 1)*C(u) + 1 all vanish",
    _sched_gf,
    domain={"order": (1, _CAP), "k": (0, _CAP)},
)
def _gf_quadratic(p: Params):
    # [u^k] is q * sum_(i<k) C_i*C_(k-1-i) + (1-q)*C_(k-1) - C_k, and
    # 1 - C_0 at k = 0; the sum is one packed product per coefficient.
    order, k = p["order"], p["k"]
    if k > order:
        raise ScheduleError("coefficient index beyond truncation order")
    if k == 0:
        return _ONE - narayana(0), PolyQQ.zero()
    conv = _sum_powers([(narayana_row(i), list(narayana_row(k - 1 - i))) for i in range(k)], _Q)
    return _Q * conv + _OMQ * narayana(k - 1) - narayana(k), PolyQQ.zero()


@_register(
    "vanishing-sum",
    "alternating sum of C(r+1,m)*C(2r-m,r) over m = 0..r vanishes",
    _box(r=(1, _max_n)),
)
def _vanishing_sum(p: Params):
    r = p["r"]
    total = sum(
        (-1) ** m * gen_binomial(r + 1, m) * gen_binomial(2 * r - m, r)
        for m in range(r + 1)
    )
    return total, 0


def _sched_partial_sum(max_n: int, rng: random.Random) -> list[Params]:
    return [{"r": r, "k": k} for r in range(1, max_n + 1) for k in range(r + 1)]


@_register(
    "partial-sum",
    "tail of the alternating binomial sum telescopes to one signed term",
    _sched_partial_sum,
    domain={"r": (1, _CAP), "k": (0, _CAP)},
)
def _partial_sum(p: Params):
    r, k = p["r"], p["k"]
    lhs = sum(
        (-1) ** (m - 1) * gen_binomial(r + 1, m) * gen_binomial(2 * r - m, r)
        for m in range(k + 1, r + 1)
    )
    rhs = (-1) ** k * gen_binomial(r - 1, k) * gen_binomial(2 * r - k, r)
    return lhs, rhs


def _sched_pairs_m_le_n(max_n: int, rng: random.Random) -> list[Params]:
    return [{"m": m, "n": n} for n in range(max_n + 1) for m in range(n + 1)]


@_register(
    "interesting",
    "signed Catalan-binomial convolution collapses to C(m+n,2m)*Catalan(m)",
    _sched_pairs_m_le_n,
    domain={"m": (0, _CAP), "n": (0, _CAP)},
)
def _interesting(p: Params):
    m, n = p["m"], p["n"]
    lhs = sum(
        (-1) ** (n - i)
        * gen_binomial(n + i, 2 * i)
        * gen_binomial(i + 1, m + 1)
        * catalan(i)
        for i in range(m, n + 1)
    )
    rhs = gen_binomial(m + n, 2 * m) * catalan(m)
    return lhs, rhs


@_register(
    "chu-vandermonde-variant",
    "signed double-binomial sum over i = m..n equals C(n,m)",
    _sched_pairs_m_le_n,
    domain={"m": (0, _CAP), "n": (0, _CAP)},
)
def _chu_vandermonde(p: Params):
    m, n = p["m"], p["n"]
    lhs = sum(
        (-1) ** (n - i) * gen_binomial(n + i, i - m) * gen_binomial(n, i)
        for i in range(m, n + 1)
    )
    return lhs, gen_binomial(n, m)


@_register(
    "catalan-ratio",
    "(r+2)*Catalan(r+1) = 2*(2r+1)*Catalan(r)",
    _box(r=(0, _max_n)),
)
def _catalan_ratio(p: Params):
    r = p["r"]
    return (r + 2) * catalan(r + 1), 2 * (2 * r + 1) * catalan(r)


@_register(
    "touchard",
    "Catalan(r) as a power-of-two weighted sum of earlier Catalan numbers",
    _box(r=(1, _max_n)),
)
def _touchard(p: Params):
    r = p["r"]
    total = 0
    for m in range(r // 2 + 1):
        b = gen_binomial(r - 1, 2 * m)
        if b:
            total += 2 ** (r - 2 * m - 1) * b * catalan(m)
    return total, catalan(r)


# --------------------------------------------------------------------------
# specialization engine results
# --------------------------------------------------------------------------


@_register(
    "thm1",
    "series route and double-binomial closed form of the principal one-row "
    "Hall-Littlewood value agree",
    _box(r=(1, _max_n), n=(1, _max_n)),
)
def _thm1(p: Params):
    r, n = p["r"], p["n"]
    point = Alphabet(constant=n, atoms=((-n, _Q),))
    return h_of(r, point).divexact(_OMQ), hall_littlewood_principal(r, n)


@_register(
    "thm2",
    "(r+1) * C_r(1-q) equals the principal Hall-Littlewood value at r+1 ones",
    _box(r=(1, _max_n)),
)
def _thm2(p: Params):
    r = p["r"]
    lhs = narayana(r).subst_q(_OMQ) * (r + 1)
    return lhs, hall_littlewood_principal(r, r + 1)


def _sched_pieri(max_n: int, rng: random.Random) -> list[Params]:
    top = min(max_n, 5)
    return [
        {"a": a, "b": b, "c": c}
        for a in range(1, top + 1)
        for b in range(1, top + 1)
        for c in (-3, -1, 0, 1, 2, 6)
    ]


@_register(
    "pieri-hook",
    "h_a * e_b at a constant splits into the two adjacent hook Schur values",
    _sched_pieri,
    domain={"a": (1, 5), "b": (1, 5), "c": (None, 6)},
)
def _pieri_hook(p: Params):
    a, b, c = p["a"], p["b"], p["c"]
    point = Alphabet.of_constant(c)
    lhs = h_of(a, point) * e_of(b, point)
    rhs = hook_schur_constant(a, b, c) + hook_schur_constant(a + 1, b - 1, c)
    return lhs, rhs


@_register(
    "new-formula",
    "q*C_r(q) as a centralizer-weighted sum over partitions of r",
    _box(r=(1, _max_n)),
)
def _new_formula(p: Params):
    # The sum over partitions mu of r of w^(l(mu)-1)/z_mu * prod_i p_i^m_i, with
    # w = r+1 and p_i = 1-(1-q)^i, is h_r[w*X]/w at the power sums p_i.  Newton's
    # identity n*h_n = sum_i p_i*h_(n-i) (Macdonald I (2.11)) gives it from
    # Y_0 = 1, Y_n = n!*h_n[w*X] = w * sum_i (n-1)!/(n-i)! * p_i * Y_(n-i), in
    # ints.  In x = 1-q each p_i*Y is Y - x^i*Y, so the Y are rows in x and one
    # subst_q puts q back.
    r = p["r"]
    w = r + 1
    ys = [[1]]
    for n in range(1, r + 1):
        row = [0] * (n + 1)
        weight = 1  # (n-1)!/(n-i)!
        for i in range(1, n + 1):
            for k, c in enumerate(ys[n - i]):
                row[k] += weight * c
                row[k + i] -= weight * c
            weight *= n - i
        ys.append([w * c for c in row])
    den = math.factorial(r) * w
    rhs = PolyQQ.from_q_coefficients([Fraction(c, den) for c in ys[r]]).subst_q(_OMQ)
    return large_narayana(r), rhs


@_register(
    "odd-parts-schroeder",
    "small Schroeder number as a sum over partitions with all parts odd",
    _box(r=(1, _max_n)),
)
def _odd_parts_schroeder(p: Params):
    # The sum over partitions mu of r into odd parts of w^(l(mu)-1)/z_mu, with
    # w = 2r+2, is h_r[w*O]/w for the alphabet O with p_i = 1 at odd i and 0 at
    # even i.  By Newton's identity n*h_n = sum_i p_i*h_(n-i), as in
    # new-formula, Y_0 = 1 and Y_n = n!*h_n[w*O] = w * sum over odd i of
    # (n-1)!/(n-i)! * Y_(n-i), in ints.
    r = p["r"]
    w = 2 * r + 2
    ys = [1]
    for n in range(1, r + 1):
        total = 0
        weight = 1  # (n-1)!/(n-i)!
        for i in range(1, n + 1):
            if i % 2:
                total += weight * ys[n - i]
            weight *= n - i
        ys.append(w * total)
    return Fraction(ys[r], math.factorial(r) * w), schroeder("small", r)


def _hstar(r: int, a: Alphabet) -> PolyQQ:
    """Coefficient h*_r of the compositional inverse of t * H_t[a]."""
    order = r + 1
    f = TruncSeries(
        [PolyQQ.zero()] + [h_of(k, a) for k in range(order)], order=order
    )
    return f.reverse().coefficient(r + 1)


def _sched_lagrange(max_n: int, rng: random.Random) -> list[Params]:
    cases: list[Params] = []
    for r in range(1, min(max_n, 10) + 1):
        cases.append({"r": r, "form": 0, "a": rng.randrange(len(ALPHABET_POOL))})
        cases.append({"r": r, "form": 1})
    return cases


@_register(
    "lagrange-thm2",
    "series reversion: (r+1)*h*_r[A] = h_r[-(r+1)A], and h*_r at q-1 "
    "reproduces q*C_r at 1-q",
    _sched_lagrange,
    domain={"r": (1, 10), "form": (0, 1)},
    optional=("a",),
)
def _lagrange_thm2(p: Params):
    r, form = p["r"], p["form"]
    if form == 0:
        idx = p.get("a")
        if idx is None or not 0 <= idx < len(ALPHABET_POOL):
            raise ScheduleError(f"alphabet index {idx!r} out of schedule")
        a = ALPHABET_POOL[idx]
        return _hstar(r, a) * (r + 1), h_of(r, a.scaled(-(r + 1)))
    if "a" in p:
        raise ScheduleError("form 1 reads no alphabet index a")
    point = Alphabet(constant=-1, atoms=((1, _Q),))  # q - 1 with q of rank 1
    return _hstar(r, point), large_narayana(r).subst_q(_OMQ)


def _sched_lemma2(max_n: int, rng: random.Random) -> list[Params]:
    cases: list[Params] = []
    for n in range(1, min(max_n, 10) + 1):
        for z in (1, 2, 3):
            for _ in range(2):
                cases.append({"n": n, "z": z, "a": rng.randrange(len(ALPHABET_POOL))})
    return cases


@_register(
    "lemma2",
    "sum of h_k[-(z+k)A] h_{n-k}[(z+k)A] / (z+k) over k = 0..n vanishes",
    _sched_lemma2,
    domain={"n": (1, 10), "z": (1, 3), "a": (0, len(ALPHABET_POOL) - 1)},
)
def _lemma2(p: Params):
    n, z, a = p["n"], p["z"], ALPHABET_POOL[p["a"]]
    # The weights 1/(z+k) over one denominator: integer weights per term and
    # one Fraction product for the sum.
    den = math.lcm(*range(z, z + n + 1))
    total = PolyQQ.zero()
    for k in range(n + 1):
        term = h_of(k, a.scaled(-(z + k))) * h_of(n - k, a.scaled(z + k))
        total = total + term * (den // (z + k))
    return total * Fraction(1, den), PolyQQ.zero()


_ROT_Z_CHOICES = (1, 2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2))


def _sched_rot(max_n: int, rng: random.Random) -> list[Params]:
    cases: list[Params] = []
    for w in range(1, min(max_n, 6) + 1):
        for i in range(len(list(enumerate_partitions(w)))):
            cases.append({"w": w, "i": i, "z": rng.choice(_ROT_Z_CHOICES)})
    return cases


@_register(
    "rot",
    "signed split sum over ordered decompositions of a partition vanishes",
    _sched_rot,
    # i indexes the partitions of w: 11 at w = 6.
    domain={"w": (1, 6), "i": (0, 10), "z": (None, 3)},
    rational=("z",),
)
def _rot(p: Params):
    w, i, z = p["w"], p["i"], Fraction(p["z"])
    rhos = list(enumerate_partitions(w))
    if i >= len(rhos):
        raise ScheduleError(f"partition index {i} out of range for weight {w}")
    rho = rhos[i]
    total = Fraction(0)
    for mu, nu in decompositions(rho):
        if z + mu.weight == 0:
            raise ScheduleError("z + |mu| must not vanish so the weights are defined")
        total += (
            composition_multiplicity(mu)
            * composition_multiplicity(nu)
            * Fraction(1, z + mu.weight)
            * frac_binomial(-z - mu.weight, mu.length)
            * frac_binomial(z + mu.weight, nu.length)
        )
    return total, 0


_LEMMA3_X = (-4, 6)
_LEMMA3_Y = (-5, 5)
# x1..xn and y1..yn, for n up to the domain's bound.
_LEMMA3_OPTIONAL = tuple(f"{v}{i}" for i in range(1, SUBSET_CAP + 1) for v in "xy")


def _sched_lemma3(max_n: int, rng: random.Random) -> list[Params]:
    cases: list[Params] = []
    for n in range(2, min(max_n, 8) + 1):
        for _ in range(2):
            params: Params = {"n": n}
            for idx in range(1, n + 1):
                params[f"x{idx}"] = rng.randint(*_LEMMA3_X)
                params[f"y{idx}"] = rng.randint(*_LEMMA3_Y)
            cases.append(params)
    return cases


def _lemma3_sides(p: Params, full: bool) -> tuple[int, int]:
    n = p["n"]
    # check_identity took no name but n, x1..x12 and y1..y12.
    if len(p) != 2 * n + 1 or any(f"{v}{i}" not in p for i in range(1, n + 1) for v in "xy"):
        raise ScheduleError(f"parameters x1..x{n} and y1..y{n} are required, and no other")
    xs = [p[f"x{i}"] for i in range(1, n + 1)]
    ys = [p[f"y{i}"] for i in range(1, n + 1)]
    # The schedule's ranges, refused past before any work: a sum over 2^n
    # subsets of n-fold products has no other bound on the size of its ints.
    (x_lo, x_hi), (y_lo, y_hi) = _LEMMA3_X, _LEMMA3_Y
    if any(not x_lo <= x <= x_hi for x in xs) or any(not y_lo <= y <= y_hi for y in ys):
        raise ScheduleError(f"x_i must lie in {x_lo}..{x_hi} and y_i in {y_lo}..{y_hi}")
    top = n if full else n - 1
    total = 0
    for subset in iter_subsets(xs):
        s = sum(subset)
        prod = 1
        for i in range(top):
            prod *= s + ys[i]
        total += (-1) ** (n - len(subset)) * prod
    if full:
        rhs = 1
        for x in xs:
            rhs *= x
        return total, math.factorial(n) * rhs
    return total, 0


@_register(
    "lemma3-a",
    "alternating subset sum of full products (|A|+y_i) equals n! * prod(x)",
    _sched_lemma3,
    domain={"n": (1, SUBSET_CAP)},
    optional=_LEMMA3_OPTIONAL,
)
def _lemma3_a(p: Params):
    return _lemma3_sides(p, full=True)


@_register(
    "lemma3-b",
    "alternating subset sum of the first n-1 products (|A|+y_i) vanishes",
    _sched_lemma3,
    domain={"n": (1, SUBSET_CAP)},
    optional=_LEMMA3_OPTIONAL,
)
def _lemma3_b(p: Params):
    return _lemma3_sides(p, full=False)


def _sched_rothe(max_n: int, rng: random.Random) -> list[Params]:
    cases: list[Params] = []
    for n in range(max_n + 1):
        for x in (-3, -2, -1, n + 1, n + 2):
            cases.append({"n": n, "x": x})
    return cases


@_register(
    "rothe",
    "self-dual convolution with weights x/(x-k) at y = -x",
    _sched_rothe,
    domain={"n": (0, _CAP), "x": (None, _CAP + 2)},
)
def _rothe(p: Params):
    n, x = p["n"], p["x"]
    if any(x == k for k in range(n + 1)):
        raise ScheduleError("x must avoid 0..n so the weights are defined")
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            Fraction(x, x - k)
            * gen_binomial(x - k, k)
            * gen_binomial(-x + k, n - k)
        )
    return total, 1 if n == 0 else 0


# --------------------------------------------------------------------------
# recurrence generalizations
# --------------------------------------------------------------------------


def _at_two(terms: _Terms, base: int) -> int:
    """sum_k row_k * I_k at q = 2, where the base of I_k (1-q or q-1) is -1 or 1."""
    return sum(row * (sum(coeffs[::2]) + base * sum(coeffs[1::2])) for row, coeffs in terms)


@_register(
    "koshy",
    "Catalan numbers satisfy the alternating binomial recurrence",
    _box(n=(1, _deep)),
)
def _koshy(p: Params):
    n = p["n"]
    rhs = sum(
        (-1) ** (k - 1) * gen_binomial(n - k + 1, k) * catalan(n - k)
        for k in range(1, n + 1)
    )
    return catalan(n), rhs


def _thm3_terms(n: int, large: Callable) -> _Terms:
    """thm3's rhs: pairs (large(n-k), coefficients of I_k in q-1), k = 1..n.

    large(j) is the row of q*C_j(q) or its value.  With e = k-m-1, the paper's
    m-th term (-1)^m*C(k-1,m)*C(n-m,k)*(1-q)^e is
    (-1)^(k-1)*C(k-1,e)*C(n-k+1+e,k)*(q-1)^e, so the sign goes into the
    coefficients.  At k = n only m = 0 is left, with row large(0) = 1.
    """
    terms = [(large(0), [0] * (n - 1) + [(-1) ** (n - 1)])]
    for k in range(1, n):
        sign = 1 if k % 2 else -1
        coeffs = [sign * math.comb(k - 1, e) * math.comb(n - k + 1 + e, k) for e in range(k)]
        terms.append((large(n - k), coeffs))
    return terms


@_register(
    "thm3",
    "Narayana polynomials satisfy the alternating (1-q)-weighted recurrence",
    _box(n=(1, _deep)),
)
def _thm3(p: Params):
    n = p["n"]
    return narayana(n), _sum_powers(_thm3_terms(n, large_narayana_row), _QM1)


@_register(
    "thm3-schroeder",
    "small Schroeder numbers satisfy the signed binomial recurrence",
    _box(n=(1, _deep)),
)
def _thm3_schroeder(p: Params):
    n = p["n"]
    return schroeder("small", n), _at_two(_thm3_terms(n, partial(schroeder, "large")), 1)


def _sched_lemma4(max_n: int, rng: random.Random) -> list[Params]:
    cases: list[Params] = []
    for n in range(1, min(max_n, 10) + 1):
        for z in (1, 2, 3):
            for _ in range(2):
                cases.append(
                    {
                        "n": n,
                        "z": z,
                        "a": rng.randrange(len(ALPHABET_POOL)),
                        "b": rng.randrange(len(ALPHABET_POOL)),
                    }
                )
    return cases


@_register(
    "lemma4",
    "weighted convolution of h_k[-(z+k)A] with h_{n-k}[(z+k)A+B] telescopes "
    "to h_n[B]",
    _sched_lemma4,
    domain={
        "n": (1, 10),
        "z": (1, 3),
        "a": (0, len(ALPHABET_POOL) - 1),
        "b": (0, len(ALPHABET_POOL) - 1),
    },
)
def _lemma4(p: Params):
    n, z = p["n"], p["z"]
    a, b = ALPHABET_POOL[p["a"]], ALPHABET_POOL[p["b"]]
    # The weights z/(z+k) over one denominator, as in lemma2.
    den = math.lcm(*range(z, z + n + 1))
    total = PolyQQ.zero()
    for k in range(n + 1):
        term = h_of(k, a.scaled(-(z + k))) * h_of(n - k, a.scaled(z + k) + b)
        total = total + term * (den * z // (z + k))
    return total * Fraction(1, den), h_of(n, b)


@_register(
    "jonah",
    "binomial convolution of Catalan numbers equals C(n+1,r)",
    _box(n=(0, _deep), r=(0, _deep)),
)
def _jonah(p: Params):
    n, r = p["n"], p["r"]
    lhs = sum(
        gen_binomial(n - 2 * k, r - k) * catalan(k) for k in range(r + 1)
    )
    return lhs, gen_binomial(n + 1, r)


@_register(
    "jonah-alt",
    "binomial convolution of Catalan numbers from k = 1 equals C(n,r-1)",
    _box(n=(0, _deep), r=(1, _deep)),
)
def _jonah_alt(p: Params):
    n, r = p["n"], p["r"]
    lhs = sum(
        gen_binomial(n - 2 * k, r - k) * catalan(k) for k in range(1, r + 1)
    )
    return lhs, gen_binomial(n, r - 1)


def _binomial_products(s: int, a: int, b: int) -> list[int]:
    """C(s, m) * C(a-m, b) for m = 0..s, for s, b >= 0 and any int top a.

    Each entry is the one before times (s-m+1)/m, by C(s, m) =
    C(s, m-1)*(s-m+1)/m, and times (t-b)/t, by C(t-1, b) = C(t, b)*(t-b)/t
    with t = a-m+1, which holds for any int t != 0; the quotient is exact.  At
    t = 0 the entry is taken whole (gen_binomial(-1, b) = (-1)^b).
    """
    c = gen_binomial(a, b)
    out = [c]
    for m in range(1, s + 1):
        t = a - m + 1
        if t:
            c = c * (s - m + 1) * (t - b) // (m * t)
        else:
            c = math.comb(s, m) * gen_binomial(-1, b)
        out.append(c)
    return out


def _thm4_sides(n: int, r: int, small: Callable, large: Callable) -> tuple[_Terms, list[int]]:
    """thm4's lhs as pairs (row, coefficients of I_k in q-1), and its rhs's
    coefficients in q-1.  The rows are small(r), the row of C_r(q), then
    large(r-k), that of q*C_(r-k)(q) for k = 1..r-1, or their values.  The
    coefficients are C(k-1, m)*C(n-2r+2k-m, k) for m = 0..k-1 and
    C(r-1, m)*C(n-m, r-1) for m = 0..r-1, whose tops can be negative."""
    lhs = [(small(r), [1])]
    for k in range(1, r):
        lhs.append((large(r - k), _binomial_products(k - 1, n - 2 * r + 2 * k, k)))
    return lhs, _binomial_products(r - 1, n, r - 1)


@_register(
    "thm4",
    "Narayana analogue of the Catalan convolution: weighted double-binomial "
    "sums agree for all n, r",
    _box(n=(1, _deep), r=(1, _deep)),
)
def _thm4(p: Params):
    lhs, rhs = _thm4_sides(p["n"], p["r"], narayana_row, large_narayana_row)
    return _sum_powers(lhs, _QM1), _sum_powers([((1,), rhs)], _QM1)


@_register(
    "thm4-schroeder",
    "small-Schroeder corollary (q = 2) of the weighted convolution",
    _box(n=(1, _deep), r=(1, _deep)),
)
def _thm4_schroeder(p: Params):
    small, large = partial(schroeder, "small"), partial(schroeder, "large")
    lhs, rhs = _thm4_sides(p["n"], p["r"], small, large)
    return _at_two(lhs, 1), sum(rhs)


def _thm5_terms(n: int, r: int, large: Callable) -> _Terms:
    """thm5's lhs as pairs (large(k), coefficients of I_k in 1-q), k = 0..r.

    large(k) is the row of q*C_k(q) or its value.  The coefficients are
    C(n-2k-m, r-k-m)*C(k+m, m) for m = 0..r-k.  Each is the one before times
    b/t, by C(t-1, b-1) = C(t, b)*b/t with t = n-2k-m+1 and b = r-k-m+1, which
    holds for any int t != 0, and times (k+m)/m, by C(k+m, m) =
    C(k+m-1, m-1)*(k+m)/m; the quotient is exact.  At t = 0 the entry is
    taken whole.
    """
    terms = []
    for k in range(r + 1):
        c = gen_binomial(n - 2 * k, r - k)
        coeffs = [c]
        for m in range(1, r - k + 1):
            t, b = n - 2 * k - m + 1, r - k - m + 1
            if t:
                c = c * b * (k + m) // (t * m)
            else:
                c = gen_binomial(-1, b - 1) * math.comb(k + m, m)
            coeffs.append(c)
        terms.append((large(k), coeffs))
    return terms


@_register(
    "thm5",
    "large-Narayana convolution with (1-q)-weighted binomials equals C(n+1,r)",
    _box(n=(1, _deep), r=(1, _deep)),
)
def _thm5(p: Params):
    n, r = p["n"], p["r"]
    return _sum_powers(_thm5_terms(n, r, large_narayana_row), _OMQ), gen_binomial(n + 1, r)


@_register(
    "thm5-schroeder",
    "large-Schroeder corollary (q = 2) of the large-Narayana convolution",
    _box(n=(1, _deep), r=(1, _deep)),
)
def _thm5_schroeder(p: Params):
    n, r = p["n"], p["r"]
    return _at_two(_thm5_terms(n, r, partial(schroeder, "large")), -1), gen_binomial(n + 1, r)


# --------------------------------------------------------------------------
# transition between two deformation variables
# --------------------------------------------------------------------------


# thm6, thm6-spec-q1 and thm6-spec-q2 run one after another over every n, so
# the bound keeps every table of a run: each is built once.
@lru_cache(maxsize=VERIFY_MAX_N_CAP)
def _thm6_table(n: int) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """The t_ij of every T_k(x, y) = sum over i+j <= k of t_ij*x^i*y^j, thm6's
    weight of q*C_(n-k), k = 0..n, in factored form (b, ((a, g) for each k)).

    t_ij = a_i * b_j * g_(i+j) with a_i = C(n-k+i, i), b_j = C(n+1, j) and
    g_s = C(2k-s-1, k-s) (the top is -1 at k = 0), so the table of one n holds
    O(n^2) ints where its entries are O(n^3).  a_0 = b_0 = 1.
    """
    b = tuple(math.comb(n + 1, j) for j in range(n + 1))
    return b, tuple(
        (
            tuple(math.comb(n - k + i, i) for i in range(k + 1)),
            tuple(gen_binomial(2 * k - s - 1, k - s) for s in range(k + 1)),
        )
        for k in range(n + 1)
    )


@_register(
    "thm6",
    "bivariate transition: (n+1) q'*C_n(q') expands over q*C_k(q) with "
    "(1-q), (q'-1) weights",
    _box(n=(1, _max_n)),
)
def _thm6(p: Params):
    # Grouped by the power of y = q'-1, the sum is sum_j y^j * A_j(q), where
    # A_j = b_j * sum_k q*C_(n-k)(q) * sum_i a_i*g_(i+j) * (1-q)^i is one
    # convolution over T_k's slice j, scaled once.  A_j's coefficient of q^e
    # goes at exponents (e, j), and one substitution q2 -> q'-1 gives the rhs.
    # The lhs (n+1)*q'*C_n(q') is the row of q*C_n put at q2-exponents.
    n = p["n"]
    b, factors = _thm6_table(n)
    rows = [large_narayana_row(n - k) for k in range(n + 1)]
    lhs = PolyQQ({(0, e): (n + 1) * c for e, c in enumerate(rows[0])})
    slices: dict[tuple[int, int], int] = {}
    for j in range(n + 1):
        terms = [(rows[k], list(map(mul, a, g[j:]))) for k, (a, g) in enumerate(factors[j:], j)]
        for (e, _), c in _sum_powers(terms, _OMQ).items():
            slices[(e, j)] = b[j] * c
    return lhs, PolyQQ(slices).subst_q(_Q, q2=_Q2M1)


@_register(
    "thm6-spec-q1",
    "transition specialized at 1: Catalan against large-Narayana expansions",
    _box(n=(1, _max_n), display=(1, 2)),
)
def _thm6_spec_q1(p: Params):
    n, display = p["n"], p["display"]
    b, factors = _thm6_table(n)
    if display == 1:
        # q = 1, so x = 0: T_k's slice i = 0, b_j*g_j, in y = q'-1 with q' written q.
        terms = [((catalan(n - k),), list(map(mul, b, g))) for k, (_, g) in enumerate(factors)]
        return large_narayana(n) * (n + 1), _sum_powers(terms, _QM1)
    # q' = 1, so y = 0: T_k's slice j = 0, a_i*g_i, in x = 1-q.
    terms = [(large_narayana_row(n - k), list(map(mul, a, g))) for k, (a, g) in enumerate(factors)]
    return (n + 1) * catalan(n), _sum_powers(terms, _OMQ)


@_register(
    "thm6-spec-q2",
    "transition specialized at 2: large Schroeder against large-Narayana",
    _box(n=(1, _max_n), display=(1, 2)),
)
def _thm6_spec_q2(p: Params):
    n, display = p["n"], p["display"]
    b, factors = _thm6_table(n)
    if display == 1:
        # q = 2, so x = -1: T_k's signed column sums
        # b_j * sum_i (-1)^i*a_i*g_(i+j), in y = q'-1 with q' written q.
        terms = []
        for k, (a, g) in enumerate(factors):
            signed = [x if i % 2 == 0 else -x for i, x in enumerate(a)]
            sums = [b[j] * sum(map(mul, signed, g[j:])) for j in range(k + 1)]
            terms.append(((schroeder("large", n - k),), sums))
        return large_narayana(n) * (n + 1), _sum_powers(terms, _QM1)
    # q' = 2, so y = 1: T_k's row sums a_i * sum_j b_j*g_(i+j), in x = 1-q.
    terms = [
        (large_narayana_row(n - k), [a[i] * sum(map(mul, b, g[i:])) for i in range(k + 1)])
        for k, (a, g) in enumerate(factors)
    ]
    return (n + 1) * schroeder("large", n), _sum_powers(terms, _OMQ)


# --------------------------------------------------------------------------
# Narayana alphabet
# --------------------------------------------------------------------------


@_register(
    "thm7",
    "square and near-square rectangle Schur values are (-q)^(k choose 2)",
    _box(k=(1, partial(min, 6)), shape=(0, 1)),
)
def _thm7(p: Params):
    k, shape = p["k"], p["shape"]
    part = (k,) * k if shape == 0 else (k - 1,) * k
    mu = Partition(tuple(x for x in part if x > 0))
    return narayana_schur(mu), (-_Q) ** (k * (k - 1) // 2)


@lru_cache(maxsize=8)
def _cf_coeffs(depth: int) -> tuple[PolyQQ, ...]:
    return tuple(sfraction(narayana_hsequence(), depth))


def _sched_cf(max_n: int, rng: random.Random) -> list[Params]:
    depth = min(max(max_n, 12), 20)
    return [{"depth": depth, "i": i} for i in range(1, depth + 1)]


@_register(
    "cf-alternating",
    "continued-fraction coefficients of the Narayana series alternate 1, q",
    _sched_cf,
    domain={"depth": (1, 20), "i": (1, 20)},
)
def _cf_alternating(p: Params):
    depth, i = p["depth"], p["i"]
    if i > depth:
        raise ScheduleError("coefficient index beyond requested depth")
    return _cf_coeffs(depth)[i - 1], _ONE if i % 2 == 1 else _Q


@_register(
    "thm8",
    "closed form of the Narayana power sums matches the Newton extraction",
    _box(r=(1, _max_n)),
)
def _thm8(p: Params):
    r = p["r"]
    return narayana_power_sum(r), narayana_hsequence().p(r)


@_register(
    "pa1-central",
    "power sums of the Catalan alphabet are central binomials C(2r-1,r-1)",
    _box(r=(1, _max_n)),
)
def _pa1_central(p: Params):
    r = p["r"]
    return catalan_hsequence().p(r), gen_binomial(2 * r - 1, r - 1)


@_register(
    "newton-catalan",
    "Newton recurrence at the Catalan alphabet collapses to C(2n,n-1)",
    _box(n=(1, _max_n), display=(1, 2)),
)
def _newton_catalan(p: Params):
    n, display = p["n"], p["display"]
    if display == 1:
        lhs = sum(
            catalan(r) * gen_binomial(2 * (n - r) - 1, n - r - 1)
            for r in range(n)
        )
        return lhs, n * catalan(n)
    return Fraction(n, n + 1) * gen_binomial(2 * n, n), gen_binomial(2 * n, n - 1)


# --------------------------------------------------------------------------
# classical orthogonal-polynomial bridges and type B
# --------------------------------------------------------------------------


def _sched_bridge(max_n: int, rng: random.Random) -> list[Params]:
    return [
        {"n": n, "x": x} for n in range(1, max_n + 1) for x in range(2, n + 3)
    ]


@_register(
    "jacobi-bridge",
    "C_n at a point x is ((x-1)^(n-1)/n) times the Jacobi (1,1) value at "
    "(x+1)/(x-1); n+1 points pin the degree-(n-1) polynomials",
    _sched_bridge,
    domain={"n": (1, _CAP), "x": (2, _CAP + 2)},
)
def _jacobi_bridge(p: Params):
    n, x = p["n"], p["x"]
    lhs = narayana(n).eval(at_q=x)
    rhs = Fraction((x - 1) ** (n - 1), n) * jacobi11(n - 1).eval(
        at_q=Fraction(x + 1, x - 1)
    )
    return lhs, rhs


@_register(
    "hl-jacobi",
    "n * P_n(1^{n+1};q) equals (n+1)(-q)^(n-1) times the Jacobi (1,1) value "
    "at 1 - 2/q, as Laurent polynomials",
    _box(n=(1, _max_n)),
)
def _hl_jacobi(p: Params):
    n = p["n"]
    lhs = hall_littlewood_principal(n, n + 1) * n
    arg = _ONE - PolyQQ.monomial(2, -1)  # 1 - 2/q
    rhs = jacobi11(n - 1).subst_q(arg) * (-_Q) ** (n - 1) * (n + 1)
    return lhs, rhs


@_register(
    "jacobi-binomial",
    "the two binomial expansions behind the Jacobi bridge agree termwise",
    _box(n=(1, _max_n)),
)
def _jacobi_binomial(p: Params):
    n = p["n"]
    lhs = PolyQQ.from_q_coefficients(
        [(-1) ** m * gen_binomial(n - 1, m) * gen_binomial(2 * n - m, n) for m in range(n)]
    )
    rhs = PolyQQ.from_q_coefficients(
        [gen_binomial(n + 1, m + 1) * gen_binomial(n - 1, m) for m in range(n)]
    ).subst_q(_OMQ)
    return lhs, rhs


@_register(
    "typeB-central",
    "type-B polynomial as a central-binomial expansion in z and z+1",
    _box(r=(0, _max_n)),
)
def _type_b_central(p: Params):
    r = p["r"]
    rhs = PolyQQ(
        {
            (m, r - 2 * m): gen_binomial(r, 2 * m) * gen_binomial(2 * m, m)
            for m in range(r // 2 + 1)
        }
    ).subst_q(_Q, q2=_Q + 1)
    return type_b_w(r), rhs


@_register(
    "strinc",
    "ascent-graded word count equals the principal Hall-Littlewood value",
    _box(n=(1, partial(min, 8))),
)
def _strinc(p: Params):
    n = p["n"]
    return strinc_oracle(n), hall_littlewood_principal(n, n + 1)


_SCHUR_TABLE_6: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((6,), (1, 15, 50, 50, 15, 1)),
    ((5, 1), (0, -5, -30, -40, -14, -1)),
    ((4, 2), (0, -3, -8, -3)),
    ((4, 1, 1), (0, 4, 24, 34, 13, 1)),
    ((3, 3), (0, -1, -1, -1)),
    ((3, 2, 1), (0, 2, 7, 4)),
    ((3, 1, 1, 1), (0, -3, -20, -30, -12, -1)),
    ((2, 2, 2), (0, 0, 0, -1)),
    ((2, 2, 1, 1), (0, -1, -5, -3)),
    ((2, 1, 1, 1, 1), (0, 2, 16, 26, 11, 1)),
    ((1, 1, 1, 1, 1, 1), (0, -1, -10, -20, -10, -1)),
)


@_register(
    "schur-table-6",
    "all eleven weight-6 Schur values of the Narayana alphabet match the "
    "frozen signed table",
    _box(i=(0, len(_SCHUR_TABLE_6) - 1)),
)
def _schur_table_6(p: Params):
    parts, coeffs = _SCHUR_TABLE_6[p["i"]]
    return narayana_schur(Partition(parts)), PolyQQ.from_q_coefficients(coeffs)


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    suite_version: str
    seed: int
    max_n: int
    results: tuple[IdentityCase, ...]

    @property
    def counts(self) -> dict[str, int]:
        passed = sum(1 for c in self.results if c.passed)
        return {"pass": passed, "fail": len(self.results) - passed}

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.results)

    def to_json(self) -> str:
        """The report as ``json.dumps(document, indent=2, sort_keys=True)`` writes it.

        The text is written in one pass with the encoder's exact layout: keys in
        sorted order, two-space indents, ``{}`` and ``[]`` for empty containers,
        ints by ``str``, a Fraction parameter as the string "a/b", and every
        string through the encoder's own escaper.  The indented encoder is the
        pure-Python one, about four times slower on a suite report.
        """
        enc = encode_basestring_ascii
        cases = []
        for case in self.results:
            if case.params:
                params = ",\n        ".join([
                    f"{enc(k)}: "
                    f"{enc(f'{v.numerator}/{v.denominator}') if isinstance(v, Fraction) else v}"
                    for k, v in sorted(case.params.items())
                ])
                params = f"{{\n        {params}\n      }}"
            else:
                params = "{}"
            if case.passed:
                cases.append(
                    f'    {{\n      "id": {enc(case.id)},\n      "params": {params},'
                    f'\n      "status": "pass"\n    }}'
                )
            else:
                cases.append(
                    f'    {{\n      "id": {enc(case.id)},\n      "lhs": {enc(str(case.lhs))},'
                    f'\n      "params": {params},\n      "rhs": {enc(str(case.rhs))},'
                    f'\n      "status": "fail"\n    }}'
                )
        results = "[\n" + ",\n".join(cases) + "\n  ]" if cases else "[]"
        counts = self.counts
        return (
            f'{{\n  "counts": {{\n    "fail": {counts["fail"]},\n    "pass": {counts["pass"]}'
            f'\n  }},\n  "max_n": {self.max_n},\n  "results": {results},'
            f'\n  "seed": {self.seed},\n  "suite_version": {enc(self.suite_version)}\n}}'
        )


def _param_sort_key(params: Params):
    # ints and Fractions compare exactly with each other, so no value needs
    # converting.
    return tuple(sorted(params.items()))


def run_suite(
    ids: Sequence[str] | None = None,
    max_n: int = 12,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Check every scheduled case of the requested identities (all by default)."""
    if not 3 <= max_n <= VERIFY_MAX_N_CAP:
        raise ValueError(f"run_suite needs 3 <= max_n <= {VERIFY_MAX_N_CAP}")
    if ids is None:
        selected = registered_ids()
    else:
        selected = list(ids)
        for id in selected:
            if id not in REGISTRY:
                raise UnknownIdentityError(f"unknown identity id {id!r}")
    results: list[IdentityCase] = []
    for id in sorted(set(selected)):
        rng = random.Random(f"{seed}:{id}")
        for params in REGISTRY[id].schedule(max_n, rng):
            results.append(check_identity(id, params))
    # Schedules need not list their cases in report order.
    results.sort(key=lambda c: (c.id, _param_sort_key(c.params)))
    return SuiteReport(SUITE_VERSION, seed, max_n, tuple(results))
