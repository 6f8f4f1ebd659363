"""The `family_sweep` query stream and an oracle that does not call k3lab.

A stream holds the three input forms of `k3lab family` in equal numbers:

* rational Legendre pairs ``--lambda1=p/q --lambda2=r/s``, a share of them
  orbit-matched (same j, so the member is degenerate);
* rational j pairs ``--j1=... --j2=...``, a share of them equal;
* ``--tau=x+yi --n=k``, with every point of the CM table once.

There is no record of how the command is used, so the values follow the
repo's own examples (perfbench/README.md says which and what is a choice):
single-digit rationals for lambda, as in -1, 1/4, 3/7; for j, the j of such
a lambda, as the CLI tests pass j(-1) = 1728 and j(1/4) = 35152/9; for tau,
Im tau in [1, 2) as in scripts/fricke_scan.py, Re tau in [-0.5, 0.5] as in
the examples 0.3+1.4i and 0.31+1.37i, and the levels 1, 2, 3 of
`k3lab modpoly`.

Options are passed as ``--opt=value`` because ``--lambda2 -5/2`` makes
argparse read ``-5/2`` as an option (exit 2).

The oracle recomputes every exact field with `Fraction` from the paper's
closed forms: j = 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2),
a^3 = -j1 j2 / 48^3, b^2 = (j1 - 1728)(j2 - 1728) / 864^2, and the member
is degenerate exactly when j1 == j2.  For tau queries it requires finite
j1, j2, a and b, and at CM points j1 and j2 within `CM_RTOL`.  The numeric
degeneracy flag of a tau query is not graded: a decimal tau is never an
exact Fricke fixed point.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

STREAM_LENGTH = 501                       # 167 queries of each kind
KINDS = ("lambda", "j", "tau")
# Share of the lambda and j pairs that are orbit-matched or equal, so both
# degeneracy flags occur.  A choice: nothing in the repo fixes it.
MATCHED_SHARE = 0.25
DIGITS = 9                                # largest |numerator| and denominator
LEVELS = (1, 2, 3)

# Tolerance for j at CM points, relative to max(|j|, 1728).  A decimal tau is
# off by about 1e-16, which moves j near these points by well under 1e-12 of
# that scale (j' vanishes at i and at rho), so 1e-9 leaves ample room.
CM_RTOL = 1e-9

# (tau, n, j(tau), j(-1/(n tau))): -1/(n tau) is again one of the CM points.
CM_POINTS = (
    ("i", 1, 1728, 1728),
    ("i", 2, 1728, 287496),
    ("2i", 1, 287496, 287496),
    ("0.5i", 2, 287496, 1728),
    ("1.4142135623730951i", 1, 8000, 8000),
    ("0.7071067811865476i", 2, 8000, 8000),
    ("1.7320508075688772i", 1, 54000, 54000),
    ("0.5773502691896258i", 3, 54000, 54000),
    ("0.5+0.8660254037844386i", 1, 0, 0),
)

# The six maps of the anharmonic group: all give the same j.
ORBIT = (
    lambda l: l,
    lambda l: 1 - l,
    lambda l: 1 / l,
    lambda l: l / (l - 1),
    lambda l: (l - 1) / l,
    lambda l: 1 / (1 - l),
)


@dataclass(frozen=True)
class Query:
    kind: str            # "lambda" | "j" | "tau"
    argv: tuple          # arguments of k3lab.cli.main
    expect: tuple        # exact fields for lambda/j, (j1, j2) at CM points, else ()


def _legendre(rng: random.Random) -> Fraction:
    while True:
        l = Fraction(rng.randint(-DIGITS, DIGITS), rng.randint(1, DIGITS))
        if l not in (0, 1):
            return l


def j_from_lambda(l: Fraction) -> Fraction:
    return 256 * (l * l - l + 1) ** 3 / (l * l * (l - 1) ** 2)


def exact_fields(j1: Fraction, j2: Fraction) -> tuple:
    """(a_cubed, b_squared, degenerate) of the member with invariants j1, j2."""
    return (-j1 * j2 / 48**3, (j1 - 1728) * (j2 - 1728) / 864**2, j1 == j2)


def _lambda_query(rng: random.Random, matched: bool) -> Query:
    l1 = _legendre(rng)
    l2 = rng.choice(ORBIT)(l1) if matched else _legendre(rng)
    j1, j2 = j_from_lambda(l1), j_from_lambda(l2)
    return Query("lambda", ("family", f"--lambda1={l1}", f"--lambda2={l2}"),
                 (j1, j2) + exact_fields(j1, j2))


def _j_query(rng: random.Random, matched: bool) -> Query:
    j1 = j_from_lambda(_legendre(rng))
    j2 = j1 if matched else j_from_lambda(_legendre(rng))
    return Query("j", ("family", f"--j1={j1}", f"--j2={j2}"), exact_fields(j1, j2))


def _tau_query(rng: random.Random, index: int) -> Query:
    """The first tau queries are the CM table and the levels cycle by
    `index`, so every stream has the same count of each; only the random
    tau differ between seeds."""
    if index < len(CM_POINTS):
        tau, n, j1, j2 = CM_POINTS[index]
        return Query("tau", ("family", f"--tau={tau}", f"--n={n}"), (j1, j2))
    x, y = rng.uniform(-0.5, 0.5), rng.uniform(1, 2)
    return Query("tau", ("family", f"--tau={x:.6f}+{y:.6f}i",
                         f"--n={LEVELS[index % len(LEVELS)]}"), ())


def generate(seed: int, length: int = STREAM_LENGTH) -> list[Query]:
    """The query stream for `seed`: same seed, same stream.  The count of
    each kind, of matched pairs, of CM points and of each level is fixed, so
    seeds differ only in the random values and the order."""
    rng = random.Random(seed)
    per_kind = length // len(KINDS)
    plan = [(kind, i) for kind in KINDS for i in range(per_kind)]
    rng.shuffle(plan)
    stream = []
    for kind, i in plan:
        if kind == "lambda":
            stream.append(_lambda_query(rng, i < per_kind * MATCHED_SHARE))
        elif kind == "j":
            stream.append(_j_query(rng, i < per_kind * MATCHED_SHARE))
        else:
            stream.append(_tau_query(rng, i))
    return stream


def _fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _finite(value: str) -> complex:
    number = complex(value.replace(" ", ""))
    if not cmath.isfinite(number):
        raise ValueError(f"not finite: {value}")
    return number


def check(query: Query, exit_code: int, output: str) -> str | None:
    """None if the answer is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    fields = _fields(output)
    try:
        for name in ("a", "b"):
            _finite(fields[name])
        if query.kind == "tau":
            got = (_finite(fields["j1"]), _finite(fields["j2"]))
            for value, expected in zip(got, query.expect):
                if abs(value - expected) > CM_RTOL * max(abs(expected), 1728):
                    return f"j = {value}, expected {expected}"
            return None
        if fields["degenerate"] not in ("true", "false"):
            return f"degenerate = {fields['degenerate']}"
        names = ("j1", "j2") if query.kind == "lambda" else ()
        got = tuple(Fraction(fields[name]) for name in names + ("a_cubed", "b_squared"))
        got += (fields["degenerate"] == "true",)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
    if got != query.expect:
        return f"got {got}, expected {query.expect}"
    return None
