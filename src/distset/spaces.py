"""Finite stand-ins for universal homogeneous metric spaces, and the
partition / oscillation experiments that run on them.

A *one-point extension prescription* (Katetov function) over a subset F
of a space assigns each x in F a positive target distance f(x) subject
to the two-sided triangle constraints

    |f(x) - f(y)| <= d(x, y) <= f(x) + f(y),

exactly the condition under which a new point at those distances can be
adjoined.  Saturating a space under such prescriptions up to a fixed
witness arity is the finitary engine behind homogeneity and
universality: every 3-point space is a 2-point space plus a
prescription, so realizing every extension type of arity 2 (over some
copy of its base configuration) makes the space universal for 3-point
spaces over the same distance set.  The saturation builder and
:func:`find_unrealized_katetov` read one record of the types a space
realizes, kept by ``_SaturationState``.

The embedding searches in this module (isometric embedding,
monochromatic or near-monochromatic copies, low-oscillation copies,
enumeration-order embeddings, and the embeddings behind the
universality check) share one deterministic backtracking core over
point indices, with an explicit budget.  One budget unit is one
candidate point tried at a search position; points already chosen are
skipped without a charge.

Searches, the Katetov enumeration and the saturation builder work on
integer images: distances scaled to one common denominator, which keeps
their order, so every enumeration order, seeded choice and budget charge
is the one exact rationals would give.  Only witnesses, returned values
and returned spaces are decoded.
"""

from __future__ import annotations

import itertools
import random
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from .checks import (
    CheckReport,
    VERDICT_EXHAUSTIVE,
    VERDICT_FAILED,
    check_4values,
)
from .errors import (
    BudgetError,
    CheckFailedError,
    CompletionError,
    ParameterError,
    PartitionError,
)
from .rationals import as_int, as_rational, is_int, lcm_denominator, rational_str
from .rgraph import FiniteMetricSpace
from .rset import RSet


@dataclass(frozen=True)
class KatetovFunction:
    """Distance prescription for a prospective new point."""

    domain: tuple[str, ...]
    values: dict[str, Fraction]

    def to_json_obj(self) -> dict:
        return {
            "values": {p: rational_str(self.values[p]) for p in self.domain}
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "KatetovFunction":
        given = obj.get("values", {}) if isinstance(obj, dict) else None
        if not isinstance(given, dict):
            raise ParameterError("function JSON must map 'values' to an object")
        values = {str(p): as_rational(v) for p, v in given.items()}
        return cls(domain=tuple(sorted(values)), values=values)


@dataclass(frozen=True)
class Coloring:
    """Total assignment of points to finitely many colour classes."""

    parts: dict[str, int]

    def classes(self) -> list[int]:
        return sorted(set(self.parts.values()))

    def class_points(self, colour: int) -> list[str]:
        return [p for p, c in self.parts.items() if c == colour]

    def to_json_obj(self) -> dict:
        return {"parts": dict(self.parts)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Coloring":
        given = obj.get("parts", {}) if isinstance(obj, dict) else None
        if not isinstance(given, dict):
            raise ParameterError("colouring JSON must map 'parts' to an object")
        for p, c in given.items():
            if not is_int(c):
                raise ParameterError(f"colour {c!r} of {p} is not an integer")
        return cls(parts={str(p): c for p, c in given.items()})


def eps_neighborhood(
    space: FiniteMetricSpace, subset: Iterable[str], eps
) -> list[str]:
    """Points strictly within eps of the subset, in point order."""
    e = as_rational(eps)
    if e <= 0:
        raise ParameterError("eps must be positive")
    inside = [space.index(str(p)) for p in subset]
    # an int distance s over the space's den is below e * den iff it is
    # below the ceiling of e * den
    bound = -(-e.numerator * space._den // e.denominator)
    return [
        q
        for q, row in zip(space.points, space._int_rows())
        if any(row[p] < bound for p in inside)
    ]


def _value_image(space: FiniteMetricSpace, values: RSet):
    """``(den, rows, positive)``: the space's rows and the positive part
    of the finite set ``values``, as ints over one common denominator."""
    if not values.is_finite():
        raise ParameterError("the value set must be finite")
    vden, points, _ = values.scaled()
    den = lcm(space._den, vden)
    positive = [v * (den // vden) for v in points if v > 0]
    return den, space._int_rows(den), positive


def _katetov_ints(rows: list[list[int]], idx: Sequence[int], positive):
    """Every prescription over the point indices ``idx``, as tuples of
    values from ``positive`` (ascending ints over the rows' denominator)
    with |f(x) - f(y)| <= d(x, y) <= f(x) + f(y), in lexicographic
    order: each prefix is extended by every value that fits it."""
    found: list[tuple[int, ...]] = [()]
    for pos, i in enumerate(idx):
        need = [rows[i][j] for j in idx[:pos]]
        longer = []
        for f in found:
            pairs = list(zip(need, f))  # (distance, value) of earlier points
            for v in positive:
                for d, w in pairs:
                    if abs(v - w) > d or d > v + w:
                        break
                else:
                    longer.append(f + (v,))
        found = longer
    return found


def enumerate_katetov(
    space: FiniteMetricSpace, subset: Sequence[str], values: RSet
) -> list[KatetovFunction]:
    """All prescriptions over ``subset`` with values in the positive part
    of the finite set ``values``."""
    den, rows, positive = _value_image(space, values)
    idx = [space.index(str(p)) for p in subset]
    return [
        _katetov_function(space, den, idx, vals)
        for vals in _katetov_ints(rows, idx, positive)
    ]


def _katetov_function(space: FiniteMetricSpace, den, idx, vals) -> KatetovFunction:
    """The prescription ``vals`` (ints over ``den``) on the points ``idx``."""
    domain = tuple(space.points[i] for i in idx)
    return KatetovFunction(
        domain=domain, values={p: Fraction(v, den) for p, v in zip(domain, vals)}
    )


def realizes(space: FiniteMetricSpace, func: KatetovFunction) -> bool:
    """Does some existing point sit at exactly the prescribed distances?"""
    return any(
        all(space.dist(z, p) == func.values[p] for p in func.domain)
        for z in space.points
    )


def _require_count(value, what: str) -> None:
    """ParameterError unless ``value`` is an int (not a bool) of at least 1."""
    if as_int(value, what) < 1:
        raise ParameterError(f"{what} must be at least 1")


def find_unrealized_katetov(
    space: FiniteMetricSpace, values: RSet, arity: int
) -> KatetovFunction | None:
    """First prescription whose extension type has no witness anywhere.

    A prescription over a subset is considered realized when *some
    isometric copy* of that subset has a point at the prescribed
    distances: saturation is a statement about one-point-extension
    types, not about individual subsets (no finite space can witness
    every prescription over every concrete subset).  Returns a
    representative over the first subset in point order exhibiting an
    unrealized type, or None when the space is saturated at this arity.
    """
    _require_count(arity, "arity")
    den, rows, positive = _value_image(space, values)
    state = _SaturationState(positive, arity)
    for m, row in enumerate(rows):
        state.add_point(row[:m])
    hit = state.first_unrealized()
    return None if hit is None else _katetov_function(space, den, *hit)


# -- saturation builder ------------------------------------------------------


class _SaturationState:
    """The record of realized one-point-extension types of a growing
    space ``d`` (an int matrix): ``witnessed`` holds the
    :func:`_canonical_form` key of every (base subset of up to ``arity``
    points, distances of one further point to it) that occurs.

    Keys over one and two base points, ``(v,)`` and ``(dist, a, b)``
    with a <= b, are built by hand per point.  Larger keys cost k!
    orderings each and only :meth:`first_unrealized` reads them, so they
    are recorded from its first call on: it catches up over the points
    so far, and each later point adds its own.
    """

    def __init__(self, positive: list[int], arity: int):
        self.positive = positive
        self.arity = arity
        self.d: list[list[int]] = []
        self.witnessed: set[tuple] = set()
        self.recorded = 2  # the largest base size whose keys are recorded
        self.instances: dict[int, list[tuple[int, int]]] = {}
        self.pair_keys: dict[int, list[tuple]] = {}  # by distance, built once
        self.saturated: set[tuple] = set()  # all keys witnessed, for good

    def add_point(self, row: list[int]) -> None:
        """Adjoin a point at distances ``row`` to the earlier points and
        record the keys it takes part in."""
        d, m, witness = self.d, len(self.d), self.witnessed.add
        for a in range(m):
            d[a].append(row[a])
        d.append(row + [0])
        for i in range(m):
            a = row[i]
            witness((a,))
            self.instances.setdefault(a, []).append((i, m))
            # the triangle i, z, m witnesses a pair type over each side
            for z in range(i + 1, m):
                b, c = row[z], d[i][z]
                witness((c, a, b) if a <= b else (c, b, a))
                witness((a, b, c) if b <= c else (a, c, b))
                witness((b, a, c) if a <= c else (b, c, a))
        for size in range(3, self.recorded + 1):
            self._record(m, size)

    def _record(self, m: int, size: int) -> None:
        """Add the keys over ``size`` base points among the points up to
        ``m`` in which ``m`` is a base point or the further point."""
        d, witness = self.d, self.witnessed.add
        for sub in itertools.combinations(range(m + 1), size):
            base = [[d[a][b] for b in sub] for a in sub]
            for z in range(m) if sub[-1] == m else (m,):
                if z not in sub:
                    witness(_canonical_form(size, base, [d[z][p] for p in sub]))

    def missing(self) -> list[tuple]:
        """The unwitnessed keys over one base point and, at arity >= 2,
        over two base points at an occurring distance: ``(v,)`` and
        ``(v, f1, f2)`` with f1 <= f2, in value order."""
        have, positive = self.witnessed, self.positive
        out = [(v,) for v in positive if (v,) not in have]
        if self.arity >= 2:
            for v in positive:
                if (v,) in have and v not in self.pair_keys:
                    self.pair_keys[v] = [
                        (v, f1, f2)
                        for f1, f2 in _katetov_ints([[0, v], [v, 0]], (0, 1), positive)
                        if f1 <= f2
                    ]
                out += [k for k in self.pair_keys.get(v, ()) if k not in have]
        return out

    def first_unrealized(self):
        """The first ``(subset, prescription)`` over point indices, by
        size up to the arity, then ``combinations`` and
        :func:`_katetov_ints` order, whose key is not witnessed; None
        when there is none."""
        d = self.d
        while self.recorded < self.arity:
            self.recorded += 1
            for m in range(len(d)):
                self._record(m, self.recorded)
        for size in range(1, self.arity + 1):
            for sub in itertools.combinations(range(len(d)), size):
                if sub in self.saturated:
                    continue
                base = [[d[a][b] for b in sub] for a in sub]
                for vals in _katetov_ints(d, sub, self.positive):
                    if _canonical_form(size, base, vals) not in self.witnessed:
                        return sub, vals
                self.saturated.add(sub)
        return None


class SaturationCapWarning(UserWarning):
    """The point cap stopped :func:`build_saturated_space` short of saturation."""


def build_saturated_space(
    values: RSet,
    max_points: int = 60,
    witness_arity: int = 2,
    seed: int = 0,
) -> FiniteMetricSpace:
    """Grow a space over a finite distance set by realizing unrealized
    one-point-extension types until saturation (or the point cap).

    Starts from a single point.  Each pass collects the extension types
    of arity <= witness_arity that lack a witness (a type is the
    isometry class of a base configuration together with the prescribed
    distances; no finite space can witness every prescription over every
    concrete base, so saturation is stated per type), visits them in a
    seeded random order and realizes each over a seeded choice of base
    instance.  The new point's other distances are drawn (seeded) from
    the values in the exact window [max |row[x] - d[x][w]|,
    min row[x] + d[x][w]] over every point x already fixed; it always
    holds the walk-infimum completion value, so it is never empty.  A
    pass that realizes nothing means saturation; over a finite value set
    the type universe is finite, so saturation is reached unless the
    point cap interrupts it: a SaturationCapWarning.

    The result is not re-validated: those windows, Katetov prescriptions,
    a zero diagonal and symmetric rows make it metric over the value set,
    whether or not the truncated sum is associative.

    The value set must contain 0 and pass the exhaustive four-values
    check, else CheckFailedError; an empty extension window (impossible
    for a four-values set) surfaces as CompletionError.
    """
    if not values.is_finite() or not values.contains(0):
        raise ParameterError("need a finite value set containing 0")
    _require_count(max_points, "max_points")
    _require_count(witness_arity, "witness arity")
    report = check_4values(values)
    if not report.passed:
        raise CheckFailedError(
            f"value set fails the four-values check; witness {report.witness}"
        )

    # the matrix is kept as ints over the value set's denominator
    den, los, his = values.scaled()
    positive = [v for v in los if v > 0]
    state = _SaturationState(positive, witness_arity)
    state.add_point([])
    d = state.d
    rng = random.Random(seed)

    def realize(subset: tuple[int, ...], prescription: tuple) -> None:
        row: list[int | None] = [None] * len(d)
        for pos, i in enumerate(subset):
            row[i] = prescription[pos]
        fixed = list(subset)
        for w in range(len(d)):
            if row[w] is not None:
                continue
            lo = max(abs(row[x] - d[x][w]) for x in fixed)
            hi = min(row[x] + d[x][w] for x in fixed)
            choices = positive[
                bisect_left(positive, lo) : bisect_right(positive, hi)
            ]
            if not choices:
                raise CompletionError(
                    f"no admissible distance for the new point at p{w}"
                )
            row[w] = rng.choice(choices)
            fixed.append(w)
        state.add_point(row)

    while True:
        missing = state.missing()
        hit = None if missing or witness_arity < 3 else state.first_unrealized()
        if not missing and hit is None:
            break
        if len(d) >= max_points:
            warnings.warn(
                f"the point cap of {max_points} stopped the build before "
                f"saturation: a type of arity <= {witness_arity} is unrealized",
                SaturationCapWarning,
                stacklevel=2,
            )
            break
        if hit is not None:
            realize(*hit)
            continue
        rng.shuffle(missing)
        for req in missing:
            if len(d) >= max_points:
                break
            if req in state.witnessed:
                continue
            if len(req) == 1:
                realize((rng.randrange(len(d)),), req)
            else:
                realize(rng.choice(state.instances[req[0]]), req[1:])
    pts = [f"p{i}" for i in range(len(d))]
    flat = [x for row in d for x in row]
    return FiniteMetricSpace._from_image(values, pts, (den, los, his, flat))


# -- embedding searches ------------------------------------------------------


def _embed(
    dist: list[list[int]],
    target: Sequence[Sequence[int]],
    cands: Sequence[int],
    budget: list[int] | None,
    what: str,
    accept: Callable[[list[int], int], bool] | None = None,
    increasing: bool = False,
) -> list[int] | None:
    """The search core: the first injection, in candidate-list order, of
    the ``target`` matrix into the point indices ``cands`` of ``dist``
    that keeps every distance exactly, as indices aligned with the
    target, or None.  Both matrices are ints over one denominator.

    ``budget`` is a one-element counter (None: unlimited).  With
    ``increasing``, candidates listed before the last choice are skipped
    as chosen points are, before the charge; ``accept(chosen, cand)``
    prunes after the charge and before the distance comparison.
    """
    chosen: list[int] = []

    def rec(pos: int, start: int) -> bool:
        if pos == len(target):
            return True
        # (chosen point, distance a candidate must have to it)
        need = [(chosen[t], target[t][pos]) for t in range(pos)]
        for at, cand in enumerate(cands[start:], start):
            if cand in chosen:
                continue
            if budget is not None:
                if budget[0] <= 0:
                    raise BudgetError(f"{what} budget exhausted")
                budget[0] -= 1
            if accept is not None and not accept(chosen, cand):
                continue
            row = dist[cand]
            for c, v in need:
                if row[c] != v:
                    break
            else:
                chosen.append(cand)
                if rec(pos + 1, at + 1 if increasing else 0):
                    return True
                chosen.pop()
        return False

    return chosen if rec(0, 0) else None


def find_isometric_copy(
    space: FiniteMetricSpace,
    target: FiniteMetricSpace,
    candidates: Sequence[str] | None = None,
    budget: int | None = 1_000_000,
) -> dict[str, str] | None:
    """Isometric embedding of ``target`` into ``space`` (restricted to
    ``candidates`` when given), or None.  Shared search core: one budget
    unit per candidate tried; ``budget=None`` means unlimited."""
    names = space.points if candidates is None else candidates
    cands = [space.index(p) for p in names]
    counter = None if budget is None else [budget]
    den = lcm(space._den, target._den)
    dist, tgt = space._int_rows(den), target._int_rows(den)
    hit = _embed(dist, tgt, cands, counter, "embedding search")
    if hit is None:
        return None
    return {t: space.points[i] for t, i in zip(target.points, hit)}


def check_universality(
    space: FiniteMetricSpace, values: RSet, n: int, budget: int = 5_000_000
) -> CheckReport:
    """Try to embed every space on <= n points with distances in the
    positive part of ``values``; exhaustive up to isomorphism.

    The candidate spaces are enumerated as canonical distance matrices
    (minimal under point permutations); the budget caps the number of
    matrix assignments plus candidates tried by the shared search core.
    """
    den, dist, positive = _value_image(space, values)
    _require_count(n, "n")
    counter = [budget]
    cands = list(range(len(space.points)))

    if not space.points:
        return CheckReport(
            check="universality",
            verdict=VERDICT_FAILED,
            witness={},
            note="the space is empty",
        )
    for k in range(2, n + 1):
        seen: set[tuple] = set()
        for matrix in _enumerate_matrices(k, positive, counter):
            canon = _canonical_form(k, matrix)
            if canon in seen:
                continue
            seen.add(canon)
            if _embed(dist, matrix, cands, counter, "embedding search") is None:
                witness = {
                    f"d({i},{j})": Fraction(matrix[i][j], den)
                    for i in range(k)
                    for j in range(i + 1, k)
                }
                return CheckReport(
                    check="universality",
                    verdict=VERDICT_FAILED,
                    witness=witness,
                    note=f"no isometric copy of this {k}-point space",
                )
    return CheckReport(check="universality", verdict=VERDICT_EXHAUSTIVE)


def _enumerate_matrices(k: int, positive: Sequence[int], counter):
    """All k-point distance matrices with entries from ``positive`` that
    satisfy the triangle inequality, by backtracking over pairs in
    lexicographic order: when (i, j) is assigned, both {t, i} and {t, j}
    already are exactly for t < i."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    matrix = [[0] * k for _ in range(k)]

    def rec(pos: int):
        if pos == len(pairs):
            yield [row[:] for row in matrix]
            return
        i, j = pairs[pos]
        row_i, row_j = matrix[i], matrix[j]
        for v in positive:
            if counter[0] <= 0:
                raise BudgetError("universality enumeration budget exhausted")
            counter[0] -= 1
            if all(
                abs(row_i[t] - row_j[t]) <= v <= row_i[t] + row_j[t]
                for t in range(i)
            ):
                matrix[i][j] = matrix[j][i] = v
                yield from rec(pos + 1)

    yield from rec(0)


def _canonical_form(k: int, matrix, vals=()) -> tuple:
    """Isometry-class key of k points: the least flattened upper triangle
    of ``matrix`` over all orderings of the points, followed by ``vals``
    (one value per point, when given) in the same ordering."""
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    forms = []
    for perm in itertools.permutations(range(k)):
        form = [matrix[perm[i]][perm[j]] for i, j in upper]
        if vals:
            form += [vals[i] for i in perm]
        forms.append(form)
    return tuple(min(forms))


def check_extension_property(
    space: FiniteMetricSpace, k: int, budget: int = 1_000_000
) -> CheckReport:
    """One-point extension of partial isometries of size <= k.

    For every isometry between subsets of at most k points and every
    point x outside the domain, some y outside the image must extend the
    map; the first stuck pair is the witness.
    """
    _require_count(k, "k")
    pts = space.points
    n = len(pts)
    dist = space._int_rows()
    counter = [budget]

    def extends(a: int, b: int, dom: list[int], img: list[int]) -> bool:
        """Does a -> b extend the partial isometry dom -> img?"""
        return b not in img and all(
            dist[a][p] == dist[b][q] for p, q in zip(dom, img)
        )

    def stuck(dom: list[int], img: list[int]):
        """The first (domain, image, x) no y extends over, or None."""
        for x in range(n) if dom else ():
            if x in dom:
                continue
            if counter[0] <= 0:
                raise BudgetError("extension-check budget exhausted")
            counter[0] -= 1
            if not any(extends(x, y, dom, img) for y in range(n)):
                return dom, img, x
        if len(dom) == k:
            return None
        for a in range(dom[-1] + 1 if dom else 0, n):
            for b in range(n):
                if extends(a, b, dom, img):
                    hit = stuck(dom + [a], img + [b])
                    if hit is not None:
                        return hit
        return None

    hit = stuck([], [])
    if hit is None:
        return CheckReport(check="extension", verdict=VERDICT_EXHAUSTIVE)
    dom, img, x = hit
    return CheckReport(
        check="extension",
        verdict=VERDICT_FAILED,
        witness={
            "domain": [pts[i] for i in dom],
            "image": [pts[i] for i in img],
            "x": pts[x],
        },
        note="no point extends this partial isometry over x",
    )


def find_order_embedding(
    space: FiniteMetricSpace,
    target: Iterable[str],
    budget: int = 1_000_000,
    length: int | None = None,
) -> tuple[str, ...] | None:
    """Enumeration-order-preserving isometric embedding of the first
    ``length`` points of the space into the target subset.

    The space's point order is its enumeration.  Returns the image
    points (aligned with the initial segment) or None.  Shared search
    core over increasing indices: one budget unit per candidate tried.
    """
    targets = sorted({space.index(p) for p in target})
    want = len(space.points) if length is None else as_int(length, "length")
    if want < 0 or want > len(space.points):
        raise ParameterError("length must be between 0 and the point count")
    dist = space._int_rows()
    hit = _embed(
        dist, dist[:want], targets, [budget], "order-embedding", increasing=True
    )
    if hit is None:
        return None
    return tuple(space.points[t] for t in hit)


def partition_distance_function(
    space: FiniteMetricSpace, part: Iterable[str]
) -> dict[str, Fraction]:
    """Distance to the opposite side of a two-part partition.

    f(p) = min distance from p to the complementary part; satisfies
    |f(p) - f(q)| <= 2 d(p, q) for all pairs.
    """
    x = {str(p) for p in part}
    for p in x:
        space.index(p)
    pts = space.points
    xs = [i for i, p in enumerate(pts) if p in x]
    y = [i for i, p in enumerate(pts) if p not in x]
    if not x or not y:
        raise PartitionError("partition needs two nonempty parts")
    rows, den = space._int_rows(), space._den
    return {
        pts[i]: Fraction(min(rows[i][j] for j in other), den)
        for side, other in ((xs, y), (y, xs))
        for i in side
    }


def indivisibility_search(
    space: FiniteMetricSpace,
    coloring: Coloring,
    target: FiniteMetricSpace,
    eps,
    budget: int = 1_000_000,
) -> tuple[int, dict[str, str]] | None:
    """Isometric copy of ``target`` inside (a neighbourhood of) a colour
    class.

    eps = 0 asks for a copy inside the class itself; eps > 0 allows the
    open eps-neighbourhood.  Colours are tried in ascending order and the
    first copy found is returned as (colour, embedding).  Shared search
    core: one budget unit per candidate tried, across all colours.
    """
    e = as_rational(eps)
    if e < 0:
        raise ParameterError("eps must be non-negative")
    if set(coloring.parts) != set(space.points):
        raise ParameterError("colouring must assign every point a colour")
    if not target.realized_distances() <= space.realized_distances():
        raise ParameterError(
            "target realizes distances the space does not"
        )
    counter = [budget]
    den = lcm(space._den, target._den)
    dist, tgt = space._int_rows(den), target._int_rows(den)
    for colour in coloring.classes():
        inside = coloring.class_points(colour)
        if e > 0:
            inside = eps_neighborhood(space, inside, e)
        cands = sorted(space.index(p) for p in inside)  # in point order
        if len(cands) < len(target.points):
            continue
        hit = _embed(dist, tgt, cands, counter, "embedding search")
        if hit is not None:
            return colour, {
                t: space.points[i] for t, i in zip(target.points, hit)
            }
    return None


def oscillation_search(
    space: FiniteMetricSpace,
    func: Mapping[str, Fraction],
    eps,
    target: FiniteMetricSpace,
    budget: int = 1_000_000,
) -> dict[str, str] | None:
    """Isometric copy of ``target`` on which ``func`` oscillates below
    eps (sup of pairwise gaps strictly under eps), or None.  Shared
    search core, pruned by that bound: one budget unit per candidate
    tried."""
    e = as_rational(eps)
    if e <= 0:
        raise ParameterError("eps must be positive")
    values = {str(p): as_rational(v) for p, v in func.items()}
    if set(values) != set(space.points):
        raise ParameterError("the function must be total on the points")
    # the values and eps as ints over their own common denominator
    fden = lcm_denominator([e, *values.values()])
    fv = [int(values[p] * fden) for p in space.points]
    bound = int(e * fden)
    den = lcm(space._den, target._den)
    hit = _embed(
        space._int_rows(den),
        target._int_rows(den),
        list(range(len(space.points))),
        [budget],
        "oscillation search",
        lambda chosen, c: all(abs(fv[c] - fv[x]) < bound for x in chosen),
    )
    if hit is None:
        return None
    return {t: space.points[i] for t, i in zip(target.points, hit)}
