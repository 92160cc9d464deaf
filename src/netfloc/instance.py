"""Problem instances: a finite metric point universe, facilities with positive
opening costs, live clients, and the derived scale parameters that size the
net hierarchy."""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

METRIC_KINDS = ("explicit-matrix", "euclidean-L2", "euclidean-Linf")

# Relative slack for the triangle check on float matrices; integer-valued
# matrices stay exact.
_TRIANGLE_SLACK = 1e-12


def _is_finite_number(x) -> bool:
    """True for a finite real number; bools and strings are not numbers."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _as_list(value, what: str) -> list:
    """The items of an iterable input field; a scalar is an input error."""
    try:
        return list(value)
    except TypeError:
        raise InstanceError(f"{what} must be a list, got {value!r}") from None


class NetflocError(Exception):
    """Base class for package errors."""


class InstanceError(NetflocError):
    """Invalid instance data or an invalid point/facility reference."""


@dataclass(frozen=True)
class Facility:
    """A facility located at one of the instance points."""

    id: int
    point: int
    opening_cost: float


@dataclass(frozen=True)
class Params:
    """Scale parameters derived from an instance and a client-count scale n.

    ``rho_min``/``rho_max`` bound the hierarchy's logradii; ``delta`` is the
    number of levels.  ``n`` is the largest power of five at most the live
    client count (0 while there are no clients).
    """

    w: float
    f_max: float
    f_min: float
    n: int
    rho_min: int
    rho_max: int
    delta: int


def cround(x) -> int:
    """Least integer r with 5**r >= x, for x > 0.

    Comparisons run on exact rationals, so integer-valued inputs (and exact
    ratios of them) never suffer float boundary errors.
    """
    q = Fraction(x)
    if q <= 0:
        raise ValueError("cround requires a positive argument")
    r = 0
    p = Fraction(1)
    if p >= q:
        while p / 5 >= q:
            p /= 5
            r -= 1
    else:
        while p < q:
            p *= 5
            r += 1
    return r


def largest_power_of_five_at_most(count: int) -> int:
    """The client-count scale n: 0 for count 0, else max power of 5 <= count."""
    if count <= 0:
        return 0
    p = 1
    while p * 5 <= count:
        p *= 5
    return p


class Instance:
    """A finite point universe with a metric and a facility list.

    ``kind`` selects the metric: an explicit symmetric distance matrix, or
    Euclidean coordinates under the L2 or L-infinity norm.  All facility
    opening costs must be positive.  Immutable after load; safe to share
    read-only across threads.
    """

    def __init__(self, kind, points=None, matrix=None, facilities=(), kappa=None):
        if kind not in METRIC_KINDS:
            raise InstanceError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.kappa = kappa
        if kappa is not None and not (_is_finite_number(kappa) and kappa > 0):
            raise InstanceError(f"kappa must be a positive number when declared, got {kappa!r}")
        if kind == "explicit-matrix":
            if points is not None or matrix is None:
                raise InstanceError("explicit-matrix instances take a matrix, not points")
            rows = [_as_list(row, "matrix row") for row in _as_list(matrix, "matrix")]
            for p, row in enumerate(rows):
                for q, x in enumerate(row):
                    if not _is_finite_number(x):
                        raise InstanceError(f"non-numeric, NaN or infinite distance "
                                            f"for pair ({p}, {q}): {x!r}")
            self._matrix = [tuple(float(x) for x in row) for row in rows]
            self._points = None
            self._validate_matrix()
            self.n_points = len(self._matrix)
        else:
            if matrix is not None or points is None:
                raise InstanceError("euclidean instances take points, not a matrix")
            self._points = [self._coerce_point(p) for p in _as_list(points, "points")]
            self._matrix = None
            self.n_points = len(self._points)
            dims = {len(p) for p in self._points}
            if len(dims) > 1:
                raise InstanceError("points must share one dimension")
        if self.n_points == 0:
            raise InstanceError("instance needs at least one point")

        self.facilities: list[Facility] = []
        for fid, fac in enumerate(facilities):
            if isinstance(fac, Facility):
                point, cost = fac.point, fac.opening_cost
            else:
                point, cost = fac
            if isinstance(point, bool) or not isinstance(point, numbers.Integral) \
                    or not 0 <= point < self.n_points:
                raise InstanceError(f"facility {fid} references unknown point {point!r}")
            if not _is_finite_number(cost) or cost <= 0:
                raise InstanceError(f"facility {fid} needs a positive opening cost, got {cost!r}")
            self.facilities.append(Facility(fid, int(point), float(cost)))
        if not self.facilities:
            raise InstanceError("instance needs at least one facility")
        self._diameter = None

    @staticmethod
    def _coerce_point(p):
        try:
            coords = tuple(p)
        except TypeError:  # a bare number is a one-dimensional point
            coords = (p,)
        if not coords or not all(_is_finite_number(x) for x in coords):
            raise InstanceError(f"bad point coordinates {p!r}")
        return tuple(float(x) for x in coords)

    def _validate_matrix(self):
        m = self._matrix
        n = len(m)
        if any(len(row) != n for row in m):
            raise InstanceError("distance matrix must be square")
        for p in range(n):
            if m[p][p] != 0:
                raise InstanceError(f"nonzero self-distance at point {p}")
            for q in range(p + 1, n):
                if m[p][q] != m[q][p]:
                    raise InstanceError(f"asymmetric distances for pair ({p}, {q})")
                if m[p][q] < 0:
                    raise InstanceError(f"negative distance for pair ({p}, {q})")
        for x in range(n):
            col = m[x]
            for p in range(n):
                row_p = m[p]
                lim = row_p[x]
                for q in range(n):
                    if row_p[q] > lim + col[q] + _TRIANGLE_SLACK * (lim + col[q]):
                        raise InstanceError(
                            f"triangle inequality fails for ({p}, {q}) via {x}")

    def distance(self, p: int, q: int) -> float:
        """Metric distance between two point indices."""
        if not (0 <= p < self.n_points and 0 <= q < self.n_points):
            raise InstanceError(f"point index out of range: ({p}, {q})")
        if self._matrix is not None:
            return self._matrix[p][q]
        a, b = self._points[p], self._points[q]
        if self.kind == "euclidean-L2":
            return math.dist(a, b)
        return max(abs(x - y) for x, y in zip(a, b))

    @property
    def diameter(self) -> float:
        """Maximum pairwise distance over the declared point universe; an
        input error when it overflows to infinity."""
        if self._diameter is None:
            if self._matrix is not None:
                diameter = max(max(row) for row in self._matrix)
            else:
                arr = np.asarray(self._points, dtype=float)
                best = 0.0
                with np.errstate(over="ignore"):  # overflow is reported below
                    for i in range(len(arr)):
                        if self.kind == "euclidean-L2":
                            d = ((arr[i] - arr) ** 2).sum(axis=1).max()
                        else:
                            d = np.abs(arr[i] - arr).max()
                        if d > best:
                            best = d
                diameter = float(math.sqrt(best) if self.kind == "euclidean-L2" else best)
            if not math.isfinite(diameter):
                raise InstanceError("points too far apart: the diameter overflows to inf")
            self._diameter = diameter
        return self._diameter

    def facility_point(self, fid: int) -> int:
        return self.facilities[fid].point

    @classmethod
    def from_dict(cls, data) -> "Instance":
        try:
            metric = data["metric"]
            kind = metric["kind"]
            facilities = [(f["point"], f["cost"]) for f in data["facilities"]]
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"missing or malformed field: {exc}") from exc
        return cls(
            kind,
            points=metric.get("points"),
            matrix=metric.get("matrix"),
            facilities=facilities,
            kappa=data.get("kappa"),
        )

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InstanceError(
                    f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(data)


def derive_parameters(instance: Instance, n: int) -> Params:
    """Derive the hierarchy scale parameters for a client-count scale n."""
    n = max(int(n), 0)
    costs = [f.opening_cost for f in instance.facilities]
    f_max, f_min = max(costs), min(costs)
    if f_min <= 0:
        raise InstanceError("all opening costs must be positive")
    divisor = max(len(instance.facilities), n)
    rho_min = cround(Fraction(f_min) / divisor)
    rho_max = cround(max(instance.diameter, f_max))
    if rho_max < rho_min:
        # Unreachable while costs are positive (f_min/divisor <= f_max), kept
        # as a guard so a degenerate instance still yields one usable level.
        warnings.warn("degenerate scale range; clamping to a single level")
        rho_min = rho_max
    return Params(
        w=instance.diameter,
        f_max=f_max,
        f_min=f_min,
        n=n,
        rho_min=rho_min,
        rho_max=rho_max,
        delta=rho_max - rho_min + 1,
    )
