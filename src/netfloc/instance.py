"""Problem instances: a finite metric point universe, facilities with positive
opening costs, live clients, and the derived scale parameters that size the
net hierarchy.

An instance keeps its metric once, as the read-only float array built at
load: the distance matrix, or one row of coordinates per point.  The scalar
``Instance.distance`` and the bulk path, ``pair_distances``, both read it.

An L2 distance is ``math.sqrt`` of the squared coordinate differences summed
one dimension at a time, with ``math.dist`` only where that sum is infinite
or below _L2_TINY.  Those are correctly rounded IEEE-754 operations in numpy
and in Python alike, so ``pair_distances`` performs the same operations and
gives ``distance``'s value bit for bit; for the pairs of the other kind it
takes ``math.dist`` of the same coordinate rows, as ``distance`` does.
Matrix entries and L-infinity distances are exact in bulk too.  The F x F
``facility_distances`` table, computed once on first use, is
``pair_distances``' values.  The hierarchy's nodes and lists read nothing
else of the metric.

The diameter is the largest ``distance``, bit for bit: the largest matrix
entry, the largest coordinate range under L-infinity (subtraction is
monotone), and under L2 the root of the largest sum of squares if finite
and at least _L2_TINY, else the largest ``pair_distances``, either scanned
only over the possible ends of the farthest pair.  p's reach is max(fl(x_k
- lo_k), fl(hi_k - x_k)) per coordinate range [lo_k, hi_k]; subtraction,
squaring and addition are monotone, so p's sum with any q is at most the
kernel's over p's reach, exactly.  ``pair_distances``' bound, fl(M·(1 + (d +
12)·2^-52)) + 2^-1022 with M the reach's ``math.dist`` from the origin, holds
too: a pair's value (a root of d squares summing to >= _L2_TINY, or
``math.dist``, CPython's vector norm of the rounded differences, under 1
ulp off since 3.10) is <= (1 + (d/2 + 2)·2^-52)·(N + 2^-1074), N the
reach's exact norm, and N <= (1 + 2^-51)·(M + 2^-1074); the relative slack
covers that product at or above 2^-1022, the added 2^-1022 below.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

METRIC_KINDS = ("explicit-matrix", "euclidean-L2", "euclidean-Linf")

# Relative slack for the triangle check on float matrices; integer-valued
# matrices stay exact.
_TRIANGLE_SLACK = 1e-12

# Entries per block of the blocked pair passes (256 KiB of floats).
_BLOCK_ELEMENTS = 2 ** 15

# Below this sum of squares an L2 distance may have lost bits to underflowing
# squares, so it is ``math.dist``'s value instead, as it is for a sum that
# overflows.
_L2_TINY = 2.0 ** -960

_LOG2_5 = math.log2(5)

# Input values echoed in error messages.  repr's work and length are bounded
# by eliding past 4 levels of nesting, 12 items per container and 60
# characters per string or number, and the echo is cut at _ECHO_LIMIT
# characters; a value within those limits prints as repr prints it (with a
# dict's keys sorted).
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 4
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = _ECHO.maxset = 12
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 60
_ECHO_LIMIT = 100


def echo(value) -> str:
    """``repr(value)`` for an error message, at most _ECHO_LIMIT characters."""
    text = _ECHO.repr(value)
    if len(text) > _ECHO_LIMIT:
        text = text[:_ECHO_LIMIT - 3] + "..."
    return text


def _finite_floats(values) -> tuple | None:
    """``values`` as a tuple of floats, or None unless each is a finite real
    number: bools and strings are not numbers, and an int too large for a
    float is not finite.  Values of the exact types float and int, all that
    JSON gives, skip the per-value ``numbers.Real`` check."""
    if not {float, int}.issuperset(map(type, values)) and not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in values):
        return None
    try:
        floats = tuple(map(float, values))
    except OverflowError:  # an int too large for a float
        return None
    return floats if all(map(math.isfinite, floats)) else None


def _is_finite_number(x) -> bool:
    """True for a finite real number; bools and strings are not numbers."""
    return _finite_floats((x,)) is not None


def _as_list(value, what: str) -> list:
    """The items of a list input field; a scalar, a string or an object
    (whose iteration would yield characters or keys) is an input error."""
    if not isinstance(value, (str, dict)):
        try:
            return list(value)
        except TypeError:
            pass
    raise InstanceError(f"{what} must be a list, got {echo(value)}")


def _squared_sums(arr: np.ndarray, ps, qs) -> np.ndarray:
    """The squared differences of the coordinate rows ``arr[ps]`` and
    ``arr[qs]``, for index arrays that broadcast against each other, summed
    one dimension at a time as ``Instance.distance`` sums them; a sum that
    overflows is inf."""
    cols = arr.T
    with np.errstate(over="ignore"):
        s = cols[0, ps] - cols[0, qs]
        s *= s
        for col in cols[1:]:
            t = col[ps] - col[qs]
            t *= t
            s += t
    return s


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
    """The hierarchy's logradius range, derived from an instance and a
    client-count scale n: its levels run from ``rho_min`` to ``rho_max``.
    A hierarchy depends on nothing else, so ``Instance.hierarchy`` keys its
    memo by this value."""

    rho_min: int
    rho_max: int

    @property
    def delta(self) -> int:
        """The number of levels."""
        return self.rho_max - self.rho_min + 1


def cround(x) -> int:
    """Least integer r with 5**r >= x, for x > 0 (an int, float or Fraction).

    With x = a/b exactly (``as_integer_ratio``), r is the least integer with
    5**r * b >= a, decided in integer arithmetic, so no input suffers a
    float boundary error.
    """
    a, b = x.as_integer_ratio()
    if a <= 0:
        raise ValueError("cround requires a positive argument")

    def covers(r: int) -> bool:  # 5**r >= a/b
        return b * 5 ** r >= a if r >= 0 else b >= a * 5 ** -r

    # a/b lies within a factor of 2 of 2**(bit lengths' difference), so the
    # estimate is within 1/log2(5) < 1 of log5(a/b).
    r = math.floor((a.bit_length() - b.bit_length()) / _LOG2_5)
    while not covers(r):
        r += 1
    while covers(r - 1):
        r -= 1
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
    opening costs must be positive.  The validated metric is kept only as
    ``array``, read-only: the n x n distance matrix, or one row of
    coordinates per point.  Its data is fixed at load and its caches fill
    on first use; concurrent first uses may build twice, with equal
    results.
    """

    def __init__(self, kind, points=None, matrix=None, facilities=(), kappa=None):
        if kind not in METRIC_KINDS:
            raise InstanceError(f"unknown metric kind {echo(kind)}")
        self.kind = kind
        self.kappa = kappa
        if kappa is not None and not (_is_finite_number(kappa) and kappa > 0):
            raise InstanceError(f"kappa must be a positive number when declared, got {echo(kappa)}")
        if kind == "explicit-matrix":
            if points is not None or matrix is None:
                raise InstanceError("explicit-matrix instances take a matrix, not points")
            rows = [_as_list(row, "matrix row") for row in _as_list(matrix, "matrix")]
            floats = [_finite_floats(row) for row in rows]
            if None in floats:  # report the first bad entry in row-major order
                p = floats.index(None)
                q, x = next((q, x) for q, x in enumerate(rows[p]) if not _is_finite_number(x))
                raise InstanceError(f"non-numeric, NaN or infinite distance "
                                    f"for pair ({p}, {q}): {echo(x)}")
            if any(len(row) != len(floats) for row in floats):
                raise InstanceError("distance matrix must be square")
        else:
            if matrix is not None or points is None:
                raise InstanceError("euclidean instances take points, not a matrix")
            floats = [self._coerce_point(p) for p in _as_list(points, "points")]
            if len({len(p) for p in floats}) > 1:
                raise InstanceError("points must share one dimension")
        self.array = np.array(floats, dtype=float)
        self.array.flags.writeable = False
        self.n_points = len(self.array)
        if self.n_points == 0:
            raise InstanceError("instance needs at least one point")
        if kind == "explicit-matrix":
            self._validate_matrix()

        self.facilities: list[Facility] = []
        for fid, (point, cost) in enumerate(facilities):
            try:
                point = self.point_index(point)
            except InstanceError:
                raise InstanceError(
                    f"facility {fid} references unknown point {echo(point)}") from None
            if not _is_finite_number(cost) or cost <= 0:
                raise InstanceError(f"facility {fid} needs a positive opening cost, got {echo(cost)}")
            self.facilities.append(Facility(fid, point, float(cost)))
        if not self.facilities:
            raise InstanceError("instance needs at least one facility")
        self._params = {}
        self._hierarchies = {}
        # First-use caches, plain attributes: a functools.cached_property
        # stores through __dict__, and on CPython 3.11 and 3.12 reading
        # __dict__ slows every later attribute read on the object.
        self._diameter = self._facility_distances = None

    def point_index(self, point) -> int:
        """``point`` as an index into the point universe; an input error
        unless it is an integer (not a bool) in range."""
        if type(point) is not int:  # bools and numpy integers land here
            if isinstance(point, bool) or not isinstance(point, numbers.Integral):
                raise InstanceError(f"point index must be an integer, got {echo(point)}")
            point = int(point)
        if not 0 <= point < self.n_points:
            raise InstanceError(f"point index out of range: {echo(point)}")
        return point

    @staticmethod
    def _coerce_point(p):
        try:
            coords = tuple(p)
        except TypeError:  # a bare number is a one-dimensional point
            coords = (p,)
        floats = _finite_floats(coords)
        if not floats:
            raise InstanceError(f"bad point coordinates {echo(p)}")
        return floats

    def _validate_matrix(self):
        """Metric axioms, checked in bulk.  When several fail, the one
        reported is the first of a pair-by-pair scan: by row p, the
        self-distance of p before the pairs (p, q) with q > p in order of q,
        asymmetry before sign; then ``_check_triangles``."""
        arr, n = self.array, self.n_points
        # A failing pair below the diagonal has a failing mirror in an
        # earlier row, so the first failure in row-major order is the scan's.
        bad = (arr != arr.T) | (arr < 0)
        bad[np.diag_indices(n)] = arr.diagonal() != 0
        if bad.any():
            p, q = divmod(int(bad.argmax()), n)
            if p == q:
                raise InstanceError(f"nonzero self-distance at point {p}")
            if arr[p, q] != arr[q, p]:
                raise InstanceError(f"asymmetric distances for pair ({p}, {q})")
            raise InstanceError(f"negative distance for pair ({p}, {q})")
        self._check_triangles(arr)

    @staticmethod
    def _check_triangles(arr: np.ndarray):
        """The triangle inequality on a symmetric square matrix of finite
        nonnegative floats, with relative slack _TRIANGLE_SLACK; a failure
        is reported as the first of a scan by pivot x, (p, q) in row-major
        order within a pivot.

        (p, q) fails via x when arr[p, q] > g(v), with v = arr[p, x] +
        arr[x, q] and g(v) = fl(v + fl(_TRIANGLE_SLACK * v)).  g is
        monotone, so some pivot fails exactly when g of the least such sum
        does: one min-plus pass decides, and only a failure rescans pivot by
        pivot to name the first.  The matrix is symmetric, and so are its
        least sums, so the pass covers only the pairs on and above the
        diagonal, in row blocks [a, b) x [a, n) of at most _BLOCK_ELEMENTS
        entries (or one row); column x of a block is row x's entries."""
        n = len(arr)
        rows = max(1, _BLOCK_ELEMENTS // n)
        with np.errstate(over="ignore"):  # an infinite sum never fails the test
            for a in range(0, n, rows):
                block = arr[a:a + rows, a:]
                low, via = np.full(block.shape, math.inf), np.empty(block.shape)
                for x in range(n):
                    np.add(arr[x, a:a + rows, None], arr[x, a:], out=via)
                    np.minimum(low, via, out=low)
                if (block > low + _TRIANGLE_SLACK * low).any():
                    break
            else:
                return
            for x in range(n):
                via = arr[:, x, None] + arr[x]     # via[p, q] = m[p][x] + m[x][q]
                bad = arr > via + _TRIANGLE_SLACK * via
                if bad.any():
                    p, q = divmod(int(bad.argmax()), n)
                    raise InstanceError(
                        f"triangle inequality fails for ({p}, {q}) via {x}")

    def pair_distances(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """``distance`` of each pair of valid point indices in ``ps``, ``qs``,
        arrays that broadcast against each other, bit for bit, as an array
        of their broadcast shape, computed in bulk: a matrix gather, the
        L-infinity metric's subtractions, abs and max, or the L2 sum of
        squares, one dimension at a time, and its sqrt.  L2 pairs whose sum
        is infinite or below _L2_TINY take the ``math.dist`` of their
        coordinate rows (0 where the coordinates are equal), which is
        ``distance``'s value for exactly those pairs."""
        arr = self.array
        if self.kind == "explicit-matrix":
            return arr[ps, qs]
        if self.kind == "euclidean-Linf":
            cols = arr.T
            with np.errstate(over="ignore"):
                d = np.abs(cols[0, ps] - cols[0, qs])
                for col in cols[1:]:
                    np.maximum(d, np.abs(col[ps] - col[qs]), out=d)
            return d
        s = _squared_sums(arr, ps, qs)
        odd = ~((s >= _L2_TINY) & (s < math.inf))
        d = np.sqrt(s, out=s)
        if odd.any():
            ps, qs = np.broadcast_arrays(ps, qs)
            d[odd] = list(map(math.dist, arr[ps[odd]].tolist(), arr[qs[odd]].tolist()))
        return d

    def distance(self, p: int, q: int) -> float:
        """Metric distance between two point indices.  An L2 distance is
        the square root of the squared coordinate differences summed one
        dimension at a time, or ``math.dist`` where that sum is infinite or
        below _L2_TINY."""
        if not (0 <= p < self.n_points and 0 <= q < self.n_points):
            raise InstanceError(f"point index out of range: ({p}, {q})")
        if self.kind == "explicit-matrix":
            return float(self.array[p, q])
        a, b = self.array[p].tolist(), self.array[q].tolist()
        if self.kind != "euclidean-L2":
            return max(abs(x - y) for x, y in zip(a, b))
        s = 0.0
        for x, y in zip(a, b):
            t = x - y
            s += t * t
        return math.sqrt(s) if _L2_TINY <= s < math.inf else math.dist(a, b)

    def _largest(self, value, bound: np.ndarray) -> float:
        """The largest ``value`` (a symmetric kernel over broadcasting index
        arrays) of a pair of points, given bound[p] >= value(p, q) for all q:
        both ends of that pair reach the floor, the largest value in two
        rows, so only pairs of the points that reach it are scanned, in row
        blocks, each pair once."""
        idx = np.arange(self.n_points)
        floor = value(int(value(int(bound.argmax()), idx).argmax()), idx).max()
        if floor == math.inf:
            return floor
        keep = idx[bound >= floor]
        rows = max(1, _BLOCK_ELEMENTS // len(keep))
        return max(float(value(keep[start:start + rows, None], keep[start:]).max())
                   for start in range(0, len(keep), rows))

    @property
    def diameter(self) -> float:
        """The largest pairwise distance over the declared point universe,
        bit for bit, with L2's scan cut to the possible ends of the farthest
        pair (see the module docstring); an input error when it overflows.
        Computed on first use and kept; a failed computation keeps nothing."""
        if self._diameter is None:
            self._diameter = self._compute_diameter()
        return self._diameter

    def _compute_diameter(self) -> float:
        if self.kind == "explicit-matrix":
            diameter = float(self.array.max())
        elif self.kind == "euclidean-L2":
            arr, n, d = self.array, self.n_points, self.array.shape[1]
            reach = np.zeros((n + 1, d))  # each point's reach, then the origin
            with np.errstate(over="ignore"):
                np.maximum(arr - arr.min(axis=0), arr.max(axis=0) - arr, out=reach[:n])
                best = self._largest(partial(_squared_sums, arr),
                                     _squared_sums(reach, np.arange(n), n))
                if _L2_TINY <= best < math.inf:
                    diameter = math.sqrt(best)
                else:
                    slack = 1 + (d + 12) * 2.0 ** -52
                    norms = np.array(list(map(math.dist, reach[:n].tolist(), [[0.0] * d] * n)))
                    diameter = self._largest(self.pair_distances, norms * slack + 2.0 ** -1022)
        else:
            arr = self.array
            with np.errstate(over="ignore"):
                diameter = float((arr.max(axis=0) - arr.min(axis=0)).max())
        if not math.isfinite(diameter):
            raise InstanceError("points too far apart: the diameter overflows to inf")
        return diameter

    @property
    def facility_distances(self) -> np.ndarray:
        """Read-only F x F table of distances between facility points, by
        facility id, computed on first use and kept: entry [i, j] is
        ``pair_distances``' value, and so ``distance``'s, for the two
        facilities' points, built a block of at most _BLOCK_ELEMENTS entries
        (or one row) at a time.  Like the metric, the table is symmetric."""
        if self._facility_distances is None:
            fps = np.array([f.point for f in self.facilities])
            rows = max(1, _BLOCK_ELEMENTS // len(fps))
            table = np.concatenate([self.pair_distances(fps[start:start + rows, None], fps)
                                    for start in range(0, len(fps), rows)])
            table.flags.writeable = False
            self._facility_distances = table
        return self._facility_distances

    def hierarchy(self, params: Params):
        """The net hierarchy of ``params``, built on first use and kept for
        the instance's lifetime: it depends on nothing else, so every engine
        over the instance shares it."""
        hierarchy = self._hierarchies.get(params)
        if hierarchy is None:
            from .hierarchy import Hierarchy  # hierarchy.py imports this module
            hierarchy = self._hierarchies[params] = Hierarchy(self, params)
        return hierarchy

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
            except RecursionError:
                raise InstanceError(f"{path}: JSON nested too deeply") from None
        return cls.from_dict(data)


def derive_parameters(instance: Instance, n: int) -> Params:
    """The hierarchy's logradius range for a client-count scale n.  It
    depends on n only through the divisor max(F, n), so the instance keeps
    one ``Params`` per divisor, derived on first use."""
    divisor = max(len(instance.facilities), int(n))
    params = instance._params.get(divisor)
    if params is None:
        costs = [f.opening_cost for f in instance.facilities]
        f_max, f_min = max(costs), min(costs)
        rho_min = cround(Fraction(f_min) / divisor)
        # f_min / divisor <= f_max <= max(diameter, f_max) and cround is
        # monotone, so rho_min <= rho_max.
        rho_max = cround(max(instance.diameter, f_max))
        params = instance._params[divisor] = Params(rho_min, rho_max)
    return params
