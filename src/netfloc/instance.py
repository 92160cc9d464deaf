"""Problem instances: a finite metric point universe, facilities with positive
opening costs, live clients, and the derived scale parameters that size the
net hierarchy.

An L2 distance is ``math.sqrt`` of the squared coordinate differences summed
one dimension at a time, with ``math.dist`` only where that sum is infinite
or below _L2_TINY.  Those are correctly rounded IEEE-754 operations in numpy
and in Python alike, so the bulk path, ``pair_distances``, performs the same
operations and gives ``Instance.distance``'s value bit for bit; it hands the
pairs of the other kind to it.  Matrix entries and L-infinity distances are
exact in bulk too.  The F x F ``facility_distances`` table, computed once on
first use, is ``pair_distances``' values.  The hierarchy's nodes and lists
read nothing else of the metric.

The L2 diameter is the square root of the largest of those sums over all
pairs, from one blocked pass over each unordered pair, so it is the farthest
pair's ``distance`` when that sum is finite and at least _L2_TINY.  When a
square overflows, the pass runs on coordinates scaled by 2**-600, and the
diameter may differ from the largest ``distance``, ``math.dist``'s there, by
rounding (a relative (d + 4) * 2**-53 at most in d dimensions); below
_L2_TINY it is the largest ``distance``, from a scalar pass.  The L-infinity
one is the largest coordinate range.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

METRIC_KINDS = ("explicit-matrix", "euclidean-L2", "euclidean-Linf")

# Relative slack for the triangle check on float matrices; integer-valued
# matrices stay exact.
_TRIANGLE_SLACK = 1e-12

# Coordinates are multiplied by this power of two when the squared L2
# diameter overflows; it keeps squares of the largest floats finite.
_L2_SCALE = 2.0 ** -600

# Elements per buffer of the blocked pair passes (two 256 KiB buffers).
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


def _pair_blocks(arr: np.ndarray):
    """Yield the sums of the squared differences of the pairs of rows of
    ``arr``, summed one dimension at a time, a block of rows at a time:
    ``block[i, j]`` is the sum of rows ``start + i`` and ``start + j``, with
    ``start`` the block's first row, so each unordered pair comes once.
    Blocks hold at most _BLOCK_ELEMENTS entries (or one row) and share one
    buffer, so each is valid until the next is yielded.  The caller sets
    numpy's handling of overflow."""
    n, d = arr.shape
    rows = max(1, _BLOCK_ELEMENTS // n)
    cols_t = np.ascontiguousarray(arr.T)
    acc, tmp = np.empty(rows * n), np.empty(rows * n)
    for start in range(0, n, rows):
        block = arr[start:start + rows, :, None]
        cols = cols_t[:, start:]
        a, t = (b[:len(block) * cols.shape[1]].reshape(len(block), -1) for b in (acc, tmp))
        np.subtract(block[:, 0], cols[0], out=a)
        np.multiply(a, a, out=a)
        for k in range(1, d):
            np.subtract(block[:, k], cols[k], out=t)
            np.multiply(t, t, out=t)
            np.add(a, t, out=a)
        yield a


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
    opening costs must be positive.  Its data is fixed at load and its
    caches fill on first use; concurrent first uses may build twice, with
    equal results.
    """

    def __init__(self, kind, points=None, matrix=None, facilities=(), kappa=None):
        if kind not in METRIC_KINDS:
            raise InstanceError(f"unknown metric kind {echo(kind)}")
        self.kind = kind
        self.kappa = kappa
        self._array = None
        if kappa is not None and not (_is_finite_number(kappa) and kappa > 0):
            raise InstanceError(f"kappa must be a positive number when declared, got {echo(kappa)}")
        if kind == "explicit-matrix":
            if points is not None or matrix is None:
                raise InstanceError("explicit-matrix instances take a matrix, not points")
            rows = [_as_list(row, "matrix row") for row in _as_list(matrix, "matrix")]
            self._matrix = [_finite_floats(row) for row in rows]
            if None in self._matrix:  # report the first bad entry in row-major order
                p = self._matrix.index(None)
                q, x = next((q, x) for q, x in enumerate(rows[p]) if not _is_finite_number(x))
                raise InstanceError(f"non-numeric, NaN or infinite distance "
                                    f"for pair ({p}, {q}): {echo(x)}")
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
        self._diameter = None
        self._facility_distances = None
        self._params = {}
        self._hierarchies = {}

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
        m = self._matrix
        n = len(m)
        if any(len(row) != n for row in m):
            raise InstanceError("distance matrix must be square")
        arr = self.array.reshape(n, n)
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
        """The triangle inequality on a square matrix of finite nonnegative
        floats, with relative slack _TRIANGLE_SLACK; a failure is reported
        as the first of a scan by pivot x, (p, q) in row-major order within
        a pivot.

        (p, q) fails via x when arr[p, q] > g(v), with v = arr[p, x] +
        arr[x, q] and g(v) = fl(v + fl(_TRIANGLE_SLACK * v)).  g is
        monotone, so some pivot fails exactly when g of the least such sum
        does: one min-plus pass over two n x n buffers decides, and only a
        failure rescans pivot by pivot to name the first."""
        n = len(arr)
        with np.errstate(over="ignore"):  # an infinite sum never fails the test
            low, via = np.full((n, n), math.inf), np.empty((n, n))
            for x in range(n):
                np.add(arr[:, x, None], arr[x], out=via)
                np.minimum(low, via, out=low)
            if not (arr > low + _TRIANGLE_SLACK * low).any():
                return
            for x in range(n):
                via = arr[:, x, None] + arr[x]     # via[p, q] = m[p][x] + m[x][q]
                bad = arr > via + _TRIANGLE_SLACK * via
                if bad.any():
                    p, q = divmod(int(bad.argmax()), n)
                    raise InstanceError(
                        f"triangle inequality fails for ({p}, {q}) via {x}")

    @property
    def array(self) -> np.ndarray:
        """The metric's floats as a read-only array, built once: the distance
        matrix, or one row of coordinates per point."""
        if self._array is None:
            arr = np.array(self._points if self._matrix is None else self._matrix,
                           dtype=float)
            arr.flags.writeable = False
            self._array = arr
        return self._array

    def pair_distances(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """``distance`` of each pair of valid point indices in ``ps``, ``qs``,
        arrays that broadcast against each other, bit for bit, as an array
        of their broadcast shape, computed in bulk: a matrix gather, the
        L-infinity metric's subtractions, abs and max, or the L2 sum of
        squares, one dimension at a time, and its sqrt.  L2 pairs whose sum
        is infinite or below _L2_TINY go to ``distance``."""
        arr = self.array
        if self._matrix is not None:
            return arr[ps, qs]
        cols = arr.T
        with np.errstate(over="ignore"):
            if self.kind == "euclidean-Linf":
                d = np.abs(cols[0, ps] - cols[0, qs])
                for col in cols[1:]:
                    np.maximum(d, np.abs(col[ps] - col[qs]), out=d)
                return d
            s = cols[0, ps] - cols[0, qs]
            s *= s
            for col in cols[1:]:
                t = col[ps] - col[qs]
                t *= t
                s += t
        odd = ~((s >= _L2_TINY) & (s < math.inf))
        d = np.sqrt(s, out=s)
        if odd.any():
            ps, qs = np.broadcast_arrays(ps, qs)
            d[odd] = self._scalar_distances(ps[odd], qs[odd])
        return d

    def distance(self, p: int, q: int) -> float:
        """Metric distance between two point indices.  An L2 distance is
        the square root of the squared coordinate differences summed one
        dimension at a time, or ``math.dist`` where that sum is infinite or
        below _L2_TINY."""
        if not (0 <= p < self.n_points and 0 <= q < self.n_points):
            raise InstanceError(f"point index out of range: ({p}, {q})")
        if self._matrix is not None:
            return self._matrix[p][q]
        a, b = self._points[p], self._points[q]
        if self.kind != "euclidean-L2":
            return max(abs(x - y) for x, y in zip(a, b))
        if len(a) == 2:
            dx, dy = a[0] - b[0], a[1] - b[1]
            s = dx * dx + dy * dy
        else:
            s = 0.0
            for x, y in zip(a, b):
                t = x - y
                s += t * t
        return math.sqrt(s) if _L2_TINY <= s < math.inf else math.dist(a, b)

    @property
    def diameter(self) -> float:
        """The largest pairwise distance over the declared point universe,
        up to rounding when an L2 square overflows (see the module
        docstring); an input error when it overflows to infinity."""
        if self._diameter is None:
            if self._matrix is not None:
                diameter = max(max(row) for row in self._matrix)
            elif self.kind == "euclidean-L2":
                # The largest sum of squares is the farthest pair's sum in
                # ``distance``.  When a square overflows, the pass is redone
                # on coordinates scaled by an exact power of two, and its
                # root may differ from ``math.dist``'s by rounding.  Below
                # _L2_TINY every distance is ``math.dist``'s, not the sum's.
                for scale in (1.0, _L2_SCALE):
                    with np.errstate(over="ignore"):
                        best = max(float(a.max()) for a in
                                   _pair_blocks(self.array * scale))
                    if best < math.inf:
                        break
                diameter = math.sqrt(best) / scale
                if best < _L2_TINY:
                    diameter = max((self.distance(p, q) for p in range(self.n_points)
                                    for q in range(p)), default=0.0)
            else:
                # Float subtraction is monotone in each operand, so the
                # largest |p_k - q_k| over all pairs is fl(max_k - min_k).
                arr = self.array
                with np.errstate(over="ignore"):
                    diameter = float((arr.max(axis=0) - arr.min(axis=0)).max())
            if not math.isfinite(diameter):
                raise InstanceError("points too far apart: the diameter overflows to inf")
            self._diameter = diameter
        return self._diameter

    @property
    def facility_distances(self) -> np.ndarray:
        """Read-only F x F table of distances between facility points, by
        facility id, computed on first use: entry [i, j] is
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

    def _scalar_distances(self, ps: np.ndarray, qs: np.ndarray) -> list[float]:
        """``distance`` of each pair of points in ``ps``, ``qs``, or 0 where
        their coordinates are equal."""
        arr = self.array
        same = (arr[ps] == arr[qs]).all(axis=1).tolist()
        return [0.0 if eq else self.distance(p, q)
                for p, q, eq in zip(ps.tolist(), qs.tolist(), same)]

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
