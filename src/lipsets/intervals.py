"""Exact finite unions of closed rational intervals.

Everything downstream (densities, piecewise-linear functions, the recursive
interval systems) stores its endpoints and measures as `fractions.Fraction`,
so every set operation here is exact.  Open/half-open distinctions are
collapsed to closed intervals: all downstream formulas are measure-based and
Lebesgue measure ignores endpoints.

Reads of the cumulative measure Φ are bisects into a sorted index of
Fractions, filtered by floats.  Each index entry e carries the key
float(e), and a query x bisects the keys with float(x).  The conversion
is correctly rounded, hence monotone: e <= x implies float(e) <= float(x),
so float(e) < float(x) implies e < x and float(e) > float(x) implies e > x.
Only the run of keys equal to float(x) is left open, and an exact bisect
on its Fractions settles it; that run is usually empty or one entry.  A
value beyond the float range maps to ±inf, which keeps the order, and one
too small maps to ±0.0, which ties with 0.  Positions, and so every output,
are those of an exact bisect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a finite-decimal string to Fraction.

    Floats are rejected: they would silently break exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True, order=True)
class Interval:
    """Closed rational interval [lo, hi].

    Degenerate intervals (lo == hi) are legal at this level but an
    IntervalSet only accepts them through its explicit flag.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval with lo > hi: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: RationalLike) -> "Interval":
        x = rat(x)
        return cls(x, x)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: RationalLike) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


class IntervalSet:
    """Canonical finite union of closed rational intervals.

    Canonical form: components sorted by lo, pairwise disjoint, with gaps of
    positive length between consecutive components.  The constructor always
    canonicalizes (sort, merge overlapping/adjacent), so membership and
    measure are preserved from the raw input.

    Isolated degenerate components are rejected unless
    ``allow_degenerate=True`` (used only for closure examples such as the
    singleton {0}).

    Mass queries go through a prefix-sum index over the components, built on
    the first such query and cached (the set is immutable); sets that are
    never queried never pay for it.  The index holds a float key for each
    endpoint and each prefix sum, and every bisect into it compares keys
    first and Fractions only where a key ties with the query's (see the
    module docstring): exact positions at float speed.
    """

    __slots__ = ("_intervals", "_index")

    def __init__(self, intervals: Iterable[Interval] = (), allow_degenerate: bool = False):
        raw = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: list[Interval] = []
        for iv in raw:
            if merged and iv.lo <= merged[-1].hi:
                last = merged[-1]
                if iv.hi > last.hi:
                    merged[-1] = Interval(last.lo, iv.hi)
            else:
                merged.append(iv)
        if not allow_degenerate:
            for iv in merged:
                if iv.is_degenerate:
                    raise ValueError(
                        f"isolated degenerate interval {iv}; pass allow_degenerate=True"
                    )
        self._intervals = tuple(merged)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[RationalLike, RationalLike]],
                   allow_degenerate: bool = False) -> "IntervalSet":
        return cls((Interval(rat(a), rat(b)) for a, b in pairs), allow_degenerate)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def from_json(cls, obj: dict) -> "IntervalSet":
        return cls.from_pairs(
            [(a, b) for a, b in obj["intervals"]],
            allow_degenerate=bool(obj.get("allow_degenerate", False)),
        )

    # -- structure --------------------------------------------------------

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    @property
    def is_empty(self) -> bool:
        return not self._intervals

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self):
        inner = ", ".join(repr(iv) for iv in self._intervals)
        return f"IntervalSet({inner})"

    def endpoints(self) -> list[Fraction]:
        out: list[Fraction] = []
        for iv in self._intervals:
            out.append(iv.lo)
            out.append(iv.hi)
        return out

    def hull(self) -> Optional[Interval]:
        if self.is_empty:
            return None
        return Interval(self._intervals[0].lo, self._intervals[-1].hi)

    def contains(self, x: RationalLike) -> bool:
        """x ∈ E, by one bisect on the mass index's endpoints: an odd
        position means lo_j < x <= hi_j, an even one that x is in E only if
        it is the next lo."""
        x = rat(x)
        ends, _, keys, _ = self._mass_index()
        i = _position(keys, ends, x, bisect_left)
        return i & 1 == 1 or (i < len(ends) and ends[i] == x)

    # -- measure and algebra ----------------------------------------------

    def measure(self) -> Fraction:
        return sum((iv.length for iv in self._intervals), Fraction(0))

    def _mass_index(self) -> tuple[list[Fraction], list[Fraction], list[float], list[float]]:
        """(ends, cum, end_keys, cum_keys): the sorted endpoints lo_0, hi_0,
        lo_1, ..., cum[j] = total length of the first j components, and the
        float key of each entry of both lists."""
        try:
            return self._index
        except AttributeError:
            pass
        ends = self.endpoints()
        cum = [Fraction(0)]
        for iv in self._intervals:
            cum.append(cum[-1] + iv.length)
        self._index = (ends, cum, [_key(e) for e in ends], [_key(c) for c in cum])
        return self._index

    def _phi_at(self, x: Fraction) -> Fraction:
        ends, cum, keys, _ = self._mass_index()
        return _phi(ends, cum, _position(keys, ends, x, bisect_right), x)

    def cumulative(self, x: RationalLike) -> Fraction:
        """Φ(x) = |E ∩ (-∞, x]|, in O(log n).

        Closed collapse: endpoints carry no mass, so Φ is continuous and
        nondecreasing, with slope 1 on E and 0 off E, and the function φ
        of `pcw.build_phi` is Φ(x) - Φ(basepoint).
        """
        return self._phi_at(rat(x))

    def mass(self, a: RationalLike, b: RationalLike) -> Fraction:
        """|E ∩ [a, b]| = Φ(b) - Φ(a), in O(log n); 0 when a == b.

        Open, half-open and closed windows have the same mass (closed
        collapse).  Raises ValueError when a > b, as Interval(a, b) does.
        """
        a, b = rat(a), rat(b)
        if a > b:
            raise ValueError(f"mass window with a > b: [{a}, {b}]")
        return self._phi_at(b) - self._phi_at(a)

    def locate(self, m: RationalLike, rightmost: bool = False) -> Fraction:
        """Inverse of Φ: the leftmost t with Φ(t) = m (0 < m <= |E|), or
        with rightmost=True the rightmost one (0 <= m < |E|).

        Φ is constant across a gap of E, so a value m reached at a gap has
        the gap's left end as leftmost and its right end as rightmost
        solution.  Raises ValueError outside those ranges, where the
        solution set is empty or unbounded.
        """
        m = rat(m)
        ends, cum, _, cum_keys = self._mass_index()
        if rightmost:
            if not 0 <= m < cum[-1]:
                raise ValueError(f"no rightmost t with Φ(t) = {m}")
            j = _position(cum_keys, cum, m, bisect_right) - 1
        else:
            if not 0 < m <= cum[-1]:
                raise ValueError(f"no leftmost t with Φ(t) = {m}")
            j = _position(cum_keys, cum, m, bisect_left) - 1
        # cum[j] <= m <= cum[j + 1]: the solution lies in component j
        return ends[2 * j] + (m - cum[j])

    def masses_from(self, x0: RationalLike, b: RationalLike) -> list[tuple[Fraction, Fraction]]:
        """[(p, |E ∩ [x0, p]|)] for every endpoint p of E with x0 < p < b,
        in order and each once (a degenerate component gives one p), then
        for p = b, for x0 <= b.  Two bisects locate x0 and b in the mass
        index; the rest is a forward walk over it, in O(log n + k)."""
        x0, b = rat(x0), rat(b)
        ends, cum, keys, _ = self._mass_index()
        i = _position(keys, ends, x0, bisect_right)
        stop = _position(keys, ends, b, bisect_left)
        base = _phi(ends, cum, i, x0)
        out = []
        last = x0
        for i in range(i, stop):
            p = ends[i]
            if p != last:
                out.append((p, cum[(i + 1) >> 1] - base))  # Φ(lo_j) = cum[j], Φ(hi_j) = cum[j + 1]
                last = p
        out.append((b, _phi(ends, cum, stop, b) - base))
        return out

    def endpoints_in(self, lo: RationalLike, hi: RationalLike) -> list[Fraction]:
        """The endpoints e with lo <= e <= hi, in order, in O(log n + k)."""
        ends, _, keys, _ = self._mass_index()
        start = _position(keys, ends, rat(lo), bisect_left)
        return ends[start:_position(keys, ends, rat(hi), bisect_right)]

    def union(self, other: "IntervalSet") -> "IntervalSet":
        allow = any(iv.is_degenerate for iv in self._intervals + other._intervals)
        return IntervalSet(self._intervals + other._intervals, allow_degenerate=allow)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        i = j = 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if lo < hi:
                out.append(Interval(lo, hi))
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def clip(self, window: Interval) -> "IntervalSet":
        """self ∩ window in O(log n + k), by bisect on the mass index.

        Equal to intersecting with IntervalSet([window]): components that
        only touch the window, and degenerate ones, drop out, and a
        degenerate window raises ValueError.
        """
        if window.is_degenerate:
            raise ValueError(f"degenerate clip window {window}")
        a, b = window.lo, window.hi
        ends, _, keys, _ = self._mass_index()
        # components j with hi_j > a and lo_j < b; ends = lo_0, hi_0, lo_1, ...
        first = _position(keys, ends, a, bisect_right) // 2
        stop = (_position(keys, ends, b, bisect_left) + 1) // 2
        out = []
        for iv in self._intervals[first:stop]:
            lo, hi = max(iv.lo, a), min(iv.hi, b)
            if lo < hi:
                out.append(Interval(lo, hi))
        return IntervalSet(out)

    def complement_within(self, window: Interval) -> "IntervalSet":
        """Closed-collapse complement relative to a bounded window.

        The result shares endpoints with self; it is an involution on
        canonical non-degenerate sets within a fixed window.
        """
        if window.is_degenerate:
            raise ValueError("empty window for complement")
        out: list[Interval] = []
        cursor = window.lo
        for iv in self.clip(window):
            if iv.lo > cursor:
                out.append(Interval(cursor, iv.lo))
            cursor = max(cursor, iv.hi)
        if cursor < window.hi:
            out.append(Interval(cursor, window.hi))
        return IntervalSet(out)

    def distance(self, other: "IntervalSet") -> Optional[Fraction]:
        """Lower distance inf{|x - y|}; None is the infinity flag (empty set)."""
        if self.is_empty or other.is_empty:
            return None
        best: Optional[Fraction] = None
        i = j = 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            gap = max(a[i].lo, b[j].lo) - min(a[i].hi, b[j].hi)
            d = gap if gap > 0 else Fraction(0)
            if best is None or d < best:
                best = d
            if best == 0:
                return Fraction(0)
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return best

    def distance_to_point(self, x: RationalLike) -> Optional[Fraction]:
        return self.distance(IntervalSet([Interval.point(rat(x))], allow_degenerate=True))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {"intervals": [[str(iv.lo), str(iv.hi)] for iv in self._intervals]}
        if any(iv.is_degenerate for iv in self._intervals):
            obj["allow_degenerate"] = True
        return obj


def _key(x: Fraction) -> float:
    """float(x), correctly rounded, with ±inf beyond the float range."""
    try:
        return x.numerator / x.denominator
    except OverflowError:
        return inf if x > 0 else -inf


def _position(keys: list[float], exact: list[Fraction], x: Fraction, bisect) -> int:
    """bisect(exact, x) for bisect_left or bisect_right, with keys[i] the
    key of exact[i].  Entries whose key is below or above x's key are below
    or above x; only the run of keys equal to x's is bisected exactly."""
    k = _key(x)
    lo = bisect_left(keys, k)
    if lo == len(keys) or keys[lo] != k:
        return lo
    return bisect(exact, x, lo, bisect_right(keys, k, lo))


def _phi(ends: list[Fraction], cum: list[Fraction], i: int, x: Fraction) -> Fraction:
    """Φ(x) from the mass index, for x whose bisect position among the
    endpoints is i (either side of an endpoint equal to x)."""
    if i & 1:  # lo_j <= x <= hi_j with j = i // 2
        return cum[i >> 1] + (x - ends[i - 1])
    return cum[i >> 1]


def canonicalize(raw: Sequence[Interval], allow_degenerate: bool = False) -> IntervalSet:
    """Spec-level entry point; the IntervalSet constructor does the work."""
    return IntervalSet(raw, allow_degenerate=allow_degenerate)
