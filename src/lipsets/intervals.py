"""Exact finite unions of closed rational intervals.

Everything downstream (densities, piecewise-linear functions, the recursive
interval systems) stores its endpoints and measures as `fractions.Fraction`,
so every set operation here is exact.  Open/half-open distinctions are
collapsed to closed intervals: all downstream formulas are measure-based and
Lebesgue measure ignores endpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
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
    never queried never pay for it.
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
        x = rat(x)
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self._intervals[mid]
            if x < iv.lo:
                hi = mid - 1
            elif x > iv.hi:
                lo = mid + 1
            else:
                return True
        return False

    # -- measure and algebra ----------------------------------------------

    def measure(self) -> Fraction:
        return sum((iv.length for iv in self._intervals), Fraction(0))

    def _mass_index(self) -> tuple[list[Fraction], list[Fraction]]:
        """(endpoints, cum): the sorted endpoints lo_0, hi_0, lo_1, ... and
        cum[j] = total length of the first j components."""
        try:
            return self._index
        except AttributeError:
            pass
        ends = self.endpoints()
        cum = [Fraction(0)]
        for iv in self._intervals:
            cum.append(cum[-1] + iv.length)
        self._index = (ends, cum)
        return self._index

    def cumulative(self, x: RationalLike) -> Fraction:
        """Φ(x) = |E ∩ (-∞, x]|, in O(log n).

        Closed collapse: endpoints carry no mass, so Φ is continuous and
        nondecreasing, with slope 1 on E and 0 off E, and the function φ
        of `pcw.build_phi` is Φ(x) - Φ(basepoint).
        """
        x = rat(x)
        ends, cum = self._mass_index()
        p = bisect_right(ends, x)
        if p & 1:  # lo_j <= x < hi_j with j = p // 2
            return cum[p >> 1] + (x - ends[p - 1])
        return cum[p >> 1]

    def mass(self, a: RationalLike, b: RationalLike) -> Fraction:
        """|E ∩ [a, b]| = Φ(b) - Φ(a), in O(log n); 0 when a == b.

        Open, half-open and closed windows have the same mass (closed
        collapse).  Raises ValueError when a > b, as Interval(a, b) does.
        """
        a, b = rat(a), rat(b)
        if a > b:
            raise ValueError(f"mass window with a > b: [{a}, {b}]")
        return self.cumulative(b) - self.cumulative(a)

    def locate(self, m: RationalLike, rightmost: bool = False) -> Fraction:
        """Inverse of Φ: the leftmost t with Φ(t) = m (0 < m <= |E|), or
        with rightmost=True the rightmost one (0 <= m < |E|).

        Φ is constant across a gap of E, so a value m reached at a gap has
        the gap's left end as leftmost and its right end as rightmost
        solution.  Raises ValueError outside those ranges, where the
        solution set is empty or unbounded.
        """
        m = rat(m)
        ends, cum = self._mass_index()
        if rightmost:
            if not 0 <= m < cum[-1]:
                raise ValueError(f"no rightmost t with Φ(t) = {m}")
            j = bisect_right(cum, m) - 1
        else:
            if not 0 < m <= cum[-1]:
                raise ValueError(f"no leftmost t with Φ(t) = {m}")
            j = bisect_left(cum, m) - 1
        # cum[j] <= m <= cum[j + 1]: the solution lies in component j
        return ends[2 * j] + (m - cum[j])

    def endpoints_in(self, lo: RationalLike, hi: RationalLike) -> list[Fraction]:
        """The endpoints e with lo <= e <= hi, in order, in O(log n + k)."""
        ends, _ = self._mass_index()
        return ends[bisect_left(ends, rat(lo)):bisect_right(ends, rat(hi))]

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
        ends, _ = self._mass_index()
        # components j with hi_j > a and lo_j < b; ends = lo_0, hi_0, lo_1, ...
        first = bisect_right(ends, a) // 2
        stop = (bisect_left(ends, b) + 1) // 2
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


def canonicalize(raw: Sequence[Interval], allow_degenerate: bool = False) -> IntervalSet:
    """Spec-level entry point; the IntervalSet constructor does the work."""
    return IntervalSet(raw, allow_degenerate=allow_degenerate)
