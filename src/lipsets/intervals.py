"""Exact finite unions of closed rational intervals.

Everything downstream (densities, piecewise-linear functions, the recursive
interval systems) stores its endpoints and measures as `fractions.Fraction`,
so every set operation here is exact.  Open/half-open distinctions are
collapsed to closed intervals: all downstream formulas are measure-based and
Lebesgue measure ignores endpoints.

Reads of the cumulative measure Φ go through one integer index.  With D_E
the lcm of the denominators of E's endpoints, every endpoint e and every
prefix mass is an integer on D_E, and a query x is placed among the
endpoints by an integer bisect: e <= x exactly when e·D_E <= ⌊x·D_E⌋, and
e < x exactly when e·D_E < ⌈x·D_E⌉.  `IntervalSet.phi_on` and
`IntervalSet.ends_on` read the index on any integer scale S that D_E
divides, as u ↦ S·Φ(u/S) and the endpoints as integers on S, and
`IntervalSet.locate_on` inverts `phi_on` on the same scale; the Fraction
readers (`cumulative`, `mass`, `endpoints_in`, ...) are built on the same
bisects and turn only their results into Fractions.  The same
floor/ceil rule (`floor_on`, `ceil_on`) places points among a
piecewise-linear function's breakpoints (`pcw.PiecewiseLinear._position`).

`clip`, `complement_within` and `intersect` build results that are
canonical by construction, so they go through `IntervalSet._trusted`,
which neither sorts nor merges; `clip` keeps every component it does not
cut as the same `Interval` object.  Everything else goes through the
canonicalizing constructor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Union

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
    measure are preserved from the raw input.  Results that are canonical
    by construction (`clip`, `complement_within`, `intersect`) skip it
    through `_trusted`.

    Isolated degenerate components are rejected unless
    ``allow_degenerate=True`` (used only for closure examples such as the
    singleton {0}).

    Mass queries go through a prefix-sum index over the components, built on
    the first such query and cached (the set is immutable); sets that are
    never queried never pay for it.  The index holds the endpoints and the
    prefix sums as integers on the scale D_E (`mass_scale`), and every
    bisect into it compares integers (see the module docstring).
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
    def _trusted(cls, intervals: Iterable[Interval]) -> "IntervalSet":
        """A set from components already in canonical form (sorted, gaps
        of positive length, none degenerate), kept as given: no sort, no
        merge and no check."""
        out = object.__new__(cls)
        out._intervals = tuple(intervals)
        return out

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
        D, ends, _, _ = self._mass_index()
        i = bisect_left(ends, ceil_on(x, D))
        return i & 1 == 1 or (i < len(ends) and ends[i] * x.denominator == x.numerator * D)

    # -- measure and algebra ----------------------------------------------

    def measure(self) -> Fraction:
        return sum((iv.length for iv in self._intervals), Fraction(0))

    def _mass_index(self) -> tuple[int, list[int], list[int], list[Fraction]]:
        """(D, ends, cum, fracs): D = D_E, the lcm of the denominators of
        E's endpoints; ends the sorted endpoints lo_0, hi_0, lo_1, ... times
        D; cum[j] = D · the total length of the first j components; fracs
        the endpoints as Fractions."""
        try:
            return self._index
        except AttributeError:
            pass
        fracs = self.endpoints()
        D, ends = own_scale(fracs)
        cum = [0]
        for lo, hi in zip(ends[::2], ends[1::2]):
            cum.append(cum[-1] + (hi - lo))
        self._index = (D, ends, cum, fracs)
        return self._index

    @property
    def mass_scale(self) -> int:
        """D_E: every endpoint of E and every mass between endpoints is an
        integer over it (1 for the empty set)."""
        return self._mass_index()[0]

    def phi_on(self, scale: int, u: int) -> int:
        """scale·Φ(u/scale) for an integer u, on a scale that D_E divides:
        the one integer reader of the mass index."""
        D, ends, cum, _ = self._mass_index()
        m = scale // D
        i = bisect_right(ends, u // m)  # e <= u/scale exactly when e·D <= ⌊u/m⌋
        if i & 1:  # lo_j <= u/scale <= hi_j with j = i // 2
            return m * (cum[i >> 1] - ends[i - 1]) + u
        return m * cum[i >> 1]

    def ends_on(self, scale: int, a: int, b: int) -> list[int]:
        """The endpoints e with a <= e·scale <= b, in order, as the integers
        e·scale, on a scale that D_E divides; in O(log n + k)."""
        D, ends, _, _ = self._mass_index()
        m = scale // D
        return [m * e for e in ends[bisect_left(ends, -(-a // m)):bisect_right(ends, b // m)]]

    def cumulative(self, x: RationalLike) -> Fraction:
        """Φ(x) = |E ∩ (-∞, x]|, in O(log n).

        Closed collapse: endpoints carry no mass, so Φ is continuous and
        nondecreasing, with slope 1 on E and 0 off E, and the function φ
        of `pcw.build_phi` is Φ(x) - Φ(basepoint).
        """
        x = rat(x)
        scale = lcm(self.mass_scale, x.denominator)
        return Fraction(self.phi_on(scale, on_scale(x, scale)), scale)

    def mass(self, a: RationalLike, b: RationalLike) -> Fraction:
        """|E ∩ [a, b]| = Φ(b) - Φ(a), in O(log n); 0 when a == b.

        Open, half-open and closed windows have the same mass (closed
        collapse).  Raises ValueError when a > b, as Interval(a, b) does.
        """
        a, b = rat(a), rat(b)
        if a > b:
            raise ValueError(f"mass window with a > b: [{a}, {b}]")
        scale = lcm(self.mass_scale, a.denominator, b.denominator)
        return Fraction(self.phi_on(scale, on_scale(b, scale))
                        - self.phi_on(scale, on_scale(a, scale)), scale)

    def locate_on(self, scale: int, y: int) -> int:
        """The integer inverse of `phi_on`: u with u/scale the leftmost t
        with Φ(t) = y/scale, for 0 < y <= scale·|E| and a scale that D_E
        divides; ValueError outside that range."""
        D, ends, cum, _ = self._mass_index()
        m = scale // D
        if not 0 < y <= m * cum[-1]:
            raise ValueError(f"no leftmost t with Φ(t) = {Fraction(y, scale)}")
        j = bisect_left(cum, -(-y // m)) - 1
        # cum[j] < y/m <= cum[j + 1]: the solution lies in component j
        return m * (ends[2 * j] - cum[j]) + y

    def endpoints_in(self, lo: RationalLike, hi: RationalLike) -> list[Fraction]:
        """The endpoints e with lo <= e <= hi, in order, in O(log n + k)."""
        D, ends, _, fracs = self._mass_index()
        return fracs[bisect_left(ends, ceil_on(rat(lo), D)):
                     bisect_right(ends, floor_on(rat(hi), D))]

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
        # each piece ends at the end of a component of one set, and the next
        # starts at a later component's start in that set: the gaps stay
        return IntervalSet._trusted(out)

    def clip(self, window: Interval) -> "IntervalSet":
        """self ∩ window in O(log n + k), by bisect on the mass index.

        Equal to intersecting with IntervalSet([window]): components that
        only touch the window, and degenerate ones, drop out, and a
        degenerate window raises ValueError.  Only the first and the last
        component can be cut; every other one is kept as the same object.
        """
        if window.is_degenerate:
            raise ValueError(f"degenerate clip window {window}")
        a, b = window.lo, window.hi
        D, ends, _, _ = self._mass_index()
        # components j with hi_j > a and lo_j < b; ends = lo_0, hi_0, lo_1, ...
        first = bisect_right(ends, floor_on(a, D)) // 2
        stop = (bisect_left(ends, ceil_on(b, D)) + 1) // 2
        out = [iv for j, iv in enumerate(self._intervals[first:stop], first)
               if ends[2 * j] < ends[2 * j + 1]]
        if out and out[0].lo < a:
            out[0] = Interval(a, out[0].hi)
        if out and out[-1].hi > b:
            out[-1] = Interval(out[-1].lo, b)
        return IntervalSet._trusted(out)

    def complement_within(self, window: Interval) -> "IntervalSet":
        """Closed-collapse complement relative to a bounded window.

        The result shares endpoints with self; it is an involution on
        canonical non-degenerate sets within a fixed window.  Its
        components are the gaps of the clipped set together with the
        window's ends; only the first and the last can be degenerate.
        """
        if window.is_degenerate:
            raise ValueError("empty window for complement")
        ends = [window.lo, *(e for iv in self.clip(window) for e in (iv.lo, iv.hi)), window.hi]
        gaps = list(zip(ends[::2], ends[1::2]))
        if gaps[-1][0] == gaps[-1][1]:
            gaps.pop()
        if gaps and gaps[0][0] == gaps[0][1]:
            gaps.pop(0)
        return IntervalSet._trusted([Interval(lo, hi) for lo, hi in gaps])

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

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {"intervals": [[str(iv.lo), str(iv.hi)] for iv in self._intervals]}
        if any(iv.is_degenerate for iv in self._intervals):
            obj["allow_degenerate"] = True
        return obj


def on_scale(x: Fraction, scale: int) -> int:
    """x·scale, for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


def own_scale(xs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(S, X): S, the lcm of the denominators of xs, and X, each x·S, an
    integer; each Fraction is read once."""
    pairs = list(map(Fraction.as_integer_ratio, xs))
    S = lcm(*{d for _, d in pairs})
    return S, [n * (S // d) for n, d in pairs]


def floor_on(x: Fraction, scale: int) -> int:
    """⌊x·scale⌋."""
    return x.numerator * scale // x.denominator


def ceil_on(x: Fraction, scale: int) -> int:
    """⌈x·scale⌉."""
    return -(-x.numerator * scale // x.denominator)
