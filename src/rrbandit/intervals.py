"""Finite unions of closed intervals with tolerance-based normalization."""

EPSILON = 1e-12


class IntervalSet:
    """A finite union of closed intervals, kept sorted and merged on touch.

    Endpoints closer than EPSILON count as touching, so adjacent spans fuse
    and slivers below the tolerance are dropped during subtraction.
    Degenerate single-point spans are allowed and carry zero measure.
    """

    __slots__ = ("spans",)

    def __init__(self, spans=()):
        cleaned = []
        for a, b in spans:
            a = float(a)
            b = float(b)
            if b < a - EPSILON:
                raise ValueError(f"interval endpoints out of order: ({a}, {b})")
            cleaned.append((a, max(a, b)))
        cleaned.sort()
        merged = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1] + EPSILON:
                if b > merged[-1][1]:
                    merged[-1][1] = b
            else:
                merged.append([a, b])
        self.spans = tuple((a, b) for a, b in merged)

    @classmethod
    def unit(cls):
        return cls([(0.0, 1.0)])

    def measure(self):
        return float(sum(b - a for a, b in self.spans))

    def subtract(self, other):
        """Set difference, closed semantics: kept pieces include their endpoints."""
        out = []
        for a, b in self.spans:
            overlapping = [(c, d) for c, d in other.spans
                           if d >= a - EPSILON and c <= b + EPSILON]
            if not overlapping:
                out.append((a, b))
                continue
            cur = a
            for c, d in overlapping:
                if c - cur > EPSILON:
                    out.append((cur, min(c, b)))
                cur = max(cur, d)
                if cur >= b:
                    break
            if b - cur > EPSILON:
                out.append((cur, b))
        return IntervalSet(out)

    def __repr__(self):
        return f"IntervalSet({list(self.spans)!r})"
