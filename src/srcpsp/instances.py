"""Project instances: PSPLIB-style parsing, stochastic noising, duration sampling.

The deterministic model is RCPSP/max: activities with integer durations,
renewable-resource demands, and weighted start-to-start constraints
``s_j - s_i >= w`` (negative reverse arcs encode maximal lags).  The
stochastic variant replaces each real activity's duration with a discrete
uniform variable on integer bounds derived from an epsilon noise level.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction


class ParseError(ValueError):
    """Raised for malformed instance text; messages name the offending line."""


@dataclass(frozen=True)
class ProjectInstance:
    """Deterministic RCPSP/max instance.

    Activities are indexed 0..n+1 where 0 is the source and n+1 the sink,
    both with zero duration and zero demand.  ``demands`` is resource-major:
    ``demands[r][j]`` is activity j's demand on resource r.  A temporal
    constraint ``(i, j, w)`` means ``s_j - s_i >= w``.
    """

    activity_count: int
    durations: tuple[int, ...]
    demands: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    temporal_constraints: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = self.activity_count
        total = n + 2
        if len(self.durations) != total:
            raise ValueError(f"expected {total} durations, got {len(self.durations)}")
        if any(d < 0 for d in self.durations):
            raise ValueError("durations must be nonnegative")
        if self.durations[0] != 0 or self.durations[total - 1] != 0:
            raise ValueError("source and sink must have duration 0")
        if len(self.demands) != len(self.capacities):
            raise ValueError("one demand row per resource required")
        for r, row in enumerate(self.demands):
            if len(row) != total:
                raise ValueError(f"resource {r}: expected {total} demands, got {len(row)}")
            if row[0] != 0 or row[total - 1] != 0:
                raise ValueError("source and sink must have zero demand")
            if any(q < 0 for q in row):
                raise ValueError("demands must be nonnegative")
            if any(q > self.capacities[r] for q in row):
                raise ValueError(f"resource {r}: demand exceeds capacity")
        if any(c < 1 for c in self.capacities):
            raise ValueError("capacities must be >= 1")
        for i, j, _ in self.temporal_constraints:
            if not (0 <= i < total and 0 <= j < total):
                raise ValueError(f"constraint ({i}, {j}) out of activity range")

    @property
    def n_activities(self) -> int:
        """Total activity count including source and sink."""
        return self.activity_count + 2

    @property
    def n_resources(self) -> int:
        return len(self.capacities)


@dataclass(frozen=True)
class StochasticInstance:
    """RCPSP/max instance with discrete-uniform duration bounds per activity."""

    base: ProjectInstance
    bounds: tuple[tuple[int, int], ...]
    epsilon: float

    def __post_init__(self) -> None:
        total = self.base.n_activities
        if len(self.bounds) != total:
            raise ValueError(f"expected {total} bound pairs, got {len(self.bounds)}")
        for j, (lb, ub) in enumerate(self.bounds):
            if lb > ub:
                raise ValueError(f"activity {j}: lb {lb} > ub {ub}")
            if ub >= 2**63:  # sample_durations draws int64 values
                raise ValueError(f"activity {j}: upper bound {ub} is not below 2**63")
            if j in (0, total - 1):
                if (lb, ub) != (0, 0):
                    raise ValueError("source and sink bounds must be (0, 0)")
            elif lb < 1:
                raise ValueError(f"activity {j}: lower bound must be >= 1")


@dataclass(frozen=True)
class DurationSample:
    """One realized duration vector; ``seed`` is None for derived (non-sampled) vectors."""

    durations: tuple[int, ...]
    seed: int | None = None


_WEIGHT_RE = re.compile(r"\[\s*(-?\d+)\s*\]")


def _int_tokens(parts: list[str], line_no: int) -> list[int]:
    values = []
    for tok in parts:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"line {line_no}: non-integer token {tok!r}") from None
    return values


def parse_psplib(text: str) -> ProjectInstance:
    """Parse RCPSP/max "sch" text.

    Layout: header ``n R _ _``; n+2 precedence lines
    ``id mode #succ succ... [w]...`` with one bracketed weight per successor;
    n+2 requirement lines ``id mode duration demand_1..demand_R``; final line
    of R capacities.  Lines starting with ``#`` and blank lines are ignored.
    """
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((no, stripped))
    if not lines:
        raise ParseError("line 1: empty input")

    head_no, head = lines[0]
    head_parts = head.split()
    if len(head_parts) != 4:
        raise ParseError(f"line {head_no}: header must have 4 fields, got {len(head_parts)}")
    n, n_res, _, _ = _int_tokens(head_parts, head_no)
    if n < 0 or n_res < 1:
        raise ParseError(f"line {head_no}: invalid header counts n={n} R={n_res}")
    total = n + 2
    expected = 1 + 2 * total + 1
    if len(lines) != expected:
        raise ParseError(
            f"line {lines[-1][0]}: expected {expected} content lines for n={n}, got {len(lines)}"
        )
    cap_no, cap_line = lines[-1]
    capacities = _int_tokens(cap_line.split(), cap_no)
    if len(capacities) != n_res:
        raise ParseError(f"line {cap_no}: expected {n_res} capacities, got {len(capacities)}")
    if any(c < 1 for c in capacities):
        raise ParseError(f"line {cap_no}: capacities must be >= 1")

    constraints: list[tuple[int, int, int]] = []
    seen_prec: set[int] = set()
    for no, line in lines[1 : 1 + total]:
        weights = [int(w) for w in _WEIGHT_RE.findall(line)]
        plain = _int_tokens(_WEIGHT_RE.sub(" ", line).split(), no)
        if len(plain) < 3:
            raise ParseError(f"line {no}: precedence line needs id, mode and successor count")
        act, _mode, n_succ = plain[0], plain[1], plain[2]
        if not 0 <= act < total:
            raise ParseError(f"line {no}: activity id {act} out of range 0..{total - 1}")
        if act in seen_prec:
            raise ParseError(f"line {no}: duplicate precedence line for activity {act}")
        seen_prec.add(act)
        succs = plain[3:]
        if len(succs) != n_succ or len(weights) != n_succ:
            raise ParseError(
                f"line {no}: activity {act} declares {n_succ} successors, "
                f"got {len(succs)} ids and {len(weights)} weights"
            )
        for k, w in zip(succs, weights):
            if not 0 <= k < total:
                raise ParseError(f"line {no}: successor {k} out of range 0..{total - 1}")
            constraints.append((act, k, w))

    requirements: dict[int, list[int]] = {}  # activity -> [duration, demand_1..demand_R]
    for no, line in lines[1 + total : 1 + 2 * total]:
        parts = _int_tokens(line.split(), no)
        if len(parts) != 3 + n_res:
            raise ParseError(f"line {no}: requirement line needs {3 + n_res} fields, got {len(parts)}")
        act, _mode, dur = parts[0], parts[1], parts[2]
        if not 0 <= act < total:
            raise ParseError(f"line {no}: activity id {act} out of range 0..{total - 1}")
        if act in requirements:
            raise ParseError(f"line {no}: duplicate requirement line for activity {act}")
        if dur < 0:
            raise ParseError(f"line {no}: negative duration {dur}")
        if act in (0, total - 1) and (dur != 0 or any(q != 0 for q in parts[3:])):
            raise ParseError(f"line {no}: source/sink must have zero duration and demand")
        for r, (q, cap) in enumerate(zip(parts[3:], capacities)):
            if q < 0:
                raise ParseError(f"line {no}: negative demand {q}")
            if q > cap:
                raise ParseError(f"line {no}: activity {act} demands {q} of resource {r} (capacity {cap})")
        requirements[act] = parts[2:]

    durations, *demands = zip(*(requirements[j] for j in range(total)))
    return ProjectInstance(
        activity_count=n,
        durations=durations,
        demands=tuple(demands),
        capacities=tuple(capacities),
        temporal_constraints=tuple(constraints),
    )


def serialize_psplib(inst: ProjectInstance) -> str:
    """Emit the canonical "sch" form; parse(serialize(parse(text))) round-trips."""
    total = inst.n_activities
    out = [f"{inst.activity_count} {inst.n_resources} 0 0"]
    by_source: dict[int, list[tuple[int, int]]] = {j: [] for j in range(total)}
    for i, j, w in inst.temporal_constraints:
        by_source[i].append((j, w))
    for j in range(total):
        arcs = by_source[j]
        succ = " ".join(str(k) for k, _ in arcs)
        weights = " ".join(f"[{w}]" for _, w in arcs)
        out.append(" ".join(x for x in (f"{j} 1 {len(arcs)}", succ, weights) if x))
    for j in range(total):
        row = " ".join(str(inst.demands[r][j]) for r in range(inst.n_resources))
        out.append(f"{j} 1 {inst.durations[j]} {row}")
    out.append(" ".join(str(c) for c in inst.capacities))
    return "\n".join(out) + "\n"


def _round_half_away(x: float) -> int:
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def make_stochastic(inst: ProjectInstance, epsilon: float) -> StochasticInstance:
    """Derive duration bounds lb = max(1, round(d - eps*sqrt(d))), ub = round(d + eps*sqrt(d)).

    Rounding is half-away-from-zero.  Source and sink stay deterministic at
    (0, 0).  With d = 0 the raw ub rounds below the clamped lb, so ub is
    lifted to lb to keep the bounds ordered.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    total = inst.n_activities
    bounds: list[tuple[int, int]] = []
    for j, d in enumerate(inst.durations):
        if j in (0, total - 1):
            bounds.append((0, 0))
            continue
        spread = epsilon * math.sqrt(d)
        if not d + spread < 2**63:  # sample_durations draws int64 values below 2**63
            raise ValueError(
                f"epsilon {epsilon!r} gives activity {j} a non-finite or beyond-int64 duration bound"
            )
        lb = max(1, _round_half_away(d - spread))
        ub = max(lb, _round_half_away(d + spread))
        bounds.append((lb, ub))
    return StochasticInstance(base=inst, bounds=tuple(bounds), epsilon=float(epsilon))


_M32 = 2**32 - 1
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _hash_keys(value: int, mult: int, count: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's running hash constant, as the (xor, multiplier) pair of each hash."""
    for _ in range(count):
        yield value, (value := value * mult & _M32)


# SeedSequence hashes four words into its pool, then each pool word into every other
_keys = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_FILL_KEYS = [next(_keys) for _ in range(4)]
_MIX_ROUNDS = [(src, dst, *next(_keys)) for src in range(4) for dst in range(4) if src != dst]
_STATE_KEYS = list(_hash_keys(0x8B51F9DD, 0x58F38DED, 8))


def _pcg64_seed(entropy: list[int]) -> tuple[int, int]:
    """PCG64's (state, increment) after numpy's ``SeedSequence(entropy)``.

    The nonnegative entropy ints, as little-endian 32-bit words (at most four,
    so no word is left over for numpy's extra rounds), fill a pool of four
    words that are mixed together; eight 32-bit words hashed from the pool
    make the four 64-bit words that seed PCG64.
    """
    words = []
    for n in entropy:
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    words += [0] * (4 - len(words))
    pool = []
    for word, (x, m) in zip(words, _FILL_KEYS):
        word = (word ^ x) * m & _M32
        pool.append(word ^ word >> 16)
    for src, dst, x, m in _MIX_ROUNDS:
        h = (pool[src] ^ x) * m & _M32
        h = (0xCA01F9DD * pool[dst] - 0x4973F715 * (h ^ h >> 16)) & _M32
        pool[dst] = h ^ h >> 16
    seed = []  # generate_state(4, uint64): two 32-bit words, low first, per seed word
    for k, (x, m) in enumerate(_STATE_KEYS):
        word = (pool[k % 4] ^ x) * m & _M32
        seed.append(word ^ word >> 16)
    inc = (seed[4] << 65 | seed[5] << 97 | seed[6] << 1 | seed[7] << 33 | 1) & _M128
    state = seed[0] << 64 | seed[1] << 96 | seed[2] | seed[3] << 32
    return ((inc + state) * _PCG_MULT + inc) & _M128, inc


def _bounded(entropy: list[int], span: int) -> int:
    """``Generator(PCG64(SeedSequence(entropy))).integers(0, span + 1)`` as numpy
    draws it for int64, for ``0 < span < 2**63``: Lemire's multiply-and-reject
    on 32-bit words while the span fits them, on 64-bit words beyond."""
    state, inc = _pcg64_seed(entropy)
    bits = 32 if span <= _M32 else 64

    def words() -> Iterator[int]:
        nonlocal state
        while True:
            state = (state * _PCG_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64  # XSL-RR output
            if bits == 64:
                yield x
            else:  # numpy's next_uint32 hands out the low half, then the high half
                yield x & _M32
                yield x >> 32

    draws = words()
    if span == _M32:
        return next(draws)
    excl, top = span + 1, (1 << bits) - 1
    m = next(draws) * excl
    if m & top < excl:
        threshold = (top - span) % excl
        while m & top < threshold:
            m = next(draws) * excl
    return m >> bits


def sample_durations(stoch: StochasticInstance, seed: int) -> DurationSample:
    """Draw one duration per activity, uniform on [lb, ub], deterministically.

    Each activity uses its own generator keyed by (seed, activity index), so
    draws for one activity do not depend on how many others exist.  The draw
    is numpy's ``default_rng([seed % 2**63, j]).integers(lb, ub + 1)``,
    reproduced bit for bit so that samples do not depend on the installed
    numpy.
    """
    base_entropy = seed % (2**63)
    values = []
    for j, (lb, ub) in enumerate(stoch.bounds):
        values.append(lb if lb == ub else lb + _bounded([base_entropy, j], ub - lb))
    return DurationSample(durations=tuple(values), seed=seed)


def quantile_durations(stoch: StochasticInstance, gamma: float | Fraction) -> DurationSample:
    """Per-activity lower gamma-quantile of DiscreteUniform(lb, ub).

    Returns the smallest v with (v - lb + 1)/(ub - lb + 1) >= gamma; gamma=0
    gives lb.  Float gammas are read as exact decimals (0.9 means 9/10) so
    quantile boundaries land where the decimal says, not where binary
    floating point drifts.
    """
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must be in [0, 1]")
    g = Fraction(str(gamma)) if isinstance(gamma, float) else Fraction(gamma)
    values = []
    for lb, ub in stoch.bounds:
        m = ub - lb + 1
        values.append(lb + max(0, math.ceil(g * m) - 1))
    return DurationSample(durations=tuple(values), seed=None)
