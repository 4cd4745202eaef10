"""The dispatcher that scans every group at each decision, kept as an oracle.

``srcpsp.stnu.rte_execute`` is event-driven; this is its predecessor, which
rebuilds every unexecuted group's bound from all of its edges and waits at
every decision.  The differential test requires both to return the same
trace, or the same ``RteError`` text, on every input.
"""

from __future__ import annotations

from srcpsp.instances import DurationSample
from srcpsp.stnu import Estnu, ExecutionTrace, RteError


def rte_execute(estnu: Estnu, sample: DurationSample) -> ExecutionTrace:
    """Dispatch the closure online, always executing the earliest-ready timepoints.

    Contingent timepoints fire at activation + realized duration.  A
    controllable is enabled once every nonpositive outgoing ordinary edge
    points at an executed timepoint and no wait is still undetermined; it
    then executes at the maximum of its released bounds.  Controllables tied
    by mutual 0-edges form a rigid group, keyed by its lowest member, that is
    enabled and executes as one.  Each decision takes the earliest due entry:
    at one instant, firings are observed before any group executes, and the
    decision batches every due firing, or every ready group, at that time.
    On a genuine DC closure this never violates an edge; violations or
    deadlocks mean the input was not such a closure.
    """
    stnu = estnu.base
    n = stnu.n_timepoints
    realized: dict[int, int] = {}
    for a, c, low, high in stnu.contingent_links:
        d = sample.durations[c // 2]
        if not low <= d <= high:
            raise ValueError(
                f"realized duration {d} outside [{low}, {high}] for {stnu.label(c)}"
            )
        realized[c] = d

    out_edges: dict[int, list[tuple[int, int]]] = {u: [] for u in range(n)}
    pair: dict[tuple[int, int], int] = {}
    for u, v, w in stnu.ordinary_edges:
        key = (u, v)
        if key not in pair or w < pair[key]:
            pair[key] = w
    for (u, v), w in pair.items():
        out_edges[u].append((v, w))
    waits_by_source: dict[int, list[tuple[int, int, int]]] = {u: [] for u in range(n)}
    for x, a, w, c in estnu.wait_edges:
        waits_by_source[x].append((a, w, c))

    # union-find over the rigid pairs; every parent is lower, so a root is
    # its group's lowest member
    parent = list(range(n))
    for (u, v), w in pair.items():
        if w == 0 and pair.get((v, u)) == 0 and u not in realized and v not in realized:
            roots = []
            for x in (u, v):
                while parent[x] != x:
                    x = parent[x]
                roots.append(x)
            parent[max(roots)] = min(roots)
    members: dict[int, list[int]] = {}
    for tp in range(n):
        parent[tp] = parent[parent[tp]]  # lower entries already hold their root
        if tp not in realized:
            members.setdefault(parent[tp], []).append(tp)

    times: dict[int, int] = {}
    decisions: list[tuple[int, tuple[int, ...]]] = []
    now = 0

    def member_bound(tp: int, group: list[int]) -> int | None:
        """Earliest allowed time, or None while some requirement is undetermined."""
        bound = 0
        for v, w in out_edges[tp]:
            if v in times:
                bound = max(bound, times[v] - w)
            elif w <= 0 and v not in group:
                return None
        for a, w, c in waits_by_source[tp]:
            if c in times:
                release = times[c]
                if a in times:
                    release = min(release, times[a] - w)
                bound = max(bound, release)
            elif a in times:
                bound = max(bound, times[a] - w)
            else:
                return None
        return bound

    while len(times) < n:
        # (time, kind, members): kind 0 fires a contingent, kind 1 executes a group
        due = [
            (times[a] + realized[c], 0, [c])
            for a, c, _, _ in stnu.contingent_links
            if a in times and c not in times
        ]
        for group in members.values():
            if group[0] in times:  # a group executes as one
                continue
            bounds = [member_bound(tp, group) for tp in group]
            if None not in bounds:
                due.append((max(now, *bounds), 1, group))
        if not due:
            raise RteError("execution deadlocked; input is not a dispatchable DC closure")
        now, kind, _ = min(due)
        batch = sorted(tp for t, k, group in due if t == now and k == kind for tp in group)
        for tp in batch:
            times[tp] = now
        decisions.append((now, tuple(batch)))

    for (u, v), w in pair.items():
        if times[v] - times[u] > w:
            raise RteError(
                f"edge {stnu.label(u)} -> {stnu.label(v)} <= {w} violated; "
                "input is not a dispatchable DC closure"
            )
    ordered = tuple(times[tp] for tp in range(n))
    return ExecutionTrace(
        times=ordered,
        makespan=max(ordered),
        decisions=tuple(decisions),
    )

