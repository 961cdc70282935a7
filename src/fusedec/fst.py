"""Weighted finite-state transducers over the tropical (min, +) semiring.

Weights are costs, i.e. negated log probabilities: paths accumulate by
addition and alternatives combine by taking the minimum.  Machines are
frozen at construction time, so they are safe to share between threads.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

EPSILON = "<eps>"

TROPICAL_ZERO = math.inf
TROPICAL_ONE = 0.0

# Composition filter states for the standard 3-state epsilon filter.
# 0 = neutral, 1 = only the right machine may keep moving on epsilon,
# 2 = only the left machine may.  A real match resets to 0.
_FILTER_NEUTRAL, _FILTER_RIGHT, _FILTER_LEFT = 0, 1, 2

_MAX_QUEUE_POPS = 2_000_000


class FstError(ValueError):
    """Malformed machine, symbol table, or text file."""


class SymbolTable:
    """Dense bijective mapping between symbol strings and integer ids.

    Id 0 is always ``<eps>``.  Tables are immutable; build a new one to
    extend the alphabet.
    """

    __slots__ = ("_id_to_sym", "_sym_to_id")

    def __init__(self, symbols: Iterable[str] = ()):
        syms = [EPSILON]
        seen = {EPSILON}
        for s in symbols:
            if s == EPSILON:
                continue
            if s in seen:
                raise FstError(f"duplicate symbol {s!r}")
            seen.add(s)
            syms.append(s)
        self._id_to_sym: tuple[str, ...] = tuple(syms)
        self._sym_to_id: dict[str, int] = {s: i for i, s in enumerate(syms)}

    def __len__(self) -> int:
        return len(self._id_to_sym)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_sym)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym_to_id

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SymbolTable):
            return NotImplemented
        return self._id_to_sym == other._id_to_sym

    def __hash__(self) -> int:
        return hash(self._id_to_sym)

    def __repr__(self) -> str:
        return f"SymbolTable({len(self)} symbols)"

    def id(self, symbol: str) -> int:
        try:
            return self._sym_to_id[symbol]
        except KeyError:
            raise FstError(f"unknown symbol {symbol!r}") from None

    def find(self, symbol: str) -> int | None:
        return self._sym_to_id.get(symbol)

    def sym(self, label: int) -> str:
        if not 0 <= label < len(self._id_to_sym):
            raise FstError(f"label {label} out of range for table of {len(self)}")
        return self._id_to_sym[label]

    def encode(self, symbols: Iterable[str | int]) -> tuple[int, ...]:
        """Map symbol strings (or pass through valid ids) to label ids."""
        out = []
        for s in symbols:
            if isinstance(s, str):
                out.append(self.id(s))
            else:
                label = int(s)
                self.sym(label)
                out.append(label)
        return tuple(out)

    def decode(self, labels: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.sym(i) for i in labels)

    def write(self, path: str | Path) -> None:
        lines = [f"{s}\t{i}" for i, s in enumerate(self._id_to_sym)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def read(cls, path: str | Path) -> "SymbolTable":
        pairs = []
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise FstError(f"{path}: line {lineno}: expected 'symbol<TAB>id'")
            try:
                pairs.append((fields[0], int(fields[1])))
            except ValueError:
                raise FstError(f"{path}: line {lineno}: bad id {fields[1]!r}") from None
        pairs.sort(key=lambda p: p[1])
        if [i for _, i in pairs] != list(range(len(pairs))):
            raise FstError(f"{path}: ids must be dense starting at 0")
        if not pairs or pairs[0][0] != EPSILON:
            raise FstError(f"{path}: id 0 must be {EPSILON}")
        return cls(s for s, _ in pairs[1:])


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    ilabel: int
    olabel: int
    weight: float


@dataclass(frozen=True)
class FstPath:
    """An accepting path: epsilon-free label sequences plus total weight."""

    ilabels: tuple[int, ...]
    olabels: tuple[int, ...]
    weight: float


class WeightedFst:
    """Frozen transducer with dense state ids and arcs sorted by (src, ilabel)."""

    __slots__ = ("num_states", "start", "_finals", "arcs", "isyms", "osyms", "_offsets")

    def __init__(
        self,
        num_states: int,
        start: int,
        finals: Mapping[int, float],
        arcs: Sequence[Arc],
        isyms: SymbolTable,
        osyms: SymbolTable,
    ):
        if num_states < 1:
            raise FstError("a machine needs at least one state")
        if not 0 <= start < num_states:
            raise FstError(f"start state {start} out of range for {num_states} states")
        for q, w in finals.items():
            if not 0 <= q < num_states:
                raise FstError(f"final state {q} out of range for {num_states} states")
            _check_weight(w, "final weight")
        for k, a in enumerate(arcs):
            if not 0 <= a.src < num_states or not 0 <= a.dst < num_states:
                bad = a.src if not 0 <= a.src < num_states else a.dst
                raise FstError(f"arc {k} references state {bad} but the machine has {num_states} states")
            if not 0 <= a.ilabel < len(isyms):
                raise FstError(f"arc {k} input label {a.ilabel} not in the input table")
            if not 0 <= a.olabel < len(osyms):
                raise FstError(f"arc {k} output label {a.olabel} not in the output table")
            _check_weight(a.weight, f"arc {k} weight")
        self.num_states = num_states
        self.start = start
        self._finals = dict(finals)
        self.arcs: tuple[Arc, ...] = tuple(
            sorted(arcs, key=lambda a: (a.src, a.ilabel, a.olabel, a.dst, a.weight))
        )
        self.isyms = isyms
        self.osyms = osyms
        offsets = [0] * (num_states + 1)
        for a in self.arcs:
            offsets[a.src + 1] += 1
        for i in range(num_states):
            offsets[i + 1] += offsets[i]
        self._offsets = offsets

    @property
    def finals(self) -> dict[int, float]:
        return dict(self._finals)

    def final(self, state: int) -> float:
        return self._finals.get(state, TROPICAL_ZERO)

    def is_final(self, state: int) -> bool:
        return state in self._finals

    def arcs_from(self, state: int) -> tuple[Arc, ...]:
        return self.arcs[self._offsets[state] : self._offsets[state + 1]]

    def __repr__(self) -> str:
        return (
            f"WeightedFst({self.num_states} states, {len(self.arcs)} arcs, "
            f"{len(self._finals)} finals)"
        )


def _check_weight(w: float, what: str) -> None:
    w = float(w)
    if math.isnan(w) or w == -math.inf:
        raise FstError(f"{what} must be finite or +inf, got {w}")


def build_fst(
    arcs: Iterable[Arc | tuple],
    start: int,
    finals: Mapping[int, float] | Iterable[tuple[int, float]],
    isyms: SymbolTable,
    osyms: SymbolTable,
    num_states: int | None = None,
) -> WeightedFst:
    """Validate and freeze a machine.

    ``arcs`` may contain ``Arc`` values or ``(src, dst, ilabel, olabel, weight)``
    tuples.  ``finals`` may be a mapping or ``(state, weight)`` pairs; a state
    listed twice is an error.  When ``num_states`` is omitted it is inferred
    from the highest referenced state id (state ids must be dense).
    """
    arc_list = [a if isinstance(a, Arc) else Arc(*a) for a in arcs]
    if isinstance(finals, Mapping):
        final_map = dict(finals)
    else:
        final_map = {}
        for q, w in finals:
            if q in final_map:
                raise FstError(f"duplicate final entry for state {q}")
            final_map[q] = w
    if num_states is None:
        num_states = start + 1
        for a in arc_list:
            num_states = max(num_states, a.src + 1, a.dst + 1)
        for q in final_map:
            num_states = max(num_states, q + 1)
    return WeightedFst(num_states, start, final_map, arc_list, isyms, osyms)


def linear_fst(
    labels: Sequence[str | int],
    syms: SymbolTable,
    osyms: SymbolTable | None = None,
) -> WeightedFst:
    """Chain acceptor for one label sequence, all weights zero."""
    ids = syms.encode(labels)
    osyms = osyms or syms
    arcs = [Arc(i, i + 1, label, label, 0.0) for i, label in enumerate(ids)]
    return build_fst(arcs, 0, {len(ids): 0.0}, syms, osyms, num_states=len(ids) + 1)


def relabel(
    fst: WeightedFst,
    isyms: SymbolTable | None = None,
    osyms: SymbolTable | None = None,
) -> WeightedFst:
    """Re-express a machine's labels in different symbol tables.

    Labels are mapped by symbol string; every symbol actually used on an arc
    must exist in the target table or an error names it.
    """

    def mapper(old: SymbolTable, new: SymbolTable):
        cache: dict[int, int] = {0: 0}

        def convert(label: int) -> int:
            if label not in cache:
                s = old.sym(label)
                if s not in new:
                    raise FstError(f"symbol {s!r} missing from the target table")
                cache[label] = new.id(s)
            return cache[label]

        return convert

    imap = mapper(fst.isyms, isyms) if isyms is not None else None
    omap = mapper(fst.osyms, osyms) if osyms is not None else None
    arcs = [
        Arc(
            a.src,
            a.dst,
            imap(a.ilabel) if imap else a.ilabel,
            omap(a.olabel) if omap else a.olabel,
            a.weight,
        )
        for a in fst.arcs
    ]
    return WeightedFst(
        fst.num_states,
        fst.start,
        fst.finals,
        arcs,
        isyms or fst.isyms,
        osyms or fst.osyms,
    )


def compose(a: WeightedFst, b: WeightedFst) -> WeightedFst:
    """Tropical composition with the standard 3-state epsilon filter.

    Requires ``a.osyms == b.isyms``.  The filter admits exactly one
    interleaving of the epsilon moves between any two real matches (paired
    moves first, then one side alone), so logically identical paths are not
    duplicated.  The result is trimmed to accessible and coaccessible states.
    """
    if a.osyms != b.isyms:
        raise FstError("compose: left output table and right input table differ")

    b_by_ilabel: dict[tuple[int, int], list[Arc]] = {}
    b_eps: dict[int, list[Arc]] = {}
    for arc in b.arcs:
        if arc.ilabel == 0:
            b_eps.setdefault(arc.src, []).append(arc)
        else:
            b_by_ilabel.setdefault((arc.src, arc.ilabel), []).append(arc)

    start_key = (a.start, b.start, _FILTER_NEUTRAL)
    ids: dict[tuple[int, int, int], int] = {start_key: 0}
    queue: deque[tuple[int, int, int]] = deque([start_key])
    arcs: list[Arc] = []
    finals: dict[int, float] = {}

    def state_id(key: tuple[int, int, int]) -> int:
        if key not in ids:
            ids[key] = len(ids)
            queue.append(key)
        return ids[key]

    while queue:
        key = queue.popleft()
        qa, qb, f = key
        src = ids[key]
        fa, fb = a.final(qa), b.final(qb)
        if fa < math.inf and fb < math.inf:
            finals[src] = fa + fb
        for arc1 in a.arcs_from(qa):
            if arc1.olabel != 0:
                for arc2 in b_by_ilabel.get((qb, arc1.olabel), ()):
                    dst = state_id((arc1.dst, arc2.dst, _FILTER_NEUTRAL))
                    arcs.append(Arc(src, dst, arc1.ilabel, arc2.olabel, arc1.weight + arc2.weight))
            else:
                if f != _FILTER_RIGHT:
                    dst = state_id((arc1.dst, qb, _FILTER_LEFT))
                    arcs.append(Arc(src, dst, arc1.ilabel, 0, arc1.weight))
                if f == _FILTER_NEUTRAL:
                    for arc2 in b_eps.get(qb, ()):
                        dst = state_id((arc1.dst, arc2.dst, _FILTER_NEUTRAL))
                        arcs.append(Arc(src, dst, arc1.ilabel, arc2.olabel, arc1.weight + arc2.weight))
        if f != _FILTER_LEFT:
            for arc2 in b_eps.get(qb, ()):
                dst = state_id((qa, arc2.dst, _FILTER_RIGHT))
                arcs.append(Arc(src, dst, 0, arc2.olabel, arc2.weight))

    return _trim(len(ids), 0, finals, arcs, a.isyms, b.osyms)


def _coaccessible(arcs: Iterable[Arc], finals: Iterable[int]) -> set[int]:
    """States from which some final state is reachable."""
    reverse: dict[int, list[int]] = {}
    for arc in arcs:
        reverse.setdefault(arc.dst, []).append(arc.src)
    alive = set(finals)
    stack = list(alive)
    while stack:
        q = stack.pop()
        for p in reverse.get(q, ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    return alive


def _trim(
    num_states: int,
    start: int,
    finals: dict[int, float],
    arcs: list[Arc],
    isyms: SymbolTable,
    osyms: SymbolTable,
) -> WeightedFst:
    """Drop states that cannot reach a final state; renumber densely."""
    alive = _coaccessible(arcs, finals)
    if start not in alive:
        return WeightedFst(1, 0, {}, [], isyms, osyms)
    renum = {old: new for new, old in enumerate(sorted(alive))}
    kept = [
        Arc(renum[a.src], renum[a.dst], a.ilabel, a.olabel, a.weight)
        for a in arcs
        if a.src in alive and a.dst in alive
    ]
    new_finals = {renum[q]: w for q, w in finals.items()}
    return WeightedFst(len(alive), renum[start], new_finals, kept, isyms, osyms)


def _require_nonnegative(f: WeightedFst, op: str) -> None:
    for a in f.arcs:
        if a.weight < 0:
            raise FstError(f"{op} requires non-negative weights; arc from {a.src} has {a.weight}")
    for q, w in f._finals.items():
        if w < 0:
            raise FstError(f"{op} requires non-negative weights; final {q} has {w}")


def shortest_paths(f: WeightedFst, n: int) -> list[FstPath]:
    """The ``n`` lowest-weight accepting paths, ascending.

    Ties are broken by the epsilon-free output label sequence, then the input
    label sequence, so results are deterministic.  Weights must be
    non-negative.  Returns fewer than ``n`` paths when the machine has fewer
    accepting paths.
    """
    if n < 1:
        raise FstError(f"n must be positive, got {n}")
    _require_nonnegative(f, "shortest_paths")
    alive = _coaccessible(f.arcs, f._finals)
    if f.start not in alive:
        return []

    results: list[FstPath] = []
    seq = 0
    # Entries: (weight, olabels, ilabels, seq, state); state None marks a
    # finished accepting path.  Keys only grow along expansions, so pops come
    # out globally sorted.
    heap: list[tuple[float, tuple[int, ...], tuple[int, ...], int, int | None]] = [
        (0.0, (), (), seq, f.start)
    ]
    pops = 0
    while heap:
        pops += 1
        if pops > _MAX_QUEUE_POPS:
            raise RuntimeError(
                "shortest_paths expansion budget exhausted; "
                "does the machine have zero-weight cycles?"
            )
        w, ols, ils, _, state = heapq.heappop(heap)
        if state is None:
            results.append(FstPath(ils, ols, w))
            if len(results) == n:
                break
            continue
        fw = f.final(state)
        if fw < math.inf:
            seq += 1
            heapq.heappush(heap, (w + fw, ols, ils, seq, None))
        for arc in f.arcs_from(state):
            if arc.dst not in alive:
                continue
            seq += 1
            nols = ols + (arc.olabel,) if arc.olabel else ols
            nils = ils + (arc.ilabel,) if arc.ilabel else ils
            heapq.heappush(heap, (w + arc.weight, nols, nils, seq, arc.dst))
    return results


def output_weights(f: WeightedFst, ilabels: Sequence[str | int]) -> dict[tuple[int, ...], float]:
    """The cheapest weight of each distinct epsilon-free output string among
    the accepting paths whose epsilon-free input reads ``ilabels``.

    One Dijkstra over (labels read, state, output so far), each key settled
    once: exact weights when none is negative, all strings either way.  Only
    an input-epsilon cycle that writes output lets a path reading n labels
    write (n + 1) * num_states labels; that raises ``FstError``.
    """
    ids = f.isyms.encode(ilabels)
    cap = (len(ids) + 1) * f.num_states
    out: dict[tuple[int, ...], float] = {}
    done: set[tuple[int, int, tuple[int, ...]]] = set()
    heap = [(0.0, 0, f.start, ())]
    while heap:
        w, k, q, ols = heapq.heappop(heap)
        if (k, q, ols) in done:
            continue
        done.add((k, q, ols))
        if k == len(ids) and w + f.final(q) < out.get(ols, math.inf):
            out[ols] = w + f.final(q)
        for arc in f.arcs_from(q):
            if arc.ilabel and (k == len(ids) or arc.ilabel != ids[k]):
                continue
            key = (k + 1 if arc.ilabel else k, arc.dst, ols + (arc.olabel,) if arc.olabel else ols)
            if len(key[2]) > cap:
                raise FstError("an input-epsilon cycle writes output, so the outputs are unbounded")
            if key not in done:
                heapq.heappush(heap, (w + arc.weight, *key))
    return out


def string_weight(f: WeightedFst, ilabels: Sequence[str | int]) -> float | None:
    """Minimum weight of an accepting path whose epsilon-free input reads
    ``ilabels``; ``None`` when no such path exists.  Weights must be
    non-negative, and an input-epsilon cycle that writes output raises
    ``FstError`` (see :func:`output_weights`)."""
    _require_nonnegative(f, "string_weight")
    return min(output_weights(f, ilabels).values(), default=None)


def _eps_closure(f: WeightedFst, seeds: Mapping[int, float]) -> dict[int, float]:
    """Dijkstra over input-epsilon arcs from weighted seed states."""
    dist = dict(seeds)
    heap = [(w, q) for q, w in seeds.items()]
    heapq.heapify(heap)
    while heap:
        w, q = heapq.heappop(heap)
        if w > dist.get(q, math.inf):
            continue
        for arc in f.arcs_from(q):
            if arc.ilabel != 0:
                continue
            cand = w + arc.weight
            if cand < dist.get(arc.dst, math.inf):
                dist[arc.dst] = cand
                heapq.heappush(heap, (cand, arc.dst))
    return dist


def _format_weight(w: float) -> str:
    return f"{w:.17g}"


def write_fst_text(f: WeightedFst, path: str | Path) -> None:
    """Serialize in the line-oriented text format.

    Arc lines are ``src dst isym osym weight`` (tab-separated, symbol
    strings); final lines are ``state weight``.  The first arc line's source
    is the start state, so the format requires the start state to have
    outgoing arcs whenever the machine has arcs at all.
    """
    lines: list[str] = []

    def arc_line(a: Arc) -> str:
        return "\t".join(
            (
                str(a.src),
                str(a.dst),
                f.isyms.sym(a.ilabel),
                f.osyms.sym(a.olabel),
                _format_weight(a.weight),
            )
        )

    if f.arcs:
        start_arcs = f.arcs_from(f.start)
        if not start_arcs:
            raise FstError("text format requires the start state to have outgoing arcs")
        lines.extend(arc_line(a) for a in start_arcs)
        for q in range(f.num_states):
            if q == f.start:
                continue
            lines.extend(arc_line(a) for a in f.arcs_from(q))
    for q in sorted(f._finals):
        lines.append(f"{q}\t{_format_weight(f._finals[q])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_fst_text(path: str | Path, isyms: SymbolTable, osyms: SymbolTable) -> WeightedFst:
    """Parse the text format; see :func:`write_fst_text`.

    A machine with no arc lines gets start state 0.
    """
    arcs: list[Arc] = []
    finals: dict[int, float] = {}
    start: int | None = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            if len(fields) == 5:
                src, dst = int(fields[0]), int(fields[1])
                arc = Arc(src, dst, isyms.id(fields[2]), osyms.id(fields[3]), float(fields[4]))
                if start is None:
                    start = src
                arcs.append(arc)
            elif len(fields) == 2:
                q, w = int(fields[0]), float(fields[1])
                if q in finals:
                    raise FstError(f"duplicate final entry for state {q}")
                finals[q] = w
            else:
                raise FstError("expected 5 fields (arc) or 2 fields (final)")
        except FstError as e:
            raise FstError(f"{path}: line {lineno}: {e}") from None
        except ValueError as e:
            raise FstError(f"{path}: line {lineno}: {e}") from None
    return build_fst(arcs, start if start is not None else 0, finals, isyms, osyms)
