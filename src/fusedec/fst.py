"""Weighted finite-state transducers over the tropical (min, +) semiring.

Weights are costs, i.e. negated log probabilities: paths accumulate by
addition and alternatives combine by taking the minimum.  Machines are
frozen at construction time, so they are safe to share between threads.
The one thing built later is the index behind :meth:`WeightedFst.arcs_with`:
its per-state slots exist from construction, and each is filled the first
time its state is asked for, so a machine that only exists during set-up
pays for no more of it than it reads.  Two threads that fill the same slot
at once fill it with equal entries.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

EPSILON = "<eps>"

TROPICAL_ZERO = math.inf

# Composition filter states for the standard 3-state epsilon filter.
# 0 = neutral, 1 = only the right machine may keep moving on epsilon,
# 2 = only the left machine may.  A real match resets to 0.
_FILTER_NEUTRAL, _FILTER_RIGHT, _FILTER_LEFT = 0, 1, 2

_MAX_QUEUE_POPS = 2_000_000

_ilabel = attrgetter("ilabel")
_olabel = attrgetter("olabel")
_arc_order = attrgetter("src", "ilabel", "olabel", "dst", "weight")
_first = itemgetter(0)


class FstError(ValueError):
    """Malformed machine, symbol table, or text file."""


class SymbolTable:
    """Dense bijective mapping between symbol strings and integer ids.

    Id 0 is always ``<eps>``.  ``symbols`` may begin with it, as iterating
    a table gives it; anywhere else it is refused, since it would not take
    the id its position promises.  Tables are immutable; build a new one to
    extend the alphabet.
    """

    __slots__ = ("_id_to_sym", "_sym_to_id")

    def __init__(self, symbols: Iterable[str] = ()):
        syms = [EPSILON]
        seen = {EPSILON}
        for i, s in enumerate(symbols):
            if s == EPSILON:
                if i == 0:
                    continue
                raise FstError(f"{EPSILON} may only come first, found at position {i}")
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
        first_line: dict[str, int] = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise FstError(f"{path}: line {lineno}: expected 'symbol<TAB>id'")
            first = first_line.setdefault(fields[0], lineno)
            if first != lineno:
                raise FstError(f"{path}: line {lineno}: symbol {fields[0]!r} already listed on line {first}")
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

    __slots__ = ("num_states", "start", "_finals", "arcs", "isyms", "osyms", "_offsets", "_by_label")

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
        n_in, n_out = len(isyms), len(osyms)
        for k, a in enumerate(arcs):
            if not 0 <= a.src < num_states or not 0 <= a.dst < num_states:
                bad = a.src if not 0 <= a.src < num_states else a.dst
                raise FstError(f"arc {k} references state {bad} but the machine has {num_states} states")
            if not 0 <= a.ilabel < n_in:
                raise FstError(f"arc {k} input label {a.ilabel} not in the input table")
            if not 0 <= a.olabel < n_out:
                raise FstError(f"arc {k} output label {a.olabel} not in the output table")
            if not -math.inf < a.weight <= math.inf:  # NaN and -inf
                _check_weight(a.weight, f"arc {k} weight")
        self.num_states = num_states
        self.start = start
        self._finals = dict(finals)
        self.arcs: tuple[Arc, ...] = tuple(sorted(arcs, key=_arc_order))
        self.isyms = isyms
        self.osyms = osyms
        offsets = [0] * (num_states + 1)
        for a in self.arcs:
            offsets[a.src + 1] += 1
        for i in range(num_states):
            offsets[i + 1] += offsets[i]
        self._offsets = offsets
        self._by_label: list[dict[int, tuple[Arc, ...]] | None] = [None] * num_states

    @property
    def finals(self) -> dict[int, float]:
        return dict(self._finals)

    def final(self, state: int) -> float:
        return self._finals.get(state, TROPICAL_ZERO)

    def arcs_from(self, state: int) -> tuple[Arc, ...]:
        return self.arcs[self._offsets[state] : self._offsets[state + 1]]

    def arcs_with(self, state: int, ilabel: int) -> tuple[Arc, ...]:
        """The arcs leaving ``state`` that read ``ilabel`` (0 for epsilon),
        in arc order."""
        by_label = self._by_label[state]
        if by_label is None:
            by_label = self._labels(state)
        return by_label.get(ilabel, ())

    def _labels(self, state: int) -> dict[int, tuple[Arc, ...]]:
        """The arcs leaving ``state`` grouped by input label, in label
        order: the index behind :meth:`arcs_with`, built for a state the
        first time it is asked for."""
        by_label = self._by_label[state]
        if by_label is None:
            groups = groupby(self.arcs_from(state), key=_ilabel)
            by_label = self._by_label[state] = {label: tuple(arcs) for label, arcs in groups}
        return by_label

    def _with_tables(self, isyms: SymbolTable, osyms: SymbolTable) -> "WeightedFst":
        """This machine under other symbol tables that give every label it
        uses the same id: the states, arcs and offsets are shared, not
        copied or checked again, and the label index starts empty."""
        out = object.__new__(WeightedFst)
        out.num_states, out.start, out._finals = self.num_states, self.start, self._finals
        out.arcs, out._offsets, out._by_label = self.arcs, self._offsets, [None] * self.num_states
        out.isyms, out.osyms = isyms, osyms
        return out

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


def linear_fst(labels: Sequence[str | int], syms: SymbolTable) -> WeightedFst:
    """Chain acceptor for one label sequence, all weights zero."""
    ids = syms.encode(labels)
    arcs = [Arc(i, i + 1, label, label, 0.0) for i, label in enumerate(ids)]
    return build_fst(arcs, 0, {len(ids): 0.0}, syms, syms, num_states=len(ids) + 1)


def relabel(
    fst: WeightedFst,
    isyms: SymbolTable | None = None,
    osyms: SymbolTable | None = None,
) -> WeightedFst:
    """Re-express a machine's labels in different symbol tables.

    Labels are mapped by symbol string; every symbol actually used on an arc
    must exist in the target table or an error names it (the first missing
    one in arc order, input labels before output labels).

    When every used label keeps its id, because the target table is the
    same or extends it with each used symbol in its old place, the result
    shares the source's arcs and offsets and only the tables differ: nothing
    is rebuilt, re-sorted or re-validated.  Otherwise the arcs are rebuilt
    with their new labels and sorted again.  Either way the result builds
    its own :meth:`WeightedFst.arcs_with` index.
    """
    imap = _label_map(fst.isyms, isyms, map(_ilabel, fst.arcs)) if isyms is not None else None
    omap = _label_map(fst.osyms, osyms, map(_olabel, fst.arcs)) if osyms is not None else None
    isyms, osyms = isyms or fst.isyms, osyms or fst.osyms
    if _keeps_ids(imap) and _keeps_ids(omap):
        return fst._with_tables(isyms, osyms)
    arcs = [
        Arc(
            a.src,
            a.dst,
            imap[a.ilabel] if imap else a.ilabel,
            omap[a.olabel] if omap else a.olabel,
            a.weight,
        )
        for a in fst.arcs
    ]
    return WeightedFst(fst.num_states, fst.start, fst.finals, arcs, isyms, osyms)


def _label_map(old: SymbolTable, new: SymbolTable, labels: Iterable[int]) -> dict[int, int]:
    """Each distinct label mapped to the id its symbol has in ``new``,
    epsilon to itself; the first label in ``labels`` whose symbol ``new``
    lacks raises ``FstError`` naming the symbol."""
    ids = {0: 0}
    for label in dict.fromkeys(labels):
        if label not in ids:
            symbol = old.sym(label)
            target = new.find(symbol)
            if target is None:
                raise FstError(f"symbol {symbol!r} missing from the target table")
            ids[label] = target
    return ids


def _keeps_ids(ids: dict[int, int] | None) -> bool:
    return ids is None or all(old == new for old, new in ids.items())


def compose(a: WeightedFst, b: WeightedFst) -> WeightedFst:
    """Tropical composition with the standard 3-state epsilon filter.

    Requires ``a.osyms == b.isyms``.  The filter admits exactly one
    interleaving of the epsilon moves between any two real matches (paired
    moves first, then one side alone), so logically identical paths are not
    duplicated.  The result is trimmed to accessible and coaccessible states.

    Matching labels are looked up from the right side, as matcher-based
    composition does (Allauzen et al., "OpenFst", CIAA 2007): at each
    composed state, the labels of :meth:`WeightedFst.arcs_with`'s index of
    the right state are looked up among the left state's real-output arcs,
    grouped by output label once per left state during this call.  This
    suits L∘G, where only the lexicon root writes words and a grammar state
    reads fewer labels than the root writes, so most of the root's arcs are
    never looked at.  A left side sparser than the right, such as a chain
    composed with L∘G, is still matched correctly, but walks every label of
    the right state.  The matches and the left epsilon-output moves are
    then taken in left-arc order, each left arc's matches in right-arc
    order, and the right machine's own epsilon moves last: the order a walk
    over every left arc finds them in.  States are numbered in
    breadth-first order of discovery.
    """
    if a.osyms != b.isyms:
        raise FstError("compose: left output table and right input table differ")

    start_key = (a.start, b.start, _FILTER_NEUTRAL)
    ids: dict[tuple[int, int, int], int] = {start_key: 0}
    queue: deque[tuple[int, int, int]] = deque([start_key])
    arcs: list[tuple[int, int, int, int, float]] = []
    finals: dict[int, float] = {}
    # Per left state: its epsilon-output moves as (position, arc, None), and
    # its real-output arcs as output label -> [(position, arc)].
    left: dict[int, tuple[list, dict[int, list[tuple[int, Arc]]]]] = {}

    def state_id(key: tuple[int, int, int]) -> int:
        q = ids.get(key)
        if q is None:
            q = ids[key] = len(ids)
            queue.append(key)
        return q

    while queue:
        key = queue.popleft()
        qa, qb, f = key
        src = ids[key]
        fa, fb = a.final(qa), b.final(qb)
        if fa < math.inf and fb < math.inf:
            finals[src] = fa + fb
        moves = left.get(qa)
        if moves is None:
            eps_moves: list = []
            by_output: dict[int, list[tuple[int, Arc]]] = {}
            for k, arc1 in enumerate(a.arcs_from(qa)):
                if arc1.olabel:
                    by_output.setdefault(arc1.olabel, []).append((k, arc1))
                else:
                    eps_moves.append((k, arc1, None))
            moves = left[qa] = (eps_moves, by_output)
        eps_moves, by_output = moves
        by_input = b._labels(qb)
        b_eps = by_input.get(0, ())
        if by_output:
            steps = [
                (k, arc1, arcs2)
                for label, arcs2 in by_input.items()
                if (arcs1 := by_output.get(label))
                for k, arc1 in arcs1
            ]
            steps += eps_moves
            steps.sort(key=_first)
        else:
            steps = eps_moves
        for _, arc1, arcs2 in steps:
            if arcs2 is not None:
                for arc2 in arcs2:
                    dst = state_id((arc1.dst, arc2.dst, _FILTER_NEUTRAL))
                    arcs.append((src, dst, arc1.ilabel, arc2.olabel, arc1.weight + arc2.weight))
            else:
                if f != _FILTER_RIGHT:
                    dst = state_id((arc1.dst, qb, _FILTER_LEFT))
                    arcs.append((src, dst, arc1.ilabel, 0, arc1.weight))
                if f == _FILTER_NEUTRAL:
                    for arc2 in b_eps:
                        dst = state_id((arc1.dst, arc2.dst, _FILTER_NEUTRAL))
                        arcs.append((src, dst, arc1.ilabel, arc2.olabel, arc1.weight + arc2.weight))
        if f != _FILTER_LEFT:
            for arc2 in b_eps:
                dst = state_id((qa, arc2.dst, _FILTER_RIGHT))
                arcs.append((src, dst, 0, arc2.olabel, arc2.weight))

    return _trim(len(ids), 0, finals, arcs, a.isyms, b.osyms)


def _coaccessible(edges: Iterable[tuple], finals: Iterable[int]) -> set[int]:
    """States from which some final state is reachable, over edges whose
    first two items are their source and destination."""
    reverse: dict[int, list[int]] = {}
    for edge in edges:
        reverse.setdefault(edge[1], []).append(edge[0])
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
    arcs: list[tuple[int, int, int, int, float]],
    isyms: SymbolTable,
    osyms: SymbolTable,
) -> WeightedFst:
    """Drop states that cannot reach a final state; renumber densely, in
    the old order.  ``arcs`` are plain ``(src, dst, ilabel, olabel,
    weight)`` tuples, and an :class:`Arc` is built only for an arc kept."""
    alive = _coaccessible(arcs, finals)
    if start not in alive:
        return WeightedFst(1, 0, {}, [], isyms, osyms)
    renum = {old: new for new, old in enumerate(sorted(alive))}
    kept = [
        Arc(renum[src], renum[dst], ilabel, olabel, weight)
        for src, dst, ilabel, olabel, weight in arcs
        if src in alive and dst in alive
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
    alive = _coaccessible(((a.src, a.dst) for a in f.arcs), f._finals)
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
    the accepting paths whose epsilon-free input reads ``ilabels``, symbols
    or ids of ``f.isyms``: the one-string case of
    :func:`output_weights_batch`."""
    return output_weights_batch(f, [f.isyms.encode(ilabels)])[0]


def output_weights_batch(
    f: WeightedFst, strings: Sequence[tuple[int, ...]]
) -> list[dict[tuple[int, ...], float]]:
    """:func:`output_weights` of each input string, in order.  The strings
    are tuples of input label ids, taken as given: an id that no arc reads,
    0 included, has no parse.

    The walk is label-synchronous, as composition with a linear input is.
    Level k maps each ``(state, output so far)`` reached by reading the
    first k labels to its cheapest cost.  Reading the next label is a
    min-merge over the arcs with that label; a Dijkstra over input-epsilon
    arcs then closes the level, when one of its states has such an arc.
    The answer is the cheapest ``w + final`` per output string of the last
    level.  Every cost is the minimum over paths of a left-to-right float
    sum, exact when no weight is negative, and every string is found either
    way.

    The strings are walked in sorted order, each reusing the levels of the
    one before up to their common prefix, so strings that share prefixes
    share that work.  Nothing is kept after the call.

    Without an input-epsilon cycle that writes output, a key at level k
    writes fewer than (k + 1) * num_states labels.  With one, some closure
    never ends; writing more than (n + 1) * num_states labels for a string
    of n labels raises ``FstError``.
    """
    finals = f._finals
    results: list[dict[tuple[int, ...], float]] = [{} for _ in strings]
    levels: list[dict[tuple[int, tuple[int, ...]], float]] = []
    prev: tuple[int, ...] = ()
    for i in sorted(range(len(strings)), key=strings.__getitem__):
        ids = strings[i]
        cap = (len(ids) + 1) * f.num_states
        shared = 0
        while shared < min(len(levels) - 1, len(ids)) and ids[shared] == prev[shared]:
            shared += 1
        del levels[shared + 1 :]
        if not levels:
            levels.append(_close_level(f, {(f.start, ()): 0.0}, cap))
        while len(levels) <= len(ids) and levels[-1]:
            levels.append(_close_level(f, _read_label(f, levels[-1], ids[len(levels) - 1]), cap))
        prev = ids
        if len(levels) == len(ids) + 1:
            out = results[i]
            for (q, ols), w in levels[-1].items():
                cost = w + finals.get(q, TROPICAL_ZERO)
                if cost < out.get(ols, math.inf):
                    out[ols] = cost
    return results


def _read_label(
    f: WeightedFst, level: dict[tuple[int, tuple[int, ...]], float], label: int
) -> dict[tuple[int, tuple[int, ...]], float]:
    """The unclosed level after reading ``label``: every arc with that label
    from every key, keeping the cheapest cost per key.  Label 0 reads
    nothing, as no arc consumes an epsilon."""
    nxt: dict[tuple[int, tuple[int, ...]], float] = {}
    if not label:
        return nxt
    arcs_with, get = f.arcs_with, nxt.get
    for (q, ols), w in level.items():
        for arc in arcs_with(q, label):
            key = (arc.dst, ols + (arc.olabel,)) if arc.olabel else (arc.dst, ols)
            cand = w + arc.weight
            old = get(key)
            if old is None or cand < old:
                nxt[key] = cand
    return nxt


def _close_level(
    f: WeightedFst, seeds: dict[tuple[int, tuple[int, ...]], float], cap: int
) -> dict[tuple[int, tuple[int, ...]], float]:
    """Dijkstra over input-epsilon arcs from a level's seed keys, each key
    settled once; the seeds themselves when no seed state has such an arc."""
    if not any(f.arcs_with(q, 0) for q, _ in seeds):
        return seeds
    closed: dict[tuple[int, tuple[int, ...]], float] = {}
    heap = [(w, q, ols) for (q, ols), w in seeds.items()]
    heapq.heapify(heap)
    while heap:
        w, q, ols = heapq.heappop(heap)
        if (q, ols) in closed:
            continue
        closed[q, ols] = w
        for arc in f.arcs_with(q, 0):
            if arc.olabel:
                key = (arc.dst, ols + (arc.olabel,))
                if len(key[1]) > cap:
                    raise FstError("an input-epsilon cycle writes output, so the outputs are unbounded")
            else:
                key = (arc.dst, ols)
            if key not in closed:
                cand = w + arc.weight
                old = seeds.get(key)
                if old is None or cand < old:
                    seeds[key] = cand
                    heapq.heappush(heap, (cand, *key))
    return closed


def _eps_closure(f: WeightedFst, seeds: Mapping[int, float]) -> dict[int, float]:
    """Dijkstra over input-epsilon arcs from weighted seed states."""
    dist = dict(seeds)
    heap = [(w, q) for q, w in seeds.items()]
    heapq.heapify(heap)
    while heap:
        w, q = heapq.heappop(heap)
        if w > dist.get(q, math.inf):
            continue
        for arc in f.arcs_with(q, 0):
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
