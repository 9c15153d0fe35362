"""One byte arena for a frame's grid-shaped tensors, planned from their live ranges.

A frame's tensors have shapes fixed by the preset and lifetimes fixed by
the order of its steps, so where each one lives can be decided once,
before any frame runs. plan_arena takes the steps in order, each naming
the tensors it writes (with shape and dtype) and the tensors it reads. A
tensor is live from the first step that writes it to the last step that
reads it, both included. Tensors are then placed by the greedy-by-size
rule of Pisarchyk & Lee ("Efficient Memory Management for Deep Neural Net
Inference", arXiv 2001.03288), as in the TFLite arena planner: largest
first, each at the smallest gap between the already placed tensors whose
live ranges overlap its own, or after the highest of them. Offsets are
multiples of ALIGN bytes.

An Arena holds the plan's bytes and hands out each tensor as a view at its
offset. Two tensors whose live ranges overlap never share a byte; tensors
whose ranges do not overlap may, so a view's contents are only valid from
its first writer to its last reader. The bytes are never zeroed: every
producer writes its whole view before anything reads it.

One tensor may be the frame's export: what the caller keeps after the
frame, such as the cell outputs. The plan puts it in the top segment of
the arena, [lent_at, size), which no other tensor straddles and which
holds nothing else when the export is written. The arena lends that
segment to the caller with the export, so the export never shares memory
with what the arena writes next, and takes it back at the start of a later
frame once nothing refers to it any more (else it allocates a new one).
Below lent_at the bytes are allocated once. Keeping the export out of the
arena instead would hold both at once: the arena at its largest plus the
export.

The boundary lent_at is chosen with the placement, not after it: the
greedy rule runs once for each candidate boundary, each tensor's rounded
size (the room below it then fits that tensor), keeping every tensor off
the boundary and the tensors live with the export below it, and the
smallest arena wins (the highest boundary among equals). A boundary
looked for in a finished placement puts the export above tensors spread
over the whole arena: on atg4d that arena is 101 MiB above the frame's
largest moment, this one 32 MiB.
"""
from __future__ import annotations

import sys
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

ALIGN = 64  # bytes: a cache line, and a multiple of every dtype's alignment

# Working-set bound of the heap temporaries that stay out of the plan: the
# conv kernels' chunks and row blocks (network) and the projection's blocks
# of float64 contributions (projection). It sits below glibc's 32 MiB ceiling
# on its adaptive mmap threshold and below numpy's 4 MiB threshold for
# huge-page advice, which numpy also gives to arrays glibc serves from its
# heap, leaving huge pages there that made peak RSS depend on where
# allocations happened to land (CHANGES.md). With the arena, 2 and 8 MiB run
# the atg4d forward pass equally fast.
CHUNK_BYTES = 2 << 20


class Step(NamedTuple):
    """One step of a frame: the tensors it writes, as (name, shape, dtype),
    the tensors it reads, the bytes of scratch it can use (work), and what
    it runs, run(views), views holding the frame's arrays by tensor name
    and its inputs, such as its points. The planner reads all but run."""

    name: str
    writes: tuple[tuple[str, tuple[int, ...], str], ...] = ()
    reads: tuple[str, ...] = ()
    work: int = 0
    run: Callable[[dict], object] | None = None


class PlannedTensor(NamedTuple):
    name: str
    shape: tuple[int, ...]
    dtype: str
    first: int  # index of the first step that writes it
    last: int  # index of the last step that reads it (or writes it, if nothing reads it later)
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    @property
    def end(self) -> int:
        return self.offset + _round_up(self.nbytes)

    def live_at(self, step: int) -> bool:
        return self.first <= step <= self.last


class ArenaPlan(NamedTuple):
    steps: tuple[str, ...]
    tensors: tuple[PlannedTensor, ...]
    size: int  # bytes
    export: str | None = None
    lent_at: int = 0  # start of the segment lent with the export; size without one

    def tensor(self, name: str) -> PlannedTensor:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(name)


def output_array(out: np.ndarray | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """The array a producer writes: out, checked against shape and dtype, or a new one."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ValueError(f"out must be {tuple(shape)} {np.dtype(dtype)}, got {out.shape} {out.dtype}")
    return out


def _round_up(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


def greedy_by_size(sizes: Sequence[int], ranges: Sequence[tuple[int, int]], boundary: int | None = None,
                   below: Sequence[bool] = ()) -> tuple[list[int], int] | None:
    """Offsets for blocks of the given byte sizes and inclusive live ranges,
    and the arena size they need.

    Largest first (ties by index); each block takes the smallest gap
    between the placed blocks whose ranges overlap its own that fits it,
    else the end of the highest of them. With a boundary, no block
    straddles it: a gap across it is two gaps, one ending and one starting
    there, and a block that does not fit below it goes above it. A block
    marked in below must fit below the boundary; None when one does not.
    """
    offsets: list[int] = [0] * len(sizes)
    placed: list[int] = []  # indices, kept sorted by offset
    total = 0
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        size, (first, last) = _round_up(sizes[i]), ranges[i]
        low = bool(below) and below[i]
        best, best_gap, prev_end = None, None, 0

        def consider(start: int, end: int) -> None:
            nonlocal best, best_gap
            cuts = (start, end) if boundary is None or not start < boundary < end else (start, boundary, end)
            for a, b in zip(cuts, cuts[1:]):
                if b - a >= size and (best_gap is None or b - a < best_gap) and not (low and b > boundary):
                    best, best_gap = a, b - a

        for j in placed:
            if ranges[j][0] > last or first > ranges[j][1]:
                continue
            consider(prev_end, offsets[j])
            prev_end = max(prev_end, offsets[j] + _round_up(sizes[j]))
        if boundary is not None:
            consider(prev_end, boundary)
            prev_end = max(prev_end, boundary)
        if best is None and low:
            return None
        offsets[i] = prev_end if best is None else best
        placed.append(i)
        placed.sort(key=lambda j: offsets[j])
        total = max(total, offsets[i] + size)
    return offsets, total


def plan_arena(steps: Iterable[Step], export: str | None = None) -> ArenaPlan:
    """Live ranges of every tensor the steps write, placed in one arena.

    A tensor must be written before it is read, and written by one step
    first; later steps may write it again (in place) or read it. The
    export, if named, is placed at the start of the lent segment: a
    boundary that no tensor straddles and above which nothing is live while
    the export is, tried at each tensor's rounded size (greedy_by_size's
    boundary), the highest of those that give the smallest arena. Then a
    step's work becomes a uint8 tensor "<step>.work", live in
    that step only, in the largest stretch on one side of lent_at that no
    tensor live in the step covers, cut to that stretch: scratch takes the
    room the frame's tensors leave and never makes the arena larger.
    """
    steps = tuple(steps)
    specs: dict[str, tuple[tuple[int, ...], str]] = {}
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for i, step in enumerate(steps):
        for name in step.reads:
            if name not in first:
                raise ValueError(f"step {step.name} reads {name} before any step writes it")
            last[name] = i
        for name, shape, dtype in step.writes:
            if name not in first:
                specs[name], first[name] = (tuple(shape), np.dtype(dtype).str), i
            elif specs[name] != (tuple(shape), np.dtype(dtype).str):
                raise ValueError(f"step {step.name} writes {name} with another shape or dtype")
            last[name] = max(last.get(name, i), i)
    unplaced = [PlannedTensor(n, *specs[n], first[n], last[n], 0) for n in first]
    fixed = [t for t in unplaced if t.name != export]
    sizes, ranges = [t.nbytes for t in fixed], [(t.first, t.last) for t in fixed]
    if export is None:
        offsets, total = greedy_by_size(sizes, ranges)
        tensors = [t._replace(offset=offset) for t, offset in zip(fixed, offsets)]
        lent_at = total
    else:
        out = next(t for t in unplaced if t.name == export)
        below = [t.first <= out.last and out.first <= t.last for t in fixed]
        best = None
        for q in sorted({0, sum(map(_round_up, sizes)), *map(_round_up, sizes)}):
            placed = greedy_by_size(sizes, ranges, q, below)
            if placed is not None:
                size = max(placed[1], q + _round_up(out.nbytes))
                if best is None or size <= best[0]:
                    best = size, q, placed[0]
        total, lent_at, offsets = best
        tensors = [t._replace(offset=offset) for t, offset in zip(fixed, offsets)] + [out._replace(offset=lent_at)]
    for i, step in enumerate(steps):
        if step.work > 0:
            live = [t for t in tensors if t.live_at(i)]
            offset, room = max(_largest_gap(live, 0, lent_at), _largest_gap(live, lent_at, total),
                               key=lambda gap: gap[1])
            room = min(_round_up(step.work), room // ALIGN * ALIGN)  # the whole request, when there is room
            if room > 0:
                tensors.append(PlannedTensor(f"{step.name}.work", (room,), np.dtype(np.uint8).str, i, i, offset))
    return ArenaPlan(tuple(s.name for s in steps), tuple(tensors), total, export, lent_at)


def _largest_gap(live: list[PlannedTensor], lo: int, hi: int) -> tuple[int, int]:
    """Offset and bytes of the largest stretch of [lo, hi) no live tensor covers."""
    best, start = (lo, 0), lo
    for t in sorted(live, key=lambda t: t.offset):
        if t.offset >= hi or t.end <= lo:
            continue
        if t.offset - start > best[1]:
            best = (start, t.offset - start)
        start = max(start, t.end)
    return (start, hi - start) if hi - start > best[1] else best


def _aligned_view(owner: np.ndarray, n: int) -> np.ndarray:
    """n bytes of owner from its first ALIGN-aligned address."""
    start = -owner.ctypes.data % ALIGN
    return owner[start:start + n]


def _new_bytes(n: int) -> np.ndarray:
    """A new uint8 array with room for n bytes from an ALIGN-aligned address."""
    return np.empty(n + ALIGN, dtype=np.uint8)


class Arena:
    """The bytes of one plan; view(name) is that tensor's array.

    The bytes below plan.lent_at are allocated once. The segment above it
    is owned from begin_frame until lend hands it out with the export.
    """

    def __init__(self, plan: ArenaPlan):
        self.plan = plan
        self.buffer = _aligned_view(_new_bytes(plan.lent_at), plan.lent_at)
        self._segment: np.ndarray | None = None  # owner of the lent segment while the arena owns it
        self._lent: np.ndarray | None = None  # owner of the segment lent with the last export
        self._views = {t.name: self._slice(self.buffer, t, 0) for t in self._tensors(lent=False)}

    def _tensors(self, lent: bool) -> list[PlannedTensor]:
        return [t for t in self.plan.tensors if (t.offset >= self.plan.lent_at) == lent]

    @staticmethod
    def _slice(buffer: np.ndarray, t: PlannedTensor, base: int) -> np.ndarray:
        return buffer[t.offset - base:t.offset - base + t.nbytes].view(t.dtype).reshape(t.shape)

    def begin_frame(self) -> None:
        """Own the lent segment again: the one lent last once nothing else
        refers to it, else a new one."""
        n = self.plan.size - self.plan.lent_at
        if self._segment is not None or n == 0:
            return
        reusable = self._lent is not None and sys.getrefcount(self._lent) == 2  # self._lent and the argument
        self._segment, self._lent = (self._lent if reusable else _new_bytes(n)), None
        segment = _aligned_view(self._segment, n)
        for t in self._tensors(lent=True):
            self._views[t.name] = self._slice(segment, t, self.plan.lent_at)

    def lend(self) -> np.ndarray:
        """The export's view; its segment now belongs to the caller until
        nothing refers to it any more."""
        export = self._views[self.plan.export]
        for t in self._tensors(lent=True):
            del self._views[t.name]
        self._lent, self._segment = self._segment, None
        return export

    def view(self, name: str) -> np.ndarray:
        return self._views[name]

    def find(self, name: str) -> np.ndarray | None:
        """The view called name, or None when the plan has no such tensor."""
        return self._views.get(name)

    def owned(self) -> list[np.ndarray]:
        """The byte arrays the arena owns now: the buffer below lent_at, and
        the lent segment between begin_frame and lend."""
        return [self.buffer] + ([self._segment] if self._segment is not None else [])
