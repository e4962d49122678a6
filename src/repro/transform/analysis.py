"""Analysis steps of the pipelining program transformation (paper Sec. III-A).

Five analysis steps run before any rewriting:

1. **Hint collection** — find ``pipeline_stages`` attrs left on ``Allocate``
   nodes by the schedule transformation.
2. **Producer/consumer reconstruction** — for each hinted buffer find its
   (unique, asynchronous) producer copy and every consumer statement, and
   derive multi-level structure: a buffer whose producer tensor is itself a
   pipelined buffer forms an inner pipeline fused into the outer one.
3. **Sequential load-and-use loop determination** — walking the producer
   copy's enclosing loops inside-out, the pipelined loop is the first
   *sequential* loop whose iteration variable does not index into the
   buffer.
4. **Load/use region recording** — positions of loads and uses inside the
   pipelined loop body (needed for synchronization injection).
5. **Prologue site determination** — prologues of inner pipelines are
   hoisted before the outer-most pipelined loop to build a holistic
   pipeline (Fig. 3d) rather than a recursive one (Fig. 3c).

The resulting :class:`PipelinePlan` drives :mod:`.pipeline_pass`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..ir.analysis import (
    enclosing_loops,
    loop_extent_int,
    stmt_regions_read,
    walk_with_path,
)
from ..ir.buffer import Buffer, Scope
from ..ir.stmt import Allocate, For, ForKind, Kernel, MemCopy, Stmt

from ..core.errors import TransformError

#: Back-compat re-export: :class:`TransformError` is the taxonomy class
#: from :mod:`repro.core.errors` ("the IR violates an assumption of the
#: pipelining pass").
__all__ = [
    "TransformError",
    "BufferPlan",
    "GroupPlan",
    "PipelinePlan",
    "analyze",
]


@dataclasses.dataclass(eq=False)
class BufferPlan:
    """Everything the pass needs to know about one pipelined buffer."""

    buffer: Buffer
    stages: int
    alloc: Allocate
    producer_copy: MemCopy
    copy_path: Tuple[Stmt, ...]
    loop: For
    loop_extent: int
    producer_buffer: Buffer


@dataclasses.dataclass(eq=False)
class GroupPlan:
    """Buffers sharing one scope and one pipelined loop — they share the
    scope-based barrier (rule 3) and are transformed as a unit."""

    scope: Scope
    stages: int
    loop: For
    loop_extent: int
    members: List[BufferPlan]
    parent: Optional["GroupPlan"] = None
    child: Optional["GroupPlan"] = None

    @property
    def loop_var(self):
        return self.loop.var

    @property
    def buffers(self) -> List[Buffer]:
        return [m.buffer for m in self.members]

    @property
    def producer_copy_ids(self) -> set:
        return {id(m.producer_copy) for m in self.members}


@dataclasses.dataclass(eq=False)
class PipelinePlan:
    """Analysis result: pipeline groups ordered outermost-first."""

    groups: List[GroupPlan]


def _find_pipelined_loop(copy: MemCopy, path: Tuple[Stmt, ...]) -> For:
    """Analysis step three: the sequential load-and-use loop of a copy."""
    dst_vars = copy.dst.free_vars()
    for loop in reversed(enclosing_loops(path)):
        if loop.kind is not ForKind.SERIAL:
            continue
        if loop.var in dst_vars:
            # The buffer is partitioned along this loop, not re-filled by it.
            continue
        return loop
    raise TransformError(
        f"no sequential load-and-use loop encloses the copy into "
        f"{copy.dst.buffer.name}; the buffer cannot be pipelined"
    )


def analyze(kernel: Kernel) -> PipelinePlan:
    """Run the five analysis steps over a lowered kernel."""
    # -- step 1: collect hints -------------------------------------------------
    hinted: Dict[Buffer, Tuple[int, Allocate]] = {}
    for node, _ in walk_with_path(kernel.body):
        if isinstance(node, Allocate):
            stages = node.attrs.get("pipeline_stages")
            if stages is not None and int(stages) >= 2:
                if node.attrs.get("pipelined"):
                    raise TransformError(
                        f"buffer {node.buffer.name} has already been pipelined"
                    )
                hinted[node.buffer] = (int(stages), node)
    if not hinted:
        return PipelinePlan(groups=[])

    # -- step 2: reconstruct producers and consumers ----------------------------
    copies_by_dst: Dict[Buffer, List[Tuple[MemCopy, Tuple[Stmt, ...]]]] = {}
    consumers: Dict[Buffer, List[Tuple[Stmt, Tuple[Stmt, ...]]]] = {b: [] for b in hinted}
    for node, path in walk_with_path(kernel.body):
        if isinstance(node, MemCopy) and node.dst.buffer in hinted:
            copies_by_dst.setdefault(node.dst.buffer, []).append((node, path))
        for region in stmt_regions_read(node):
            if region.buffer in hinted:
                consumers[region.buffer].append((node, path))

    plans: List[BufferPlan] = []
    for buffer, (stages, alloc) in hinted.items():
        copies = copies_by_dst.get(buffer, [])
        if len(copies) != 1:
            raise TransformError(
                f"pipelined buffer {buffer.name} must have exactly one "
                f"producer copy, found {len(copies)}"
            )
        copy, path = copies[0]
        if not copy.is_async:
            raise TransformError(
                f"buffer {buffer.name} is produced by a synchronous copy; "
                "pipelining requires an asynchronous producer (rule 1)"
            )
        if not consumers[buffer]:
            raise TransformError(f"pipelined buffer {buffer.name} is never read")
        loop = _find_pipelined_loop(copy, path)
        extent = loop_extent_int(loop)
        if extent <= 1:
            raise TransformError(
                f"load-and-use loop of {buffer.name} has extent {extent}; "
                "nothing to pipeline (rule 2)"
            )
        # Steps 3-4: all consumers must sit inside the pipelined loop, or the
        # rolled (stage-indexed) buffer would be read without an iteration
        # context.
        for cons, cpath in consumers[buffer]:
            if loop not in cpath and cons is not loop:
                raise TransformError(
                    f"{buffer.name} is read outside its load-and-use loop; "
                    "pipelining would change program semantics"
                )
        plans.append(
            BufferPlan(
                buffer=buffer,
                stages=stages,
                alloc=alloc,
                producer_copy=copy,
                copy_path=path,
                loop=loop,
                loop_extent=extent,
                producer_buffer=copy.src.buffer,
            )
        )

    # -- grouping by (scope, loop): scope-based barriers (rule 3) ---------------
    groups_by_key: Dict[Tuple[int, Scope], GroupPlan] = {}
    scope_loops: Dict[Scope, For] = {}
    for bp in plans:
        prev_loop = scope_loops.get(bp.buffer.scope)
        if prev_loop is not None and prev_loop is not bp.loop:
            raise TransformError(
                f"buffers in scope {bp.buffer.scope.value} pipeline at "
                "different loops; scope-based barriers cannot be placed (rule 3)"
            )
        scope_loops[bp.buffer.scope] = bp.loop
        key = (id(bp.loop), bp.buffer.scope)
        group = groups_by_key.get(key)
        if group is None:
            group = GroupPlan(
                scope=bp.buffer.scope,
                stages=bp.stages,
                loop=bp.loop,
                loop_extent=bp.loop_extent,
                members=[],
            )
            groups_by_key[key] = group
        elif group.stages != bp.stages:
            raise TransformError(
                f"buffers in scope {bp.buffer.scope.value} request different "
                f"stage counts ({group.stages} vs {bp.stages}); barrier "
                "positions would differ (rule 3)"
            )
        group.members.append(bp)

    groups = list(groups_by_key.values())

    # -- step 2 (multi-level) + step 5: parent links ----------------------------
    buffer_to_group = {m.buffer: g for g in groups for m in g.members}
    for g in groups:
        parents = {
            buffer_to_group[m.producer_buffer]
            for m in g.members
            if m.producer_buffer in buffer_to_group
        }
        if len(parents) > 1:
            raise TransformError(
                "a pipeline group draws from multiple pipelined parent groups"
            )
        if parents:
            parent = parents.pop()
            # The parent loop must strictly enclose this group's loop.
            member_path = g.members[0].copy_path
            if parent.loop not in member_path:
                raise TransformError(
                    f"producer pipeline loop {parent.loop_var.name} does not "
                    f"enclose consumer pipeline loop {g.loop_var.name}"
                )
            if parent.child is not None and parent.child is not g:
                raise TransformError("a pipeline group has more than one inner pipeline")
            if g.stages - 1 > g.loop_extent:
                raise TransformError(
                    f"inner pipeline of {g.loop_var.name} with {g.stages} "
                    f"stages would prefetch past the one visible outer chunk "
                    f"(loop extent {g.loop_extent})"
                )
            g.parent = parent
            parent.child = g

    # Order outermost-first by loop depth (length of enclosing-loop path).
    def depth(g: GroupPlan) -> int:
        return len(enclosing_loops(g.members[0].copy_path))

    groups.sort(key=depth)
    return PipelinePlan(groups=groups)

