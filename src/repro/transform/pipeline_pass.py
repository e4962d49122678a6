"""The pipelining program transformation (paper Sec. III-B, Figs. 6-7).

Given the analysis plan, five transformation steps rewrite each
load-and-use loop into its pipelined form:

1. **Buffer expansion** — each pipelined buffer gains a leading stage
   dimension of size ``n_stages``.
2. **Index shifting** — producer copies load data for *future* iterations:
   the pipelined loop variable is advanced by ``n_stages - 1`` in the copy's
   source indices.
3. **Rolling / wrapping indices** — stage indices roll with
   ``var % n_stages``; shifted source indices wrap with ``var % extent`` so
   the final iterations do not index out of bounds. In a fused multi-level
   pipeline the inner shift carries into the outer loop variable:
   ``(ko + (ki + shift) // extent_ki) % n_stages_outer`` (Fig. 7 line 26).
4. **Prologue injection** — the first ``n_stages - 1`` chunks are loaded
   ahead of the loop; inner-pipeline prologues are hoisted before the
   outer-most loop (holistic pipeline, Fig. 3d), wrapped in cloned copies of
   any parallel loops between the two levels.
5. **Synchronization injection** — ``producer_acquire`` / ``producer_commit``
   bracket the loads, ``consumer_wait`` / ``consumer_release`` bracket the
   uses. With a fused inner pipeline the outer ``consumer_wait`` moves into
   the inner loop, guarded to fire exactly when the inner prefetch first
   crosses into the next outer chunk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.analysis import buffers_read
from ..ir.buffer import Buffer, BufferRegion, Scope
from ..ir.expr import Expr, IntImm, Var, as_expr, simplify
from ..ir.stmt import (
    Allocate,
    ComputeStmt,
    For,
    ForKind,
    IfThenElse,
    Kernel,
    MemCopy,
    PipelineSync,
    SeqStmt,
    Stmt,
    SyncKind,
    seq,
)
from .analysis import BufferPlan, GroupPlan, PipelinePlan, TransformError, analyze

__all__ = [
    "apply_pipelining",
    "PipelineGroupInfo",
]


class PipelineGroupInfo:
    """Post-transform description of one pipeline group, published on
    ``kernel.attrs['pipeline_groups']`` for interpreters and the simulator."""

    __slots__ = ("leader", "buffers", "scope", "stages", "loop_var_name", "loop_extent")

    def __init__(
        self,
        leader: Buffer,
        buffers: List[Buffer],
        scope: Scope,
        stages: int,
        loop_var_name: str,
        loop_extent: int,
    ) -> None:
        self.leader = leader
        self.buffers = list(buffers)
        self.scope = scope
        self.stages = stages
        self.loop_var_name = loop_var_name
        self.loop_extent = loop_extent

    def __repr__(self) -> str:
        names = ",".join(b.name for b in self.buffers)
        return (
            f"PipelineGroup({names} @{self.scope.value}, stages={self.stages}, "
            f"loop={self.loop_var_name})"
        )


def _substitute_stmt(stmt: Stmt, mapping: Dict[Var, Expr]) -> Stmt:
    """Substitute variables inside all regions/conditions of a subtree."""
    if isinstance(stmt, MemCopy):
        return MemCopy(
            stmt.dst.substitute(mapping),
            stmt.src.substitute(mapping),
            is_async=stmt.is_async,
            annotations=stmt.annotations,
        )
    if isinstance(stmt, ComputeStmt):
        return ComputeStmt(
            stmt.kind,
            stmt.out.substitute(mapping),
            [r.substitute(mapping) for r in stmt.inputs],
            fn=stmt.fn,
            flops=stmt.flops,
            annotations=stmt.annotations,
        )
    if isinstance(stmt, PipelineSync):
        # Clone: duplicated statements (e.g. unrolled loop bodies) must be
        # distinct barriers under the interpreter's fire-once keying.
        return PipelineSync(stmt.buffer, stmt.kind)
    if isinstance(stmt, SeqStmt):
        return SeqStmt([_substitute_stmt(s, mapping) for s in stmt.stmts])
    if isinstance(stmt, For):
        return For(
            stmt.var, stmt.extent, _substitute_stmt(stmt.body, mapping), stmt.kind,
            stmt.annotations,
        )
    if isinstance(stmt, IfThenElse):
        from ..ir.expr import substitute as esub

        return IfThenElse(
            esub(stmt.cond, mapping),
            _substitute_stmt(stmt.then_body, mapping),
            _substitute_stmt(stmt.else_body, mapping) if stmt.else_body else None,
        )
    if isinstance(stmt, Allocate):
        return Allocate(stmt.buffer, _substitute_stmt(stmt.body, mapping), stmt.attrs)
    raise TransformError(f"cannot substitute into {type(stmt).__name__}")


class _Rewriter:
    """Carries the plan state through one full tree rebuild.

    The rewrite is copy-on-write: subtrees the plan does not touch (the
    accumulator init nest, the epilogue, any statement whose regions read
    no pipelined buffer) are returned as the *original* nodes, not
    reconstructed equals. Statements are immutable, so structural sharing
    between the input and output trees is observationally free.
    """

    def __init__(self, plan: PipelinePlan) -> None:
        self.plan = plan
        #: old Buffer -> (new expanded Buffer, its group)
        self.expanded: Dict[Buffer, Tuple[Buffer, GroupPlan]] = {}
        #: id(MemCopy) -> (BufferPlan, GroupPlan) for producer copies
        self.producer_copies: Dict[int, Tuple[BufferPlan, GroupPlan]] = {}
        #: id(For) -> GroupPlan for pipelined loops
        self.group_loops: Dict[int, GroupPlan] = {}
        #: group id -> leader (new buffer) used by sync statements
        self.leaders: Dict[int, Buffer] = {}

        for g in plan.groups:
            self.group_loops[id(g.loop)] = g
            for m in g.members:
                new_buf = m.buffer.with_shape((g.stages,) + m.buffer.shape)
                self.expanded[m.buffer] = (new_buf, g)
                self.producer_copies[id(m.producer_copy)] = (m, g)
            self.leaders[id(g)] = self.expanded[g.members[0].buffer][0]

    # ------------------------------------------------------------------ helpers
    def leader_of(self, g: GroupPlan) -> Buffer:
        return self.leaders[id(g)]

    def sync(self, g: GroupPlan, kind: SyncKind) -> PipelineSync:
        return PipelineSync(self.leader_of(g), kind)

    def consumer_region(self, region: BufferRegion) -> BufferRegion:
        """Rewrite a region that *reads* a (possibly) pipelined buffer:
        rebind to the expanded buffer and prepend the rolling stage index
        ``loop_var % stages``."""
        hit = self.expanded.get(region.buffer)
        if hit is None:
            return region
        new_buf, g = hit
        stage = g.loop_var % g.stages
        return BufferRegion._trusted(
            new_buf,
            (stage,) + region.offsets,
            (1,) + region.extents,
        )

    def producer_copy_stmt(self, copy: MemCopy, m: BufferPlan, g: GroupPlan) -> MemCopy:
        """Steps two & three applied to a producer copy inside the main loop."""
        shift = g.stages - 1
        # Destination: expanded buffer, stage rolls with the *shifted* var.
        new_buf, _ = self.expanded[m.buffer]
        dst_stage = (g.loop_var + shift) % g.stages
        dst = BufferRegion._trusted(
            new_buf, (dst_stage,) + copy.dst.offsets, (1,) + copy.dst.extents
        )
        # Source: first the consumer rewrite (multi-level: the source may be a
        # pipelined parent buffer), then the shift substitution with wrapping.
        src = self.consumer_region(copy.src)
        mapping: Dict[Var, Expr] = {g.loop_var: (g.loop_var + shift) % g.loop_extent}
        if g.parent is not None:
            carry = (g.loop_var + shift) // g.loop_extent
            mapping[g.parent.loop_var] = g.parent.loop_var + carry
        src = src.substitute(mapping)
        src = BufferRegion._trusted(
            src.buffer, tuple(simplify(o) for o in src.offsets), src.extents
        )
        return MemCopy(dst, src, is_async=True, annotations=copy.annotations)

    def prologue_copy_stmt(self, m: BufferPlan, g: GroupPlan, chunk: int) -> MemCopy:
        """A producer copy specialized to prologue ``chunk`` (step four)."""
        copy = m.producer_copy
        new_buf, _ = self.expanded[m.buffer]
        dst = BufferRegion._trusted(
            new_buf, (IntImm(chunk % g.stages),) + copy.dst.offsets, (1,) + copy.dst.extents
        )
        src = self.consumer_region(copy.src)
        mapping: Dict[Var, Expr] = {g.loop_var: as_expr(chunk % g.loop_extent)}
        if g.parent is not None:
            mapping[g.parent.loop_var] = as_expr(chunk // g.loop_extent)
        src = src.substitute(mapping)
        src = BufferRegion._trusted(
            src.buffer, tuple(simplify(o) for o in src.offsets), src.extents
        )
        return MemCopy(dst, src, is_async=True, annotations=copy.annotations)

    # --------------------------------------------------------------- prologues
    def _loops_between(self, parent: GroupPlan, child: GroupPlan) -> List[For]:
        """The loops strictly between the parent and child pipelined loops on
        the child's copy path (cloned around hoisted inner prologues)."""
        path = child.members[0].copy_path
        loops: List[For] = []
        seen_parent = False
        for node in path:
            if node is parent.loop:
                seen_parent = True
                continue
            if node is child.loop:
                break
            if seen_parent and isinstance(node, For):
                loops.append(node)
        if not seen_parent:
            raise TransformError("parent pipeline loop not found on child path")
        return loops

    def chain_prologue(self, root: GroupPlan) -> List[Stmt]:
        """Prologue for a whole fused pipeline chain, hoisted before the
        outer-most loop (analysis step five / transform step four)."""
        stmts: List[Stmt] = []
        for p in range(root.stages - 1):
            stmts.append(self.sync(root, SyncKind.PRODUCER_ACQUIRE))
            for m in root.members:
                stmts.append(self.prologue_copy_stmt(m, root, p))
            stmts.append(self.sync(root, SyncKind.PRODUCER_COMMIT))

        prev, child = root, root.child
        while child is not None:
            # The inner prologue reads the first outer chunk: wait for it.
            stmts.append(self.sync(prev, SyncKind.CONSUMER_WAIT))
            inner: List[Stmt] = []
            for q in range(child.stages - 1):
                inner.append(self.sync(child, SyncKind.PRODUCER_ACQUIRE))
                for m in child.members:
                    inner.append(self.prologue_copy_stmt(m, child, q))
                inner.append(self.sync(child, SyncKind.PRODUCER_COMMIT))
            body: Stmt = seq(*inner)
            # Re-create the (parallel) loops between the levels so warp
            # indices stay bound in the hoisted prologue. The original loop
            # variables are reused: the prologue nest is a *sibling* of the
            # main loop, and each warp must keep the same identity in both
            # (its register pipeline is private to it).
            for loop in reversed(self._loops_between(prev, child)):
                body = For(loop.var, loop.extent, body, loop.kind, loop.annotations)
            stmts.append(body)
            prev, child = child, child.child
        return stmts

    def _drain_stmts(self, g: GroupPlan) -> List[Stmt]:
        """Quiesce a pipeline after its loop so the next instance (when the
        loop re-executes inside an enclosing sequential loop) starts from an
        empty pipeline. Groups with a fused child performed one extra
        prologue wait, which shifts the leftover accounting by one."""
        committed_leftover = (g.stages - 1) - (1 if g.child is not None else 0)
        applied_leftover = 1 if g.child is not None else 0
        stmts: List[Stmt] = []
        for _ in range(committed_leftover):
            stmts.append(self.sync(g, SyncKind.CONSUMER_WAIT))
        for _ in range(committed_leftover + applied_leftover):
            stmts.append(self.sync(g, SyncKind.CONSUMER_RELEASE))
        return stmts

    def _needs_drain(self, root: GroupPlan) -> bool:
        """True when the chain's outermost loop re-executes sequentially
        (recursive pipeline, Fig. 3c) so its state would otherwise leak."""
        for node in root.members[0].copy_path:
            if node is root.loop:
                break
            if isinstance(node, For) and node.kind in (ForKind.SERIAL, ForKind.UNROLLED):
                return True
        return False

    # ------------------------------------------------------------------ rewrite
    def rewrite(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, For):
            g = self.group_loops.get(id(stmt))
            if g is not None:
                new_loop = self.rewrite_group_loop(g)
                if g.parent is None:
                    parts: List[Stmt] = [*self.chain_prologue(g), new_loop]
                    if self._needs_drain(g):
                        node: Optional[GroupPlan] = g
                        chain: List[GroupPlan] = []
                        while node is not None:
                            chain.append(node)
                            node = node.child
                        for member in reversed(chain):
                            parts.extend(self._drain_stmts(member))
                    return seq(*parts)
                return new_loop
            body = self.rewrite(stmt.body)
            if body is stmt.body:
                return stmt
            return For(stmt.var, stmt.extent, body, stmt.kind, stmt.annotations)
        if isinstance(stmt, SeqStmt):
            stmts = [self.rewrite(s) for s in stmt.stmts]
            if all(new is old for new, old in zip(stmts, stmt.stmts)):
                return stmt
            return SeqStmt(stmts)
        if isinstance(stmt, IfThenElse):
            then_body = self.rewrite(stmt.then_body)
            else_body = self.rewrite(stmt.else_body) if stmt.else_body else None
            if then_body is stmt.then_body and else_body is stmt.else_body:
                return stmt
            return IfThenElse(stmt.cond, then_body, else_body)
        if isinstance(stmt, Allocate):
            hit = self.expanded.get(stmt.buffer)
            if hit is not None:
                new_buf, g = hit
                attrs = dict(stmt.attrs)
                attrs["pipeline_stages"] = g.stages
                attrs["pipelined"] = True
                return Allocate(new_buf, self.rewrite(stmt.body), attrs)
            body = self.rewrite(stmt.body)
            if body is stmt.body:
                return stmt
            return Allocate(stmt.buffer, body, stmt.attrs)
        if isinstance(stmt, MemCopy):
            hit = self.producer_copies.get(id(stmt))
            if hit is not None:
                m, g = hit
                return self.producer_copy_stmt(stmt, m, g)
            dst = self.consumer_region(stmt.dst)
            src = self.consumer_region(stmt.src)
            if dst is stmt.dst and src is stmt.src:
                return stmt
            return MemCopy(dst, src, is_async=stmt.is_async, annotations=stmt.annotations)
        if isinstance(stmt, ComputeStmt):
            out = self.consumer_region(stmt.out)
            inputs = [self.consumer_region(r) for r in stmt.inputs]
            if out is stmt.out and all(new is old for new, old in zip(inputs, stmt.inputs)):
                return stmt
            return ComputeStmt(
                stmt.kind,
                out,
                inputs,
                fn=stmt.fn,
                flops=stmt.flops,
                annotations=stmt.annotations,
            )
        if isinstance(stmt, PipelineSync):
            return stmt
        raise TransformError(f"unknown statement {type(stmt).__name__}")

    def _scan_group_loop(self, g: GroupPlan) -> Tuple[List[int], List[int]]:
        """Producer/consumer child positions inside a group loop body."""
        body = g.loop.body
        children = list(body.stmts) if isinstance(body, SeqStmt) else [body]
        producer_ids = g.producer_copy_ids
        prod_idx = [i for i, c in enumerate(children) if id(c) in producer_ids]
        if len(prod_idx) != len(producer_ids):
            raise TransformError(
                f"producer copies of group at loop {g.loop_var.name} must be "
                "direct children of the pipelined loop body"
            )
        member_bufs = set(g.buffers)
        cons_idx = [
            i
            for i, c in enumerate(children)
            if i not in prod_idx and buffers_read(c) & member_bufs
        ]
        if not cons_idx:
            raise TransformError(f"group at loop {g.loop_var.name} has no consumers in-loop")
        return prod_idx, cons_idx

    def rewrite_group_loop(self, g: GroupPlan) -> For:
        """Rewrite one pipelined loop: transformed children plus step-five
        synchronization primitives."""
        body = g.loop.body
        children = list(body.stmts) if isinstance(body, SeqStmt) else [body]
        prod_idx, cons_idx = self._scan_group_loop(g)

        new_children: List[Stmt] = []
        if g.parent is not None:
            # Fused multi-level pipeline: the outer consumer_wait moves here,
            # firing exactly when the prefetch first crosses into the next
            # outer chunk (Fig. 7's guarded wait).
            cross = g.loop_extent - (g.stages - 1)
            new_children.append(
                IfThenElse(
                    g.loop_var.equal(cross % g.loop_extent),
                    self.sync(g.parent, SyncKind.CONSUMER_WAIT),
                )
            )
        for i, child in enumerate(children):
            if i == prod_idx[0]:
                new_children.append(self.sync(g, SyncKind.PRODUCER_ACQUIRE))
            if g.child is None and cons_idx and i == cons_idx[0]:
                new_children.append(self.sync(g, SyncKind.CONSUMER_WAIT))
            new_children.append(self.rewrite(child))
            if i == prod_idx[-1]:
                new_children.append(self.sync(g, SyncKind.PRODUCER_COMMIT))
            if i == cons_idx[-1]:
                new_children.append(self.sync(g, SyncKind.CONSUMER_RELEASE))
        annotations = dict(g.loop.annotations)
        annotations["software_pipelined"] = True
        return For(g.loop_var, g.loop.extent, SeqStmt(new_children), g.loop.kind, annotations)

    def group_infos(self) -> List[PipelineGroupInfo]:
        infos = []
        for g in self.plan.groups:
            infos.append(
                PipelineGroupInfo(
                    leader=self.leader_of(g),
                    buffers=[self.expanded[b][0] for b in g.buffers],
                    scope=g.scope,
                    stages=g.stages,
                    loop_var_name=g.loop_var.name,
                    loop_extent=g.loop_extent,
                )
            )
        return infos


def apply_pipelining(kernel: Kernel, verify_sync: bool = False) -> Kernel:
    """Apply the pipelining program transformation to a lowered kernel.

    Returns a new kernel whose hinted buffers are multi-buffered, whose
    producer copies prefetch future iterations, and whose loads/uses are
    guarded by the four pipeline primitives. A kernel without hints is
    returned with an empty ``pipeline_groups`` attribute.

    With ``verify_sync=True`` the static race checker
    (:mod:`repro.ir.syncheck`) runs on the rewritten kernel and
    error-severity findings raise :class:`~repro.ir.syncheck.SyncCheckError`
    — a mis-placed primitive then fails the build instead of silently
    producing racy code.
    """
    plan = analyze(kernel)
    rw = _Rewriter(plan)
    body = rw.rewrite(kernel.body) if plan.groups else kernel.body
    out = Kernel(kernel.name, kernel.params, body, kernel.attrs)
    out.attrs["pipeline_groups"] = rw.group_infos()
    if verify_sync:
        from ..core import profiling
        from ..ir.syncheck import SyncCheckError, check_kernel

        with profiling.stage("syncheck"):
            errors = [d for d in check_kernel(out) if d.severity == "error"]
        if errors:
            raise SyncCheckError(errors)
    return out
