"""Failure injection shared by the transformation and interpreter tests."""

from repro.ir.stmt import Allocate, For, IfThenElse, PipelineSync, SeqStmt, seq


def drop_syncs(kernel, drop):
    """``kernel`` without every :class:`PipelineSync` for which ``drop(sync)``
    is true. ``drop`` sees the syncs in program order, so it may count them;
    a loop, guard or allocation left with an empty body goes too."""

    def rebuild(s):
        if isinstance(s, PipelineSync):
            return None if drop(s) else s
        if isinstance(s, SeqStmt):
            kept = [r for r in map(rebuild, s.stmts) if r is not None]
            return seq(*kept) if kept else None
        if isinstance(s, (For, Allocate)):
            body = rebuild(s.body)
            return None if body is None else s.with_body(body)
        if isinstance(s, IfThenElse):
            then_body = rebuild(s.then_body)
            else_body = None if s.else_body is None else rebuild(s.else_body)
            if then_body is None and else_body is not None:
                raise ValueError("cannot drop a guard's then-branch and keep its else")
            return None if then_body is None else IfThenElse(s.cond, then_body, else_body)
        return s

    body = rebuild(kernel.body)
    if body is None:
        raise ValueError("dropping these syncs empties the whole kernel")
    return kernel.with_body(body)
