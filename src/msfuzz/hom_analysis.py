"""The row kernels of the kernel and cokernel laws.

``kernel_row`` and ``cokernel_row`` are row kernels like
``extensions.upsilon_row``: they only compare grades with each other and
with the ``zero`` or ``one`` they are given, so the laws call them on
integer grade ranks.  The facts they decide are laws prop-5.2 and
prop-5.3 in ``laws``.
"""

from __future__ import annotations

from .ms_algebra import MSAlgebra


def kernel_row(ms: MSAlgebra, grades, ups, w_idx, zero) -> bool:
    """An element has extension grade ``zero`` iff chi gives it ``zero``
    and chi gives ``zero`` to the whole double-negation image of W; on the
    rows of chi and of its extension over the indices ``w_idx``."""
    dd = ms.dneg_table()
    image_killed = all(grades[dd[w]] == zero for w in w_idx)
    return all((u == zero) == (g == zero and image_killed) for g, u in zip(grades, ups))


def cokernel_row(ms: MSAlgebra, grades, ups, w_idx, one) -> bool:
    """An element has extension grade ``one`` iff chi gives it ``one`` or
    some double-negated reference element has grade ``one``; on rows, like
    ``kernel_row``."""
    dd = ms.dneg_table()
    image_hit = any(grades[dd[w]] == one for w in w_idx)
    return all((u == one) == (g == one or image_hit) for g, u in zip(grades, ups))

