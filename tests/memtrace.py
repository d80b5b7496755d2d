"""What each vjp of a backward pass allocates, measured with tracemalloc.

    from memtrace import vjp_peaks
    grads, peaks = vjp_peaks(tape, loss)
    worst = max(peaks, key=lambda p: p.start + p.transient)

Only numpy's allocations count: tracemalloc sees the data buffers numpy
takes from Python's allocator, so the numbers are array bytes, not process
RSS.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

from genieblue.autograd import backward


@dataclass(frozen=True)
class VjpPeak:
    """One vjp's memory, in bytes traced since ``vjp_peaks`` began.

    ``start`` is what was traced when the vjp was entered (the tape and the
    gradients backward holds, as far as tracing saw them being made), and
    ``transient`` the peak above ``start`` while it ran.
    """

    index: int  # the node's place on the tape
    op: str
    start: int
    transient: int


def vjp_peaks(tape, loss) -> tuple[dict, list[VjpPeak]]:
    """``backward(tape, loss)`` with every vjp watched: the gradients and a ``VjpPeak`` per vjp, in replay order.

    Starts tracemalloc when it is not running, and then stops it again;
    either way it resets the traced peak on entering each vjp, so an outer
    peak taken across the call reads the last vjp's only. Arrays made
    before tracing began are not counted in ``start``, and their release
    does not lower it.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    peaks: list[VjpPeak] = []
    try:
        base = tracemalloc.get_traced_memory()[0]

        def watched(index, op, vjp):
            def run(g):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = vjp(g)
                peaks.append(VjpPeak(index, op, start - base, tracemalloc.get_traced_memory()[1] - start))
                return out

            return run

        for i, node in enumerate(tape.nodes):
            if node.vjp is not None:  # a spent node: backward raises for it
                node.vjp = watched(i, node.op, node.vjp)
        grads = backward(tape, loss)
    finally:
        if started:
            tracemalloc.stop()
    return grads, peaks
