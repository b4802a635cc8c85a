"""Load two mcstop source trees into one process and time them in turns.

A helper of tools/estimator_grid.py and tools/sampler_rates.py, for their
--against mode. Separate processes of the same tree can differ by tens of
percent on a shared machine, so a change is timed against its parent in
one process: both trees are loaded side by side, and their calls take
turns (turn_order), in CPU time (time.process_time, which counts BLAS
worker threads too).

load_tree(src, *names) imports the named modules of the mcstop package
under src with a fresh set of mcstop entries in sys.modules, and puts
back whatever mcstop modules were loaded before; active(tree) installs a
tree's modules again around the code that runs it.
"""
import contextlib
import importlib
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace


SIDES = ("change", "parent")
MIN_TURN_S = 0.05


def _package(name: str) -> bool:
    return name == "mcstop" or name.startswith("mcstop.")


@contextlib.contextmanager
def active(tree: SimpleNamespace):
    """Run a block with the tree's mcstop modules in sys.modules.

    The package looks itself up by name at run time (importlib.resources
    reads its data files by package name), so each tree's calls must run
    with its own modules installed. Modules imported inside the block are
    kept with the tree; those of the other tree come back after it.
    """
    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if _package(k)}
    sys.modules.update(tree.modules)
    try:
        yield tree
    finally:
        tree.modules = {k: sys.modules.pop(k) for k in list(sys.modules) if _package(k)}
        sys.modules.update(saved)


def load_tree(src: str, *names: str) -> SimpleNamespace:
    """The modules `names` (e.g. "mcstop.checkpoint") of the tree under src,
    as attributes named by their last part, with .src set to the tree and
    .modules to its entries of sys.modules."""
    tree = SimpleNamespace(src=str(Path(src).resolve()), modules={})
    with active(tree):
        sys.path.insert(0, tree.src)
        try:
            for name in names:
                mod = importlib.import_module(name)
                if not mod.__file__.startswith(tree.src):
                    raise RuntimeError(f"{name} was loaded from {mod.__file__}, not {tree.src}")
                setattr(tree, name.rpartition(".")[2], mod)
        finally:
            sys.path.remove(tree.src)
    return tree


def load_pair(src: str, parent_src: str, *names: str) -> dict:
    """{"change": load_tree(src, ...), "parent": load_tree(parent_src, ...)}."""
    return {side: load_tree(root, *names) for side, root in zip(SIDES, (src, parent_src))}


def turn_order(rounds: int):
    """(round, side) pairs, side "change" or "parent": one call each per round.

    The side that goes first alternates from round to round, so neither
    always runs on the other's warm caches.
    """
    for r in range(rounds):
        yield from ((r, side) for side in SIDES[:: 1 if r % 2 == 0 else -1])


def calls_per_turn(call) -> int:
    """How many calls of call make one turn of at least MIN_TURN_S CPU seconds.

    BLAS worker threads add CPU time in steps of a few milliseconds, so a
    turn of one short call would be mostly that step.
    """
    number = 1
    while cpu_seconds(call, number) * number < MIN_TURN_S:
        number *= 2
    return number


def cpu_seconds(call, number: int = 1) -> float:
    """The CPU time of one call, averaged over number calls in a row."""
    t0 = time.process_time()
    for _ in range(number):
        call()
    return (time.process_time() - t0) / number


def compare(change: list, parent: list) -> dict:
    """The median change/parent ratio of CPU seconds over the rounds, and the
    rounds the change won.

    Round r of each side runs the same work, so the ratio is taken round
    by round: a ratio of medians would mix rounds of different work.
    """
    return {"ratio": statistics.median(c / p for c, p in zip(change, parent)),
            "change_wins": sum(c < p for c, p in zip(change, parent)),
            "turns": len(change),
            "change_median_s": statistics.median(change),
            "parent_median_s": statistics.median(parent),
            "change_s": change, "parent_s": parent}
