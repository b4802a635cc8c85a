"""Load two mcstop source trees into one process and time them in turns.

Usage (the paired study mode):
  python3 tools/two_trees.py --against PARENT_SRC [--src DIR]

A helper of tools/estimator_grid.py, tools/sampler_rates.py and
tools/checkpoint_overhead.py, for their --against mode. Separate
processes of the same tree can differ by tens of percent on a shared
machine, so a change is timed against its parent in one process: both
trees are loaded side by side, and their calls take turns (turn_order),
in CPU time (time.process_time, which counts BLAS worker threads too).

load_tree(src, *names) imports the named modules of the mcstop package
under src with a fresh set of mcstop entries in sys.modules, and puts
back whatever mcstop modules were loaded before; active(tree) installs a
tree's modules again around the code that runs it.

Run as a script, it times replication studies: the tree under --src
(default: this checkout's src) is the change, the tree under PARENT_SRC
its parent. The cells (STUDY_CELLS) are reduced forms of two acceptance
criteria on var1_bench5, alpha .10, n* 1000, seed_base 0:

  criterion_08_eps02  coverage_study, methods mbm and ubm_bonferroni,
                      eps .02, 4 replications (criterion 8 runs 50)
  criterion_10        batch_sensitivity_study, method mbm, nu 1/3 and
                      1/2 by eps .20 and .02, 12 replications (criterion
                      10 runs 200)

Each cell runs once untimed on each tree, then STUDY_ROUNDS (9) rounds
of turns: a turn is one serial study (MCSTOP_WORKERS=1) in CPU time.
Whatever a tree keeps between calls, such as spare buffers, carries over
from one of its turns to the next, as in a process that runs studies one
after another. Per cell it reports each tree's median CPU seconds, the
median over rounds of the change/parent ratio (below 1: the change is
faster; two copies of one tree read 0.98-1.02 for criterion 8 and
0.99-1.05 for criterion 10 over seven runs on a shared 2-core VM), the
rounds the change won, and the SHA-256 of the study rows
without their seconds column. The rows must be the same on both trees
and in every round, or the tool exits with the first difference.
Prints one JSON object.
"""
import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace


SIDES = ("change", "parent")
MIN_TURN_S = 0.05
ROOT = Path(__file__).resolve().parent.parent
STUDY_ROUNDS = 9


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


def _criterion_08_eps02(mcstop):
    config = mcstop.StoppingConfig(epsilon=0.02, alpha=0.10, n_star=1000)
    return mcstop.coverage_study(mcstop.StudySpec(
        model=mcstop.var1_benchmark(5), replications=4, stopping=config,
        methods=("mbm", "ubm_bonferroni"), seed_base=0))


def _criterion_10(mcstop):
    config = mcstop.StoppingConfig(epsilon=0.20, alpha=0.10, n_star=1000)
    return mcstop.batch_sensitivity_study(
        mcstop.StudySpec(model=mcstop.var1_benchmark(5), replications=12,
                         stopping=config, methods=("mbm",), seed_base=0),
        nus=(1 / 3, 0.5), eps_list=(0.20, 0.02))


STUDY_CELLS = {"criterion_08_eps02": _criterion_08_eps02, "criterion_10": _criterion_10}


def _rows_digest(report) -> str:
    """SHA-256 of a study's rows without their seconds column."""
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in report.rows]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def study_pairs(src: str, parent_src: str) -> dict:
    """The paired study mode: each cell's CPU ratio, rounds won and rows digest."""
    os.environ["MCSTOP_WORKERS"] = "1"
    trees = load_pair(src, parent_src, "mcstop")
    out = {}
    for name, cell in STUDY_CELLS.items():
        digests = set()
        for tree in trees.values():
            with active(tree):
                digests.add(_rows_digest(cell(tree.mcstop)))
        if len(digests) > 1:
            raise SystemExit(f"{name}: the trees' rows differ")
        times = {side: [] for side in trees}
        for r, side in turn_order(STUDY_ROUNDS):
            with active(trees[side]):
                t0 = time.process_time()
                report = cell(trees[side].mcstop)
                times[side].append(time.process_time() - t0)
            digests.add(_rows_digest(report))
            if len(digests) > 1:
                raise SystemExit(f"{name}: {side} rows differ in round {r}")
        out[name] = {"rows_sha256": digests.pop(),
                     **compare(times["change"], times["parent"])}
    return {"src": trees["change"].src, "against": trees["parent"].src,
            "rounds": STUDY_ROUNDS, "cells": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    ap.add_argument("--against", metavar="PARENT_SRC", required=True,
                    help="time --src against this tree, in turns in one process")
    args = ap.parse_args(argv)
    out = study_pairs(args.src, args.against)
    print(json.dumps({**out, "python": platform.python_version(),
                      "nproc": len(os.sched_getaffinity(0))}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
