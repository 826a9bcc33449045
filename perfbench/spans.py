"""Span tracing by patching a program's entry points from outside it.

A Tracer wraps callables so that every call records its duration into a
named bucket. Calls nest: a span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
spans under one root add up to the root's duration and none is negative.
Each wrapper may also run a counting hook on the call's arguments and
result. Wrappers read only the clock; they draw no random numbers and
leave arguments and results untouched.

Patching replaces a name where its caller looks it up (a module global or
a class attribute) and puts the original back when the block ends.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    """Per-bucket self time, call counts and hook counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._child_s = []  # one accumulator per open span

    def wrap(self, bucket, fn, hook=None):
        """fn traced into bucket; hook(counters, args, result) may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self.self_s[bucket] += duration - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration
                self.calls[bucket] += 1
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def total_self_s(self):
        return sum(self.self_s.values())


def resolve(owner_path):
    """Import 'pkg.module' or 'pkg.module:Class' and return the object."""
    module_name, _, attr = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


@contextlib.contextmanager
def patched(tracer, points):
    """Trace every (owner_path, name, bucket, hook) point inside the block.

    A name must be defined on the owner itself (in its __dict__), which is
    where the caller finds it; points that are missing are skipped and
    yielded back so the caller can report them. Every original is restored
    on exit, also when the block raises.
    """
    undo = []
    missing = []
    try:
        for owner_path, name, bucket, hook in points:
            try:
                owner = resolve(owner_path)
            except (ImportError, AttributeError):
                missing.append(f"{owner_path}.{name}")
                continue
            if name not in vars(owner):
                missing.append(f"{owner_path}.{name}")
                continue
            original = vars(owner)[name]
            undo.append((owner, name, original))
            setattr(owner, name, tracer.wrap(bucket, original, hook))
        yield missing
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
