"""Shared fixtures for the codec tests."""

import os
import sys

import pytest

from repro.data.spheres import SpheresDataset


@pytest.fixture(scope="session")
def spheres_chunk():
    """``spheres_chunk(shape, index=0)``: a chunk of the benchmark's corpus."""

    def make(shape: tuple[int, int], index: int = 0) -> bytes:
        return SpheresDataset(detector_shape=shape, seed=7).chunk_payload(index)

    return make


@pytest.fixture
def count_lines():
    """``count_lines(module, call)``: Python ``line`` events executed in
    ``module``'s file (every file of a package) during ``call()``.  The
    count repeats exactly, so it can gate interpreter work in tier-1
    where a timing cannot."""

    def count(module, call) -> int:
        filename = module.__file__
        if hasattr(module, "__path__"):
            filename = os.path.dirname(filename) + os.sep
        lines = 0

        def local_trace(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return local_trace

        def global_trace(frame, event, arg):
            inside = frame.f_code.co_filename.startswith(filename)
            return local_trace if inside else None

        previous = sys.gettrace()
        sys.settrace(global_trace)
        try:
            call()
        finally:
            sys.settrace(previous)
        return lines

    return count
