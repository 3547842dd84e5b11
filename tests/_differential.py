"""Shared differential-testing helpers: normalize-and-diff comparators.

Two suites pin "two ways of computing the same thing agree bit-exactly":
the serving fast path vs. the event loop (``tests/serve``), and a warm
``repro plan`` replay vs. the cold run (``tests/plan``).  The comparison
logic lives here once.

Not a test module (the leading underscore keeps pytest from collecting
it); import as ``from tests._differential import ...`` -- the repo root is
on ``pythonpath`` (see ``pyproject.toml``), so ``tests`` resolves as a
namespace package.
"""

import json

from repro.plan.render import normalize_result_json


def assert_fast_path_matches_event_loop(simulator, requests, context=""):
    """Assert the fast path and event loop produce identical reports.

    Runs ``simulator`` both ways (``run`` takes the numpy fast path for
    plain-FIFO fleets; ``_run_event_loop`` is the reference discrete-event
    implementation) and asserts the reports -- including the per-request
    completion log, rejection log and per-worker stats excluded from
    dataclass equality -- are bit-identical.  Returns the fast-path report
    for further assertions.
    """
    fast = simulator.run(requests)
    slow = simulator._run_event_loop(requests)
    assert fast == slow, context
    assert fast.completed == slow.completed, context
    assert fast.rejected == slow.rejected, context
    assert fast.workers == slow.workers, context
    return fast


def assert_text_matches_modulo_wall_time(reference, candidate, context=""):
    """Assert two JSON artifacts match byte-for-byte except wall-clock time.

    Both directions of the pin: the texts are identical once
    :func:`~repro.plan.render.normalize_result_json` masks the
    volatile ``wall_time_s`` provenance field, *and* the masking touches
    nothing else (parsing both documents and deleting every ``wall_time_s``
    leaves equal structures) -- so a regression cannot hide behind the
    normalizer widening.
    """
    assert normalize_result_json(reference) == normalize_result_json(
        candidate
    ), context
    assert _without_wall_time(json.loads(reference)) == _without_wall_time(
        json.loads(candidate)
    ), context


def _without_wall_time(document):
    """``document`` with every nested ``wall_time_s`` entry removed."""
    if isinstance(document, dict):
        return {
            key: _without_wall_time(value)
            for key, value in document.items()
            if key != "wall_time_s"
        }
    if isinstance(document, list):
        return [_without_wall_time(item) for item in document]
    return document

