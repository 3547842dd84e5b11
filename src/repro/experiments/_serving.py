"""Shared fixtures for the serving experiments (`serve-*`).

The serving studies share one reference scenario mix so their numbers are
comparable: :data:`repro.plan.space.REFERENCE_MIX`, a mostly-Instant-NGP
request population at 400x400 with a dense TensoRF tail and one pruned
low-precision scenario -- the kind of request FlexNeRFer's sparsity-aware
datapath serves disproportionately faster, which is what makes
heterogeneous routing interesting.  This module holds the rest: the
modelled degradation ladder and the fleet-spec parser.
"""

from __future__ import annotations

from repro.serve.control import DEFAULT_LADDER_STEPS, DegradationLadder

#: Default-step ladder with *modelled* (fixed) qualities rather than
#: PSNR-measured ones.  The traffic experiments use it so their goldens
#: depend only on the serving simulation, not on the probe renderer;
#: `serve-overload-sla` keeps the measured :func:`price_ladder` variant.
MODELED_LADDER = DegradationLadder(
    steps=DEFAULT_LADDER_STEPS,
    qualities=(0.95, 0.88, 0.75, 0.60),
)


def parse_fleet(spec: str) -> tuple[str, ...]:
    """Split a ``+``-separated fleet spec into device registry names.

    ``"flexnerfer+neurex"`` -> ``("flexnerfer", "neurex")``.  The ``+``
    separator (rather than a comma) lets fleet specs live inside repeated
    comma-separated CLI parameters.
    """
    names = tuple(name.strip().lower() for name in spec.split("+") if name.strip())
    if not names:
        raise ValueError(f"empty fleet spec '{spec}'")
    return names
