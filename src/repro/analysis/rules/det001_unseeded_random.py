"""DET001: unseeded global-state RNG calls in deterministic subsystems."""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.base import Finding, ModuleRule, SourceModule

#: ``random`` module attributes that *construct* seedable generators -- the
#: only module-level access the deterministic subsystems may make.
_STDLIB_ALLOWED = frozenset({"Random", "SystemRandom"})

#: ``numpy.random`` attributes that construct seedable generators.
_NUMPY_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64"})


class UnseededRandomRule(ModuleRule):
    """Flag ``random.*`` / ``np.random.*`` global-state calls.

    Calls like ``random.shuffle`` or ``np.random.uniform`` draw from the
    interpreter-wide RNG: their results depend on everything else that
    touched that stream, so two runs of the same seeded experiment
    diverge.  Constructing a seedable generator
    (``random.Random(seed)``, ``np.random.default_rng(seed)``) and threading
    it through, as every stream / renderer in the tree already does, is the
    compliant pattern.
    """

    id = "DET001"
    title = "unseeded global-state RNG call"
    rationale = (
        "Global RNG streams are shared process state: any other caller "
        "advances them, so seeded experiments and cached results "
        "silently diverge.  Thread a random.Random(seed) / "
        "np.random.default_rng(seed) instance instead."
    )
    scope: ClassVar[tuple[str, ...]] = (
        "repro.sim",
        "repro.serve",
        "repro.nerf",
        "repro.sparse",
        "repro.experiments",
    )

    def _violation(self, name: str) -> str | None:
        """Why a canonical callee name is a global-RNG call (None when fine)."""
        prefix, _, attr = name.rpartition(".")
        if prefix == "random" and attr not in _STDLIB_ALLOWED:
            return (
                f"'{name}' draws from the interpreter-wide RNG; "
                f"thread a seeded random.Random instead"
            )
        if prefix == "numpy.random" and attr not in _NUMPY_ALLOWED:
            return (
                f"'{name}' mutates numpy's global RNG state; "
                f"thread a seeded np.random.default_rng instead"
            )
        return None

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Flag every global-state RNG call in ``module``."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.call_name(node)
            if name is None:
                continue
            message = self._violation(name)
            if message is not None:
                yield self.finding(module, node, message)
