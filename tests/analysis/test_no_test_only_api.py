"""Every public function, method and property in ``src/`` has a caller there.

A helper that only tests call is code the package carries for nobody: it
is documented, linted and kept in step with the model it shadows, yet no
experiment, device or CLI path runs it.  This guard parses every module
under ``src/`` and fails when a public ``def`` (module function, method or
property, no leading underscore) is named nowhere in ``src/`` except at its
own definition.  A name counts as used when it appears as a variable, an
attribute (also inside f-strings), an imported name or a name a package
re-exports through its ``lazy_exports`` table; other strings and comments
do not count.  The match is by name, not by binding, so it only catches
names no code in ``src/`` mentions at all.

:data:`ALLOWED` lists the helpers that stay anyway, one reason per entry.
Delete the entry together with the helper; an entry whose helper is gone or
has gained a caller in ``src/`` fails :func:`test_allowlist_is_current`.
"""

from __future__ import annotations

import ast
import collections
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_EXAMPLE = "examples/sparse_gemm_mapping.py walks the functional model through it"

#: Public helpers with no caller in ``src/`` that stay, keyed by qualified name.
ALLOWED: dict[str, str] = {
    # Oracles: tests check other code against these.
    "repro.core.compression.SparsityAwareCompressor.decompress": (
        "round-trip oracle: tests decode what compress_input/compress_weights encoded"
    ),
    "repro.core.compression.SparsityRatioCalculator.num_fetches": (
        "oracle for observe_fetch and reset: the fetch count behind Eq. 4"
    ),
    "repro.core.encoding_unit.PositionalEncodingEngine.designware_cost": (
        "the exact DesignWare baseline the PEE's 8.2x / 12.8x savings are checked against"
    ),
    "repro.core.encoding_unit.HashEncodingEngine.measured_coalescing": (
        "measures on a real hash grid the coalescing the HEE timing model assumes"
    ),
    "repro.core.mac_unit.BitScalableMACUnit.multiply_accumulate": (
        "functional MAC unit: tests check the bit-scalable reduction against numpy"
    ),
    "repro.nerf.positional.positional_encoding": (
        "exact oracle: tests check approx_positional_encoding (Eqs. 5-6) against it"
    ),
    "repro.nerf.scenes.SyntheticScene.reference_color": (
        "parity oracle: tests check the fused scene field against it bit for bit"
    ),
    "repro.nerf.scenes.SyntheticScene.reference_occupancy": (
        "parity oracle: tests check the fused scene field against it bit for bit"
    ),
    "repro.nerf.scenes.SyntheticScene.measured_occupancy": (
        "oracle: tests check each scene's target occupancy by sampling its field"
    ),
    "repro.nerf.workload.Workload.encoding_ops": (
        "invariant: tests check that pruning and model builds keep encoding ops"
    ),
    "repro.nerf.workload.Workload.misc_ops": (
        "invariant: tests check that model builds emit the misc (volume) ops"
    ),
    "repro.nerf.workload.Workload.total_flops": (
        "oracle: tests compare model workloads by FLOPs and pin the op accounting"
    ),
    "repro.noc.energy.NoCEnergyBreakdown.total_j": (
        "oracle: tests check route_energy and sequence_energy through the total"
    ),
    "repro.noc.switch.Switch2x2.configure": (
        "functional switch: tests set a routing by hand and check forwarding"
    ),
    "repro.noc.switch.Switch3x3.configure": (
        "functional switch: tests set a feedback routing by hand and check the loop"
    ),
    "repro.quant.outlier.OutlierQuantizedTensor.outlier_fraction": (
        "oracle: tests check the outlier path keeps outliers rare"
    ),
    "repro.serve.report.CompletedRequest.wait_s": (
        "invariant: property tests check wait >= 0 and latency >= wait per request"
    ),
    "repro.sparse.selector.FormatDecision.savings_over_none": (
        "oracle: tests check the selector never picks a format that loses to dense"
    ),
    # The functional hardware models that the example walks through.
    "repro.core.compression.CompressionRecord.compression_ratio": _EXAMPLE,
    "repro.core.compression.SparsityAwareCompressor.analyze_weights": _EXAMPLE,
    "repro.core.compression.SparsityAwareCompressor.compress_input": _EXAMPLE,
    "repro.core.compression.SparsityAwareCompressor.compress_weights": _EXAMPLE,
    "repro.core.distribution.DistributionNetwork.distribute": _EXAMPLE,
    "repro.core.mac_array.MACArray.gemm": _EXAMPLE,
    "repro.core.reduction.MACUnitReductionTree.reduce": (
        "functional shift-add tree of Fig. 12: tests check each precision's lane sums"
    ),
    "repro.core.reduction.FlexibleReductionTree.reduce": (
        "functional ART of Section 4.2: tests check it adds only same-output sums"
    ),
    # Paper headline numbers that benchmarks/ and tests/experiments check.
    "repro.experiments.fig07_footprint.crossover_sparsity": (
        "Fig. 7's format crossover sparsity, checked against the paper"
    ),
    "repro.experiments.fig12_reduction_tree.MACUnitComparison.shifter_reduction": (
        "Fig. 12's one-third shifter reduction, checked against the paper"
    ),
    "repro.experiments.fig17_breakdown.Fig17Result.format_codec_area_fraction": (
        "Fig. 17's format-codec area share, checked against the paper"
    ),
    # Reached by name, not by a call in src/.
    "repro.core.device.register_device": (
        "the extension point README.md and docs/architecture.md document for adding a device"
    ),
    "repro.experiments.plan_frontier.run_capacity": (
        "registered by the @experiment decorator; the CLI runs it by id"
    ),
    "repro.serve.traffic.streams.MarkedBurstStream.mean_rps": (
        "documented in docs/scenarios.md as the stream's long-run rate"
    ),
    "repro.serve.report.ServingReport.from_completions": (
        "perfbench/tracing.py traces it by name; it goes with the next benchmark change"
    ),
}


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_defs(body: list[ast.stmt], prefix: str):
    """Yield ``(qualified name, name, line)`` of public defs, recursing into classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield f"{prefix}.{node.name}", node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield from _public_defs(node.body, f"{prefix}.{node.name}")


def _is_lazy_exports(node: ast.AST) -> bool:
    """Whether ``node`` is a ``lazy_exports(__name__, {module: (names...)})`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "lazy_exports"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Dict)
    )


def uncalled_defs(root: Path) -> dict[str, str]:
    """Map each public def under ``root`` that no code there names to ``path:line``."""
    defs = []
    named: collections.Counter[str] = collections.Counter()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name.rpartition(".")[2]] += 1
            elif _is_lazy_exports(node):
                for names in node.args[1].values:
                    named.update(elt.value for elt in names.elts)
        module = _module_name(path, root)
        defs.extend(
            (qualname, name, f"{path.relative_to(root)}:{line}")
            for qualname, name, line in _public_defs(tree.body, module)
        )
    return {qualname: where for qualname, name, where in defs if not named[name]}


def test_every_public_def_has_a_caller_in_src():
    unused = {
        qualname: where
        for qualname, where in uncalled_defs(SRC).items()
        if qualname not in ALLOWED
    }
    assert not unused, (
        "public defs that no code in src/ names (delete them with the tests "
        "that check only them, or add an ALLOWED entry with a reason):\n"
        + "\n".join(f"  {where}  {qualname}" for qualname, where in sorted(unused.items()))
    )


def test_allowlist_is_current():
    stale = sorted(set(ALLOWED) - set(uncalled_defs(SRC)))
    assert not stale, f"ALLOWED entries that are gone or now have a caller: {stale}"


def test_scan_flags_only_uncalled_defs(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.mod import exported\n"
        "__all__, __getattr__ = lazy_exports(__name__, {'pkg.mod': ('lazily_exported',)})\n"
    )
    (package / "mod.py").write_text(
        textwrap.dedent(
            """
            def exported(): ...
            def lazily_exported(): ...
            def orphan(): ...
            def _private(): ...
            def used_in_fstring(): ...
            class Box:
                @property
                def lonely(self): ...
                def called(self): ...
            def main(box):
                box.called()
                return f"{used_in_fstring()}"
            """
        )
    )
    assert uncalled_defs(tmp_path) == {
        "pkg.mod.orphan": "pkg/mod.py:4",
        "pkg.mod.Box.lonely": "pkg/mod.py:9",
        "pkg.mod.main": "pkg/mod.py:11",
    }
