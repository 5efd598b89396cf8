"""Artifact kind registry: schema versions and (de)serialization.

Every persisted artifact kind has a canonical, versioned JSON schema.
The version is part of the cache key, so bumping a schema silently
invalidates every stored entry of that kind (old entries are never
misread -- they become unreferenced and are reclaimed by ``gc``).

Imports of the concrete artifact classes happen lazily inside the
dispatch functions: the store package stays import-light and free of
cycles (``mc`` and ``timing`` never import it at module scope in the
other direction).  Schema versions are read from the ``*_SCHEMA``
constants defined next to each artifact's ``to_json``/``from_json``
-- a single source of truth; there is no parallel literal to keep in
sync.
"""

from __future__ import annotations

#: Artifact kinds the store can hold.
KINDS = ("mc_point", "frequency_sweep", "alu_characterization",
         "fig2_curve", "fig4_curve", "adder_ablation", "table1_row",
         "unit_failure", "sta_report")


def current_schema(kind: str) -> int:
    """Current schema version of an artifact kind."""
    if kind == "mc_point":
        from repro.mc.results import MC_POINT_SCHEMA
        return MC_POINT_SCHEMA
    if kind == "frequency_sweep":
        from repro.mc.sweep import FREQUENCY_SWEEP_SCHEMA
        return FREQUENCY_SWEEP_SCHEMA
    if kind == "alu_characterization":
        from repro.timing.characterize import ALU_CHARACTERIZATION_SCHEMA
        return ALU_CHARACTERIZATION_SCHEMA
    if kind == "fig2_curve":
        from repro.experiments.fig2 import FIG2_CURVE_SCHEMA
        return FIG2_CURVE_SCHEMA
    if kind == "fig4_curve":
        from repro.experiments.fig4 import FIG4_CURVE_SCHEMA
        return FIG4_CURVE_SCHEMA
    if kind == "adder_ablation":
        from repro.experiments.ablations import ADDER_ABLATION_SCHEMA
        return ADDER_ABLATION_SCHEMA
    if kind == "table1_row":
        from repro.experiments.table1 import TABLE1_ROW_SCHEMA
        return TABLE1_ROW_SCHEMA
    if kind == "unit_failure":
        from repro.campaign.failures import UNIT_FAILURE_SCHEMA
        return UNIT_FAILURE_SCHEMA
    if kind == "sta_report":
        from repro.analysis.sta import STA_REPORT_SCHEMA
        return STA_REPORT_SCHEMA
    raise KeyError(f"unknown artifact kind {kind!r}; known: "
                   f"{sorted(KINDS)}")


def schema_versions() -> dict[str, int]:
    """Kind -> current schema version, for reporting."""
    return {kind: current_schema(kind) for kind in KINDS}


def artifact_to_json(kind: str, artifact) -> dict:
    """Serialize an artifact into its canonical JSON body.

    Numpy values may be left raw (the characterization's matrices
    are): :func:`repro.store.serialize.skeleton` encodes them.
    """
    current_schema(kind)  # validate the kind early
    return artifact.to_json()


def artifact_from_json(kind: str, payload: dict):
    """Deserialize an artifact body of a known kind."""
    if kind == "mc_point":
        from repro.mc.results import McPoint
        return McPoint.from_json(payload)
    if kind == "frequency_sweep":
        from repro.mc.sweep import FrequencySweep
        return FrequencySweep.from_json(payload)
    if kind == "alu_characterization":
        from repro.timing.characterize import AluCharacterization
        return AluCharacterization.from_json(payload)
    if kind == "fig2_curve":
        from repro.experiments.fig2 import CdfCurve
        return CdfCurve.from_json(payload)
    if kind == "fig4_curve":
        from repro.experiments.fig4 import InstructionMseCurve
        return InstructionMseCurve.from_json(payload)
    if kind == "adder_ablation":
        from repro.experiments.ablations import AdderTopologyAblation
        return AdderTopologyAblation.from_json(payload)
    if kind == "table1_row":
        from repro.experiments.table1 import Table1Row
        return Table1Row.from_json(payload)
    if kind == "unit_failure":
        from repro.campaign.failures import UnitFailure
        return UnitFailure.from_json(payload)
    if kind == "sta_report":
        from repro.analysis.sta import StaReport
        return StaReport.from_json(payload)
    raise KeyError(f"unknown artifact kind {kind!r}; known: "
                   f"{sorted(KINDS)}")
