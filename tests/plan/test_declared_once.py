"""Declared once: what is derived from ``dataclasses.fields`` stays whole.

Three enumerating tests walk the declarations themselves, so a field
added to the IR (or to a spec a plan carries) is covered the day it is
declared:

- every field survives ``plan_to_json`` → ``plan_from_json``;
- every ``PipelinePlan`` / ``StreamNode`` field shows up in both
  renderings of ``repro plan diff`` when it changes;
- a misspelt key is refused at every level of the document.
"""

import json
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from repro.core.config import (
    FaultSpec,
    RunFields,
    ScenarioConfig,
    StreamConfig,
    StreamFields,
)
from repro.core.generator import ConfigGenerator, StreamRequest, Workload
from repro.core.placement import PlacementSpec
from repro.experiments.base import paper_testbed
from repro.plan.delta import plan_delta
from repro.plan.diff import diff_plans
from repro.plan.ir import (
    CodecNode,
    ExecutionNode,
    PipelinePlan,
    StreamNode,
    TraceNode,
)
from repro.plan.lower import lower_sim
from repro.plan.passes import run_passes
from repro.plan.serialize import (
    load_plan,
    load_scenario,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
)
from repro.util.errors import ConfigurationError, ValidationError

FIXTURES = Path(__file__).parent / "fixtures"


def _full_plan() -> PipelinePlan:
    """A normalized plan in which every container has an element and
    every policy node is written: faults, edges, NICs, all three nodes."""
    plan = ConfigGenerator(paper_testbed()).generate_plan(
        Workload([StreamRequest("s1", "updraft1", "lynxdtn", "aps-lan")])
    )
    plan = run_passes(plan).plan
    stream = replace(plan.streams[0], faults=(FaultSpec(stage="compress"),))
    return replace(
        plan,
        streams=[stream],
        execution=ExecutionNode(mode="process", domains=2),
        codec=CodecNode.from_spec("zlib:level=6"),
        trace=TraceNode(sample=8),
    )


PLAN = _full_plan()

_SKIP = object()

#: Values the generic rules below cannot guess: constrained strings,
#: fields that are None in the base plan, and scalar containers.
_OTHER = {
    ("StageNode", "kind"): _SKIP,  # the key of the stages map, not a value
    ("StageNode", "placement"): PlacementSpec.os_managed(hint_socket=0),
    ("FaultSpec", "kind"): "crash",
    ("NicSpec", "irq_layout"): "single",
    ("StreamNode", "source_socket"): 1,
    ("MachineSpec", "extra"): {"rack": "b2"},
    ("PipelinePlan", "metadata"): {"workload": "other"},
    ("CodecNode", "params"): (("level", 9),),
}


def _other(owner, name, current):
    """A valid value of the same kind as ``current`` that differs."""
    key = (type(owner).__name__, name)
    if key in _OTHER:
        return _OTHER[key]
    if isinstance(current, bool):
        return not current
    if isinstance(current, int):
        return current - 1 if current > 0 else current + 1
    if isinstance(current, float):
        return current * 1.01 if current else 0.25
    if isinstance(current, str):
        return current + "-x"
    return _SKIP  # a container of dataclasses: its elements are walked


def variants(value, path=""):
    """``(path, copy)`` for every single-field change reachable from
    ``value``, found by walking ``dataclasses.fields`` recursively."""
    if is_dataclass(value):
        for f in fields(value):
            current = getattr(value, f.name)
            other = _other(value, f.name, current)
            if other is not _SKIP:
                yield f"{path}.{f.name}", replace(value, **{f.name: other})
            if not isinstance(current, PlacementSpec):
                for where, sub in variants(current, f"{path}.{f.name}"):
                    yield where, replace(value, **{f.name: sub})
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            for where, sub in variants(item, f"{path}[{i}]"):
                yield where, type(value)([*value[:i], sub, *value[i + 1:]])
    elif isinstance(value, dict):
        for key, item in value.items():
            for where, sub in variants(item, f"{path}[{key!r}]"):
                yield where, {**value, key: sub}


def _one_per_field():
    """The first variant of each ``Class.field`` — two sockets need not
    both prove that ``SocketSpec.ghz`` round-trips."""
    seen = {}
    for where, changed in variants(PLAN):
        generic = re.sub(r"\[[^\]]*\]", "[]", where)
        seen.setdefault(generic, (where, changed))
    return [pytest.param(c, id=w) for w, c in seen.values()]


class TestEveryFieldRoundTrips:
    """Fails for any field the codec cannot carry — at the parent of
    this test: ``queue_handoff_seconds``, ``irq_layout``, ``extra``."""

    def test_base_plan_round_trips(self):
        assert plan_from_json(plan_to_json(PLAN)) == PLAN

    @pytest.mark.parametrize("changed", _one_per_field())
    def test_field_survives_save_and_load(self, changed):
        assert changed != PLAN
        assert plan_from_json(plan_to_json(changed)) == changed


def _first_change_under(prefix):
    for where, changed in variants(PLAN):
        if where == prefix or where.startswith((prefix + ".", prefix + "[")):
            return changed
    raise AssertionError(f"no variant under {prefix}")  # pragma: no cover


class TestEveryFieldIsCompared:
    """``repro plan diff`` may not call two plans identical when any
    field of the plan or of a stream differs."""

    @pytest.mark.parametrize(
        "where",
        [f".{f.name}" for f in fields(PipelinePlan)]
        + [f".streams[0].{f.name}" for f in fields(StreamNode)],
    )
    def test_change_is_reported_both_ways(self, where):
        changed = _first_change_under(where)
        assert diff_plans(PLAN, changed)
        assert plan_delta(PLAN, changed)

    def test_spec_drift_under_an_unchanged_name_is_located(self):
        machines = dict(PLAN.machines)
        lynx = machines["lynxdtn"]
        machines["lynxdtn"] = replace(
            lynx, nics=(*lynx.nics[:-1], replace(lynx.nics[-1], num_queues=4))
        )
        (line,) = diff_plans(PLAN, replace(PLAN, machines=machines))
        assert line == "machines['lynxdtn'].nics[1].num_queues: 16 != 4"
        assert plan_delta(PLAN, replace(PLAN, machines=machines)).notes == (
            line,
        )

    def test_trace_and_metadata_are_notes(self):
        other = replace(
            PLAN, trace=TraceNode(sample=64), metadata={"workload": "w2"}
        )
        delta = plan_delta(PLAN, other)
        assert delta.ops == ()
        assert "trace.sample: 8 != 64" in delta.notes
        assert any(n.startswith("metadata['workload']") for n in delta.notes)


#: level -> the node of a full plan document at that level.
LEVELS = {
    "plan": lambda d: d,
    "stream": lambda d: d["streams"][0],
    "stages": lambda d: d["streams"][0]["stages"],
    "stage": lambda d: d["streams"][0]["stages"]["recv"],
    "edge": lambda d: d["streams"][0]["edges"][0],
    "fault": lambda d: d["streams"][0]["faults"][0],
    "machine": lambda d: d["machines"]["lynxdtn"],
    "socket": lambda d: d["machines"]["lynxdtn"]["sockets"][0],
    "NIC": lambda d: d["machines"]["lynxdtn"]["nics"][0],
    "path": lambda d: d["paths"]["aps-lan"],
    "cost": lambda d: d["cost"],
    "execution": lambda d: d["execution"],
    "codec": lambda d: d["codec"],
    "trace": lambda d: d["trace"],
}


class TestUnknownKeysRefusedEverywhere:
    @pytest.mark.parametrize("level", LEVELS)
    def test_misspelt_key_names_itself_and_its_level(self, level):
        doc = json.loads(plan_to_json(PLAN))
        LEVELS[level](doc)["num_chunk"] = 1
        with pytest.raises(
            ValidationError, match=rf"unknown {level} keys: \['num_chunk'\]"
        ):
            plan_from_dict(doc)

    def test_misspelt_execution_knob_does_not_run_with_the_default(self):
        doc = plan_to_dict(PLAN)
        doc["execution"] = {"mode": "process", "ring_capcity": 4}
        with pytest.raises(ValidationError, match="ring_capcity"):
            plan_from_dict(doc)

    def test_scenario_documents_are_as_strict(self):
        doc = json.loads((FIXTURES / "scenario_v2.json").read_text())
        doc["streams"][0]["stages"]["recv"]["rationale"] = "plan-only"
        with pytest.raises(ValidationError, match="unknown stage keys"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "level, key", [("plan", "machines"), ("stream", "stream_id"),
                       ("stage", "count"), ("NIC", "rate_gbps")],
    )
    def test_missing_key_without_a_default_is_named(self, level, key):
        doc = json.loads(plan_to_json(PLAN))
        del LEVELS[level](doc)[key]
        with pytest.raises(
            ValidationError, match=f"{level} is missing its '{key}' key"
        ):
            plan_from_dict(doc)

    def test_key_with_a_default_may_be_absent(self):
        """How files older than a field keep loading."""
        doc = json.loads(plan_to_json(PLAN))
        for key in ("faults", "micro"):
            del doc["streams"][0][key]
        del doc["machines"]["lynxdtn"]["kernel"]
        back = plan_from_dict(doc)
        assert back.streams[0].faults == ()
        assert back.machines["lynxdtn"].kernel == "linux"


class TestBytesHeld:
    @pytest.mark.parametrize("name", ["plan_v3.json", "plan_v3_codec.json"])
    def test_v3_fixture_re_saves_byte_identically(self, name):
        path = FIXTURES / name
        assert plan_to_json(load_plan(str(path))) + "\n" == path.read_text()

    def test_v2_writer_reproduces_the_parent_golden(self):
        """``scenario_v2_lowered.json`` is what the hand-written v2
        writer emitted for ``scenario_v2.json`` before it was replaced —
        ``repro plan lower --target sim`` must keep emitting it."""
        scenario = load_scenario(str(FIXTURES / "scenario_v2.json"))
        golden = (FIXTURES / "scenario_v2_lowered.json").read_text()
        assert scenario_to_json(scenario) + "\n" == golden
        assert scenario_to_dict(scenario)["version"] == 2


class TestRemovedKnob:
    """``batch_frames`` and the ``control`` node left the format.  Every
    document written while the knob existed carries the stream default,
    which loads and is not re-emitted; a key only a file that set it on
    purpose has is refused by name."""

    @pytest.mark.parametrize(
        "name, load, dump",
        [("plan_v3.json", load_plan, plan_to_json),
         ("plan_v3_codec.json", load_plan, plan_to_json),
         ("scenario_v2_lowered.json", load_scenario, scenario_to_json)],
    )
    def test_old_document_re_saves_as_the_edited_fixture(
        self, name, load, dump, tmp_path
    ):
        edited = (FIXTURES / name).read_text()
        line = '      "queue_capacity": 4,\n'
        old = tmp_path / name
        old.write_text(edited.replace(line, line + '      "batch_frames": 1,\n'))
        assert old.read_text().count('"batch_frames": 1,') == 1
        assert dump(load(str(old))) + "\n" == edited

    @pytest.mark.parametrize(
        "form, level, key, value",
        [("plan", "stream", "batch_frames", 8),
         ("scenario", "stream", "batch_frames", 8),
         ("plan", "cost", "queue_handoff_seconds", 2e-6),
         ("scenario", "cost", "queue_handoff_seconds", 2e-6)],
    )
    def test_removed_key_is_refused_by_name(self, form, level, key, value):
        if form == "plan":
            doc, load = plan_to_dict(PLAN), plan_from_dict
        else:
            doc, load = scenario_to_dict(lower_sim(PLAN)), scenario_from_dict
        LEVELS[level](doc)[key] = value
        with pytest.raises(
            ConfigurationError, match=rf"{key} {value!r} .*knob was removed"
        ):
            load(doc)

    @pytest.mark.parametrize("load", [plan_from_dict, scenario_from_dict])
    def test_removed_control_node_is_refused_by_name(self, load):
        """The controller's policy node was sparse, so only a plan that
        opted into autotuning carries it; either reader refuses it."""
        doc = plan_to_dict(PLAN)
        doc["control"] = {"enabled": True}
        with pytest.raises(
            ConfigurationError,
            match=r"plan control \{'enabled': True\} .*controller was removed",
        ):
            load(doc)


class TestSharedDeclarations:
    @pytest.mark.parametrize(
        "base, config, node",
        [(StreamFields, StreamConfig, StreamNode),
         (RunFields, ScenarioConfig, PipelinePlan)],
    )
    def test_shared_fields_are_the_same_objects(self, base, config, node):
        """One declaration, not look-alikes: name, type and default of a
        shared field cannot drift between the config and the IR."""
        for f in fields(base):
            if f.name == "streams":  # redeclared with its element type
                continue
            assert (
                config.__dataclass_fields__[f.name]
                is node.__dataclass_fields__[f.name]
                is f
            )

    def test_scenario_io_is_exported_by_the_plan_package(self):
        from repro.plan import load_scenario as exported

        assert exported is load_scenario
