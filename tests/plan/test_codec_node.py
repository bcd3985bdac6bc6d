"""CodecNode: spec round-trips, validation, lowering, v3 fixtures."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.compress.codec import CodecSpec
from repro.core.params import CODEC_COST_FACTORS
from repro.plan.ir import CodecNode
from repro.plan.lower import lower_live, lower_sim
from repro.plan.serialize import (
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.plan.validate import validate_plan
from repro.util.errors import ValidationError

FIXTURES = Path(__file__).parent / "fixtures"


class TestCodecNodeSpec:
    def test_default_node(self):
        node = CodecNode()
        assert node.is_default
        assert str(node.spec()) == "zlib"

    def test_from_spec_string_with_params(self):
        node = CodecNode.from_spec("zlib:level=6")
        assert not node.is_default
        assert node.name == "zlib"
        assert node.params == (("level", 6),)
        assert str(node.spec()) == "zlib:level=6"

    def test_from_spec_object(self):
        node = CodecNode.from_spec(CodecSpec.parse("zlib:level=9"))
        assert node.params == (("level", 9),)

    def test_describe(self):
        assert CodecNode.from_spec("zlib:level=6").describe() == "zlib:level=6"


class TestSerialization:
    def test_default_codec_key_omitted(self, generated_plan):
        doc = plan_to_dict(generated_plan)
        assert "codec" not in doc

    def test_non_default_codec_round_trips(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan,
            codec=CodecNode.from_spec("shuffle-lz4:itemsize=4"),
        )
        doc = plan_to_dict(plan)
        assert doc["codec"] == {"name": "shuffle-lz4", "params": {"itemsize": 4}}
        back = plan_from_dict(doc)
        assert back.codec == plan.codec

    def test_unknown_codec_keys_rejected(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan, codec=CodecNode.from_spec("shuffle-lz4")
        )
        doc = plan_to_dict(plan)
        doc["codec"]["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown codec keys"):
            plan_from_dict(doc)


class TestFixtures:
    """Pinned v3 plan files: loading and re-saving is byte-stable."""

    @pytest.mark.parametrize(
        "name", ["plan_v3.json", "plan_v3_codec.json"]
    )
    def test_fixture_is_byte_stable(self, name, tmp_path):
        path = FIXTURES / name
        plan = load_plan(str(path))
        out = tmp_path / name
        save_plan(plan, str(out))
        assert out.read_bytes() == path.read_bytes()

    def test_default_fixture_has_no_codec_key(self):
        doc = json.loads((FIXTURES / "plan_v3.json").read_text())
        assert "codec" not in doc
        assert load_plan(str(FIXTURES / "plan_v3.json")).codec.is_default

    def test_codec_fixture_carries_the_policy(self):
        plan = load_plan(str(FIXTURES / "plan_v3_codec.json"))
        assert plan.codec == CodecNode.from_spec("zlib:level=6")


class TestValidation:
    def test_unknown_codec_name_is_a_diagnostic(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan, codec=CodecNode(name="nope")
        )
        diags = validate_plan(plan)
        assert any(d.code == "bad-codec" for d in diags.errors)

    def test_policy_fields_on_static_codec_rejected(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan,
            codec=CodecNode.from_spec("zlib:allowed=zlib|null"),
        )
        diags = validate_plan(plan)
        assert any(d.code == "bad-codec" for d in diags.errors)


class TestLowering:
    def test_default_keeps_calibrated_cost_model(self, generated_plan):
        assert lower_sim(generated_plan).cost == generated_plan.cost

    def test_non_default_codec_scales_cost_model(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan, codec=CodecNode.from_spec("shuffle-lz4")
        )
        fc, fd = CODEC_COST_FACTORS["shuffle-lz4"]
        cost = lower_sim(plan).cost
        assert cost.compress_rate == pytest.approx(
            generated_plan.cost.compress_rate * fc
        )
        assert cost.decompress_rate == pytest.approx(
            generated_plan.cost.decompress_rate * fd
        )

    def test_lower_live_routes_plan_codec(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan,
            codec=CodecNode.from_spec("zlib:level=9"),
        )
        assert lower_live(plan).config.codec == "zlib:level=9"

    def test_lower_live_explicit_codec_wins(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan, codec=CodecNode.from_spec("shuffle-lz4")
        )
        config = lower_live(plan, codec="null").config
        assert config.codec == "null"

    def test_lower_live_default_is_zlib(self, generated_plan):
        assert lower_live(generated_plan).config.codec == "zlib"


class TestRemovedAdaptive:
    """The adaptive codec was removed; plan files naming it, or carrying
    its policy keys, fail to load and say why."""

    @pytest.mark.parametrize(
        "codec",
        [
            {"name": "adaptive"},
            {"name": "adaptive", "allowed": ["zlib", "null"],
             "probe_interval": 8},
        ],
        ids=["bare", "with-policy-keys"],
    )
    def test_adaptive_document_names_adaptive(self, codec, tmp_path):
        doc = json.loads((FIXTURES / "plan_v3_codec.json").read_text())
        doc["codec"] = codec
        path = tmp_path / "adaptive.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="'adaptive' was removed"):
            load_plan(str(path))

    @pytest.mark.parametrize("key", ["allowed", "probe_interval"])
    def test_policy_key_on_a_static_codec_is_named(self, key):
        doc = json.loads((FIXTURES / "plan_v3_codec.json").read_text())
        doc["codec"][key] = 8
        with pytest.raises(ValidationError, match=f"unknown codec keys.*{key}"):
            plan_from_dict(doc)

    def test_list_params_are_refused(self):
        doc = json.loads((FIXTURES / "plan_v3_codec.json").read_text())
        doc["codec"]["params"] = {"level": [6]}
        with pytest.raises(ValidationError, match="must be scalars"):
            plan_from_dict(doc)

    def test_adaptive_node_is_a_diagnostic(self, generated_plan):
        plan = dataclasses.replace(
            generated_plan, codec=CodecNode(name="adaptive")
        )
        [error] = validate_plan(plan).errors
        assert error.code == "bad-codec" and "was removed" in error.message


class TestCodecParamsAtLoad:
    """Params a registered codec refuses fail the plan file's load, as
    they fail ``--codec``, instead of every chunk's compressor."""

    @pytest.mark.parametrize(
        "codec",
        [
            {"name": "lz4", "params": {"block_max_size": 12345}},
            {"name": "shuffle-lz4", "params": {"block_max_size": 100}},
            {"name": "lz4", "params": {"acceleration": 0}},
        ],
        ids=["lz4-block", "shuffle-lz4-block", "lz4-acceleration"],
    )
    def test_refused_at_load(self, codec, tmp_path, capsys):
        doc = json.loads((FIXTURES / "plan_v3_codec.json").read_text())
        doc["codec"] = codec
        path = tmp_path / "bad-codec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_plan(str(path))
        with pytest.raises(SystemExit) as info:
            main(["run", str(path)])
        assert info.value.code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro: {path}: ")

    def test_valid_block_size_loads(self, tmp_path):
        doc = json.loads((FIXTURES / "plan_v3_codec.json").read_text())
        doc["codec"] = {"name": "lz4", "params": {"block_max_size": 65536}}
        path = tmp_path / "lz4.json"
        path.write_text(json.dumps(doc))
        assert load_plan(str(path)).codec == CodecNode.from_spec(
            "lz4:block_max_size=65536"
        )
