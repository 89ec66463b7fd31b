import json
import re
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from driftbench.config import SCHEMA, SECTIONS, ConfigError, load_run_config, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"

# One out-of-range value for each key whose dataclass checks its range.
OUT_OF_RANGE = {
    "synthetic.n_classes": 1,
    "synthetic.dim": 1,
    "synthetic.per_class": 1,
    "synthetic.n_batches": 0,
    "synthetic.seed": -1,
    "drca.target_weight": -1.0,
    "drca.components": 0,
    "ldsp.target_weight": -1.0,
    "ldsp.within_weight": -1.0,
    "ldsp.between_weight": -1.0,
    "ldsp.components": 0,
    "selftrain.threshold": 1.5,
    "selftrain.max_rounds": 0,
    "classifier.reg_strength": 0.0,
    "classifier.tol": 0.0,
    "classifier.max_iter": 0,
}


class TestResolve:
    def test_defaults(self):
        cfg = resolve_config({})
        assert cfg.methods == ("none", "means", "drca", "ldsp", "selftrain")
        assert cfg.drca.target_weight == 0.1
        assert cfg.drca.components == 127
        assert cfg.ldsp.within_weight == 10.0
        assert cfg.ldsp.between_weight == 100.0
        assert cfg.selftrain.threshold == 0.99
        assert cfg.selftrain.cumulative is True
        assert cfg.classifier.reg_strength == 1.0
        assert cfg.normalize is True

    def test_echo_covers_every_key(self):
        echo = resolve_config({}).echo()
        assert set(echo) == set(SCHEMA)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key.*drca.lambda"):
            resolve_config({"drca.lambda": 0.1})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="drca.components"):
            resolve_config({"drca.components": "many"})
        with pytest.raises(ConfigError, match="selftrain.cumulative"):
            resolve_config({"selftrain.cumulative": 1})

    def test_methods_subset_preserves_order(self):
        cfg = resolve_config({"methods": "ldsp, none"})
        assert cfg.methods == ("ldsp", "none")

    def test_methods_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown method 'magic'"):
            resolve_config({"methods": "magic"})

    def test_invalid_threshold_propagates_as_config_error(self):
        with pytest.raises(ConfigError, match="selftrain.threshold"):
            resolve_config({"selftrain.threshold": 1.5})

    @pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
    def test_range_error_starts_with_its_key(self, key):
        with pytest.raises(ConfigError) as info:
            resolve_config({key: OUT_OF_RANGE[key]})
        assert str(info.value).startswith(f"{key} must be")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("classifier.tol", float("nan")),
            ("classifier.reg_strength", float("inf")),
            ("drca.target_weight", float("nan")),
            ("ldsp.between_weight", float("-inf")),
            pytest.param("synthetic.drift_step", 10**400, id="synthetic.drift_step-10**400"),
        ],
    )
    def test_non_finite_number_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^config key '{key}': expected a finite number$"):
            resolve_config({key: value})


class TestSchema:
    def test_section_defaults_have_their_annotated_type(self):
        # A float key written with an int default would get the int caster.
        for name, cls in SECTIONS.items():
            hints = typing.get_type_hints(cls)
            for f in fields(cls):
                assert type(f.default) is hints[f.name], f"{name}.{f.name}"

    def test_readme_lists_the_schema(self):
        section = README.read_text().split("## Configuration", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        documented = json.loads(block)
        assert list(documented) == list(SCHEMA)
        assert {k: (type(v), v) for k, v in documented.items()} == {
            k: (type(v), v) for k, v in SCHEMA.items()
        }


class TestLoadFile:
    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"methods": "drca", "drca.components": 5}))
        cfg = load_run_config(path)
        assert cfg.methods == ("drca",)
        assert cfg.drca.components == 5

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic.seed": 1}))
        cfg = load_run_config(path, {"synthetic.seed": 99})
        assert cfg.synthetic.seed == 99

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)

    def test_non_finite_literal_in_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"classifier.tol": NaN}')
        with pytest.raises(ConfigError, match="'classifier.tol': expected a finite number"):
            load_run_config(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'\xff{"methods": "drca"}')
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: not valid JSON \("):
            load_run_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_run_config(path)
