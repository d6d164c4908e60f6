"""Tests for configuration serialization (repro.oram.config_io)."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import schemes
from repro.oram.config import BucketGeometry, OramConfig, override_levels, uniform_geometry
from repro.oram.config_io import (
    config_from_dict,
    config_to_dict,
    geometry_from_dict,
    geometry_to_dict,
    load_config,
    save_config,
)


class TestGeometryRoundtrip:
    def test_simple(self):
        g = BucketGeometry(5, 3, overlap=4, remote_extension=2)
        assert geometry_from_dict(geometry_to_dict(g)) == g

    def test_defaults_tolerated(self):
        g = geometry_from_dict({"z_real": 5, "s_reserved": 3})
        assert g.overlap == 0
        assert g.remote_extension == 0


class TestConfigRoundtrip:
    @pytest.mark.parametrize("name", ["baseline", "ir", "dr", "ns", "ab",
                                      "ring", "dr-perf"])
    def test_paper_schemes(self, name):
        cfg = schemes.by_name(name, 24)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_scaled_scheme(self):
        cfg = schemes.ab_scheme(9)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_run_length_encoding_compact(self):
        cfg = schemes.baseline_cb(24)  # uniform geometry
        d = config_to_dict(cfg)
        assert len(d["geometry_runs"]) == 1
        assert d["geometry_runs"][0]["count"] == 24

    def test_ab_runs_match_bands(self):
        d = config_to_dict(schemes.ab_scheme(24))
        counts = [r["count"] for r in d["geometry_runs"]]
        assert counts == [18, 3, 3]

    def test_format_checked(self):
        with pytest.raises(ValueError, match="unsupported"):
            config_from_dict({"_format": 99})

    @pytest.mark.parametrize("corrupt, field", [
        (lambda d: d.pop("geometry_runs"), "config.geometry_runs"),
        (None, "config"),
        (lambda d: d["geometry_runs"][0]["bucket"].pop("z_real"),
         "config.geometry_runs[0].bucket.z_real"),
    ], ids=["no-geometry-runs", "json-array", "bucket-without-z-real"])
    def test_bad_file_names_the_field(self, tmp_path, corrupt, field):
        doc = config_to_dict(schemes.ab_scheme(7))
        if corrupt is None:
            doc = [doc]
        else:
            corrupt(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(field + ":")):
            load_config(path)

    def test_file_roundtrip(self, tmp_path):
        cfg = schemes.dr_scheme(12)
        path = tmp_path / "dr.json"
        save_config(cfg, path)
        assert json.loads(path.read_text())["name"] == "DR"
        assert load_config(path) == cfg

    @settings(max_examples=25, deadline=None)
    @given(
        levels=st.integers(2, 10),
        z_real=st.integers(1, 6),
        s=st.integers(1, 6),
        overlap=st.integers(0, 3),
        override_lv=st.integers(0, 9),
    )
    def test_arbitrary_configs_roundtrip(self, levels, z_real, s, overlap,
                                         override_lv):
        overlap = min(overlap, z_real)
        geom = uniform_geometry(levels, z_real, s, overlap=overlap)
        if override_lv < levels:
            geom = override_levels(
                geom, {override_lv: BucketGeometry(z_real, max(0, s - 1),
                                                   overlap=overlap)}
            )
        cfg = OramConfig(levels=levels, geometry=geom, name="fuzz")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_loaded_config_builds_oram(self, tmp_path):
        from repro.core.ab_oram import build_oram
        cfg = schemes.ab_scheme(7)
        path = tmp_path / "ab.json"
        save_config(cfg, path)
        oram = build_oram(load_config(path), seed=0)
        oram.access(0)
        oram.check_invariants()
