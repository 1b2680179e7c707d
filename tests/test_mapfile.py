"""Tests for the on-disk JSON map format and experiment configuration.

The format stores each polynomial component as a list of 7-integer terms
``[i, j, k, re_num, re_den, im_num, im_den]`` — exponents of (x, y, t) and
the exact rational real/imaginary parts of the coefficient — so parsing is
lossless.  Oracles are roundtrip identities on the bundled corpus plus
validation rejections for malformed inputs.
"""

import dataclasses
import json

import pytest

from biratdyn.mapfile import (
    ExperimentConfig,
    MapFileError,
    ParseError,
    corpus_path,
    load_config,
    load_map,
    map_payload,
    save_map,
    write_corpus,
)
from biratdyn.maps import verify_inverse
from biratdyn.standard_maps import (
    STANDARD_MAPS,
    cremona_involution,
    henon_map,
    lsigma_map,
)


@pytest.fixture()
def corpus_dir(tmp_path):
    write_corpus(tmp_path)
    return tmp_path


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["cremona", "henon", "linear", "lsigma"])
    def test_corpus_roundtrip_is_exact(self, corpus_dir, name):
        original = STANDARD_MAPS[name]()
        loaded = load_map(corpus_dir / f"{name}.map")
        assert loaded.name == original.name
        assert loaded.degree == original.degree
        for a, b in zip(loaded.components, original.components):
            assert a.terms == b.terms
        if original.inverse is not None:
            assert loaded.inverse is not None
            for a, b in zip(loaded.inverse.components, original.inverse.components):
                assert a.terms == b.terms

    def test_exact_henon_coefficients_in_payload(self):
        payload = map_payload(henon_map())
        # c = -3/2 on the t^2 term of the middle component
        terms = {tuple(t[:3]): tuple(t[3:]) for t in payload["forward"][1]}
        assert terms[(0, 0, 2)] == (-3, 2, 0, 1)
        assert terms[(1, 0, 1)] == (-1, 4, 0, 1)

    def test_factories_reproduce_bundled_corpus(self, corpus_dir):
        bundled = sorted(corpus_path("henon").parent.glob("*.map"))
        assert [p.name for p in bundled] == sorted(p.name for p in corpus_dir.glob("*.map"))
        for path in bundled:
            assert (corpus_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.map", tmp_path / "b.map"
        save_map(henon_map(), p1)
        save_map(henon_map(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_inverse_survives_and_verifies(self, corpus_dir):
        f = load_map(corpus_dir / "henon.map")
        assert verify_inverse(f)


class TestValidation:
    def test_malformed_json_raises_parse_error_with_position(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text('{"name": "x", "degree": 1,\n  "forward": [[[0, 0')
        with pytest.raises(ParseError) as err:
            load_map(path)
        assert err.value.line >= 1
        assert err.value.column >= 1
        assert "line" in str(err.value)

    def test_exponents_must_sum_to_degree(self, tmp_path):
        payload = map_payload(cremona_involution())
        payload["forward"][0][0][0] += 1  # bump an exponent
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(payload))
        with pytest.raises(MapFileError, match="degree"):
            load_map(path)

    def test_term_width_is_checked(self, tmp_path):
        payload = map_payload(cremona_involution())
        payload["forward"][0][0] = payload["forward"][0][0][:5]
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(payload))
        with pytest.raises(MapFileError, match="7"):
            load_map(path)

    def test_zero_denominator_rejected(self, tmp_path):
        payload = map_payload(cremona_involution())
        payload["forward"][0][0][4] = 0
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(payload))
        with pytest.raises(MapFileError, match="denominator"):
            load_map(path)

    def test_duplicate_term_rejected(self, tmp_path):
        payload = map_payload(cremona_involution())
        payload["forward"][0].append(list(payload["forward"][0][0]))
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(payload))
        with pytest.raises(MapFileError, match="duplicate"):
            load_map(path)

    def test_common_factor_rejected(self, tmp_path):
        # components x^2, xy, xt share the factor x
        payload = {
            "format": "biratdyn-map/1",
            "name": "degenerate",
            "degree": 2,
            "forward": [
                [[2, 0, 0, 1, 1, 0, 1]],
                [[1, 1, 0, 1, 1, 0, 1]],
                [[1, 0, 1, 1, 1, 0, 1]],
            ],
        }
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(payload))
        with pytest.raises(MapFileError, match="common factor"):
            load_map(path)

    def test_wrong_inverse_rejected(self, tmp_path):
        payload = map_payload(henon_map())
        payload["inverse"] = map_payload(cremona_involution())["forward"]
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(payload))
        with pytest.raises(MapFileError, match="inverse"):
            load_map(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text(json.dumps({"name": "x", "degree": 1}))
        with pytest.raises(MapFileError, match="forward"):
            load_map(path)

    def test_lsigma_composition_degree(self):
        # the composed corpus map keeps degree 2 with a verified inverse
        f = lsigma_map()
        assert f.degree == 2
        assert verify_inverse(f)


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.seed == 2026
        assert cfg.grid >= 8
        assert cfg.max_period >= 1
        assert cfg.tolerance_indeterminacy > 0

    def test_json_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(seed=7, grid=32, max_period=4)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        again = load_config(path)
        assert again == cfg

    def test_overrides_ignore_none(self):
        cfg = ExperimentConfig()
        out = cfg.with_overrides(seed=None, grid=16)
        assert out.seed == cfg.seed
        assert out.grid == 16

    def test_seed_range_checked(self):
        with pytest.raises(MapFileError, match="seed"):
            ExperimentConfig(seed=-1)
        with pytest.raises(MapFileError, match="seed"):
            ExperimentConfig(seed=2**64)

    def test_bad_grid_rejected(self):
        with pytest.raises(MapFileError, match="grid"):
            ExperimentConfig(grid=4)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"sed": 1}')
        with pytest.raises(MapFileError, match="sed"):
            load_config(path)

    def test_config_parse_error_has_position(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        with pytest.raises(ParseError):
            load_config(path)
