"""Tests for the JSON encoding layer: arrays, protocols, canonical text."""

import json
import math
import os

import numpy as np
import pytest

from bellforge import serialize as sz
from bellforge.protocols import (
    TruthTable, builtin_qrac, run_exact, success_probability,
)


class TestArrayCodec:
    def test_interleaving_layout(self):
        a = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        enc = sz.encode_array(a)
        assert enc["shape"] == [2, 2]
        assert enc["data"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        for shape in ((4,), (3, 5), (2, 2, 2)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            back = sz.decode_array(sz.encode_array(a))
            assert back.shape == a.shape
            assert np.array_equal(back, a)

    def test_real_input_promoted(self):
        a = np.arange(3.0)
        enc = sz.encode_array(a)
        assert enc["data"] == [0.0, 0.0, 1.0, 0.0, 2.0, 0.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            sz.decode_array({"shape": [2, 2], "data": [1.0, 0.0]})


class TestTruthCodec:
    def test_round_trip(self):
        t = builtin_qrac().truth
        back = sz.truth_from_dict(sz.truth_to_dict(t))
        assert back.n == t.n
        assert np.array_equal(back.f, t.f)
        assert np.array_equal(back.mu, t.mu)

    def test_json_text_survives(self):
        t = builtin_qrac().truth
        text = json.dumps(sz.truth_to_dict(t))
        back = sz.truth_from_dict(json.loads(text))
        assert np.array_equal(back.mu, t.mu)

    @pytest.mark.parametrize("key,value,match", [
        ("f", [[0.6, 0], [0, 1]], "f must be rows of the integers 0 and 1"),
        ("f", [[1.0, 0], [0, 1]], "f must be rows of the integers 0 and 1"),
        ("f", [[True, 0], [0, 1]], "f must be rows of the integers 0 and 1"),
        ("f", [["1", 0], [0, 1]], "f must be rows of the integers 0 and 1"),
        ("f", [1, 0, 0, 1], "f must be rows of the integers 0 and 1"),
        ("mu", [["0.25", 0.25], [0.25, 0.25]], "mu must be rows of finite"),
        ("mu", [[float("nan"), 0.25], [0.25, 0.25]], "mu must be rows of"),
        ("mu", [[10 ** 400, 0.25], [0.25, 0.25]], "mu must be rows of"),
        ("n", -1, "n=-1 must be >= 0"),
    ], ids=["f-fraction", "f-float", "f-bool", "f-string", "f-flat",
            "mu-string", "mu-nan", "mu-huge", "n-negative"])
    def test_entries_load_as_written(self, key, value, match):
        doc = {"n": 1, "f": [[1, 0], [0, 1]],
               "mu": [[0.25, 0.25], [0.25, 0.25]], key: value}
        with pytest.raises(ValueError, match=match):
            sz.truth_from_dict(doc)


class TestProtocolCodec:
    def test_round_trip_preserves_every_probability(self):
        p = builtin_qrac()
        text = sz.dumps_canonical(sz.protocol_to_dict(p))
        back = sz.protocol_from_dict(json.loads(text))
        assert success_probability(back) == success_probability(p)
        for x in range(4):
            for y in range(4):
                assert np.array_equal(run_exact(back, x, y),
                                      run_exact(p, x, y))

    def test_format_tag_required(self):
        doc = sz.protocol_to_dict(builtin_qrac())
        doc.pop("format")
        with pytest.raises(ValueError, match="format"):
            sz.protocol_from_dict(doc)

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(schema_version=1.0),
        lambda d: d.update(rounds=True),
        lambda d: d["registers"].update(a0_dim=2.0),
        lambda d: d["registers"].update(anc_b_dims=[1.5]),
        lambda d: d["truth"].update(n=False),
        lambda d: d["alice_ops"][0][0].update(shape=[2.0, 2]),
    ], ids=["schema-version", "rounds", "a0-dim", "anc-b-dims", "truth-n",
            "array-shape"])
    def test_non_integer_field_rejected(self, edit):
        doc = json.loads(json.dumps(sz.protocol_to_dict(builtin_qrac())))
        edit(doc)
        with pytest.raises(ValueError, match="must be an integer, got"):
            sz.protocol_from_dict(doc)

    @pytest.mark.parametrize("edit,match", [
        (lambda d: d["alice_ops"][0][0]["data"].__setitem__(0, "0.92"),
         "array data must be a list of finite numbers"),
        (lambda d: d["observables"][0][0]["data"].__setitem__(0, math.nan),
         "array data must be a list of finite numbers"),
        (lambda d: d["observables"][1][0]["data"].__setitem__(1, -math.inf),
         "array data must be a list of finite numbers"),
        (lambda d: d["alice_ops"][0][0]["data"].__setitem__(0, 10 ** 400),
         "array data must be a list of finite numbers"),
        (lambda d: d["alice_ops"][0][0]["data"].__setitem__(1, False),
         "array data must be a list of finite numbers"),
        (lambda d: d["alice_ops"][0][0].update(data="0.92"),
         "array data must be a list of finite numbers"),
        (lambda d: d.update(epsilon="0.25"), "epsilon must be a finite"),
        (lambda d: d.update(epsilon=math.nan), "epsilon must be a finite"),
    ], ids=["data-string", "data-nan", "data-infinity", "data-huge",
            "data-bool", "data-not-list", "epsilon-string", "epsilon-nan"])
    def test_non_number_entry_rejected(self, edit, match):
        doc = json.loads(json.dumps(sz.protocol_to_dict(builtin_qrac())))
        edit(doc)
        with pytest.raises(ValueError, match=match):
            sz.protocol_from_dict(doc)

    def test_newer_schema_rejected(self):
        doc = sz.protocol_to_dict(builtin_qrac())
        doc["schema_version"] = sz.SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            sz.protocol_from_dict(doc)

    def test_load_protocol_from_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(sz.dumps_canonical(
            sz.protocol_to_dict(builtin_qrac())))
        back = sz.load_protocol(str(path))
        assert success_probability(back) \
            == pytest.approx(0.8535533905932737, abs=1e-12)


class TestCanonicalText:
    def test_sorted_keys_and_trailing_newline(self):
        text = sz.dumps_canonical({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("}\n")

    def test_identical_bytes_for_equal_content(self):
        doc = {"x": [1.5, 2.25], "y": {"k": 0.1}}
        assert sz.dumps_canonical(doc) == sz.dumps_canonical(
            json.loads(json.dumps(doc)))

    def test_infinity_as_string(self):
        text = sz.dumps_canonical({"r": math.inf, "s": -math.inf})
        doc = json.loads(text)
        assert doc == {"r": "Infinity", "s": "-Infinity"}

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            sz.dumps_canonical({"x": math.nan})

    def test_numpy_scalars_converted(self):
        text = sz.dumps_canonical({"i": np.int64(3), "f": np.float64(0.5),
                                   "b": np.bool_(False)})
        assert json.loads(text) == {"i": 3, "f": 0.5, "b": False}

    def test_shortest_roundtrip_floats(self):
        value = 0.8070062179508479
        assert f"{value!r}" in sz.dumps_canonical({"v": value})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            sz.dumps_canonical({"x": object()})


class TestAtomicWrite:
    def test_writes_content_and_leaves_no_temp(self, tmp_path):
        dest = tmp_path / "out.json"
        sz.atomic_write_text(str(dest), "payload\n")
        assert dest.read_text() == "payload\n"
        leftovers = [f for f in os.listdir(tmp_path)
                     if f.startswith(".bellforge-")]
        assert leftovers == []

    def test_replaces_existing_file(self, tmp_path):
        dest = tmp_path / "out.json"
        dest.write_text("old")
        sz.atomic_write_text(str(dest), "new")
        assert dest.read_text() == "new"
