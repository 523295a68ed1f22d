"""Device file round trips, schema validation, and atomic writes."""

from __future__ import annotations

import copy
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import starmap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringpair import load_device
from ringpair.deviceio import (
    FILE_FORMAT,
    SCHEMA_VERSION,
    _cut_slots,
    csv_columns,
    csv_text,
    device_from_dict,
    device_to_dict,
    swept_devices,
    write_text_atomic,
)
from ringpair.enhancement import SpectrumResult, intensity_spectrum, spectrum_to_csv

from conftest import DEVICE_JSON, REPO, TWO_PI, make_device, write_device

# Keys whose value may take either sign, and keys that may be zero.
SIGNED = {"gvd_s2_per_m", "chi3_m2_v2", "heater_shift_hz", "phase_rad"}
NON_NEGATIVE = {"gamma_nl_w_m", "kappa0_per_m"}


@st.composite
def device_dicts(draw):
    """Valid device dicts: log-uniform magnitudes, each optional key in or out."""
    magnitude = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
    data = {"schema": SCHEMA_VERSION}
    for section, rows in FILE_FORMAT.items():
        body = {}
        for key, _, _, default in rows:
            if default is not None and not draw(st.booleans()):
                continue
            value = draw(magnitude)
            if key in SIGNED:
                value *= draw(st.sampled_from([-1.0, 0.0, 1.0]))
            elif key in NON_NEGATIVE:
                value *= draw(st.sampled_from([0.0, 1.0]))
            body[key] = value
        data[section] = body
    shorter = min(data["ring1"]["straight_len_m"], data["ring2"]["straight_len_m"])
    data["dc"]["length_m"] = shorter * 10.0 ** draw(st.floats(-3.0, 0.0))
    return data


def good_dict() -> dict:
    return device_to_dict(make_device())


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        dev = make_device()
        again = device_from_dict(device_to_dict(dev))
        assert again == dev
        assert device_to_dict(again) == device_to_dict(dev)

    def test_heater_unit_conversion(self):
        dev = make_device(heater2=2.0 * math.pi * 1e9)
        data = device_to_dict(dev)
        assert data["ring2"]["heater_shift_hz"] == pytest.approx(1e9, rel=1e-15)
        assert device_from_dict(data).ring2.heater_shift == pytest.approx(
            dev.ring2.heater_shift, rel=1e-15
        )

    def test_file_round_trip(self, tmp_path):
        dev = make_device(l2_scale=1.3, q_c=2.5e5, kappa_phase=0.4)
        path = tmp_path / "dev.json"
        write_device(dev, path)
        assert load_device(path) == dev
        # Atomic write leaves no temp files behind.
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []
        assert path.read_text().endswith("\n")

    def test_bundled_sample_loads(self, sample_device):
        assert sample_device.dc_length == pytest.approx(
            sample_device.ring1.straight_len, rel=1e-12
        )
        # Shipped at an exact coupler null.
        assert abs(abs(sample_device.kappa) * sample_device.dc_length - math.pi) < 1e-9

    @settings(max_examples=300)
    @given(device_dicts())
    def test_generated_dicts_round_trip(self, data):
        out = device_to_dict(device_from_dict(data))
        assert list(out) == ["schema", *FILE_FORMAT]
        for section, rows in FILE_FORMAT.items():
            assert list(out[section]) == [key for key, _, _, _ in rows]
            for key, _, scale, default in rows:
                expected = data[section].get(key, default)
                if scale == 1.0:
                    assert out[section][key] == expected
                else:
                    # Hz keys pass through a multiply and a divide by 2 pi.
                    assert abs(out[section][key] - expected) <= math.ulp(expected)

    def test_shipped_file_saves_byte_identical(self, tmp_path):
        # device_to_dict keeps the file's key order and every value's digits.
        path = tmp_path / "dev.json"
        write_device(load_device(DEVICE_JSON), path)
        assert path.read_bytes() == DEVICE_JSON.read_bytes()

    def test_sample_file_carries_schema(self):
        data = json.loads(DEVICE_JSON.read_text())
        assert data["schema"] == SCHEMA_VERSION


class TestValidation:
    def test_missing_schema(self):
        data = good_dict()
        del data["schema"]
        with pytest.raises(ValueError, match="schema"):
            device_from_dict(data)

    def test_wrong_schema_version(self):
        data = good_dict()
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            device_from_dict(data)

    def test_missing_section(self):
        data = good_dict()
        del data["ring2"]
        with pytest.raises(ValueError, match="ring2"):
            device_from_dict(data)

    def test_missing_key_names_the_path(self):
        data = good_dict()
        del data["waveguide"]["n_g"]
        with pytest.raises(ValueError, match="waveguide.n_g"):
            device_from_dict(data)

    @pytest.mark.parametrize("bad", ["4.2", True, None, float("nan"), float("inf")])
    def test_non_numeric_value(self, bad):
        data = good_dict()
        data["waveguide"]["n_g"] = bad
        with pytest.raises(ValueError, match="n_g"):
            device_from_dict(data)

    def test_section_must_be_object(self):
        data = good_dict()
        data["dc"] = [1, 2]
        with pytest.raises(ValueError, match="dc"):
            device_from_dict(data)

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError):
            device_from_dict([1, 2, 3])

    def test_unknown_keys_tolerated(self):
        data = good_dict()
        data["waveguide"]["comment"] = 1.0
        data["note"] = "annotated"
        assert device_from_dict(data) == make_device()

    def test_unknown_keys_rejected_in_strict_mode(self):
        data = good_dict()
        data["waveguide"]["comment"] = 1.0
        with pytest.raises(ValueError, match="unknown"):
            device_from_dict(data, strict=True)

    def test_physical_validation_is_wrapped(self):
        data = good_dict()
        data["ring1"]["straight_len_m"] = -1.0
        with pytest.raises(ValueError, match="device file"):
            device_from_dict(data)

    @pytest.mark.parametrize(
        "section, key, bad",
        [("waveguide", "n_g", -1.0), ("waveguide", "n_g", 0.0),
         ("coupling_model", "decay_len_m", -1.0), ("coupling_model", "decay_len_m", 0.0)],
    )
    def test_every_constructor_error_is_prefixed(self, section, key, bad):
        data = good_dict()
        data[section][key] = bad
        with pytest.raises(ValueError) as info:
            device_from_dict(data)
        assert str(info.value).startswith("device file: ")

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_device(path)


class TestAtomicWrite:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "payload\n")
        assert path.read_text() == "payload\n"

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "a" * 1000)
        write_text_atomic(path, "b")
        assert path.read_text() == "b"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []

    def test_failed_write_cleans_up(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(TypeError):
            write_text_atomic(path, 12345)  # not a string
        assert not path.exists()
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []


def _starmap_csv_text(header, rows):
    """The per-row ``str.format`` writer that ``csv_text`` replaced: the oracle."""
    row_text = ",".join(["{:.17g}"] * len(header)).format
    return "\n".join([",".join(header), *starmap(row_text, rows)]) + "\n"


# Values whose text is easy to get wrong: signed zeros, nan, infinities,
# subnormals, the edges of the float range and ints.
CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         sys.float_info.min, sys.float_info.max, 0.1, 1e16, 1e17]
    ),
    st.integers(-(10**20), 10**20),
)
CSV_NAMES = st.one_of(
    st.sampled_from(["omega_rad_s", "f1_sq", "%d", "100%", "%%.17g"]),
    st.text(st.characters(blacklist_characters=",\n"), min_size=1, max_size=8),
)


@st.composite
def csv_tables(draw):
    n_cols = draw(st.integers(1, 4))
    header = tuple(draw(CSV_NAMES) for _ in range(n_cols))
    rows = draw(st.lists(st.tuples(*[CSV_VALUES] * n_cols), max_size=40))
    return header, rows


class TestCsvText:
    @settings(max_examples=200)
    @given(csv_tables())
    @example((("a",), []))
    @example((("a", "b", "c", "d"), []))
    @example((("x", "y"), [(0.0, -0.0), (math.nan, -math.inf), (5e-324, 7)]))
    def test_bytes_match_the_per_row_writer(self, table):
        header, rows = table
        # An iterator, as the commands pass it: csv_text reads it once.
        assert csv_text(header, iter(rows)) == _starmap_csv_text(header, rows)

    def test_full_wide_spectrum_matches_the_per_row_writer(self):
        # The 100001-point, 20 THz spectrum of the benchmark device.
        device = load_device(REPO / "clibench" / "device.json")
        result = intensity_spectrum(device, (TWO_PI * 185e12, TWO_PI * 205e12), 100001)
        columns = (result.omega.tolist(), result.f1_sq.tolist(), result.f2_sq.tolist())
        expected = _starmap_csv_text(("omega_rad_s", "f1_sq", "f2_sq"), zip(*columns))
        got = spectrum_to_csv(result)
        # Compare line lists: a diff of two 6 MB strings would stall the report.
        assert got.splitlines() == expected.splitlines()
        assert got == expected and expected.count("\n") == 100002


def _near_powers_of_ten():
    """10**-5 .. 10**17 and the eight doubles either side of each."""
    out = []
    for m in range(-5, 18):
        below = above = 10.0**m if m < 0 else float(10**m)
        out.append(below)
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [below, above]
    return np.array(out)


def _quarter_integers():
    """Quarter-integers in [1e15, 2.25e15]: a run at each end and 10**5 drawn between."""
    lo, hi = 4 * 10**15, 9 * 10**15
    quarters = np.concatenate([
        np.arange(lo, lo + 4000),
        np.arange(hi - 4000, hi + 1),
        np.random.default_rng(15).integers(lo, hi, 10**5),
    ])
    return quarters / 4.0


def _carries():
    """Decimal texts one unit in the 18th digit short of a power of ten."""
    return np.array([float(f"9.9999999999999999{d}e{m}") for m in range(-6, 18)
                     for d in range(5, 10)])


def _assert_lines_match_percent_g(values):
    lines = csv_columns(("v",), [values]).split("\n")
    assert lines[0] == "v" and lines[-1] == ""
    # Compare lists, not one huge string: a failure then names its lines.
    assert lines[1:-1] == ["%.17g" % v for v in values.tolist()]


class TestCsvColumns:
    @settings(max_examples=200)
    @given(csv_tables())
    @example((("a",), []))
    @example((("x", "y"), [(0.0, -0.0), (math.nan, -math.inf), (5e-324, 7)]))
    def test_bytes_match_the_per_row_writer(self, table):
        header, rows = table
        columns = [list(col) for col in zip(*rows)] or [[] for _ in header]
        assert csv_columns(header, columns) == _starmap_csv_text(header, zip(*columns))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20251018)
        _assert_lines_match_percent_g(
            rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
        )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("values", [
        pytest.param(_near_powers_of_ten, id="powers-of-ten"),
        # Quarter-integers near 1e15 round at the 17th digit with exact ties,
        # which go to the even digit.
        pytest.param(_quarter_integers, id="ties"),
        pytest.param(_carries, id="carries"),
    ])
    def test_hard_values(self, values, sign):
        _assert_lines_match_percent_g(sign * values())

    def test_values_in_the_fixed_range_take_the_cut_slots(self):
        # Save just below a power of ten, each |x| in [1e-4, 1e17) is rendered
        # by the exact cut, not by the '%.17g' fallback; a power of ten
        # itself, where |x| * 10**p is 1e16 to the bit, is too.
        powers = np.array([1.0, 1000.0, 1e16])
        assert (np.log10(powers) == [0.0, 3.0, 16.0]).all()
        x = np.array([1.5e-4, -2.5e-3, 0.3, 3.0, -1234.5678, 193414489032258.06,
                      4.5e16, 9.9e16, *powers, *-powers])
        assert _cut_slots(x)[2].all()
        _assert_lines_match_percent_g(x)

    def test_misjudged_exponent_falls_back(self):
        # Just below a power of ten log10 rounds up to it, so the exponent is
        # one too large: the exactness test refuses the fixed slot.
        x = np.array([np.nextafter(1000.0, 0.0), np.nextafter(1e16, 0.0)])
        assert ["%.17g" % v for v in x] == ["999.99999999999989", "9999999999999998"]
        assert (np.floor(np.log10(x)) == [3.0, 16.0]).all()
        assert not _cut_slots(x)[2].any()
        _assert_lines_match_percent_g(x)

    @pytest.mark.parametrize("header, columns", [
        (("a",), []),
        (("a", "b"), [[1.0]]),
        (("a", "b"), [[1.0], [1.0, 2.0]]),
        (("a",), [[[1.0]]]),
    ])
    def test_bad_shapes_raise(self, header, columns):
        with pytest.raises(ValueError, match="csv_columns"):
            csv_columns(header, columns)

    def test_memory_stays_flat_beyond_the_text(self):
        n = 10**6
        rng = np.random.default_rng(7)
        result = SpectrumResult(
            omega=np.linspace(TWO_PI * 185e12, TWO_PI * 205e12, n),
            f1_sq=rng.lognormal(0.0, 4.0, n),
            f2_sq=rng.lognormal(0.0, 4.0, n),
        )
        tracemalloc.start()
        try:
            text = spectrum_to_csv(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == n + 1
        assert peak - len(text) < 16 * 2**20

    def test_loads_no_further_numpy_module(self):
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "from ringpair.deviceio import csv_columns\n"
            "before = set(sys.modules)\n"
            "col = np.array([0.0, -0.0, np.nan, -np.inf, 5e-324, 1e300, 1.5, -2e-3, 7e16])\n"
            "csv_columns(('a', 'b'), [col, col[::-1]])\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, check=True, timeout=60)
        assert json.loads(proc.stdout) == []


class TestSetDeviceParam:
    @pytest.mark.parametrize("dotted", ["dc.gap", "waveguide", "dc.gap_m.x", "bogus.n_g"])
    def test_unknown_path(self, dotted):
        with pytest.raises(ValueError, match="not found"):
            next(swept_devices(good_dict(), dotted, [1.0]))


# Every (section, file key) of the format, addressed by each distinct leaf spelling.
SWEPT_PATHS = [
    (section, key, leaf)
    for section, rows in FILE_FORMAT.items()
    for key, field, _, _ in rows
    for leaf in dict.fromkeys((key, field))
]


def swept_values(near: float):
    """Values near the file's own, any finite double, and the edge cases."""
    return st.one_of(
        st.floats(0.5, 2.0).map(lambda factor: factor * near),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, -1e308]),
    )


class TestSweptDevices:
    @settings(max_examples=30)
    @pytest.mark.parametrize(
        "section, key, leaf", SWEPT_PATHS,
        ids=[f"{section}.{leaf}" for section, _, leaf in SWEPT_PATHS],
    )
    @given(data=st.data())
    def test_each_device_matches_a_full_parse(self, section, key, leaf, data):
        file = data.draw(st.one_of(st.builds(good_dict), device_dicts()), label="file")
        values = data.draw(
            st.lists(swept_values(file[section].get(key) or 1.0), min_size=1, max_size=4),
            label="values",
        )
        strict = data.draw(st.booleans(), label="strict")
        unchanged = copy.deepcopy(file)
        devices = swept_devices(file, f"{section}.{leaf}", values, strict=strict)
        for value in values:
            # The oracle: write the value into a copy of the file and parse it whole.
            point = copy.deepcopy(file)
            point[section][key] = value
            try:
                expected = device_from_dict(point, strict=strict)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    next(devices)
                assert str(raised.value) == str(exc)
                break
            got = next(devices)
            # repr tells -0.0 from 0.0, which == does not.
            assert got == expected and repr(got) == repr(expected)
        else:
            assert next(devices, None) is None
        assert file == unchanged


class TestReadmeMatchesFormat:
    """The README's "Device files" section names exactly the table's keys."""

    @pytest.fixture(scope="class")
    def readme_section(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        return text.split("## Device files", 1)[1].split("\n## ", 1)[0]

    def test_example_holds_exactly_the_required_keys(self, readme_section):
        example = json.loads(readme_section.split("```json", 1)[1].split("```", 1)[0])
        assert set(example) == {"schema", *FILE_FORMAT}
        for section, rows in FILE_FORMAT.items():
            required = {key for key, _, _, default in rows if default is None}
            assert set(example[section]) == required
        device_from_dict(example, strict=True)

    def test_optional_keys_listed(self, readme_section):
        sentence = re.search(r"Optional keys:(.*?)\.\s", readme_section, re.S).group(1)
        listed = set()
        for section, key in re.findall(r"`([a-z_0-9*]+)\.([a-z_0-9]+)`", sentence):
            sections = ("ring1", "ring2") if section == "ring*" else (section,)
            listed.update((s, key) for s in sections)
        optional = {
            (section, key)
            for section, rows in FILE_FORMAT.items()
            for key, _, _, default in rows
            if default is not None
        }
        assert listed == optional
