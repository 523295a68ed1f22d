"""The frozen-record base: every record behaves as ``@dataclass(frozen=True)``.

Each record class of the package is checked against a frozen dataclass
twin with the same fields, built here with :mod:`dataclasses`: the
``repr`` and the hash must be the twin's, byte for byte and bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from ringpair import (
    CmtField,
    DesignGoal,
    DesignReport,
    PumpDrive,
    Resonance,
    RuleCheck,
    evaluate_design,
    intensity_spectrum,
    j_quadrature,
    load_device,
    noise_budget,
    resonant_config,
    tune_for_energy_conservation,
    xpm_spm_compensation,
)
from ringpair.record import Record, asdict, replace

from conftest import DEVICE_JSON, make_device, process_band


def _instances() -> list[Record]:
    """One valid instance of every record class of the package."""
    dev = make_device()
    band = process_band(dev)
    cfg = resonant_config(dev, band)
    drive = PumpDrive(photon_number=5e4, pulse_duration=1e-9, self_coupling=0.95)
    goal = DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=5e-3)
    spectrum = intensity_spectrum(dev, band, 5)
    shipped = load_device(DEVICE_JSON)
    report = evaluate_design(shipped, goal)
    return [
        dev.waveguide,
        dev.ring1,
        dev.coupling,
        dev,
        cfg.res_s,
        CmtField("IN", dev.kappa, dev.dc_length),
        cfg,
        j_quadrature(dev, cfg),
        drive,
        noise_budget(dev, drive, cfg, band=band),
        # A dataclass twin cannot compare arrays to a bool; the same
        # samples as tuples let it. A spectrum has no hash either way.
        replace(spectrum, **{n: tuple(getattr(spectrum, n).tolist())
                             for n in ("omega", "f1_sq", "f2_sq")}),
        goal,
        report.rules[0],
        tune_for_energy_conservation(shipped, goal, mode="trim"),
        xpm_spm_compensation(shipped, 1e-3),
        report,
    ]


INSTANCES = _instances()
IDS = [type(obj).__name__ for obj in INSTANCES]
# The package's record classes; the tests below define a few more.
CLASSES = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("ringpair.")]

# The domain markers of ringpair.record.
DOMAINS = ("Positive", "NonNegative", "Finite")

# A value each validating record refuses, one field per class.
INVALID = {
    "WaveguideParams": ("n_g", -1.0),
    "RacetrackSpec": ("straight_len", -1.0),
    "CouplingModel": ("decay_len", 0.0),
    "DeviceSpec": ("dc_gap", -1.0),
    "Resonance": ("owner", 3),
    "CmtField": ("port", "SIDE"),
    "ProcessConfig": ("delta_k", math.nan),
    "PumpDrive": ("pulse_duration", 0.0),
    "DesignGoal": ("pump_separation", 3),
}


def _twin(obj: Record):
    """A frozen dataclass with ``obj``'s class name, fields and values."""
    cls = type(obj)
    twin_cls = dataclasses.make_dataclass(
        cls.__name__, list(cls.__annotations__.items()), frozen=True
    )
    twin_cls.__qualname__ = cls.__qualname__
    return twin_cls(*(getattr(obj, n) for n in cls._fields))


def test_every_record_class_has_an_instance():
    assert sorted(IDS) == sorted(cls.__name__ for cls in CLASSES)
    assert len(IDS) == 16


def _declares_a_domain(cls) -> bool:
    return any(a in DOMAINS for a in cls.__annotations__.values())


def test_the_invalid_table_covers_every_validating_record():
    assert sorted(INVALID) == sorted(
        cls.__name__ for cls in CLASSES
        if hasattr(cls, "__post_init__") or _declares_a_domain(cls)
    )


def test_every_record_class_has_string_annotations():
    # A domain is read from the annotation's text: a module without
    # ``from __future__ import annotations`` would see plain ``float``
    # and skip its checks silently.
    for cls in CLASSES:
        assert all(isinstance(a, str) for a in cls.__annotations__.values()), cls


def _domain_fields():
    return [
        pytest.param(obj, name, marker, id=f"{type(obj).__name__}.{name}")
        for obj in INSTANCES
        for name, marker in type(obj).__annotations__.items()
        if marker in DOMAINS
    ]


@pytest.mark.parametrize("obj, name, marker", _domain_fields())
def test_every_declared_domain_at_its_boundary(obj, name, marker):
    refused, accepted = {
        "Positive": ((0.0, -1.0), ()),
        "NonNegative": ((-1.0,), (0.0,)),
        "Finite": ((), (-1e300,)),
    }[marker]
    for bad in refused:
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            replace(obj, **{name: bad})
    for good in accepted:
        assert getattr(replace(obj, **{name: good}), name) == good


def test_the_domain_walk_covers_every_declaring_record():
    walked = {p.values[0].__class__ for p in _domain_fields()}
    assert walked == {cls for cls in CLASSES if _declares_a_domain(cls)}
    assert len(walked) == 9


def test_the_first_invalid_field_in_field_order_is_reported():
    ring = make_device().ring1
    with pytest.raises(ValueError, match="^straight_len "):
        replace(ring, straight_len=-1.0, q_coupling=math.nan)
    with pytest.raises(ValueError, match="^q_coupling "):
        replace(ring, q_coupling=math.nan, heater_shift=math.inf)


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
class TestEveryRecord:
    def test_fields_are_the_annotations_in_order(self, obj):
        assert type(obj)._fields == tuple(type(obj).__annotations__)

    def test_assignment_and_deletion_raise(self, obj):
        for name in (*obj._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert obj == replace(obj)

    def test_positional_and_keyword_construction_agree(self, obj):
        values = [getattr(obj, n) for n in obj._fields]
        assert type(obj)(*values) == type(obj)(**dict(zip(obj._fields, values))) == obj

    def test_unknown_field_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            replace(obj, not_a_field=1.0)
        with pytest.raises(TypeError):
            type(obj)(*(getattr(obj, n) for n in obj._fields), 1.0)

    def test_repr_is_the_dataclass_repr(self, obj):
        assert repr(obj) == repr(_twin(obj))

    def test_equal_fields_give_equal_records_and_hashes(self, obj):
        copy = replace(obj)
        assert copy is not obj and copy == obj and not copy != obj
        if type(obj).__hash__ is None:  # SpectrumResult: its fields are arrays
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
            return
        assert hash(copy) == hash(obj) == hash(_twin(obj))

    def test_records_of_two_classes_never_compare_equal(self, obj):
        twin = _twin(obj)
        assert obj != twin and not obj == twin
        assert obj.__eq__(twin) is NotImplemented


@pytest.mark.parametrize(
    "obj", [o for o in INSTANCES if type(o).__name__ in INVALID],
    ids=[i for i in IDS if i in INVALID],
)
def test_replace_runs_validation_again(obj):
    name, bad = INVALID[type(obj).__name__]
    with pytest.raises(ValueError):
        replace(obj, **{name: bad})


def test_a_changed_field_breaks_equality():
    res = Resonance(1, 100, 1.2e15, 5e4, 1e5)
    assert res != replace(res, order=101)
    assert res == Resonance(owner=1, order=100, omega0=1.2e15, q_loaded=5e4, q_coupling=1e5)


def test_two_record_classes_with_the_same_fields_differ():
    class A(Record):
        x: float
        y: float

    class B(Record):
        x: float
        y: float

    assert A(1.0, 2.0) == A(1.0, 2.0) and A(1.0, 2.0) != B(1.0, 2.0)


def test_replace_of_the_ring_reruns_its_check():
    ring = make_device().ring1
    with pytest.raises(ValueError, match="straight_len"):
        replace(ring, straight_len=-1)


def test_defaults_fill_the_trailing_fields():
    drive = PumpDrive(5e4, 1e-9)
    assert drive.self_coupling is None
    assert PumpDrive(5e4, 1e-9, 0.9).self_coupling == 0.9


def test_a_field_without_default_after_one_with_a_default_is_refused():
    with pytest.raises(TypeError):
        class Bad(Record):
            a: float = 0.0
            b: float


def test_asdict_of_a_nested_design_report():
    report = DesignReport(
        passed=False,
        rules=(RuleCheck("isolation", True, 41.5, 30.0),
               RuleCheck("kerr", False, 0.2, 0.05, "too much pump")),
        j_abs=2.5,
        j_ratio=0.06,
        isolation_db=41.5,
        uncoupling_order=1,
        suppression=(1e-3, 2e-3),
        detuning=(1e9, -1e9),
        kerr_metric=0.2,
    )
    assert asdict(report) == {
        "passed": False,
        "rules": (
            {"name": "isolation", "passed": True, "value": 41.5, "limit": 30.0, "detail": ""},
            {"name": "kerr", "passed": False, "value": 0.2, "limit": 0.05,
             "detail": "too much pump"},
        ),
        "j_abs": 2.5,
        "j_ratio": 0.06,
        "isolation_db": 41.5,
        "uncoupling_order": 1,
        "suppression": (1e-3, 2e-3),
        "detuning": (1e9, -1e9),
        "kerr_metric": 0.2,
        "notes": (),
    }
