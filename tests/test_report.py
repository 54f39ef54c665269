"""``report.Record``, the base of the package's value classes: the
constructor keeps each class's signature and defaults and runs its
checks; records compare, hash and print by their fields, and refuse
assignment."""

from fractions import Fraction

import pytest

from msfuzz import (
    Check,
    FuzzySet,
    GradeOutOfRange,
    Instance,
    SearchConfig,
    SubsetVerdict,
    VerificationReport,
    Witness,
)
from msfuzz.report import Record

from .conftest import chain, grades


def test_fields_follow_the_annotations_in_order():
    assert Check._fields == ("check_id", "passed", "detail", "witness")
    assert Instance._fields == ("ms", "chis", "grade_universe", "w_sets")
    assert SearchConfig._fields == (
        "max_elements", "grade_universe", "seed", "iterations")


def test_positional_keyword_and_default_arguments():
    assert Check("a", True) == Check(check_id="a", passed=True, detail="", witness=None)
    assert Check("a", False, "why").detail == "why"
    assert VerificationReport("t").checks == ()
    cfg = SearchConfig(max_elements=3)
    assert (cfg.grade_universe, cfg.mode, cfg.seed, cfg.iterations) == (
        grades(0, Fraction(1, 2), 1), "exhaustive", 0, None)


@pytest.mark.parametrize("args, kwargs, message", [
    (("a",), {}, "missing argument 'passed'"),
    (("a", True, "", None, 5), {}, "takes 4 arguments, 5 given"),
    (("a",), {"check_id": "b", "passed": True}, "repeated argument 'check_id'"),
    (("a", True), {"colour": 1}, "unexpected or repeated argument 'colour'"),
])
def test_bad_arguments_are_type_errors(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Check(*args, **kwargs)


def test_post_init_checks_run():
    with pytest.raises(GradeOutOfRange):
        FuzzySet(chain(2), grades(0))
    with pytest.raises(ValueError, match="must contain 1"):
        SearchConfig(grade_universe=grades(0))
    # __post_init__ may still normalise a field
    assert SearchConfig(grade_universe=(1, 0, 1)).grade_universe == grades(0, 1)


def test_equality_and_hash_are_field_wise_within_one_class():
    lat = chain(2)
    a, b = FuzzySet(lat, grades(0, 1)), FuzzySet(lat, grades(0, 1))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != FuzzySet(lat, grades(1, 1))
    assert len({a, b}) == 1
    assert SubsetVerdict(True) != Check(True, None, "")
    assert SubsetVerdict(True, None, "") == SubsetVerdict(ok=True)


def test_records_are_immutable():
    check = Check("a", True)
    with pytest.raises(AttributeError):
        check.passed = False
    with pytest.raises(AttributeError):
        del check.detail
    assert check.passed is True


def test_repr_names_every_field():
    assert repr(Check("a", True)) == "Check(check_id='a', passed=True, detail='', witness=None)"
    assert repr(SubsetVerdict(False, ("x", "y"))) == (
        "SubsetVerdict(ok=False, witness=('x', 'y'), reason='')")


def test_instance_caches_are_not_fields(diamond_ms):
    inst = Instance(ms=diamond_ms, chis=(), grade_universe=grades(0, 1))
    other = Instance(diamond_ms, (), grades(0, 1))
    inst._rows["key"] = "value"
    assert inst._rows == {"key": "value"} and other._rows == {}
    assert inst._ranks is inst._ranks
    assert inst == other and hash(inst) == hash(other)
    assert "_rows" not in repr(inst) and "_ranks" not in repr(inst)


def test_witness_data_defaults_to_an_empty_mapping(diamond_ms):
    inst = Instance(diamond_ms, (), grades(0, 1))
    witness = Witness("p", inst, "detail")
    assert witness.data == {} and not witness.data
    with pytest.raises(TypeError):
        witness.data["k"] = 1  # the shared default cannot be changed


def test_every_value_class_is_a_record():
    import msfuzz

    names = ["AlgebraDocument", "CanonicalFixedSet", "Check", "ExtensionResult",
             "FilterSet", "FuzzyClassification", "FuzzySet", "Instance",
             "PropertyOutcome", "SearchConfig", "SubsetVerdict", "SweepReport",
             "VerificationReport", "Witness"]
    from msfuzz.scan import PropertyRecord

    classes = [getattr(msfuzz, name) for name in names] + [PropertyRecord]
    assert all(issubclass(cls, Record) and cls._fields for cls in classes)
