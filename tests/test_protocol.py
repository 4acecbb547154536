"""One protocol, one rule list: a Protocol that breaks a rule raises one
ValueError naming each broken field, and the command line prints the same
messages under the fields' flags, before it reads any data."""

import pickle
from dataclasses import fields

import pytest

from ecfs import Protocol, SyntheticSpec, generate_synthetic, run_stability
from ecfs.cli import main
from ecfs.protocol import ProtocolError

BIG = 10**400

# (field, bad value, its command-line text, the message with {name} for the field);
# a value that is not an integer has no text, since the flags parse integers, and
# neither has a bool, which Python counts as an integer but a report would print
# as true or false
RULES = [
    ("methods", (), ",", "{name} must name at least one method"),
    ("methods", ("relief",), "relief",
     "unknown methods ['relief']; choose from ['ec_fs', 'fisher', 'mi']"),
    ("methods", ("mi", "mi"), "mi,mi", "{name} must name each method once, got ['mi', 'mi']"),
    ("methods", "ec_fs", None, "{name} must be a sequence, not the string 'ec_fs'"),
    ("methods", (["mi"],), None, "unknown methods [['mi']]; choose from ['ec_fs', 'fisher', 'mi']"),
    ("cardinalities", (), ",", "{name} must be positive integers"),
    ("cardinalities", (0, 5), "0,5", "{name} must be positive integers"),
    ("cardinalities", (5.7,), None, "{name} must be positive integers"),
    ("cardinalities", "50", None, "{name} must be a sequence, not the string '50'"),
    ("cardinalities", 50, None, "{name} must be a sequence, got 50"),
    ("cardinalities", (True, 5), None, "{name} must be positive integers"),
    ("alpha", "foo", "foo", "{name} must be a number or 'cv', got 'foo'"),
    ("alpha", 1.5, "1.5", "{name} must be in [0, 1] or 'cv', got 1.5"),
    ("alpha", True, None, "{name} must be a number or 'cv', got True"),
    ("fixed_c", 0.0, "0", "{name} must be positive and finite, got 0.0"),
    ("fixed_c", "1", None, "{name} must be a number, got '1'"),
    ("fixed_c", True, None, "{name} must be a number, got True"),
    ("bins", 1, "1", "{name} must be at least 2, got 1"),
    ("bins", BIG, str(BIG), f"{{name}} must convert to a finite float, got {BIG}"),
    ("bins", 2.5, None, "{name} must be an integer, got 2.5"),
    ("bins", True, None, "{name} must be an integer, got True"),
    ("alpha_grid", (0.5, 1.5), "0.5,1.5", "{name} values must lie in [0, 1]"),
    ("alpha_grid", ("x",), None, "{name} values must be numbers, got ('x',)"),
    ("alpha_grid", (False, 0.5), None, "{name} values must be numbers, got (False, 0.5)"),
    ("alpha_grid", "0.5", None, "{name} must be a sequence, not the string '0.5'"),
    ("c_grid", (0.0,), "0", "{name} values must be positive and finite"),
    ("c_grid", (None,), None, "{name} values must be numbers, got (None,)"),
    ("c_grid", (True,), None, "{name} values must be numbers, got (True,)"),
    ("c_grid", "1", None, "{name} must be a sequence, not the string '1'"),
    ("folds", 1, "1", "{name} must be at least 2, got 1"),
    ("folds", 2.5, None, "{name} must be an integer, got 2.5"),
    ("folds", "5", None, "{name} must be an integer, got '5'"),
    ("folds", True, None, "{name} must be an integer, got True"),
    ("cv_cardinality", 0, "0", "{name} must be positive, got 0"),
    ("cv_cardinality", 2.5, None, "{name} must be an integer, got 2.5"),
    ("cv_cardinality", True, None, "{name} must be an integer, got True"),
    ("epochs", 0, "0", "{name} must be positive, got 0"),
    ("epochs", 1.5, None, "{name} must be an integer, got 1.5"),
    ("epochs", True, None, "{name} must be an integer, got True"),
    ("train_fraction", 1.0, "1", "{name} must be in (0, 1), got 1.0"),
    ("train_fraction", "0.5", None, "{name} must be a number, got '0.5'"),
    ("train_fraction", True, None, "{name} must be a number, got True"),
    ("repeats", 0, "0", "{name} must be positive, got 0"),
    ("repeats", 2.0, None, "{name} must be an integer, got 2.0"),
    ("repeats", True, None, "{name} must be an integer, got True"),
    ("seed", 2**63, str(2**63), f"{{name}} must be a non-negative 63-bit integer, got {2**63}"),
    ("seed", 1.5, None, "{name} must be a non-negative 63-bit integer, got 1.5"),
    ("seed", False, None, "{name} must be a non-negative 63-bit integer, got False"),
]
IDS = [f"{field}-{(text or repr(bad))[:8]}" for field, bad, text, _ in RULES]


# the fields a command has no flag for: rank neither resamples nor trains at
# fixed_c, and stability trains no classifier
NO_FLAG = {"rank": {"methods", "cardinalities", "fixed_c", "train_fraction", "repeats"},
           "evaluate": set(),
           "stability": {"fixed_c"}}
CLI_CASES = [pytest.param(command, *rule, id=f"{command}-{rule_id}")
             for command in NO_FLAG for rule, rule_id in zip(RULES, IDS)
             if rule[0] not in NO_FLAG[command] and rule[2] is not None]


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def test_the_table_covers_every_field():
    assert {field for field, *_ in RULES} == {f.name for f in fields(Protocol)}


@pytest.mark.parametrize("field, bad, text, message", RULES, ids=IDS)
def test_library_names_the_field(field, bad, text, message):
    with pytest.raises(ValueError) as exc:
        Protocol(**{field: bad})
    assert str(exc.value) == message.replace("{name}", field)
    assert exc.value.broken == [(field, message)]


@pytest.mark.parametrize("command, field, bad, text, message", CLI_CASES)
def test_command_line_names_the_flag_before_reading_data(tmp_path, capsys, command, field,
                                                         bad, text, message):
    rc = main([command, "--data", str(tmp_path / "absent.csv"), _flag(field), text])
    want = message.replace("{name}", "seed" if field == "seed" else _flag(field))
    if (command, field) == ("stability", "repeats"):
        want += "; --repeats must be at least 2 for stability"
    assert (rc, capsys.readouterr().err) == (1, f"error: {want}\n")


@pytest.mark.parametrize("command, field", [(c, f) for c in NO_FLAG for f in sorted(NO_FLAG[c])])
def test_a_command_has_no_flag_for_a_field_it_does_not_read(tmp_path, capsys, command, field):
    assert main([command, "--data", str(tmp_path / "absent.csv"), _flag(field), "1"]) == 1
    assert f"unrecognized arguments: {_flag(field)} 1" in capsys.readouterr().err


def test_broken_rules_join_into_one_error_in_field_order():
    with pytest.raises(ValueError) as exc:
        Protocol(folds=1, methods=("mi", "mi"))
    assert str(exc.value) == (
        "methods must name each method once, got ['mi', 'mi']; folds must be at least 2, got 1"
    )
    copy = pickle.loads(pickle.dumps(exc.value))
    assert (type(copy), copy.broken, str(copy)) == (ProtocolError, exc.value.broken,
                                                    str(exc.value))


@pytest.mark.parametrize("command", ["evaluate", "stability"])
def test_duplicate_methods_are_a_flag_error_before_the_load(tmp_path, capsys, command):
    # a duplicate was once found only after the load, and not named as a flag
    absent = str(tmp_path / "absent.csv")
    assert main([command, "--data", absent, "--methods", "fisher,fisher"]) == 1
    assert capsys.readouterr().err == (
        "error: --methods must name each method once, got ['fisher', 'fisher']\n"
    )
    assert main([command, "--data", absent, "--methods", "fisher,fisher", "--folds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--methods" in err and "--folds" in err
    assert "no such data file" not in err


@pytest.mark.parametrize("flag, kind", [("--cardinalities", "integer"),
                                        ("--alpha-grid", "number"), ("--c-grid", "number")])
def test_a_list_that_does_not_parse_is_a_flag_error(tmp_path, capsys, flag, kind):
    assert main(["evaluate", "--data", str(tmp_path / "absent.csv"), flag, "1,x"]) == 1
    assert capsys.readouterr().err == (
        f"error: {flag} is not a comma-separated {kind} list: '1,x'\n"
    )


def test_stability_rejects_one_fold_at_a_fixed_alpha():
    # the folds were never read at a fixed alpha, so one fold was once accepted
    d = generate_synthetic(SyntheticSpec(40, 60, 5, 2.0, 1.0, seed=0))[0]
    with pytest.raises(ValueError, match=r"^folds must be at least 2, got 1$"):
        run_stability(d, Protocol(repeats=2, cardinalities=(5,), folds=1))


def test_sequences_are_held_as_tuples():
    p = Protocol(methods=["mi"], cardinalities=[5], alpha_grid=[0.5], c_grid=[1.0])
    assert (p.methods, p.cardinalities, p.alpha_grid, p.c_grid) == (("mi",), (5,), (0.5,),
                                                                    (1.0,))
    assert hash(p) == hash(Protocol(methods=("mi",), cardinalities=(5,), alpha_grid=(0.5,),
                                    c_grid=(1.0,)))
