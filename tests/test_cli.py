import json
import math
import os
import subprocess
import sys

import pytest

import salient
from salient import cli, posets


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_formula(capsys):
    code, out, _ = run(capsys, "count", "--n", "7", "--method", "formula")
    assert code == 0 and out == "1824\n"


def test_count_methods_agree(capsys):
    values = set()
    for method in ("bfs", "formula", "series"):
        code, out, _ = run(capsys, "count", "--n", "5", "--method", method)
        assert code == 0
        values.add(out)
    assert values == {"42\n"}


def test_class_size_only(capsys):
    code, out, _ = run(capsys, "class", "--word", "321", "--size-only")
    assert code == 0 and out == "3\n"


def test_multiset_words_take_the_heap_paths(capsys):
    code, out, _ = run(capsys, "salient", "--word", "1123")
    assert code == 0 and out == "1123\n"
    code, out, _ = run(capsys, "salient", "--word", "2121")
    assert code == 0 and out == "1122\n"
    code, out, _ = run(capsys, "class", "--word", "1123", "--size-only")
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "class", "--word", "1123")
    assert code == 0 and len(out.split()) == 4


def test_geq_classes_are_sized_off_the_heap(capsys):
    word = "1,3,5,7,9,11,13,15,2,4,6,8,10,12,14,16"
    code, out, err = run(capsys, "class", "--word", word,
                         "--relation", "geq:2")
    assert code == 2 and out == ""
    assert err.startswith("error: orbit of (1, 3, 5,")
    assert err.endswith(" exceeds 10000000 members\n")
    code, out, _ = run(capsys, "class", "--word", word, "--relation", "geq:2",
                       "--size-only")
    assert code == 0 and out == "19391512145\n"
    code, out, _ = run(capsys, "class", "--word", "1123", "--relation",
                       "geq:2", "--format", "json")
    assert code == 0 and json.loads(out) == {
        "representative": "1123", "size": 1, "members": ["1123"]}


def test_class_members_json(capsys):
    code, out, _ = run(capsys, "class", "--word", "321", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"representative": "231", "size": 3,
                       "members": ["231", "312", "321"]}


def test_classes_json_round_trip(capsys):
    code, out, _ = run(capsys, "classes", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert [c["size"] for c in payload["classes"]] == [3, 3]
    code, out2, _ = run(capsys, "classes", "--n", "3", "--format", "json")
    assert out == out2


def test_classes_members_threshold(capsys):
    code, out, _ = run(capsys, "classes", "--n", "4", "--format", "json",
                       "--members-limit", "2")
    payload = json.loads(out)
    sizes = {c["size"] for c in payload["classes"]}
    assert any(s > 2 for s in sizes)
    for c in payload["classes"]:
        assert ("members" in c) == (c["size"] <= 2)


def test_salient_command(capsys):
    code, out, _ = run(capsys, "salient", "--word", "4321")
    assert code == 0 and out == "3412\n"


def test_singletons(capsys):
    code, out, _ = run(capsys, "singletons", "--n", "6")
    assert code == 0 and out == "90\n"
    code, out, _ = run(capsys, "singletons", "--n", "12", "--method", "series")
    assert code == 0
    code, out, _ = run(capsys, "singletons", "--n", "12")
    assert code == 2


def test_multiset(capsys):
    code, out, _ = run(capsys, "multiset", "--spec", "1:2,2:1,3:2",
                       "--count-only")
    assert code == 0 and out == "6\n"
    code, out, _ = run(capsys, "multiset", "--spec", "1:2,2:2",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["spec"] == "1:2,2:2"
    assert [c["size"] for c in payload["classes"]] == [6]


def test_multiset_count_only_refuses_limit(capsys):
    refusal = ("error: --limit does not apply to --count-only (the count "
               "is guarded by its domino sum, at most 10000000 transitions "
               "and 100000 letters)\n")
    # a limit above the spec's arrangement count, below it, and equal to
    # the member cap's default
    for spec, limit in (("1:13,2:12", "10400600"), ("1:3,2:2", "3"),
                        ("1:3,2:2", "10000000")):
        code, out, err = run(capsys, "multiset", "--spec", spec,
                             "--count-only", "--limit", limit)
        assert (code, out, err) == (1, "", refusal)
        code, out, err = run(capsys, "multiset", "--spec", spec,
                             "--limit", limit, "--count-only")
        assert (code, out, err) == (1, "", refusal)
    code, out, _ = run(capsys, "multiset", "--spec", "1:3,2:2", "--count-only")
    assert (code, out) == (0, "1\n")


def test_multiset_count_only_past_the_series_box(capsys):
    # a 6^6 = 46,656-entry box, which cf refuses
    code, out, _ = run(capsys, "multiset", "--spec",
                       "1:5,2:5,3:5,4:5,5:5,6:5", "--count-only")
    assert (code, out) == (0, "317070224691728508\n")
    code, out, _ = run(capsys, "cf", "--n", "6", "--caps", "5,5,5,5,5,5")
    assert (code, out) == (2, "")
    # past the domino sum's guard: exit 2, naming the limit
    code, out, err = run(capsys, "multiset", "--spec", "1:10000000",
                         "--count-only")
    assert (code, out, err) == (
        2, "", "error: domino sum over 10000000 letters exceeds limit "
               "100000\n")
    # counts the box allowed, up to its largest content (1:9999, a
    # 10,000-entry box), print as they did under the box
    for spec, count in (("1000000:1", "1"), ("1:13,3:13", "10400600"),
                        ("1:5000", "1"), ("1:4000,2:1", "1"),
                        ("1:9999", "1")):
        code, out, _ = run(capsys, "multiset", "--spec", spec, "--count-only")
        assert (code, out) == (0, count + "\n")


def test_counts_print_past_the_int_digit_limit(capsys):
    # 1600! and f(1600) have more digits than int-to-str converts by
    # default; main lifts that cap while it runs and restores it
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = digit_cap()
    try:
        if before:
            sys.set_int_max_str_digits(0)
        expected = f"{math.factorial(1600)}\n"
    finally:
        if before:
            sys.set_int_max_str_digits(before)
    apart = ",".join(f"{v}:1" for v in range(1, 3200, 2))
    code, out, _ = run(capsys, "multiset", "--spec", apart, "--count-only")
    assert (code, out) == (0, expected)
    code, out, _ = run(capsys, "count", "--n", "1600", "--method", "formula")
    assert code == 0 and len(out) == 4435
    assert digit_cap() == before


def test_multiset_members_limit_in_text(capsys):
    spec = ("multiset", "--spec", "1:2,2:1,3:2")
    code, out, _ = run(capsys, *spec, "--members-limit", "1")
    assert code == 0
    assert out.splitlines() == [f"{rep} size=5" for rep in
                                ("11233", "12313", "12331",
                                 "23113", "23131", "23311")]
    code, out, _ = run(capsys, *spec, "--members-limit", "5")
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(len(line.split(": ")[1].split()) == 5 for line in lines)


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "--n", "3", "--caps", "1,1,1",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    by_exps = {tuple(r["exponents"]): r["coefficient"] for r in records}
    assert by_exps[(1, 1, 1)] == "2"
    assert all(isinstance(r["coefficient"], str) for r in records)


def test_f4(capsys):
    code, out, _ = run(capsys, "f4", "--exps", "2,1,0,2")
    assert code == 0 and out == "18\n"
    code, out, _ = run(capsys, "f4", "--exps", "1,1,1,1", "--t", "1")
    assert code == 0 and out == "8\n"
    code, out, _ = run(capsys, "f4", "--exps", "1,1,1")
    assert code == 1


def test_umbral(capsys):
    code, out, _ = run(capsys, "umbral", "--k", "1", "--upto", "8")
    assert code == 0 and out == "1 1 1 2 8 42 258 1824 14664\n"
    code, out, _ = run(capsys, "umbral", "--k", "2", "--upto", "4")
    assert out == "1 1 1 6 216\n"
    code, out, _ = run(capsys, "umbral", "--k", "2", "--upto", "4",
                       "--format", "json")
    assert code == 0 and out == '["1", "1", "1", "6", "216"]\n'


def test_umbral_profile_guard(capsys):
    code, out, err = run(capsys, "umbral", "--k", "3", "--upto", "67")
    assert code == 2 and out == ""
    assert err == "error: m*k = 201 exceeds limit 200\n"


def test_poset_beta_gamma(capsys):
    code, out, _ = run(capsys, "poset", "beta", "--gamma", "01")
    assert code == 0
    assert out.splitlines() == [
        "S=- alpha=1 beta=1",
        "S=1 alpha=2 beta=1",
        "S=2 alpha=2 beta=1",
        "S=1,2 alpha=3 beta=0",
    ]


def test_poset_beta_rank_guard(capsys):
    # rank 29: 2^28 flag-vector entries, refused before any is built
    code, out, err = run(capsys, "poset", "beta", "--gamma", "01" * 14)
    assert code == 2 and out == ""
    assert err == ("error: chain counts need 2^28 or more entries, "
                   "more than 2^21\n")


def test_poset_beta_json_and_file(capsys, tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(posets.GradedPoset.boolean_lattice(2).to_json(),
                    encoding="utf-8")
    code, out, _ = run(capsys, "poset", "beta", "--file", str(path),
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {"S": [1], "alpha": 2, "beta": 1} in rows
    # a fractional rank is refused, not truncated to a valid poset
    path.write_text('{"elements": ["a", "b", "c"], "ranks": '
                    '{"a": 0, "b": 1.9, "c": 2}, '
                    '"covers": [["a", "b"], ["b", "c"]]}', encoding="utf-8")
    code, out, err = run(capsys, "poset", "beta", "--file", str(path))
    assert (code, out, err) == (1, "", "error: bad rank 1.9\n")
    code, out, err = run(capsys, "poset", "beta")
    assert (code, out, err) == (1, "", "error: need --gamma or --file\n")


def test_poset_beta_dot(capsys):
    code, out, _ = run(capsys, "poset", "beta", "--gamma", "01",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_poset_extensions(capsys):
    code, out, _ = run(capsys, "poset", "extensions", "--qn", "5")
    assert code == 0 and out == "8\n"
    code, out, _ = run(capsys, "poset", "extensions", "--gamma", "0101")
    assert code == 0 and out == "8\n"
    code, out, _ = run(capsys, "poset", "extensions")
    assert code == 1


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--by", "rank", "--max", "4")
    assert code == 0 and out == "1 2 6 21\n"
    code, out, _ = run(capsys, "enumerate", "--by", "elements", "--max", "6",
                       "--format", "json")
    assert json.loads(out) == [1, 1, 2, 3, 7]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "count-triple")
    assert code == 0
    assert out.startswith("PASS  1 count-triple")
    code, _, err = run(capsys, "verify", "--suite", "no-such-suite")
    assert code == 1


def test_exit_codes(capsys):
    code, _, err = run(capsys, "count", "--n", "12", "--method", "bfs")
    assert code == 2
    assert err == "error: 479001600 arrangements exceed 10000000 members\n"
    code, _, err = run(capsys, "class", "--word", "3x1")
    assert code == 1
    code, _, err = run(capsys, "count", "--n", "3", "--method", "sorcery")
    assert code == 1
    code, _, err = run(capsys, "poset", "beta", "--file", "/no/such/file")
    assert code == 1


def test_series_json_round_trip(capsys):
    from salient.series import cf_series
    code, out, _ = run(capsys, "cf", "--n", "3", "--caps", "2,1,2",
                       "--format", "json")
    assert code == 0
    rebuilt = {tuple(r["exponents"]): int(r["coefficient"])
               for r in json.loads(out)}
    assert rebuilt == cf_series(3, (2, 1, 2)).coeffs


def test_class_json_round_trip(capsys):
    from salient.classes import class_of
    from salient.words import parse_word
    code, out, _ = run(capsys, "class", "--word", "2143", "--format", "json")
    payload = json.loads(out)
    members = tuple(parse_word(w) for w in payload["members"])
    original = class_of((2, 1, 4, 3))
    assert members == original.members
    assert parse_word(payload["representative"]) == original.representative
    assert payload["size"] == original.size


def test_guard_override(capsys):
    # --limit counts words: 9! = 362880 permutations fit a cap of 362880
    code, out, _ = run(capsys, "count", "--n", "9", "--method", "bfs",
                       "--limit", "362880")
    assert code == 0
    code, out2, _ = run(capsys, "count", "--n", "9", "--method", "formula")
    assert out == out2 == "132360\n"
    code, out, err = run(capsys, "count", "--n", "9", "--method", "bfs",
                         "--limit", "362879")
    assert (code, out) == (2, "")
    assert err == "error: 362880 arrangements exceed 362879 members\n"


FORTY = ",".join(map(str, range(1, 41)))
ORBIT_21 = ("1234567 1234576 1234657 1235467 1235476 1243567 1243576 1243657 "
            "1324567 1324576 1324657 1325467 1325476 2134567 2134576 2134657 "
            "2135467 2135476 2143567 2143576 2143657\n")


@pytest.mark.parametrize("argv, code, expected", [
    # one past each guard's default
    ("classes --n 11", 2, "39916800 arrangements exceed 10000000 members"),
    ("count --n 11 --method bfs", 2,
     "39916800 arrangements exceed 10000000 members"),
    (f"class --word {FORTY}", 2,
     f"orbit of {tuple(range(1, 41))} exceeds 10000000 members"),
    ("singletons --n 10", 2, "n = 10 exceeds brute-force limit 9"),
    ("multiset --spec 1:13,3:13", 2,
     "10400600 arrangements exceed 10000000 members"),
    ("multiset --spec 1:11", 0, "11111111111 size=1: 11111111111\n"),
    ("cf --n 1 --caps 25", 0, "".join(f"{k} 1\n" for k in range(26))),
    ("umbral --k 1 --upto 201", 2, "m*k = 201 exceeds limit 200"),
    # one guard, the ideals the count walks: q_21 has 42 of them
    ("poset extensions --qn 21", 0, "17711\n"),
    # the --limit override, lowered or raised
    ("classes --n 4 --limit 23", 2, "24 arrangements exceed 23 members"),
    ("classes --n 4 --limit 24 --members-limit 0", 0,
     "1234 size=5\n1342 size=3\n2314 size=3\n2341 size=3\n"
     "2413 size=1\n3142 size=1\n3412 size=5\n4123 size=3\n"),
    ("class --word 1234567 --limit 20", 2,
     "orbit of (1, 2, 3, 4, 5, 6, 7) exceeds 20 members"),
    ("class --word 1234567 --limit 21", 0, ORBIT_21),
    ("singletons --n 6 --limit 5", 2, "n = 6 exceeds brute-force limit 5"),
    ("multiset --spec 1:5,2:6 --limit 461", 2,
     "462 arrangements exceed 461 members"),
    ("multiset --spec 1:11 --limit 1", 0, "11111111111 size=1: 11111111111\n"),
    # cf has no --limit: its one guard is the exponent box
    ("cf --n 1 --caps 25 --limit 25", 1,
     "unrecognized arguments: --limit 25"),
    # nor has umbral: its one guard is the profile cap, k * upto <= 200
    ("umbral --k 1 --upto 5 --limit 5", 1,
     "unrecognized arguments: --limit 5"),
    ("umbral --k 2 --upto 101", 2, "m*k = 202 exceeds limit 200"),
    # nor has poset extensions: its guard is fixed
    ("poset extensions --qn 5 --limit 5", 1,
     "unrecognized arguments: --limit 5"),
])
def test_each_limit(capsys, argv, code, expected):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    if code == 1:
        # a usage error prints the usage before the message
        assert out == "" and err.endswith(f"\nerror: {expected}\n")
    elif code:
        assert (out, err) == ("", f"error: {expected}\n")
    else:
        assert (out, err) == (expected, "")


@pytest.mark.parametrize("argv", [
    ("cf", "--n", "3", "--caps", "1,x,1"),
    ("cf", "--n", "3", "--caps", ""),
    ("f4", "--exps", "1,a,1,1"),
])
def test_malformed_integer_lists(capsys, argv):
    flag, text = argv[-2:]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} needs comma-separated integers, got {text!r}\n"


def test_count_refuses_negative_n(capsys):
    for command, methods in (("count", ("bfs", "formula", "series")),
                             ("singletons", ("brute", "series"))):
        for method in methods:
            code, out, err = run(capsys, command, "--n", "-1",
                                 "--method", method)
            assert (code, out, err) == (1, "", "error: n must be >= 0\n")
    code, out, err = run(capsys, "classes", "--n", "-2")
    assert (code, out, err) == (1, "", "error: n must be >= 0\n")


@pytest.mark.parametrize("argv, expected", [
    # the caps are checked before the exponent box is sized
    ("cf --n 3 --caps 200,200,-201", "caps must be nonnegative"),
    ("enumerate --by rank --max -1", "rank bound must be >= 0"),
    ("enumerate --by elements --max -1", "element bound must be >= 0"),
])
def test_negative_sizes_exit_1(capsys, argv, expected):
    assert run(capsys, *argv.split()) == (1, "", f"error: {expected}\n")


NOT_A_CAP = "argument --limit: needs a non-negative integer, got '-1'"


@pytest.mark.parametrize("argv, limit_mb, expected", [
    ("classes --n 3 --limit -1", None, NOT_A_CAP),
    ("count --n 3 --method bfs --limit -1", None, NOT_A_CAP),
    ("class --word 123 --limit -1", None, NOT_A_CAP),
    ("singletons --n 3 --limit -1", None, NOT_A_CAP),
    ("multiset --spec 1:2,2:1 --limit -1", None, NOT_A_CAP),
    ("classes --n 3 --members-limit -1", None,
     NOT_A_CAP.replace("--limit", "--members-limit")),
    ("multiset --spec 1:2,2:1 --members-limit -1", None,
     NOT_A_CAP.replace("--limit", "--members-limit")),
    ("classes --n 3", "-1",
     "SALIENT_LIMIT_MB must be a non-negative integer, got '-1'"),
])
def test_negative_limits_exit_1(capsys, monkeypatch, argv, limit_mb,
                                expected):
    if limit_mb is not None:
        monkeypatch.setenv("SALIENT_LIMIT_MB", limit_mb)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    # argparse prints the usage before its own message
    assert err.endswith(f"error: {expected}\n")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both cost more to import than the whole CLI layer
    src = os.path.dirname(os.path.dirname(salient.__file__))
    code = ("import sys, salient.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
