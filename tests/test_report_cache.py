"""Result cache behavior and full-report structure, determinism, and
skip handling."""

import json
import logging
import os
import shutil
import subprocess
import sys

import pytest

from grifcalc import report
from grifcalc.cache import Cache, cache_key, payload_digest
from grifcalc.cli import run_command
from grifcalc.report import (CHECK_ORDER, ReportOptions, full_report)

GOLDEN_REPORT = os.path.join(os.path.dirname(__file__), "data",
                             "report_stable_kermu6.json")


def test_cache_round_trip(tmp_path):
    cache = Cache(str(tmp_path / "c"))
    assert cache.get("op", {"x": 1}) is None
    cache.put("op", {"x": 1}, {"value": [1, 2, 3]})
    assert cache.get("op", {"x": 1}) == {"value": [1, 2, 3]}
    assert cache.get("op", {"x": 2}) is None
    assert cache.get("other", {"x": 1}) is None


def test_cache_key_is_param_order_independent():
    assert cache_key("op", {"a": 1, "b": 2}) == cache_key("op", {"b": 2, "a": 1})
    assert cache_key("op", {"a": 1}) != cache_key("op", {"a": 2})


def test_cache_tamper_detection(tmp_path, caplog):
    cache = Cache(str(tmp_path))
    cache.put("op", {"x": 1}, {"value": 7})
    path = cache._path(cache_key("op", {"x": 1}))
    entry = json.load(open(path))
    entry["payload"]["value"] = 8  # digest now stale
    json.dump(entry, open(path, "w"))
    with caplog.at_level(logging.WARNING, logger="grifcalc.cache"):
        assert cache.get("op", {"x": 1}) is None
    assert any("digest" in r.message for r in caplog.records)


def test_cache_corrupt_file_is_a_miss(tmp_path, caplog):
    cache = Cache(str(tmp_path))
    cache.put("op", {}, 1)
    path = cache._path(cache_key("op", {}))
    open(path, "w").write("{ not json")
    with caplog.at_level(logging.WARNING, logger="grifcalc.cache"):
        assert cache.get("op", {}) is None


def test_cache_write_failure_is_soft(tmp_path, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    cache = Cache(str(blocker))  # a file, not a directory
    with caplog.at_level(logging.WARNING, logger="grifcalc.cache"):
        cache.put("op", {}, {"v": 1})  # must not raise
    assert cache.get("op", {}) is None


def test_cache_entry_is_its_key_digest_and_payload(tmp_path):
    cache = Cache(str(tmp_path))
    cache.put("op", {"x": 1}, {"value": 7})
    key = cache_key("op", {"x": 1})
    with open(cache._path(key), encoding="utf-8") as fh:
        entry = json.load(fh)
    assert entry == {"key": key, "digest": payload_digest({"value": 7}),
                     "payload": {"value": 7}}


def test_cache_entry_under_another_keys_file_name_is_a_miss(tmp_path, caplog):
    # the digest covers the payload only; the stored key ties the entry to
    # its own file name
    cache = Cache(str(tmp_path))
    cache.put("kermu.span", {"nvars": 5}, {"verdict": True})
    shutil.copyfile(cache._path(cache_key("kermu.span", {"nvars": 5})),
                    cache._path(cache_key("kermu.span", {"nvars": 6})))
    with caplog.at_level(logging.WARNING, logger="grifcalc.cache"):
        assert cache.get("kermu.span", {"nvars": 6}) is None
    assert any("another key" in r.message for r in caplog.records)
    assert cache.get("kermu.span", {"nvars": 5}) == {"verdict": True}


def test_cache_env_var_and_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIFCALC_CACHE", str(tmp_path / "envcache"))
    cache = Cache()
    assert cache.directory == str(tmp_path / "envcache")
    monkeypatch.delenv("GRIFCALC_CACHE")
    assert Cache().directory == ".grifcalc-cache"


def test_payload_digest_canonicalization():
    assert payload_digest({"a": 1, "b": [2]}) == payload_digest({"b": [2], "a": 1})


# The on-disk format, pinned by value: the key and the digest below were
# computed with hashlib.sha256 before cache.py took sha256 from CPython's
# built-in module.  Entry file names and digests must never drift.
PINNED_OP = ("kermu.span_rank", {"nvars": 9, "mode": "span_rank",
                                 "exact": True, "prime": None})
PINNED_KEY = "9087f666fea646ab1dbbe24c15ad6e843a5ef6a67ff01cfe690550eda0f4e17d"
PINNED_PAYLOAD = {"verdict": True, "counts": [5376, 29602, 6972],
                  "note": "r\u00e9sum\u00e9"}
PINNED_DIGEST = \
    "809a1135d5ee8e5bbb2f21e09bb5863ca3003280997e4c566dfd0272b988eed4"

_HASHLIB_FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from grifcalc import cache
print(json.dumps([cache.sha256.__module__, cache.cache_key(*%r),
                  cache.payload_digest(%r)]))
""" % (PINNED_OP, PINNED_PAYLOAD)


def test_cache_key_and_digest_are_pinned_by_value():
    assert cache_key(*PINNED_OP) == PINNED_KEY
    assert payload_digest(PINNED_PAYLOAD) == PINNED_DIGEST


def test_the_hashlib_fallback_gives_the_pinned_values():
    # a fresh interpreter in which neither built-in sha256 module imports,
    # so that cache.py falls back to hashlib
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    out = subprocess.run([sys.executable, "-c", _HASHLIB_FALLBACK], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == ["_hashlib", PINNED_KEY, PINNED_DIGEST]


def test_report_cache_keys_are_pinned(tmp_path):
    # existing cache directories keep hitting only while the (op, params)
    # of every cached check stay exactly these
    cache = Cache(str(tmp_path / "c"))
    full_report(ReportOptions(kermu_vars=5, skip=("hodge", "nl",
                                                  "independence"),
                              cache=cache))
    keys = [("fermat.census", {"d": 3, "nvars": 8, "type": [3, 3]})]
    for mode in ("span_rank", "standardize"):
        keys.append(("kermu." + mode, {"nvars": 5, "mode": mode,
                                       "exact": True, "prime": None}))
    assert (sorted(os.listdir(cache.directory))
            == sorted(os.path.basename(cache._path(cache_key(op, params)))
                      for op, params in keys))


def test_cold_report_cache_entries_are_pinned(tmp_path):
    # a cache filled by an earlier version keeps reading warm only while
    # the entries a cold report writes keep these file names and digests
    cache = str(tmp_path / "c")
    code, _ = run_command(["report", "--json", "--kermu-vars", "6",
                           "--cache", cache])
    assert code == 0
    entries = {}
    for name in os.listdir(cache):
        with open(os.path.join(cache, name)) as fh:
            entries[name] = json.load(fh)["digest"]
    assert entries == {
        "0220af649153db3759d261a043b56118b4defc02d7be3ca85c6e6fce6d0d436d"
        ".json":
        "9dc8b91f1a16511a0e9672df3bdf932b53e61705b10a10528894a2b2de537730",
        "8001555a94db26c7e76a95a5b8bc94b3946129c227595d7b4f2961cdfd6cda58"
        ".json":
        "f3a3c342a7600d72f5e0bb28e88373bb6a35aff36632ed420351a88fc83c6ad7",
        "9300dcea99b0ed2b859af5c0f4a0ebd8460805e67eab95e9fce9bd5a6922569a"
        ".json":
        "05a659025554d13161a48390f59305646dca8eb600d343c637f748da1fc01681",
    }


def test_report_check_order_is_stable():
    doc = full_report(ReportOptions(skip=("kermu", "nl", "hodge", "fermat",
                                          "independence")))
    assert tuple(c.check_id for c in doc.checks) == CHECK_ORDER


def test_report_skip_groups():
    doc = full_report(ReportOptions(skip=("kermu",),
                                    pairs=((1, 1), (2, 1))))
    by_id = {c.check_id: c for c in doc.checks}
    assert by_id["kermu.span"].status == "skip"
    assert by_id["kermu.standardize"].status == "skip"
    assert by_id["fermat.census"].status == "pass"
    assert not doc.failed


def test_report_flag_check_never_fails_the_run():
    doc = full_report(ReportOptions(skip=("kermu", "nl", "independence")))
    by_id = {c.check_id: c for c in doc.checks}
    flag = by_id["hodge.h33-reference-value"]
    assert flag.status == "flag"
    assert flag.details["reference_value"] == 36
    assert flag.details["computed_total"] == 71
    assert flag.details["difference"] == 35
    assert flag.details["type33_orbit_count"] == 35
    assert not doc.failed


def test_report_determinism_two_cold_runs(tmp_path):
    argv = ["report", "--json", "--stable", "--kermu-vars", "5"]
    code1, out1 = run_command(argv + ["--cache", str(tmp_path / "one")])
    code2, out2 = run_command(argv + ["--cache", str(tmp_path / "two")])
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_warm_cache_reproduces_cold_output(tmp_path):
    argv = ["report", "--json", "--stable", "--kermu-vars", "5",
            "--cache", str(tmp_path)]
    code1, out1 = run_command(argv)
    code2, out2 = run_command(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert os.listdir(tmp_path)  # something was actually cached


def test_report_stable_zeroes_timings():
    doc = full_report(ReportOptions(stable=True,
                                    skip=("kermu", "nl", "hodge", "fermat",
                                          "independence")))
    assert all(v == 0.0 for v in doc.timings.values())
    assert set(doc.timings) == set(CHECK_ORDER)


def test_report_document_json_shape():
    doc = full_report(ReportOptions(skip=("kermu", "nl", "hodge", "fermat",
                                          "independence")))
    data = doc.to_json()
    assert set(data) == {"tool_version", "checks", "timings"}
    for check in data["checks"]:
        assert set(check) == {"check_id", "status", "details"}
        assert check["status"] in ("pass", "fail", "skip", "flag")


def test_report_records_are_frozen():
    options = ReportOptions(skip=tuple(CHECK_ORDER))
    doc = full_report(options)
    check = doc.checks[0]
    for record in (options, doc, check):
        for name in record.__slots__ + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert options == ReportOptions(skip=tuple(CHECK_ORDER))
    assert check == report.CheckResult(CHECK_ORDER[0], "skip", {})
    assert not doc.failed and len(doc.checks) == len(CHECK_ORDER)


def test_report_cli_exit_zero_on_default_flags():
    code, out = run_command(["report", "--kermu-vars", "5"])
    assert code == 0
    assert "overall: OK" in out


def test_report_detects_dependent_pairs_as_failure():
    doc = full_report(ReportOptions(pairs=((1, 1), (1, 1)),
                                    skip=("kermu", "nl", "hodge", "fermat")))
    by_id = {c.check_id: c for c in doc.checks}
    assert by_id["independence.rank"].status == "fail"
    assert doc.failed
    code, _ = run_command(["report", "--pairs", "1,1;1,1", "--skip", "kermu"])
    assert code == 1


def test_h33_flag_is_computed(monkeypatch):
    h33 = "hodge.h33-reference-value"
    others = tuple(c for c in CHECK_ORDER if c != h33)

    def run():
        doc = full_report(ReportOptions(skip=others))
        return doc, {c.check_id: c for c in doc.checks}[h33]

    doc, check = run()
    assert check.status == "flag" and not doc.failed
    monkeypatch.setattr(report, "H33_REFERENCE", 30)
    doc, check = run()
    assert check.status == "fail" and doc.failed
    assert check.details["difference"] == 41


def test_stable_report_matches_golden_bytes(tmp_path):
    # captured from the release before the elimination and ring-cache
    # refactor; any byte change in the stable report is a regression
    code, out = run_command(["report", "--json", "--stable", "--kermu-vars",
                             "6", "--cache", str(tmp_path / "c")])
    assert code == 0
    with open(GOLDEN_REPORT, encoding="utf-8") as fh:
        assert out + "\n" == fh.read()


_REPORT5 = ["report", "--json", "--stable", "--kermu-vars", "5", "--cache"]
_SPAN5 = ("kermu.span_rank", {"nvars": 5, "mode": "span_rank",
                              "exact": True, "prime": None})


def test_report_recomputes_a_kermu_entry_that_holds_another_key(tmp_path,
                                                                 caplog):
    code, cold = run_command(_REPORT5 + [str(tmp_path / "cold")])
    assert code == 0
    # an entry with a valid digest but a false verdict, written for another
    # key and copied to the file name of the n = 5 span check
    cache = Cache(str(tmp_path / "c"))
    forged = {"verdict": False, "forged": True}
    other = ("kermu.span_rank", dict(_SPAN5[1], nvars=4))
    cache.put(*other, forged)
    shutil.copyfile(cache._path(cache_key(*other)),
                    cache._path(cache_key(*_SPAN5)))
    with caplog.at_level(logging.WARNING, logger="grifcalc.cache"):
        code, out = run_command(_REPORT5 + [cache.directory])
    assert code == 0
    assert out == cold
    assert any("another key" in r.message for r in caplog.records)


def test_entries_with_created_at_still_read_warm(tmp_path, caplog,
                                                 monkeypatch):
    # entries written before the cache dropped its created_at field
    directory = tmp_path / "c"
    code, cold = run_command(_REPORT5 + [str(directory)])
    assert code == 0
    for name in os.listdir(directory):
        with open(directory / name, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["created_at"] = "2026-01-01T00:00:00.000000+00:00"
        with open(directory / name, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
    hits = []
    get = Cache.get

    def counting_get(self, op, params):
        payload = get(self, op, params)
        hits.append(payload is not None)
        return payload

    monkeypatch.setattr(Cache, "get", counting_get)
    with caplog.at_level(logging.WARNING, logger="grifcalc.cache"):
        code, warm = run_command(_REPORT5 + [str(directory)])
    assert code == 0
    assert warm == cold
    assert hits == [True, True, True]
    assert not caplog.records
