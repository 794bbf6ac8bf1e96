"""Byte-identity corpus: every subcommand, text and --json, exits 0, 1 and 2.

tests/data/cli_corpus.json lists command lines with the exit code and the
output that run_command gave for each, or the sha256 of a long output.
Wall-clock fields (kermu's "elapsed", the report's "timings" and the
seconds in kermu's text line) are masked first.  Each command runs with
its own empty cache, through the GRIFCALC_CACHE directory that conftest
gives every test.

A change that alters an output on purpose rewrites the expectations with

    PYTHONPATH=src python tests/test_cli_corpus.py

and names the changed entries in CHANGES.md.  With --check the script
rewrites nothing: it compares every entry, lists each mismatch and exits 1
if there is one, so that the corpus can be checked under an interpreter
that has no pytest.
"""

import hashlib
import json
import os
import re
import sys
import tempfile

from grifcalc.cli import run_command

CORPUS = os.path.join(os.path.dirname(__file__), "data", "cli_corpus.json")

# outputs up to this length are stored as text, longer ones as a sha256
INLINE = 240

_MASKS = (
    (re.compile(r'"elapsed":[-+0-9.e]+'), '"elapsed":"*"'),
    (re.compile(r'"timings":\{[^{}]*\}'), '"timings":"*"'),
    (re.compile(r"(verdict \w+), [0-9.]+s\b"), r"\1, *s"),
)


def masked(output):
    for pattern, replacement in _MASKS:
        output = pattern.sub(replacement, output)
    return output


def expectation(argv):
    code, out = run_command(argv)
    out = masked(out)
    if len(out) <= INLINE:
        return {"argv": argv, "code": code, "output": out}
    return {"argv": argv, "code": code,
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


def _load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


_ENTRIES = _load()


def test_corpus_covers_every_subcommand_and_exit_code():
    commands = {tuple(e["argv"][:2]) for e in _ENTRIES}
    for command in (("jring", "basis"), ("jring", "nf"), ("jring", "pairing"),
                    ("hodge", "hypersurface"), ("hodge", "ci"),
                    ("fermat", "classes"), ("nl", "matrix"), ("nl", "det"),
                    ("nl", "deltanu"), ("nl", "independence"),
                    ("kermu", "verify")):
        assert command in commands, command
    assert {e["argv"][0] for e in _ENTRIES} >= {"independence", "report"}
    assert {e["code"] for e in _ENTRIES} == {0, 1, 2}
    assert any("--json" in e["argv"] for e in _ENTRIES)


def test_masks_hide_only_wall_clock_fields():
    assert masked('{"elapsed":0.138904,"exact":true}') == \
        '{"elapsed":"*","exact":true}'
    assert masked('"timings":{"a.b":0.1,"c":2e-05},"x":1') == \
        '"timings":"*","x":1'
    assert masked("mode span_rank, verdict True, 0.005s") == \
        "mode span_rank, verdict True, *s"
    assert masked("verdict True, 0.005") == "verdict True, 0.005"


def pytest_generate_tests(metafunc):
    # one test per entry, without importing pytest at module level
    if "entry" in metafunc.fixturenames:
        metafunc.parametrize("entry", _ENTRIES, ids=[
            " ".join(e["argv"])[:60] for e in _ENTRIES])


def test_command_output_is_byte_identical(entry):
    assert expectation(entry["argv"]) == entry


def _main(args):
    if args not in ([], ["--check"]):
        print("usage: test_cli_corpus.py [--check]", file=sys.stderr)
        return 2
    entries = []
    for entry in _ENTRIES:
        with tempfile.TemporaryDirectory() as cache:
            os.environ["GRIFCALC_CACHE"] = cache
            entries.append(expectation(entry["argv"]))
    if args:
        wrong = [" ".join(old["argv"])
                 for old, new in zip(_ENTRIES, entries) if old != new]
        for line in wrong:
            print("mismatch: %s" % line)
        print("%d of %d entries match" % (len(entries) - len(wrong),
                                          len(entries)))
        return 1 if wrong else 0
    lines = (json.dumps(e, ensure_ascii=False) for e in entries)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write("[\n%s\n]\n" % ",\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
