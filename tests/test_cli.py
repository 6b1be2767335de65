import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

import pytest

import dolrep
from dolrep import analyze, cli
from dolrep.cli import ParseError, parse_system, report_to_dict, run, serialize_system
from corpus_util import random_system
from test_metamorphic import _family_e, _family_e_prime

G_FILE = """\
# Example system
alphabet: 0 1 2
axiom: 0
0 -> 0 1 2
1 -> 2
2 -> 1
"""

TM_FILE = """\
alphabet: 0 1
axiom: 0
0 -> 0 1
1 -> 1 0
"""

# |w| + |phi(w)| = 1000 + 1000^2 letters, over the oracle's default 10^6 budget
THOUSANDFOLD_FILE = f"alphabet: a\naxiom: {'a ' * 1000}\na -> {'a ' * 1000}\n"


def test_parse_system_g(system_g):
    assert parse_system(G_FILE) == system_g


def test_parse_accepts_empty_image():
    system = parse_system("alphabet: a b\naxiom: a\na -> a b\nb ->\n")
    assert system.morphism.image(1) == ()


def test_parse_multicharacter_symbols():
    system = parse_system("alphabet: lo hi\naxiom: lo\nlo -> lo hi\nhi -> hi\n")
    assert system.alphabet.symbols == ("lo", "hi")
    assert system.axiom == (0,)


def test_parse_comments_and_blank_lines():
    text = "\n# header\nalphabet: a  # trailing\n\naxiom: a\na -> a a\n"
    system = parse_system(text)
    assert system.morphism.image(0) == (0, 0)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", None, "empty input"),
        ("axiom: a\n", 1, "alphabet"),
        ("alphabet:\n", 1, "no symbols"),
        ("alphabet: a a\n", 1, "distinct"),
        ("alphabet: a\na -> a\n", 2, "axiom"),
        ("alphabet: a\naxiom:\n", 2, "non-empty"),
        ("alphabet: a\naxiom: b\n", 2, "undeclared"),
        ("alphabet: a\naxiom: a\nb -> a\n", 3, "undeclared"),
        ("alphabet: a\naxiom: a\na -> b\n", 3, "undeclared"),
        ("alphabet: a\naxiom: a\na -> a\na -> a\n", 4, "duplicate"),
        ("alphabet: a b\naxiom: a\na -> a\n", None, "missing rule"),
        ("alphabet: a\naxiom: a\na a\n", 3, "SYM -> SYM*"),
    ],
)
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def _two_letter_system(symbols: tuple[str, str]) -> dolrep.D0LSystem:
    alphabet = dolrep.Alphabet(symbols)
    return dolrep.D0LSystem(dolrep.Morphism(alphabet, alphabet, ((0, 1), (1,))), (0,))


def test_serialize_round_trips(system_g, system_h, thue_morse):
    # The declaration keywords are plain symbols after the first token of a line.
    keywords = _two_letter_system(("alphabet:", "axiom:"))
    for system in (system_g, system_h, thue_morse, keywords):
        text = serialize_system(system)
        assert parse_system(text) == system
        assert serialize_system(parse_system(text)) == text


# '#' would start a comment, and parse_system refuses '->' as a symbol.
@pytest.mark.parametrize("symbol", ["a#", "->"])
def test_serialize_refuses_a_symbol_the_format_cannot_hold(symbol):
    with pytest.raises(ValueError, match=f"symbol {symbol!r}"):
        serialize_system(_two_letter_system((symbol, "b")))


def test_report_dict_schema(system_g):
    data = report_to_dict(analyze(system_g))
    assert list(data) == [
        "system",
        "pushy",
        "repetitive",
        "strongly_repetitive",
        "bounded_letters",
        "simplification_steps",
        "classes",
    ]
    assert data["system"]["rules"] == {"0": ["0", "1", "2"], "1": ["2"], "2": ["1"]}
    assert data["bounded_letters"] == ["1", "2"]
    assert data["classes"] == [
        {
            "representative": ["1", "1", "2", "2"],
            "conjugates": [
                ["1", "1", "2", "2"],
                ["1", "2", "2", "1"],
                ["2", "1", "1", "2"],
                ["2", "2", "1", "1"],
            ],
            "source": "bounded",
        }
    ]


def _stdin(text: str) -> io.TextIOWrapper:
    """A standard input that holds text, UTF-8 encoded, with its bytes
    behind `.buffer` as a real one has."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch):
    assert parse_system("\ufeff" + G_FILE) == parse_system(G_FILE)
    path = tmp_path / "bom.dol"
    path.write_bytes(b"\xef\xbb\xbf" + G_FILE.encode())
    assert run(["analyze", str(path)]) == 0
    assert "1122" in capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", _stdin("\ufeff" + G_FILE))
    assert run(["analyze", "-"]) == 0
    assert "1122" in capsys.readouterr().out


def test_run_text_report(tmp_path, capsys):
    rc = run(["analyze", _write(tmp_path, "g.dol", G_FILE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pushy: yes" in out
    assert "repetitive: yes" in out
    assert "1122" in out


def test_run_json_report(tmp_path, capsys):
    rc = run(["analyze", _write(tmp_path, "tm.dol", TM_FILE), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["repetitive"] is False
    assert data["pushy"] is False
    assert data["classes"] == []


def test_run_verify_agreement(tmp_path, capsys):
    rc = run(["analyze", _write(tmp_path, "g.dol", G_FILE), "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle: agreement" in out


def test_run_parse_error_exit_code(tmp_path, capsys):
    rc = run(["analyze", _write(tmp_path, "bad.dol", "alphabet: a\naxiom: b\n")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 2" in err


def test_run_missing_file(capsys):
    rc = run(["analyze", "/nonexistent/path.dol"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_run_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.dol"
    path.write_bytes(b"alphabet: a\xff\naxiom: a\na -> a\n")
    rc = run(["analyze", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(G_FILE))
    rc = run(["analyze", "-"])
    assert rc == 0
    assert "repetitive: yes" in capsys.readouterr().out


def test_run_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    from dolrep import EngineInvariantError
    import dolrep.cli as cli_mod

    def boom(system):
        raise EngineInvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "analyze", boom)
    rc = run(["analyze", _write(tmp_path, "g.dol", G_FILE)])
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


def test_run_invariant_failure_in_lando_check_exit_code(tmp_path, monkeypatch, capsys):
    # a -> a a repeats a in phi(a), so the Lando check reads the prefix
    # before the second a; with no letters expanded that occurrence is
    # missing, which must end as a typed internal error, not a traceback.
    import dolrep.unbounded

    monkeypatch.setattr(dolrep.unbounded, "_expand", lambda phi, word, depth: iter(()))
    rc = run(["analyze", _write(tmp_path, "aa.dol", "alphabet: a\naxiom: a\na -> a a\n")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_run_verify_disagreement_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "observed_classes", lambda system, params: set())
    rc = run(["analyze", _write(tmp_path, "g.dol", G_FILE), "--verify"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "oracle: disagreement\n  engine:   1122\n  observed: (none)\n" in out


def test_run_verify_class_longer_than_max_len(tmp_path, capsys):
    # U -> U p0, p_i -> p_(i+1), p8 -> p0: the one class p0..p8 has 9 letters,
    # past the oracle's default factor length 8, so the bound follows the
    # longest reported class instead of reading a disagreement.  The class
    # shows only deep down: phi^n(U) has n + 1 letters, so the iterates fit
    # the letter budget up to depth 1 412.
    cycle = [f"p{i}" for i in range(9)]
    rules = "".join(f"{a} -> {b}\n" for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    text = f"alphabet: U {' '.join(cycle)}\naxiom: U\nU -> U p0\n{rules}"
    rc = run(["analyze", _write(tmp_path, "cycle9.dol", text), "--verify"])
    out = capsys.readouterr().out
    assert f"representative {' '.join(cycle)};" in out
    assert rc == 0
    assert "oracle: agreement" in out


def test_run_verify_oracle_budget_exit_code(tmp_path, capsys):
    rc = run(["analyze", _write(tmp_path, "a1000.dol", THOUSANDFOLD_FILE), "--verify"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "representative a;" in captured.out
    assert captured.err == "error: oracle: iterates 0 to 1 hold 1001000 letters, over the 1000000-letter budget\n"


def test_run_verify_agrees_on_the_corpus(tmp_path, capsys):
    # The acceptance corpus (tests/test_acceptance.py), with no oracle setting.
    path = tmp_path / "system.dol"
    failed = []
    for i in range(500):
        path.write_text(serialize_system(random_system(random.Random(1000 + i))))
        rc = run(["analyze", str(path), "--verify"])
        out = capsys.readouterr().out
        if rc != 0 or not out.endswith("oracle: agreement\n"):
            failed.append((i, rc))
    assert failed == []


# Their old defaults: the options are gone, not just their range checks.
@pytest.mark.parametrize("flag, value", [("--depth", "12"), ("--max-len", "8"), ("--power", "4")])
def test_removed_oracle_flag_is_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", _write(tmp_path, "g.dol", G_FILE), "--verify", flag, value])
    assert exc.value.code == 2
    assert "usage: dolrep" in capsys.readouterr().err


def _src_env() -> dict[str, str]:
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(dolrep.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("module", ["dolrep", "dolrep.cli"])
def test_python_dash_m_runs_cli(tmp_path, module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "analyze", _write(tmp_path, "g.dol", G_FILE)],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "representative 1122" in proc.stdout


def _cyclic_file(length: int) -> str:
    """a_i -> a_(i+1) for i < length - 1, a_(length-1) -> a_0 a_0, axiom a_0."""
    lines = ["alphabet: " + " ".join(f"a{i}" for i in range(length)), "axiom: a0"]
    lines += [f"a{i} -> a{i + 1}" for i in range(length - 1)]
    lines.append(f"a{length - 1} -> a0 a0")
    return "\n".join(lines) + "\n"


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # The --json report of 2000 cyclic letters has about 430 KB, several
    # times a pipe buffer, so the writer is still writing when the pipe closes.
    path = _write(tmp_path, "cyc.dol", _cyclic_file(2000))
    with subprocess.Popen(
        [sys.executable, "-m", "dolrep", "analyze", path, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_src_env(),
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            status = proc.wait(timeout=120)
        finally:
            proc.kill()
        err = proc.stderr.read()
    assert first == "{\n"
    assert status == 141, err
    assert err == ""


def _shell(redirect: str, *args: str, stdin: bytes | None = None, env=None) -> subprocess.CompletedProcess:
    """`python -m dolrep analyze ARGS` run by sh after the redirection."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m dolrep analyze "$@" {redirect}', sys.executable, *args],
        input=stdin,
        capture_output=True,
        env=env or _src_env(),
        timeout=120,
    )


def test_closed_stdin_is_an_input_error():
    proc = _shell("<&-", "-")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == b"error: standard input is closed\n"


def test_closed_stdout_at_start_exits_141(tmp_path):
    proc = _shell(">&-", _write(tmp_path, "g.dol", G_FILE))
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == b""


def test_non_utf8_stdin_is_a_parse_error_in_the_c_locale():
    # The C and POSIX locales turn on Python's UTF-8 mode, whose standard
    # input decodes bytes that are not UTF-8 with surrogateescape.
    text = b"alphabet: a\xff\naxiom: a\xff\na\xff -> a\xff a\xff\n"
    proc = _shell("", "-", stdin=text, env=dict(_src_env(), LC_ALL="C"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1, proc.stderr


def test_interrupt_exits_130_without_traceback():
    # stdin stays open, so the child blocks reading it however fast analysis gets.
    with subprocess.Popen(
        [sys.executable, "-m", "dolrep", "analyze", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_src_env(),
    ) as proc:
        try:
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            status = proc.wait(timeout=120)
        finally:
            proc.kill()
        err = proc.stderr.read()
    assert status == 130, err
    assert "Traceback" not in err, err


# Run in a fresh interpreter: the analysis path must not import numpy, and the
# oracle's first scan must.
_IMPORT_BOUNDARY = """
import contextlib, io, json, sys
import dolrep
from dolrep import analyze, make_system
from dolrep.cli import run

system = make_system({"0": "012", "1": "2", "2": "1"}, "0")
report = analyze(system)
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [run(["analyze", sys.argv[1]]), run(["analyze", sys.argv[1], "--json"])]
before = "numpy" in sys.modules
observed = dolrep.observed_classes(system)
print(json.dumps({
    "codes": codes,
    "reports": "representative 1122" in out.getvalue() and '"representative"' in out.getvalue(),
    "numpy_before_oracle": before,
    "numpy_after_oracle": "numpy" in sys.modules,
    "oracle_agrees": observed == {cls.representative for cls in report.classes},
}))
"""


def test_numpy_is_loaded_only_by_the_oracle(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY, _write(tmp_path, "g.dol", G_FILE)],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0, 0],
        "reports": True,
        "numpy_before_oracle": False,
        "numpy_after_oracle": True,
        "oracle_agrees": True,
    }


def _main_after(prelude: str, *args: str) -> subprocess.CompletedProcess:
    """`dolrep analyze ARGS` through cli.main in a fresh interpreter, after
    the prelude statement."""
    code = f"{prelude}\nfrom dolrep.cli import main\nmain()\n"
    return subprocess.run(
        [sys.executable, "-c", code, "analyze", *args],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )


def _address_space_limit(megabytes: int) -> str:
    """A prelude that caps the child's own address space."""
    return f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({megabytes} << 20, {megabytes} << 20))"


def test_verify_without_numpy_exits_4(tmp_path):
    proc = _main_after("import sys; sys.modules['numpy'] = None", _write(tmp_path, "g.dol", G_FILE), "--verify")
    assert proc.returncode == 4, proc.stderr
    assert "representative 1122" in proc.stdout
    assert proc.stderr.startswith("error: oracle: ") and proc.stderr.count("\n") == 1, proc.stderr


def _family_b_file(k: int) -> str:
    """a -> a b1 c1, b_i -> b_(i+1) b_(i+1), b_k -> z, z -> z, c_i -> c_(i+1),
    c_k -> a, axiom a: its analysis builds words of about 2^k letters."""
    bs, cs = [f"b{i}" for i in range(1, k + 1)], [f"c{i}" for i in range(1, k + 1)]
    lines = ["alphabet: a " + " ".join(bs + cs) + " z", "axiom: a", "a -> a b1 c1"]
    lines += [f"{b} -> {n} {n}" for b, n in zip(bs, bs[1:])] + [f"b{k} -> z", "z -> z"]
    lines += [f"{c} -> {n}" for c, n in zip(cs, cs[1:])] + [f"c{k} -> a"]
    return "\n".join(lines) + "\n"


def test_out_of_memory_exits_5(tmp_path):
    proc = _main_after(_address_space_limit(200), _write(tmp_path, "b20.dol", _family_b_file(20)))
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr == "error: out of memory\n"


def _cap_address_space_at_one_gib() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("family", [_family_e, _family_e_prime])
def test_a_thousand_erasing_letters_map_back_in_linear_space(family):
    # Pushing the period z through one k per erasing step doubles it each
    # time: 2^1000 letters, where the primitive root stays z.
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dolrep", "analyze", "-"],
        input=serialize_system(family(1000)),
        capture_output=True,
        text=True,
        env=_src_env(),
        preexec_fn=_cap_address_space_at_one_gib,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert "infinite periodic factor classes: 1\n" in proc.stdout
    assert "representative z; source unbounded; conjugates: z\n" in proc.stdout
    assert elapsed < 5, elapsed
