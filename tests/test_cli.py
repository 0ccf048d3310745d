"""Tests for the command-line shell (in-process and via subprocess)."""

import io
import subprocess
import sys


from repro.cli import Shell
from repro.workloads import tiny_beer_database


def run_shell(text: str, database=None):
    """Feed ``text`` to an in-process shell; return (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    shell = Shell(database or tiny_beer_database(), out=out, err=err)
    shell.run(io.StringIO(text))
    return out.getvalue(), err.getvalue()


class TestXraInput:
    def test_simple_query(self):
        out, err = run_shell("? proj[name](beer);\n")
        assert "Pils" in out
        assert not err

    def test_multiline_statement_buffered(self):
        out, err = run_shell("? proj[name](\nbeer\n);\n")
        assert "Pils" in out
        assert not err

    def test_semicolon_inside_string_not_terminator(self):
        out, err = run_shell("? sel[name = 'no; problem'](beer);\n")
        assert "0 tuple(s)" in out
        assert not err

    def test_statement_changes_database(self):
        db = tiny_beer_database()
        run_shell("delete(beer, beer);\n.tables\n", db)
        assert not db["beer"]

    def test_parse_error_reported_not_fatal(self):
        out, err = run_shell("? bogus(beer);\n? proj[name](beer);\n")
        assert "error:" in err
        assert "Pils" in out  # the shell kept going

    def test_transaction_brackets(self):
        out, err = run_shell(
            "( x := sel[alcperc > 9.0](beer); delete(beer, x); ? beer );\n"
        )
        assert "tuple(s)" in out
        assert not err


class TestMetaCommands:
    def test_tables(self):
        out, _err = run_shell(".tables\n")
        assert "beer" in out and "brewery" in out

    def test_schema(self):
        out, _err = run_shell(".schema beer\n")
        assert "alcperc" in out

    def test_schema_unknown(self):
        _out, err = run_shell(".schema nope\n")
        assert "error" in err

    def test_sql_query(self):
        out, _err = run_shell(
            '.sql SELECT country, AVG(alcperc) FROM beer, brewery '
            "WHERE beer.brewery = brewery.name GROUP BY country\n"
        )
        assert "Netherlands" in out

    def test_sql_dml(self):
        db = tiny_beer_database()
        out, _err = run_shell(".sql DELETE FROM beer\n", db)
        assert "ok" in out
        assert not db["beer"]

    def test_explain(self):
        out, _err = run_shell(
            ".explain proj[%1](sel[%6 = 'Netherlands']"
            "(join[%2 = %4](beer, brewery)))\n"
        )
        assert "logical:" in out
        assert "optimized:" in out
        assert "hash-join" in out

    def test_time(self):
        out, _err = run_shell(".time\n")
        assert "logical time: 0" in out

    def test_quit_stops_processing(self):
        out, _err = run_shell(".quit\n? beer;\n")
        assert "tuple" not in out

    def test_unknown_command(self):
        out, _err = run_shell(".frobnicate\n")
        assert "unknown command" in out

    def test_help(self):
        out, _err = run_shell(".help\n")
        assert ".tables" in out


class TestCsvRoundTrip:
    def test_save_and_load(self, tmp_path):
        db = tiny_beer_database()
        path = tmp_path / "beer.csv"
        out, err = run_shell(
            f".save beer {path}\n.load beer2 {path}\n.tables\n", db
        )
        assert "saved" in out and "loaded" in out
        assert db["beer2"] == db["beer"]

    def test_load_usage_error(self):
        _out, err = run_shell(".load onlyname\n")
        assert "usage" in err

    def test_save_unknown_relation(self, tmp_path):
        _out, err = run_shell(f".save ghost {tmp_path / 'x.csv'}\n")
        assert "error" in err


class TestSubprocessEntryPoints:
    def test_script_file(self, tmp_path):
        script = tmp_path / "demo.xra"
        script.write_text(
            "create t (a: int);\n"
            "insert(t, tuples[(1); (1); (2)]);\n"
            "? groupby[(), CNT, _](t);\n"
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "3" in completed.stdout

    def test_sql_script_file(self, tmp_path):
        script = tmp_path / "demo.sql"
        script.write_text("SELECT 1 + 1 AS two FROM t")
        # The table t does not exist: the shell must report, not crash.
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--sql", str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "error" in completed.stderr

    def test_stdin_pipe(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro"],
            input=".tables\n.quit\n",
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0


class TestProfileCommand:
    def test_profile_renders_counters(self):
        out, err = run_shell(
            ".profile proj[%1](join[%2 = %4](beer, brewery))\n"
        )
        assert "operator" in out
        assert "scan beer" in out
        assert "result:" in out
        assert not err

    def test_profile_parse_error(self):
        _out, err = run_shell(".profile bogus(beer)\n")
        assert "error" in err
