import gc
import weakref
from pathlib import Path

import pytest

from forcinglab import cli, formats
from forcinglab.cli import main

DATA = Path(__file__).parent / "data" / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_mk_and_check(tmp_path, capsys):
    out = tmp_path / "c.poset"
    code, _ = run(capsys, "mk", "cohen", "--i", "1", "--depth", "1", "--out", str(out))
    assert code == 0
    assert out.exists() and (tmp_path / "c.poset.families").exists()
    code, report = run(capsys, "poset", "check", str(out))
    assert code == 0
    assert "conditions 3" in report
    assert "separative yes" in report


def test_mk_all_constructors(tmp_path, capsys):
    specs = [
        ("random", "--k", "1"),
        ("amoeba", "--k", "2", "--eps", "1/4"),
        ("collapse", "--x", "2", "--len", "2"),
        ("mathias", "--universe", "4"),
        ("marker", "--half-width", "2"),
    ]
    for i, spec in enumerate(specs):
        out = tmp_path / f"p{i}.poset"
        code, _ = run(capsys, "mk", *spec, "--out", str(out))
        assert code == 0
        code, _ = run(capsys, "poset", "check", str(out))
        assert code == 0


def test_poset_check_rejects_missing_top(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_text("poset bad\nelem a\n")
    code, _ = run(capsys, "poset", "check", str(bad))
    assert code == 2


def test_force_exit_codes(tmp_path, capsys):
    out = tmp_path / "c.poset"
    run(capsys, "mk", "cohen", "--i", "1", "--depth", "1", "--out", str(out))
    code, text = run(capsys, "force", "--poset", str(out), "--cond", "-", "(mem (check #{}) (check #{#{}}))")
    assert code == 0 and "forces" in text
    code, text = run(capsys, "force", "--poset", str(out), "--cond", "-", "(mem (check #{#{}}) (check #{}))")
    assert code == 1
    code, text = run(capsys, "force", "--poset", str(out), "--cond", "-", "(ingen (check #{#{}}))")
    assert code == 1 and "undecided" in text


def test_force_unbound_symbol(tmp_path, capsys):
    out = tmp_path / "c.poset"
    run(capsys, "mk", "cohen", "--i", "1", "--depth", "1", "--out", str(out))
    code, _ = run(capsys, "force", "--poset", str(out), "--cond", "-", "(mem v gen)")
    assert code == 2


def test_truth_and_oracle(tmp_path, capsys):
    out = tmp_path / "c.poset"
    run(capsys, "mk", "cohen", "--i", "1", "--depth", "1", "--out", str(out))
    code, text = run(capsys, "truth", "--poset", str(out), "(ingen (check #{#{}}))")
    assert code == 0
    assert text.strip() == "truth 0.0.0"
    code, text = run(capsys, "oracle", "--poset", str(out), "--formula", "(ingen (check #{#{}}))")
    assert code == 0 and text.startswith("agree")


def test_generic_and_ultra(tmp_path, capsys):
    out = tmp_path / "c.poset"
    run(capsys, "mk", "cohen", "--i", "1", "--depth", "2", "--out", str(out))
    code, text = run(capsys, "generic", "--poset", str(out), "--from", "-", "--families", "d0.0,d0.1")
    assert code == 0
    members = text.split()
    assert any(m.count(".") >= 4 for m in members)
    code, text = run(capsys, "ultra", "--poset", str(out))
    assert code == 0
    assert len(text.strip().splitlines()) == 4
    code, _ = run(capsys, "generic", "--poset", str(out), "--from", "-", "--families", "nope")
    assert code == 2


def test_ramsey_commands(tmp_path, capsys):
    fam = tmp_path / "f.txt"
    fam.write_text("family N=10\n0\n2\n4\n6\n8\n")
    code, text = run(capsys, "ramsey", "gnw", "--family", str(fam), "--h", "5", "--m", "1")
    assert code == 0 and text.startswith("horn")

    coloring = tmp_path / "c.txt"
    lines = ["coloring d=1 depth=2 k=2", "ε -> 0"]
    for node in ("0", "1"):
        lines.append(f"{node} -> 1")
    for node in ("00", "01", "10", "11"):
        lines.append(f"{node} -> {node.count('1') % 2}")
    coloring.write_text("\n".join(lines) + "\n")
    code, text = run(capsys, "ramsey", "hl", "--coloring", str(coloring))
    assert code == 0 and text.startswith("level")

    clopen = tmp_path / "x.txt"
    clopen.write_text("clopen horizon=1\n0\n")
    code, text = run(capsys, "ramsey", "mathias", "--universe", "5", "--clopen", str(clopen))
    assert code == 0 and "decides" in text


@pytest.mark.parametrize(
    "argv, text",
    [
        (["gnw", "--h", "1", "--m", "1", "--family"], "family N=x\n0\n"),
        (["hl", "--coloring"], "coloring d=1 depth=1 k2\nε -> 0\n"),
        (["hl", "--coloring"], "coloring d=1 depth=1 k=2\nε -> x\n"),
        (["mathias", "--universe", "4", "--clopen"], "clopen horizon=x\n0\n"),
    ],
)
def test_malformed_ramsey_input_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = main(["ramsey", *argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: line ") and captured.err.count("\n") == 1


def test_reports_are_deterministic(tmp_path, capsys):
    out = tmp_path / "m.poset"
    run(capsys, "mk", "mathias", "--universe", "4", "--out", str(out))
    first = out.read_text()
    code, rep1 = run(capsys, "poset", "check", str(out))
    run(capsys, "mk", "mathias", "--universe", "4", "--out", str(out))
    assert out.read_text() == first
    code, rep2 = run(capsys, "poset", "check", str(out))
    assert rep1 == rep2


def test_cap_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FORCINGLAB_CAP", "5")
    code, _ = run(capsys, "mk", "cohen", "--i", "1", "--depth", "2", "--out", str(tmp_path / "x"))
    assert code == 2
    monkeypatch.setenv("FORCINGLAB_CAP", "1000")
    code, _ = run(capsys, "mk", "cohen", "--i", "1", "--depth", "2", "--out", str(tmp_path / "x"))
    assert code == 0


def test_bundled_corpus_runs(capsys):
    poset = DATA / "wheel.poset"
    names = DATA / "demo.names"
    for line in (DATA / "demo.formulas").read_text().splitlines():
        code, _ = run(capsys, "oracle", "--poset", str(poset), "--names", str(names), "--formula", line)
        assert code == 0


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_errors_exit_cleanly(monkeypatch, capsys, exc):
    def boom(args):
        raise exc("too deep")

    monkeypatch.setattr(cli, "_cmd_poset_check", boom)
    code = main(["poset", "check", str(DATA / "wheel.poset")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_parser_is_reused_and_handlers_looked_up_per_call(monkeypatch, capsys):
    wheel = str(DATA / "wheel.poset")
    assert main(["poset", "check", wheel]) == 0
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_cmd_poset_check", lambda args: 7)
    assert main(["poset", "check", wheel]) == 7
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# two incompatible conditions a and b below the top t, and a2 below a
STALE_POSET = "poset stale\ntop t\nelem a\nelem a2\nelem b\nle a2 a\nle a t\nle b t\n"
TAUTOLOGY = "(mem (check #{}) (check #{#{}}))"


def test_edited_poset_file_is_not_served_stale(tmp_path, capsys):
    poset = tmp_path / "p.poset"
    poset.write_text(STALE_POSET)
    assert run(capsys, "oracle", "--poset", str(poset), "--formula", TAUTOLOGY) == (0, "agree a a2 b t\n")
    assert run(capsys, "force", "--poset", str(poset), "--cond", "c", TAUTOLOGY)[0] == 2
    poset.write_text(STALE_POSET + "elem c\nle c b\n")
    assert run(capsys, "oracle", "--poset", str(poset), "--formula", TAUTOLOGY) == (0, "agree a a2 b c t\n")
    assert run(capsys, "force", "--poset", str(poset), "--cond", "c", TAUTOLOGY) == (0, "forces\n")


def test_edited_families_sidecar_is_not_served_stale(tmp_path, capsys):
    poset = tmp_path / "p.poset"
    poset.write_text(STALE_POSET)
    sidecar = tmp_path / "p.poset.families"
    sidecar.write_text("dense d a a2 b\n")
    assert run(capsys, "generic", "--poset", str(poset), "--from", "t", "--families", "d") == (0, "a t\n")
    sidecar.write_text("dense d a2 b\n")
    assert run(capsys, "generic", "--poset", str(poset), "--from", "t", "--families", "d") == (0, "a a2 t\n")
    sidecar.unlink()
    assert run(capsys, "generic", "--poset", str(poset), "--from", "t", "--families", "d")[0] == 2


def test_a_deleted_sidecar_means_no_families(tmp_path, capsys):
    poset = tmp_path / "p.poset"
    poset.write_text(STALE_POSET)
    sidecar = tmp_path / "p.poset.families"
    sidecar.write_text("dense d a a2 b\n")
    assert run(capsys, "oracle", "--poset", str(poset), "--formula", TAUTOLOGY) == (0, "agree a a2 b t\n")
    sidecar.unlink()
    assert run(capsys, "oracle", "--poset", str(poset), "--formula", TAUTOLOGY) == (0, "agree a a2 b t\n")
    assert main(["generic", "--poset", str(poset), "--from", "t", "--families", "d"]) == 2
    assert "unknown family 'd'" in capsys.readouterr().err


def test_an_unreadable_sidecar_exits_2(tmp_path, capsys):
    poset = tmp_path / "p.poset"
    poset.write_text(STALE_POSET)
    (tmp_path / "p.poset.families").mkdir()
    assert main(["oracle", "--poset", str(poset), "--formula", TAUTOLOGY]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p.poset.families" in err and err.count("\n") == 1


def test_edited_names_file_is_not_served_stale(tmp_path, capsys):
    poset = tmp_path / "p.poset"
    poset.write_text(STALE_POSET)
    names = tmp_path / "n.names"
    formula = "(mem x (check #{#{}}))"
    names.write_text("(def x (check #{}))\n")
    assert run(capsys, "force", "--poset", str(poset), "--names", str(names), "--cond", "t", formula) == (0, "forces\n")
    names.write_text("(def x (check #{#{}}))\n")
    assert run(capsys, "force", "--poset", str(poset), "--names", str(names), "--cond", "t", formula) == (
        1,
        "forces-negation\n",
    )


def test_lowered_cap_rejects_a_cached_file(tmp_path, capsys, monkeypatch):
    poset = tmp_path / "p.poset"
    poset.write_text(STALE_POSET)
    assert run(capsys, "oracle", "--poset", str(poset), "--formula", TAUTOLOGY)[0] == 0
    monkeypatch.setenv("FORCINGLAB_CAP", "3")
    assert run(capsys, "oracle", "--poset", str(poset), "--formula", TAUTOLOGY)[0] == 2
    monkeypatch.delenv("FORCINGLAB_CAP")
    assert run(capsys, "oracle", "--poset", str(poset), "--formula", TAUTOLOGY)[0] == 0


def test_workspace_cache_keeps_at_most_its_bound_of_posets(tmp_path, capsys, monkeypatch):
    bound = cli._WORKSPACE_CACHE_SIZE
    parsed = []

    def recording_parse_poset(text):
        P = real_parse_poset(text)
        parsed.append(weakref.ref(P))
        return P

    real_parse_poset = formats.parse_poset
    monkeypatch.setattr(formats, "parse_poset", recording_parse_poset)
    for k in range(bound + 5):
        poset = tmp_path / f"p{k}.poset"
        poset.write_text(STALE_POSET.replace("poset stale", f"poset bound{k}"))
        assert run(capsys, "oracle", "--poset", str(poset), "--formula", "(ingen (check #{}))")[0] == 0
    gc.collect()
    assert len(parsed) == bound + 5
    assert sum(ref() is not None for ref in parsed) <= bound
