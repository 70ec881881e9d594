import json
from importlib import resources

import pytest

from quiverstab import cli, reps, synthesis
from quiverstab.cli import main
from quiverstab.jsonio import InputError, parse_bundle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def d5_bundle_object():
    text = resources.files("quiverstab.data").joinpath("d5tilde.json").read_text("utf-8")
    return json.loads(text)


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "D5tilde")
        assert code == 0
        assert "Euclidean" in out
        assert "(1,1,1,1,2,2)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "K3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "Wild"
        assert payload["delta"] is None

    def test_k2(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "K2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["delta"] == [1, 1]


class TestCheck:
    def test_all_stable(self, capsys):
        code, out, _ = run(capsys, "check", "--catalog", "D5tilde",
                           "--reps", "V0,V1,V2,V3,V4,V5",
                           "--weight", "3,-1,-2,2,0,-1")
        assert code == 0
        assert out.count("stable") >= 6

    def test_unstable_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "--catalog", "D5tilde",
                           "--reps", "V0", "--weight", "1,1,0,0,0,-1")
        assert code == 1
        assert "destabilizing" in out

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "check", "--catalog", "K3", "--reps", "V",
                             "--weight", "1,-1")
        code, json_out, _ = run(capsys, "check", "--catalog", "K3", "--reps", "V",
                                "--weight", "1,-1", "--format", "json")
        payload = json.loads(json_out)
        assert payload["results"][0]["verdict"] in text_out
        assert payload["results"][0]["destabilizer"] == [1, 1]
        assert code == 1

    def test_weight_length_checked(self, capsys):
        code, _, err = run(capsys, "check", "--catalog", "K3", "--reps", "V",
                           "--weight", "1,2,3")
        assert code == 2
        assert "weight" in err

    def test_unknown_rep(self, capsys):
        code, _, err = run(capsys, "check", "--catalog", "K3", "--reps", "W",
                           "--weight", "1,-1")
        assert code == 2
        assert "unknown representation" in err


class TestSynthesize:
    def test_d5_main(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--catalog", "D5tilde",
                           "--sequence", "main")
        assert code == 0
        assert "(3,-1,-2,2,0,-1)" in out

    def test_d5_json(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--catalog", "D5tilde",
                           "--sequence", "main", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == [3, -1, -2, 2, 0, -1]
        assert all(v["verdict"] == "stable" for v in payload["verification"])

    def test_bound_mode(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--catalog", "D5tilde",
                           "--sequence", "main", "--mode", "bound")
        assert code == 0
        assert "(4,-2,-3,3,0,-1)" in out

    def test_k3_negative(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--catalog", "K3",
                           "--sequence", "main")
        assert code == 1
        assert "no common weight found" in out

    def test_a3(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--catalog", "A3",
                           "--sequence", "sincere")
        assert code == 0
        assert "weight:" in out

    def test_unknown_sequence(self, capsys):
        code, _, err = run(capsys, "synthesize", "--catalog", "A3",
                           "--sequence", "nope")
        assert code == 2
        assert "unknown sequence" in err

    def test_one_verification_per_member(self, capsys, monkeypatch):
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(args[0].dim)
                return original(*args, **kwargs)
            return wrapper

        for module in (cli, synthesis):
            monkeypatch.setattr(module, "check_stability",
                                counting(module.check_stability))
        code, out, _ = run(capsys, "synthesize", "--catalog", "D5tilde",
                           "--sequence", "main", "--format", "json")
        assert code == 0
        assert len(calls) == 6
        payload = json.loads(out)
        assert [v["verdict"] for v in payload["verification"]] == ["stable"] * 6


class TestEndcheck:
    def test_semisimple(self, capsys):
        code, out, _ = run(capsys, "endcheck", "--catalog", "D5tilde",
                           "--reps", "V0,V1^2,V2")
        assert code == 0
        assert "semisimple: yes" in out

    def test_double_simple_is_matrix_algebra(self, capsys):
        code, out, _ = run(capsys, "endcheck", "--catalog", "A3",
                           "--reps", "S1^2")
        assert code == 0
        assert "dimension 4, radical dimension 0" in out

    def test_not_semisimple(self, capsys):
        code, out, _ = run(capsys, "endcheck", "--catalog", "D5tilde",
                           "--reps", "E3,V1")
        assert code == 1
        assert "semisimple: no" in out
        assert "Hom from member 0 to member 1" in out

    def test_jordan_block(self, capsys):
        code, out, _ = run(capsys, "endcheck", "--catalog", "K2", "--reps", "J2")
        assert code == 1
        assert "radical dimension 1" in out

    def test_bad_multiplicity(self, capsys):
        code, _, err = run(capsys, "endcheck", "--catalog", "K2",
                           "--reps", "J2^0")
        assert code == 2


class TestSubrepsAndHom:
    def test_subreps(self, capsys):
        code, out, _ = run(capsys, "subreps", "--catalog", "K3", "--reps", "V",
                           "--prime", "5")
        assert code == 0
        assert "(1,1)" in out

    def test_hom(self, capsys):
        code, out, _ = run(capsys, "hom", "--catalog", "D5tilde",
                           "--reps", "V1,E1")
        assert code == 0
        assert "dim Hom(V1, E1) = 1" in out
        assert "dim Ext1(V1, E1) = 1" in out

    def test_hom_needs_two(self, capsys):
        code, _, err = run(capsys, "hom", "--catalog", "D5tilde", "--reps", "V1")
        assert code == 2


class TestInputsAndErrors:
    def test_input_file(self, capsys, tmp_path):
        bundle = {
            "name": "tiny",
            "quiver": {"vertices": ["a", "b"],
                       "arrows": [{"id": "f", "tail": "a", "head": "b"}]},
            "representations": {
                "P": {"dim": {"a": 1, "b": 1}, "matrices": {"f": [["1"]]}}
            },
            "sequences": {"solo": ["P"]},
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(bundle))
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        assert "Dynkin" in out
        code, out, _ = run(capsys, "synthesize", "--input", str(path),
                           "--sequence", "solo")
        assert code == 0

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"quiver\": [,]\n}")
        code, _, err = run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", "--input", str(tmp_path / "no.json"))
        assert code == 2

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xe9"}')
        code, _, err = run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "UTF-8" in err

    def test_swapped_tube_rejected_at_load(self, capsys, tmp_path):
        obj = d5_bundle_object()
        simples = obj["tubes"][0]["simples"]
        simples[0], simples[1] = simples[1], simples[0]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "synthesize", "--input", str(path),
                           "--sequence", "main")
        assert code == 2
        assert "translate of" in err

    def test_bad_period_is_input_error(self, capsys, tmp_path):
        obj = d5_bundle_object()
        obj["tubes"][0]["period"] = 2
        with pytest.raises(InputError, match="period"):
            parse_bundle(obj)
        path = tmp_path / "period.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "period" in err

    def test_catalog_check_skips_prime_dividing_a_denominator(self, capsys, tmp_path):
        obj = d5_bundle_object()
        obj["representations"]["E1"]["matrices"]["a1"] = [["1/5"]]
        path = tmp_path / "fifth.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        assert "Euclidean" in out
        code, out, _ = run(capsys, "synthesize", "--input", str(path),
                           "--sequence", "main", "--format", "json")
        assert code == 0
        assert json.loads(out)["weight"] == [3, -1, -2, 2, 0, -1]

    def test_catalog_check_needs_a_usable_prime(self):
        obj = d5_bundle_object()
        obj["representations"]["E1"]["matrices"]["a1"] = [["1/385"]]
        with pytest.raises(InputError, match="divides a denominator"):
            parse_bundle(obj)

    @pytest.mark.parametrize("section", ["representations", "dim"])
    def test_section_not_an_object(self, capsys, tmp_path, section):
        obj = d5_bundle_object()
        if section == "representations":
            obj["representations"] = []
        else:
            obj["representations"]["E2"]["dim"] = [0, 0, 0, 0, 1, 0]
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(sequences=["V0"]),
        lambda obj: obj.update(tubes={"period": 3}),
        lambda obj: obj.update(tubes=["E1"]),
        lambda obj: obj["quiver"].update(arrows={"id": "a1"}),
        lambda obj: obj["representations"].update(E2=[1]),
        lambda obj: obj["representations"]["E2"].update(matrices=[]),
    ], ids=["sequences", "tubes", "tube", "arrows", "representation", "matrices"])
    def test_malformed_sections_are_input_errors(self, edit):
        obj = d5_bundle_object()
        edit(obj)
        with pytest.raises(InputError, match="JSON object"):
            parse_bundle(obj)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["representations"]["E1"]["matrices"].update(a1=5),
        lambda obj: obj["representations"]["E1"]["matrices"].update(a1=[5]),
        lambda obj: obj["tubes"][0].update(simples=3),
        lambda obj: obj["sequences"].update(main=3),
        lambda obj: obj["tubes"][0].update(period=3.5),
        lambda obj: obj["tubes"][0].update(period="3"),
        lambda obj: obj["representations"]["E2"]["dim"].update({"5": True}),
    ], ids=["matrix-number", "matrix-flat", "simples", "sequence", "period-float",
            "period-string", "dim-bool"])
    def test_malformed_values_are_input_errors(self, capsys, tmp_path, edit):
        obj = d5_bundle_object()
        edit(obj)
        with pytest.raises(InputError):
            parse_bundle(obj)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "input error" in err

    def test_internal_fault_is_not_input_error(self, monkeypatch):
        original = reps.hom_space

        def duplicated(v, w):
            basis = original(v, w)
            return basis + basis[:1]

        monkeypatch.setattr(reps, "hom_space", duplicated)
        with pytest.raises(RuntimeError, match="not linearly independent"):
            main(["endcheck", "--catalog", "D5tilde", "--reps", "V0"])

    def test_nonprime_rejected(self, capsys):
        code, _, err = run(capsys, "subreps", "--catalog", "K3", "--reps", "V",
                           "--prime", "4")
        assert code == 2
        assert "not a prime" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, capsys, budget):
        code, _, err = run(capsys, "subreps", "--catalog", "K3", "--reps", "V",
                           f"--budget={budget}")
        assert code == 2
        assert "--budget" in err

    def test_bad_prime_resource_error(self, capsys, tmp_path):
        bundle = {
            "quiver": {"vertices": ["a", "b"],
                       "arrows": [{"id": "f", "tail": "a", "head": "b"}]},
            "representations": {
                "H": {"dim": {"a": 1, "b": 1}, "matrices": {"f": [["1/2"]]}}
            },
        }
        path = tmp_path / "half.json"
        path.write_text(json.dumps(bundle))
        code, _, err = run(capsys, "subreps", "--input", str(path),
                           "--reps", "H", "--prime", "2")
        assert code == 3
        assert "resource error" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "subreps", "--catalog", "D5tilde",
                           "--reps", "V0", "--budget", "3")
        assert code == 3
        assert "budget" in err
