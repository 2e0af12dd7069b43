"""The grammar checks and structure scanners against line-by-line references.

``check_tla_text`` and ``check_nuxmv_text`` look at each distinct line or
conjunct once, and the ``scan_*_structure`` functions index every
definition in one pass.  The references below are the earlier versions,
which rescan every line and search the whole text once per action.  On
the goldens, on generated models and on seeded mutations of both, each
pair must accept the same texts and raise the same ``EmitError`` message,
except that the checks also reject, after every other error, a name that
is declared or defined twice; the references do not look for that.
"""

import random
import re
from collections import Counter

import pytest

from conftest import GOLDEN, load_flow_graph

from genprog import random_program, wide_program

from flowmc.emit import (
    EmitError,
    _SMV_KEYWORDS,
    _TLA_KEYWORDS,
    check_nuxmv_text,
    check_tla_text,
    emit_nuxmv,
    emit_tla,
    scan_nuxmv_structure,
    scan_tla_structure,
)
from flowmc.flowgraph import translate
from flowmc.sts import sts_of_flow_graph

FINITE = ["stee", "minimal", "callret", "guarded", "mode", "mode_safe",
          "boolcall", "smallguard", "two_bools", "twocalls"]


# ---------------------------------------------------------------------------
# References: the line-by-line checks and per-name scanners, kept verbatim


def reference_normalize(text: str) -> str:
    lines = text.splitlines()
    index = 0
    while index < len(lines) and lines[index].startswith(("\\*", "--", "//")):
        index += 1
    return "\n".join(lines[index:]) + "\n"


def reference_check_balance(text, pairs, label):
    for open_tok, close_tok in pairs:
        if text.count(open_tok) != text.count(close_tok):
            raise EmitError(f"unbalanced {open_tok!r}/{close_tok!r} in {label} output")


def reference_check_tla_text(text: str) -> None:
    body = reference_normalize(text)
    reference_check_balance(body, [("(", ")"), ("<<", ">>"), ("{", "}")], "TLA+")
    if "next(" in body:
        raise EmitError("TLA+ output must not use next(...)")
    declared: set[str] = set(_TLA_KEYWORDS)
    for line in body.splitlines():
        module = re.match(r"^-+ MODULE (\w+) -+$", line)
        if module:
            declared.add(module.group(1))
            continue
        header = re.match(r"^(CONSTANTS|VARIABLES) (.+)$", line)
        if header:
            declared.update(n.strip() for n in header.group(2).split(","))
            continue
        definition = re.match(r"^(\w+) ==", line)
        if definition:
            declared.add(definition.group(1))
        scrubbed = re.sub(r"\\[A-Za-z]+", " ", re.sub(r'"[^"]*"', "", line))
        for ident in re.findall(r"[A-Za-z][A-Za-z0-9_]*", scrubbed):
            if ident not in declared and not ident.isdigit():
                raise EmitError(f"identifier {ident!r} used before declaration")
    for match in re.finditer(r"(\w+)'", body):
        if match.group(1) not in declared:
            raise EmitError(f"prime applied to undeclared {match.group(1)!r}")


def reference_check_nuxmv_text(text: str) -> None:
    body = reference_normalize(text)
    reference_check_balance(body, [("(", ")"), ("{", "}")], "nuXmv")
    if body.count("case") != body.count("esac"):
        raise EmitError("unbalanced case/esac in nuXmv output")
    if "'" in body:
        raise EmitError("nuXmv output must not use primes")
    declared: set[str] = set(_SMV_KEYWORDS)
    for line in body.splitlines():
        var_decl = re.match(r"^  (\w+) : (.+);$", line)
        if var_decl:
            declared.add(var_decl.group(1))
            for value in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", var_decl.group(2)):
                declared.add(value)  # enum literals
            continue
        define = re.match(r"^  (\w+) := ", line)
        if define:
            # rhs may reference the name being defined only afterwards
            for ident in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line.split(":=", 1)[1]):
                if ident not in declared and not ident.isdigit():
                    raise EmitError(f"identifier {ident!r} used before declaration")
            declared.add(define.group(1))
            continue
        for ident in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line):
            if ident not in declared and not ident.isdigit():
                raise EmitError(f"identifier {ident!r} used before declaration")
    for match in re.finditer(r"next\((\w+)\)", body):
        if match.group(1) not in declared:
            raise EmitError(f"next() applied to undeclared {match.group(1)!r}")


def reference_scan_tla_structure(text):
    text = reference_normalize(text)
    next_match = re.search(r"^Next == (.+)$", text, re.M)
    if not next_match:
        raise EmitError("no Next definition found")
    names = [n.strip() for n in next_match.group(1).split("\\/")]
    out = {}
    for name in names:
        block = re.search(rf"^{re.escape(name)} ==\n((?:  /\\ .*\n)+)", text, re.M)
        if not block:
            raise EmitError(f"no definition found for action {name!r}")
        body = block.group(1)
        source = re.search(r'node = "([^"]+)"', body)
        target = re.search(r"node' = \"([^\"]+)\"", body)
        pushed = re.search(r"stack_nodes' = <<\"([^\"]+)\">> \\o stack_nodes", body)
        if pushed:
            effect = "push"
        elif "Tail(stack_nodes)" in body:
            effect = "pop"
        else:
            effect = "none"
        out[name] = (
            source.group(1) if source else "*",
            target.group(1) if target else None,
            effect,
            pushed.group(1) if pushed else None,
        )
    return out


def reference_scan_nuxmv_structure(text):
    text = reference_normalize(text)
    trans_match = re.search(r"^TRANS\n  (.+);$", text, re.M)
    if not trans_match:
        raise EmitError("no TRANS section found")
    names = [n.strip() for n in trans_match.group(1).split("|")]
    out = {}
    for name in names:
        define = re.search(rf"^  {re.escape(name)} := (.*);$", text, re.M)
        if not define:
            raise EmitError(f"no define found for action {name!r}")
        body = define.group(1)
        source = re.search(r"(?<!next\()\bnode = (\w+)", body)
        target = re.search(r"next\(node\) = (\w+)(?! ?=)", body)
        if "next(depth) = depth + 1" in body:
            effect = "push"
            pushed_match = re.search(r"next\(st_node_0\) = \(case depth = 0 : (\w+);", body)
            pushed = pushed_match.group(1) if pushed_match else None
            target_name = target.group(1) if target else None
        elif "next(depth) = depth - 1" in body:
            effect = "pop"
            pushed = None
            target_name = None  # dynamic: restored from the stack
        else:
            effect = "none"
            pushed = None
            target_name = target.group(1) if target else None
        out[name] = (source.group(1) if source else "*", target_name, effect, pushed)
    return out


# ---------------------------------------------------------------------------
# Models and seeded mutations


def _models(sts):
    module, _ = emit_tla(sts)
    return module, emit_nuxmv(sts)


def _wide_sts(seed):
    return sts_of_flow_graph(translate(wide_program(seed, 7)), stack_capacity=3)


@pytest.fixture
def stee_models(stee):
    return _models(sts_of_flow_graph(stee))


def _outcome(fn, text):
    """The result, or the type and message of the error raised."""
    try:
        return fn(text)
    except Exception as err:  # the same error must surface
        return type(err), str(err)


_IDENT = re.compile(r"[A-Za-z_]\w*")
_INJECTED = ["'", "(", ")", "next(", "case", "esac", "<<", ">>", "{", "}", '"',
             " & ", "\\o", "1'", "_x", "==", ":="]


def mutate(text: str, rng: random.Random) -> str:
    """One or two seeded line edits: swap, delete, duplicate, rename an
    identifier (to a fresh name or one used elsewhere), inject a token,
    or cut a line short."""
    lines = text.split("\n")
    names = sorted(set(_IDENT.findall(text)))
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(lines))
        kind = rng.choice(("swap", "delete", "duplicate", "rename", "rename",
                           "inject", "inject", "cut"))
        line = lines[i]
        if kind == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], line
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), line)
        elif kind == "rename":
            spans = [m.span() for m in _IDENT.finditer(line)]
            if spans:
                start, end = rng.choice(spans)
                new = rng.choice([line[start:end] + "X", rng.choice(names)])
                lines[i] = line[:start] + new + line[end:]
        elif kind == "inject":
            at = rng.randrange(len(line) + 1)
            lines[i] = line[:at] + rng.choice(_INJECTED) + line[at:]
        else:
            lines[i] = line[: rng.randrange(len(line) + 1)]
        if not lines:
            lines = [""]
    return "\n".join(lines)


PAIRS = {
    "tla": [(check_tla_text, reference_check_tla_text),
            (scan_tla_structure, reference_scan_tla_structure)],
    "smv": [(check_nuxmv_text, reference_check_nuxmv_text),
            (scan_nuxmv_structure, reference_scan_nuxmv_structure)],
}


def _definitions(text, suffix):
    """How often each name is declared or defined, counted line by line;
    the module name and enum literals are not definitions."""
    counts = Counter()
    for line in reference_normalize(text).splitlines():
        if suffix == "tla":
            if re.match(r"^-+ MODULE (\w+) -+$", line):
                continue
            header = re.match(r"^(CONSTANTS|VARIABLES) (.+)$", line)
            if header:
                counts.update(n.strip() for n in header.group(2).split(","))
                continue
            definition = re.match(r"^(\w+) ==", line)
        else:
            definition = re.match(r"^  (\w+) : (.+);$", line) or re.match(r"^  (\w+) := ", line)
        if definition:
            counts[definition.group(1)] += 1
    return counts


def _redefinitions(text, suffix):
    """The errors a check may raise for ``text``, one per repeated name."""
    return {(EmitError, f"name {name!r} defined twice")
            for name, n in _definitions(text, suffix).items() if n > 1}


def _assert_agree(text, suffix, seed, mutants):
    """The new and the reference functions agree on ``text``, which must
    pass, and on ``mutants`` seeded mutations of it; where the reference
    check passes a mutant that repeats a definition, the new check must
    name a repeated one.  Returns how many mutants the reference check
    rejected."""
    rng = random.Random(seed)
    rejected = 0
    for index in range(mutants + 1):
        mutant = text if index == 0 else mutate(text, rng)
        outcomes = []
        for new, reference in PAIRS[suffix]:
            expected = _outcome(reference, mutant)
            got = _outcome(new, mutant)
            twice = ()
            if expected is None and new in (check_tla_text, check_nuxmv_text):
                twice = _redefinitions(mutant, suffix)
            if twice:
                assert got in twice, (new.__name__, index, mutant)
            else:
                assert got == expected, (new.__name__, index, mutant)
            outcomes.append(expected)
        if index == 0:
            assert outcomes[0] is None
        else:
            rejected += outcomes[0] is not None
    return rejected


GOLDENS = [(name, "tla") for name in FINITE] + [(name, "smv") for name in FINITE + ["unbounded"]]


@pytest.mark.parametrize("name,suffix", GOLDENS, ids=[f"{n}.{s}" for n, s in GOLDENS])
def test_checks_and_scanners_agree_on_mutated_goldens(name, suffix):
    text = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
    rejected = _assert_agree(text, suffix, seed=len(name), mutants=100)
    # the corpus exercises both outcomes
    assert 0 < rejected < 100


@pytest.mark.parametrize("seed", range(2))
def test_checks_and_scanners_agree_on_mutated_wide_models(seed):
    module, model = _models(_wide_sts(seed))
    for text, suffix in ((module, "tla"), (model, "smv")):
        rejected = _assert_agree(text, suffix, seed=seed, mutants=40)
        assert 0 < rejected < 40


# ---------------------------------------------------------------------------
# Scanners on unmutated models


def _sts_cases():
    cases = [pytest.param(lambda n=n: sts_of_flow_graph(load_flow_graph(n)), id=n)
             for n in FINITE]
    cases += [pytest.param(lambda s=s: sts_of_flow_graph(translate(random_program(s))),
                           id=f"gen{s}") for s in range(12)]
    cases += [pytest.param(lambda s=s: _wide_sts(s), id=f"wide{s}") for s in range(3)]
    return cases


@pytest.mark.parametrize("make_sts", _sts_cases())
def test_single_pass_scanners_match_reference(make_sts):
    module, model = _models(make_sts())
    scanned = scan_tla_structure(module)
    assert scanned == reference_scan_tla_structure(module)
    assert scan_nuxmv_structure(model) == reference_scan_nuxmv_structure(model)
    assert scanned == scan_nuxmv_structure(model)
    check_tla_text(module)
    check_nuxmv_text(model)


def test_unbounded_nuxmv_scan_matches_reference():
    model = emit_nuxmv(sts_of_flow_graph(load_flow_graph("unbounded")))
    assert scan_nuxmv_structure(model) == reference_scan_nuxmv_structure(model)


def test_scanners_report_a_missing_definition(stee_models):
    module, model = stee_models
    module = module.replace("m4_stutter ==\n", "m4_other ==\n", 1)
    model = model.replace("  m4_stutter := ", "  m4_other := ", 1)
    for scan, reference, text, message in (
        (scan_tla_structure, reference_scan_tla_structure, module,
         "no definition found for action 'm4_stutter'"),
        (scan_nuxmv_structure, reference_scan_nuxmv_structure, model,
         "no define found for action 'm4_stutter'"),
    ):
        assert _outcome(scan, text) == _outcome(reference, text) == (EmitError, message)


def test_scanners_read_the_first_of_two_definitions(stee_models):
    module, model = stee_models
    module = module.replace("\nNext ==", "\nm1_to_m2 ==\n  /\\ node' = \"n_m4\"\n\nNext ==", 1)
    model = model.replace("\nINIT\n", "\n  m1_to_m2 := next(node) = n_m4;\nINIT\n", 1)
    assert module.count("m1_to_m2 ==") == 2 and model.count("  m1_to_m2 := ") == 2
    scanned = scan_tla_structure(module)
    assert scanned["m1_to_m2"] == ("n_m1", "n_m2", "none", None)
    assert scanned == reference_scan_tla_structure(module)
    assert scan_nuxmv_structure(model) == reference_scan_nuxmv_structure(model) == scanned


# ---------------------------------------------------------------------------
# Named rejections


def _rejects(check, reference, text, message):
    assert _outcome(check, text) == (EmitError, message)
    assert _outcome(reference, text) == (EmitError, message)


def _define_line(model, name):
    return next(line for line in model.splitlines() if line.startswith(f"  {name} := "))


def test_nuxmv_rejects_undeclared_identifier_in_define(stee_models):
    _, model = stee_models
    line = _define_line(model, "m1_to_m2")
    broken = model.replace(line, line[:-1] + " & ghost;", 1)
    _rejects(check_nuxmv_text, reference_check_nuxmv_text, broken,
             "identifier 'ghost' used before declaration")


def test_nuxmv_rejects_define_using_a_later_name(stee_models):
    _, model = stee_models
    line = _define_line(model, "m1_to_m2")
    broken = model.replace(line, line[:-1] + " & m4_stutter;", 1)
    _rejects(check_nuxmv_text, reference_check_nuxmv_text, broken,
             "identifier 'm4_stutter' used before declaration")
    # the same conjunct after m4_stutter's own DEFINE is fine
    line = _define_line(model, "s4_return")
    check_nuxmv_text(model.replace(line, line[:-1] + " & m4_stutter;", 1))


def test_nuxmv_rejects_unbalanced_case(stee_models):
    _, model = stee_models
    broken = model.replace("esac", "", 1)
    _rejects(check_nuxmv_text, reference_check_nuxmv_text, broken,
             "unbalanced case/esac in nuXmv output")


def test_nuxmv_rejects_a_prime(stee_models):
    _, model = stee_models
    broken = model.replace("next(node) = ", "node' = ", 1)
    _rejects(check_nuxmv_text, reference_check_nuxmv_text, broken,
             "nuXmv output must not use primes")


def test_nuxmv_rejects_next_of_undeclared_name(stee_models):
    _, model = stee_models
    # an identifier check passes over "1"; only next()'s own target check sees it
    broken = model.replace("next(depth) = depth + 1", "next(1) = depth + 1", 1)
    _rejects(check_nuxmv_text, reference_check_nuxmv_text, broken,
             "next() applied to undeclared '1'")
    # the same in a VAR line, whose names are declared, not checked
    broken = model.replace("  depth : 0..10;", "  depth : 0..next(1);", 1)
    _rejects(check_nuxmv_text, reference_check_nuxmv_text, broken,
             "next() applied to undeclared '1'")


def test_tla_rejects_prime_on_undeclared_name(stee_models):
    module, _ = stee_models
    broken = module.replace("node' = ", "_node' = ", 1)
    _rejects(check_tla_text, reference_check_tla_text, broken,
             "prime applied to undeclared '_node'")


def test_unbalanced_text_is_reported_before_an_undeclared_name(stee_models):
    module, model = stee_models
    _rejects(check_tla_text, reference_check_tla_text,
             module.replace("m4_stutter ==", "m4_stutterX ==", 1) + "(\n",
             "unbalanced '('/')' in TLA+ output")
    line = _define_line(model, "m1_to_m2")
    _rejects(check_nuxmv_text, reference_check_nuxmv_text,
             model.replace(line, line[:-1] + " & ghost;", 1) + "{\n",
             "unbalanced '{'/'}' in nuXmv output")


def _accepts_only_reference(check, reference, text, message):
    assert _outcome(reference, text) is None
    assert _outcome(check, text) == (EmitError, message)


def test_nuxmv_rejects_a_second_define(stee_models):
    _, model = stee_models
    line = _define_line(model, "m1_to_m2")
    broken = model.replace("\nINIT\n", f"\n{line}\nINIT\n", 1)
    _accepts_only_reference(check_nuxmv_text, reference_check_nuxmv_text, broken,
                            "name 'm1_to_m2' defined twice")


def test_nuxmv_rejects_a_second_var_declaration(stee_models):
    _, model = stee_models
    broken = model.replace("\nDEFINE\n", "\n  depth : boolean;\nDEFINE\n", 1)
    _accepts_only_reference(check_nuxmv_text, reference_check_nuxmv_text, broken,
                            "name 'depth' defined twice")


def test_tla_rejects_a_second_definition(stee_models):
    module, _ = stee_models
    broken = module.replace("\nNext ==", "\nm1_to_m2 ==\n  /\\ node' = \"n_m4\"\n\nNext ==", 1)
    _accepts_only_reference(check_tla_text, reference_check_tla_text, broken,
                            "name 'm1_to_m2' defined twice")
    # a repeated line is caught as well as a different one
    block = module[module.index("m1_to_m2 ==\n"):module.index("\n\n", module.index("m1_to_m2 =="))]
    repeated = module.replace("\nNext ==", f"\n{block}\n\nNext ==", 1)
    _accepts_only_reference(check_tla_text, reference_check_tla_text, repeated,
                            "name 'm1_to_m2' defined twice")


def test_redefinition_is_reported_after_other_errors(stee_models):
    module, model = stee_models
    line = _define_line(model, "m1_to_m2")
    _rejects(check_nuxmv_text, reference_check_nuxmv_text,
             model.replace("\nINIT\n", f"\n{line}\nINIT\n", 1) + "(\n",
             "unbalanced '('/')' in nuXmv output")
    _rejects(check_tla_text, reference_check_tla_text,
             module.replace("\nNext ==", "\nm1_to_m2 ==\n  /\\ ghost\n\nNext ==", 1),
             "identifier 'ghost' used before declaration")
    _rejects(check_tla_text, reference_check_tla_text,
             module.replace("\nNext ==", "\nm1_to_m2 ==\n  /\\ _node' = 1\n\nNext ==", 1),
             "prime applied to undeclared '_node'")
    _rejects(check_nuxmv_text, reference_check_nuxmv_text,
             model.replace("\nINIT\n", "\n  m1_to_m2 := next(1) = depth;\nINIT\n", 1),
             "next() applied to undeclared '1'")
