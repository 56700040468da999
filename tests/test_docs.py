"""The README's label table and rule-id list against the classifier, and its
library sketch run."""

import ast
import re
from pathlib import Path

from hamsym import classifier

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CLASSIFIER = Path(classifier.__file__).read_text(encoding="utf-8")


def _label_constants():
    return {getattr(classifier, n) for n in classifier.__all__
            if n.isupper() and isinstance(getattr(classifier, n), str)}


def _readme_label_rows():
    """The first word of each row of the table under "Classification labels"."""
    section = README.split("## Classification labels", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)", section, flags=re.MULTILINE)


def _readme_rule_ids():
    """The rule ids listed after "tag each step with a rule id:", up to the period."""
    text = README.split("tag each step with a rule id:", 1)[1].split(".", 1)[0]
    return re.findall(r"`([\w-]+)`", text)


def _emitted_rule_ids():
    """Every string literal classifier.py passes as a `rule` argument, by
    keyword or by position, to a function or class of its own that takes one."""
    tree = ast.parse(CLASSIFIER)
    params = {}  # callable name -> its parameter names, self left out
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            params[node.name] = [a.arg for a in node.args.args]
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    params[node.name] = [a.arg for a in item.args.args][1:]
    rules = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and "rule" in params.get(node.func.id, ())):
            continue
        names = params[node.func.id]
        bound = dict(zip(names, node.args))
        bound.update((k.arg, k.value) for k in node.keywords)
        value = bound.get("rule")
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            rules.add(value.value)
    return rules


def test_label_table_has_one_row_per_label():
    rows = _readme_label_rows()
    assert sorted(rows) == sorted(_label_constants())


def test_rule_id_list_is_what_the_classifier_emits():
    listed = _readme_rule_ids()
    assert len(listed) == len(set(listed))
    emitted = _emitted_rule_ids()
    assert "noether-potential" in emitted and "function-coefficient" in emitted
    assert set(listed) == emitted


def test_library_sketch_prints_the_label_it_shows(capsys):
    # the first python block of the README runs as written, and its first
    # line of output is the label its comment shows
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    shown = re.search(r"print\(report\.label\.describe\(\)\) +# (.+)", block).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == shown == "OmegaEigenOrderN(N=2, C=4)"
