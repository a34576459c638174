"""Documentation integrity tests.

Three failure modes this file pins down:

1. **Dead links** — every relative markdown link (and in-page anchor)
   in ``README.md`` and ``docs/`` must resolve.
2. **Dead citations** — every markdown file a Python file under
   ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` names must
   exist.
3. **Registry drift** — the tables in ``docs/architecture.md`` (and the
   algorithm catalogue in ``docs/tournament.md``) must list exactly what
   ``available_backends()`` / ``available_attacks()`` /
   ``available_algorithms()`` / ``available_scenarios()`` expose.
   Registries are snapshotted in a subprocess, so that an entry some
   test registers in-process cannot leak into the comparison.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
DOC_FILES = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

LINK_PATTERN = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s", "-", text)


def _anchors(path: Path) -> set:
    return {
        _slugify(line.lstrip("#"))
        for line in path.read_text().splitlines()
        if line.startswith("#")
    }


def _links(path: Path):
    text = path.read_text()
    # Strip fenced code blocks: shell snippets contain (...) that are not links.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return LINK_PATTERN.findall(text)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_markdown_links_resolve(doc):
    broken = []
    for target in _links(doc):
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        path_part, _, anchor = target.partition("#")
        resolved = (doc.parent / path_part).resolve() if path_part else doc
        if not resolved.exists():
            broken.append(f"{target}: file {resolved} does not exist")
            continue
        if anchor and resolved.suffix == ".md" and anchor not in _anchors(resolved):
            broken.append(f"{target}: no heading slugs to #{anchor} in {resolved.name}")
    assert not broken, f"broken links in {doc.name}:\n" + "\n".join(broken)


# -- cited files ---------------------------------------------------------------

CITED_MARKDOWN = re.compile(r"[\w./-]+\.md\b")
CODE_DIRS = ("src", "tests", "benchmarks", "examples")


def test_markdown_cited_in_code_exists():
    # A bare name resolves from the repo root or from docs/.
    missing = []
    for directory in CODE_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for name in sorted(set(CITED_MARKDOWN.findall(path.read_text()))):
                if not any((base / name).exists() for base in (REPO_ROOT, REPO_ROOT / "docs")):
                    missing.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert not missing, "Python files cite markdown files that do not exist:\n" + "\n".join(missing)


# -- registry drift ----------------------------------------------------------


def _registry_snapshot():
    """Backends/attacks/scenarios from a fresh interpreter (clean registries)."""
    code = (
        "import json\n"
        "from repro import available_backends, available_attacks, available_algorithms\n"
        "from repro.scenarios import available_scenarios\n"
        "print(json.dumps({'backends': sorted(available_backends()),"
        " 'attacks': sorted(available_attacks()),"
        " 'algorithms': sorted(available_algorithms()),"
        " 'scenarios': sorted(available_scenarios())}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    output = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=REPO_ROOT,
    )
    return json.loads(output.stdout)


def _table_first_names(section: str) -> set:
    """Canonical name per table row: the first backticked token of column 1."""
    names = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        match = re.search(r"`([^`]+)`", first_cell)
        if match and "." not in match.group(1):  # skip module-path tables
            names.add(match.group(1).strip('"'))
    return names


def _section(text: str, heading: str) -> str:
    start = text.index(heading)
    rest = text[start + len(heading):]
    next_heading = re.search(r"^## ", rest, flags=re.MULTILINE)
    return rest[: next_heading.start()] if next_heading else rest


@pytest.fixture(scope="module")
def registries():
    return _registry_snapshot()


@pytest.fixture(scope="module")
def architecture_text():
    return (REPO_ROOT / "docs" / "architecture.md").read_text()


def test_backend_table_matches_registry(registries, architecture_text):
    documented = _table_first_names(_section(architecture_text, "## Gossip backends"))
    assert documented == set(registries["backends"])


NUMBER_WORDS = {
    "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}


def test_attack_table_matches_registry(registries, architecture_text):
    section = _section(architecture_text, "## Attack families")
    documented = _table_first_names(section)
    assert documented == set(registries["attacks"])
    # The prose around the table must agree with it: the "currently"
    # list names every family, and an "All <n>" claim counts the rows.
    listed = re.search(r"currently (.*?):\n", section, flags=re.DOTALL).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == documented
    claims = re.findall(r"\bAll (\w+)\b", section)
    assert claims, "the attack prose states no family count"
    for word in claims:
        assert NUMBER_WORDS.get(word.lower()) == len(documented), f"'All {word}'"


def test_scenario_table_matches_registry(registries, architecture_text):
    documented = _table_first_names(_section(architecture_text, "## Scenario catalogue"))
    assert documented == set(registries["scenarios"])


def test_algorithm_catalogue_matches_registry(registries):
    tournament = (REPO_ROOT / "docs" / "tournament.md").read_text()
    documented = _table_first_names(_section(tournament, "## Algorithm catalogue"))
    assert documented == set(registries["algorithms"])


def test_architecture_algorithm_table_matches_registry(registries, architecture_text):
    documented = _table_first_names(_section(architecture_text, "## Aggregation algorithms"))
    assert documented == set(registries["algorithms"])


def test_readme_backend_table_matches_registry(registries):
    readme = (REPO_ROOT / "README.md").read_text()
    documented = _table_first_names(_section(readme, "## Choosing a backend"))
    assert documented == set(registries["backends"])
